#include "video/motion.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/mathutil.h"
#include "dsp/dispatch.h"

namespace mmsoc::video {

namespace {

// Copy the w x h block of `src` whose top-left corner is (x0, y0) into
// `dst`, edge-clamping reads outside the plane (Plane::at_clamped). The
// source row is clamped once per row; the columns inside the plane are one
// memcpy and the columns left/right of it repeat the edge pixel.
void copy_clamped(const Plane& src, int x0, int y0, int w, int h,
                  std::uint8_t* dst, std::ptrdiff_t dst_stride) noexcept {
  const int pw = src.width();
  const int lo = std::clamp(-x0, 0, w);      // columns left of the plane
  const int hi = std::clamp(pw - x0, lo, w);  // first column right of it
  for (int y = 0; y < h; ++y, dst += dst_stride) {
    const std::uint8_t* row = src.row(std::clamp(y0 + y, 0, src.height() - 1));
    std::memset(dst, row[0], static_cast<std::size_t>(lo));
    if (hi > lo) {
      std::memcpy(dst + lo, row + (x0 + lo), static_cast<std::size_t>(hi - lo));
    }
    std::memset(dst + hi, row[pw - 1], static_cast<std::size_t>(w - hi));
  }
}

bool block_inside(const Plane& p, int x, int y, int side) noexcept {
  return x >= 0 && y >= 0 && x + side <= p.width() && y + side <= p.height();
}

// The 16x16 macroblock of `cur` at (bx, by) and the area of `ref` read by
// the candidates (ox + dx, oy + dy), |dx|, |dy| <= range. Each side points
// straight into its plane when it lies inside; otherwise at an edge-clamped
// copy in `scratch` (scratch_bytes(range) bytes, reused across blocks).
// Either way a candidate is one call of the dispatched SAD kernel, and the
// sum equals the edge-clamped per-pixel SAD exactly.
class SearchWindow {
 public:
  static constexpr std::size_t scratch_bytes(int range) noexcept {
    const auto side = static_cast<std::size_t>(kMacroblockSize + 2 * range);
    return kMacroblockSize * kMacroblockSize + side * side;
  }

  SearchWindow(const Plane& cur, const Plane& ref, int bx, int by, int ox,
               int oy, int range, std::uint8_t* scratch) noexcept
      : sad16_(dsp::kernels().sad16) {
    if (block_inside(cur, bx, by, kMacroblockSize)) {
      cur_ = cur.row(by) + bx;
      cur_stride_ = cur.stride();
    } else {
      copy_clamped(cur, bx, by, kMacroblockSize, kMacroblockSize, scratch,
                   kMacroblockSize);
      cur_ = scratch;
      cur_stride_ = kMacroblockSize;
    }
    const int side = kMacroblockSize + 2 * range;
    const int ax = bx + ox - range;
    const int ay = by + oy - range;
    if (block_inside(ref, ax, ay, side)) {
      ref_ = ref.row(by + oy) + (bx + ox);
      ref_stride_ = ref.stride();
    } else {
      std::uint8_t* area = scratch + kMacroblockSize * kMacroblockSize;
      copy_clamped(ref, ax, ay, side, side, area, side);
      ref_ = area + (range * side + range);
      ref_stride_ = side;
    }
  }

  [[nodiscard]] std::uint64_t sad(int dx, int dy) const noexcept {
    return sad16_(cur_, cur_stride_, ref_ + (dy * ref_stride_ + dx),
                  ref_stride_);
  }

 private:
  std::uint32_t (*sad16_)(const std::uint8_t*, std::ptrdiff_t,
                          const std::uint8_t*, std::ptrdiff_t);
  const std::uint8_t* cur_ = nullptr;
  std::ptrdiff_t cur_stride_ = 0;
  const std::uint8_t* ref_ = nullptr;  ///< the zero-displacement candidate
  std::ptrdiff_t ref_stride_ = 0;
};

struct Candidate {
  MotionVector mv;
  std::uint64_t sad;
};

Candidate eval(const SearchWindow& win, int dx, int dy,
               std::uint32_t& evals) noexcept {
  ++evals;
  return Candidate{MotionVector{dx, dy}, win.sad(dx, dy)};
}

MotionResult full_search(const SearchWindow& win, int range) noexcept {
  MotionResult best;
  best.sad = ~std::uint64_t{0};
  std::uint32_t evals = 0;
  for (int dy = -range; dy <= range; ++dy) {
    for (int dx = -range; dx <= range; ++dx) {
      const auto c = eval(win, dx, dy, evals);
      // Prefer shorter vectors on ties: cheaper to code, matches encoders.
      if (c.sad < best.sad ||
          (c.sad == best.sad &&
           std::abs(c.mv.dx) + std::abs(c.mv.dy) <
               std::abs(best.mv.dx) + std::abs(best.mv.dy))) {
        best.mv = c.mv;
        best.sad = c.sad;
      }
    }
  }
  best.evaluations = evals;
  return best;
}

MotionResult three_step_search(const SearchWindow& win, int range) noexcept {
  MotionResult best;
  std::uint32_t evals = 0;
  int cx = 0, cy = 0;
  best.sad = win.sad(0, 0);
  ++evals;
  // The initial step must satisfy step + step/2 + ... + 1 >= range or the
  // corners of the search window are unreachable; the smallest power of
  // two with 2*step - 1 >= range achieves that (a plain range/2 truncates:
  // range 5 gave steps 2,1 with maximum reach 3).
  int step = 1;
  while (2 * step - 1 < range) step *= 2;
  while (step >= 1) {
    int nx = cx, ny = cy;
    std::uint64_t nbest = best.sad;
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sx = -1; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0) continue;
        const int dx = cx + sx * step;
        const int dy = cy + sy * step;
        if (std::abs(dx) > range || std::abs(dy) > range) continue;
        const auto c = eval(win, dx, dy, evals);
        if (c.sad < nbest) {
          nbest = c.sad;
          nx = dx;
          ny = dy;
        }
      }
    }
    cx = nx;
    cy = ny;
    best.sad = nbest;
    step /= 2;
  }
  best.mv = MotionVector{cx, cy};
  best.evaluations = evals;
  return best;
}

MotionResult diamond_search(const SearchWindow& win, int range) noexcept {
  // Large diamond search pattern until the center wins, then one small
  // diamond refinement (classic DS of Zhu & Ma).
  static constexpr std::array<MotionVector, 8> kLarge = {
      MotionVector{0, -2}, MotionVector{1, -1}, MotionVector{2, 0},
      MotionVector{1, 1},  MotionVector{0, 2},  MotionVector{-1, 1},
      MotionVector{-2, 0}, MotionVector{-1, -1}};
  static constexpr std::array<MotionVector, 4> kSmall = {
      MotionVector{0, -1}, MotionVector{1, 0}, MotionVector{0, 1},
      MotionVector{-1, 0}};

  MotionResult best;
  std::uint32_t evals = 0;
  int cx = 0, cy = 0;
  best.sad = win.sad(0, 0);
  ++evals;

  // Guard against pathological loops on flat content.
  for (int iter = 0; iter < 4 * range + 8; ++iter) {
    int nx = cx, ny = cy;
    std::uint64_t nbest = best.sad;
    for (const auto& d : kLarge) {
      const int dx = cx + d.dx;
      const int dy = cy + d.dy;
      if (std::abs(dx) > range || std::abs(dy) > range) continue;
      const auto c = eval(win, dx, dy, evals);
      if (c.sad < nbest) {
        nbest = c.sad;
        nx = dx;
        ny = dy;
      }
    }
    if (nx == cx && ny == cy) break;  // center is best: refine
    cx = nx;
    cy = ny;
    best.sad = nbest;
  }
  // Small-diamond refinement: argmin over the four fixed neighbours of the
  // converged center. The center must not move mid-loop, or later
  // candidates are measured around a drifted point.
  {
    int nx = cx, ny = cy;
    std::uint64_t nbest = best.sad;
    for (const auto& d : kSmall) {
      const int dx = cx + d.dx;
      const int dy = cy + d.dy;
      if (std::abs(dx) > range || std::abs(dy) > range) continue;
      const auto c = eval(win, dx, dy, evals);
      if (c.sad < nbest) {
        nbest = c.sad;
        nx = dx;
        ny = dy;
      }
    }
    cx = nx;
    cy = ny;
    best.sad = nbest;
  }
  best.mv = MotionVector{cx, cy};
  best.evaluations = evals;
  return best;
}

MotionResult search(const SearchWindow& win, int range,
                    SearchAlgorithm algo) noexcept {
  switch (algo) {
    case SearchAlgorithm::kFullSearch:
      return full_search(win, range);
    case SearchAlgorithm::kThreeStep:
      return three_step_search(win, range);
    case SearchAlgorithm::kDiamond:
      return diamond_search(win, range);
    case SearchAlgorithm::kNone:
      break;
  }
  MotionResult r;
  r.sad = win.sad(0, 0);
  r.evaluations = 1;
  return r;
}

// Copy each block of `field` (`size` pixels square) from `ref` into
// `out`, displaced by its vector divided by `scale` and rounded toward
// zero. `out` takes ref's size; pixels no block covers are 0.
void predict(const Plane& ref, const MotionField& field, int size, int scale,
             Plane& out) {
  if (out.width() != ref.width() || out.height() != ref.height()) {
    out = Plane(ref.width(), ref.height());
  } else if (field.blocks_x * size < out.width() ||
             field.blocks_y * size < out.height()) {
    out.fill(0);
  }
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const auto& mv =
          field.blocks[static_cast<std::size_t>(by) * field.blocks_x + bx].mv;
      const int ox = bx * size;
      const int oy = by * size;
      const int h = std::min(size, out.height() - oy);
      const int w = std::min(size, out.width() - ox);
      if (w <= 0 || h <= 0) continue;
      copy_clamped(ref, ox + mv.dx / scale, oy + mv.dy / scale, w, h,
                   out.row(oy) + ox, out.stride());
    }
  }
}

}  // namespace

std::uint64_t sad16(const Plane& cur, const Plane& ref, int bx, int by, int dx,
                    int dy) noexcept {
  std::array<std::uint8_t, SearchWindow::scratch_bytes(0)> scratch{};
  return SearchWindow(cur, ref, bx, by, dx, dy, 0, scratch.data()).sad(0, 0);
}

MotionResult estimate_block(const Plane& cur, const Plane& ref, int bx, int by,
                            int range, SearchAlgorithm algo) {
  const int area = std::max(range, 0);
  std::vector<std::uint8_t> scratch(SearchWindow::scratch_bytes(area));
  return search(SearchWindow(cur, ref, bx, by, 0, 0, area, scratch.data()),
                range, algo);
}

std::uint64_t MotionField::total_sad() const noexcept {
  std::uint64_t s = 0;
  for (const auto& b : blocks) s += b.sad;
  return s;
}

std::uint64_t MotionField::total_evaluations() const noexcept {
  std::uint64_t s = 0;
  for (const auto& b : blocks) s += b.evaluations;
  return s;
}

void estimate_frame(const Plane& cur, const Plane& ref, int range,
                    SearchAlgorithm algo, MotionField& field,
                    std::vector<std::uint8_t>& scratch) {
  // Round up so partial edge macroblocks are estimated too (their SADs
  // edge-clamp); truncating silently dropped the right/bottom strips of
  // non-multiple-of-16 frames.
  field.blocks_x = static_cast<int>(
      common::ceil_div(cur.width(), kMacroblockSize));
  field.blocks_y = static_cast<int>(
      common::ceil_div(cur.height(), kMacroblockSize));
  field.blocks.resize(static_cast<std::size_t>(field.blocks_x) *
                      field.blocks_y);
  const int area = std::max(range, 0);
  scratch.resize(SearchWindow::scratch_bytes(area));
  auto* out = field.blocks.data();
  for (int by = 0; by < field.blocks_y; ++by) {
    for (int bx = 0; bx < field.blocks_x; ++bx) {
      const SearchWindow win(cur, ref, bx * kMacroblockSize,
                             by * kMacroblockSize, 0, 0, area, scratch.data());
      *out++ = search(win, range, algo);
    }
  }
}

MotionField estimate_frame(const Plane& cur, const Plane& ref, int range,
                           SearchAlgorithm algo) {
  MotionField field;
  std::vector<std::uint8_t> scratch;
  estimate_frame(cur, ref, range, algo, field, scratch);
  return field;
}

void compensate(const Plane& ref, const MotionField& field, Plane& out) {
  predict(ref, field, kMacroblockSize, 1, out);
}

Plane compensate(const Plane& ref, const MotionField& field) {
  Plane out;
  compensate(ref, field, out);
  return out;
}

Plane compensate_chroma(const Plane& ref, const MotionField& field) {
  // 4:2:0: half-size blocks, luma vectors halved toward zero.
  Plane out;
  predict(ref, field, kMacroblockSize / 2, 2, out);
  return out;
}

}  // namespace mmsoc::video
