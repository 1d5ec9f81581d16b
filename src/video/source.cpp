#include "video/source.h"

#include <atomic>
#include <cmath>

#include "common/mathutil.h"
#include "dsp/dispatch.h"

namespace mmsoc::video {
namespace {

// Hash-based value noise: deterministic pseudo-random value per lattice
// point, smoothstep-interpolated between points. Two luma octaves give the
// texture both bulk structure (for ME to latch onto) and fine detail (for
// the DCT to code); one slow octave each drives Cb and Cr.
double lattice_value(std::uint64_t seed, int xi, int yi) noexcept {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(xi)) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(yi)) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

double smoothstep(double f) noexcept { return f * f * (3.0 - 2.0 * f); }

// One noise octave sampled row by row on a panned grid of `n` columns at
// x = step * i + ox. The pan is a pure translation, so each column's
// lattice cell and weight are the same on every row and are computed
// once. Lattice values are hashed once per lattice row and interpolated
// horizontally into the two rows that bracket the current pixel row; a
// sample is then one vertical lerp. The arithmetic per sample is exactly
// lerp(lerp(v00, v10, sx), lerp(v01, v11, sx), sy), so the output is
// bit-identical to evaluating every pixel from scratch.
class NoiseOctave {
 public:
  NoiseOctave() = default;
  NoiseOctave(std::uint64_t seed, double cell, int n, double step, double ox) {
    reset(seed, cell, n, step, ox);
  }

  /// Re-targets the octave at a new grid, reusing its row storage.
  void reset(std::uint64_t seed, double cell, int n, double step, double ox) {
    seed_ = seed;
    cell_ = cell;
    const auto count = static_cast<std::size_t>(n);
    col_.resize(count);
    sx_.resize(count);
    top_.resize(count);
    bottom_.resize(count);
    for (int i = 0; i < n; ++i) {
      const double gx = (step * i + ox) / cell;
      const int x0 = static_cast<int>(std::floor(gx));
      if (i == 0) first_x0_ = x0;
      col_[i] = x0 - first_x0_;
      sx_[i] = smoothstep(gx - x0);
    }
    lattice_.resize(n > 0 ? col_.back() + 2 : 0);
    have_rows_ = false;
  }

  /// Moves to the pixel row at world position wy. Visiting rows in
  /// increasing wy hashes each lattice row once.
  void seek(double wy) {
    const double gy = wy / cell_;
    const int y0 = static_cast<int>(std::floor(gy));
    sy_ = smoothstep(gy - y0);
    if (have_rows_ && y0 == y0_) return;
    if (have_rows_ && y0 == y0_ + 1) {
      top_.swap(bottom_);
    } else {
      interpolate_row(y0, top_);
    }
    interpolate_row(y0 + 1, bottom_);
    y0_ = y0;
    have_rows_ = true;
  }

  /// Noise value in [0, 1) at column i of the current row.
  [[nodiscard]] double at(int i) const noexcept {
    return common::lerp(top_[i], bottom_[i], sy_);
  }

 private:
  void interpolate_row(int yi, std::vector<double>& out) {
    for (std::size_t c = 0; c < lattice_.size(); ++c)
      lattice_[c] = lattice_value(seed_, first_x0_ + static_cast<int>(c), yi);
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = common::lerp(lattice_[col_[i]], lattice_[col_[i] + 1], sx_[i]);
  }

  std::uint64_t seed_ = 0;
  double cell_ = 1.0;
  int first_x0_ = 0;
  std::vector<int> col_;        // lattice cell of each column, from first_x0_
  std::vector<double> sx_;      // horizontal smoothstep weight per column
  std::vector<double> lattice_; // one lattice row, from first_x0_
  std::vector<double> top_;     // lattice row y0, interpolated per column
  std::vector<double> bottom_;  // lattice row y0 + 1, interpolated per column
  double sy_ = 0.0;
  int y0_ = 0;
  bool have_rows_ = false;
};

// A moving rectangle placed at one frame. Objects move independently of
// the background pan.
struct PlacedObject {
  double left, top;
  int w, h;
  double luma_delta;  // brightness offset of the object
};

// Draws the scene's object layout and places each object at frame_index.
void place_objects(const SceneParams& p, int width, int height,
                   int frame_index, std::vector<PlacedObject>& out) {
  common::Rng rng(p.seed * 0x5851F42D4C957F2Dull + 7);
  out.clear();
  for (int i = 0; i < p.num_objects; ++i) {
    const int w = static_cast<int>(rng.next_in(width / 16, width / 6));
    const int h = static_cast<int>(rng.next_in(height / 16, height / 6));
    const double x0 = rng.next_double_in(0, width);
    const double y0 = rng.next_double_in(0, height);
    const double vx = rng.next_double_in(-2.0, 2.0) * (1.0 + std::abs(p.pan_x));
    const double vy = rng.next_double_in(-1.5, 1.5) * (1.0 + std::abs(p.pan_y));
    const double luma_delta = rng.next_double_in(-70.0, 70.0);
    const double px = std::fmod(x0 + vx * frame_index, static_cast<double>(width));
    const double py = std::fmod(y0 + vy * frame_index, static_cast<double>(height));
    out.push_back({px < 0 ? px + width : px, py < 0 ? py + height : py, w, h,
                   luma_delta});
  }
}

std::atomic<std::uint64_t> g_noise_fallbacks{0};

}  // namespace

SceneParams scene_low_motion(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 0.5;
  p.pan_y = 0.0;
  p.detail = 0.4;
  p.num_objects = 1;
  p.seed = seed;
  return p;
}

SceneParams scene_high_motion(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 6.0;
  p.pan_y = 2.5;
  p.detail = 0.5;
  p.num_objects = 4;
  p.seed = seed;
  return p;
}

SceneParams scene_high_detail(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 1.0;
  p.detail = 1.0;
  p.num_objects = 3;
  p.seed = seed;
  return p;
}

SceneParams scene_flat(std::uint64_t seed) {
  SceneParams p;
  p.pan_x = 0.0;
  p.detail = 0.05;
  p.num_objects = 0;
  p.noise_sigma = 0.3;
  p.seed = seed;
  return p;
}

struct LumaScratch::State {
  NoiseOctave coarse, fine;
  std::vector<PlacedObject> objects;
  std::vector<double> base;     // one row of pixel values before noise
  std::vector<double> u, v, s;  // one row of accepted polar pairs
};

LumaScratch::LumaScratch() : state_(std::make_unique<State>()) {}
LumaScratch::~LumaScratch() = default;

void SyntheticVideo::render_luma(int width, int height, const SceneParams& scene,
                                 int frame_index, std::uint8_t* dst,
                                 std::ptrdiff_t stride, LumaScratch& scratch) {
  if (width <= 0 || height <= 0) return;
  LumaScratch::State& st = *scratch.state_;
  const double ox = scene.pan_x * frame_index;
  const double oy = scene.pan_y * frame_index;
  common::Rng noise_rng(scene.seed ^ (0xABCDull + static_cast<std::uint64_t>(frame_index) * 0x10001ull));
  place_objects(scene, width, height, frame_index, st.objects);
  st.coarse.reset(scene.seed, 24.0, width, 1.0, ox);
  st.fine.reset(scene.seed + 1, 5.0, width, 1.0, ox);
  const auto n = static_cast<std::size_t>(width);
  st.base.resize(n);
  st.u.resize((n + 1) / 2);
  st.v.resize((n + 1) / 2);
  st.s.resize((n + 1) / 2);
  double* base = st.base.data();
  double* u = st.u.data();
  double* v = st.v.data();
  double* s = st.s.data();
  const double sigma = scene.noise_sigma;
  const dsp::KernelTable& fast = dsp::kernels();
  const dsp::KernelTable& exact = *dsp::kernel_table(dsp::SimdLevel::kScalar);

  // Two noise octaves panned by (ox, oy), plus objects, plus noise. Each
  // row keeps every pixel's operations in the per-pixel order: base
  // value, object deltas in object order, then one Gaussian deviate per
  // pixel in row-major order. The deviates come in polar pairs from one
  // stream, exactly as next_gaussian would hand them out; at an odd width
  // one pair straddles two rows (its u ends a row, its v starts the next)
  // and takes the scalar kernel, one pixel at a time.
  double pending[3];  // (u, v, s) of a pair whose v starts the next row
  bool have_pending = false;
  std::uint64_t fallbacks = 0;
  for (int y = 0; y < height; ++y) {
    st.coarse.seek(y + oy);
    st.fine.seek(y + oy);
    for (int x = 0; x < width; ++x) {
      base[x] = scene.brightness + scene.detail * (90.0 * (st.coarse.at(x) - 0.5) +
                                                   40.0 * (st.fine.at(x) - 0.5));
    }
    for (const auto& o : st.objects) {
      const double dy = y - o.top;
      if (!(dy >= 0 && dy < o.h)) continue;
      for (int x = 0; x < width; ++x) {
        const double dx = x - o.left;
        if (dx >= 0 && dx < o.w) base[x] += o.luma_delta;
      }
    }
    std::uint8_t* row = dst + y * stride;
    std::size_t x0 = 0;
    std::uint8_t two[2];
    if (have_pending) {
      const double b[2] = {base[0], base[0]};
      exact.sensor_noise_u8(&pending[0], &pending[1], &pending[2], 1, b, sigma, two);
      row[0] = two[1];
      x0 = 1;
      have_pending = false;
    }
    const std::size_t rest = n - x0;
    const std::size_t whole = rest / 2;
    noise_rng.draw_polar(u, v, s, (rest + 1) / 2);
    fallbacks += fast.sensor_noise_u8(u, v, s, whole, base + x0, sigma, row + x0);
    if (rest % 2 != 0) {
      const double b[2] = {base[n - 1], base[n - 1]};
      exact.sensor_noise_u8(&u[whole], &v[whole], &s[whole], 1, b, sigma, two);
      row[n - 1] = two[0];
      pending[0] = u[whole];
      pending[1] = v[whole];
      pending[2] = s[whole];
      have_pending = true;
    }
  }
  if (fallbacks != 0) g_noise_fallbacks.fetch_add(fallbacks, std::memory_order_relaxed);
}

std::uint64_t SyntheticVideo::noise_fallbacks() noexcept {
  return g_noise_fallbacks.load(std::memory_order_relaxed);
}

Frame SyntheticVideo::render(int width, int height, const SceneParams& scene,
                             int frame_index) {
  Frame f(width, height);
  LumaScratch scratch;
  render_luma(width, height, scene, frame_index, f.y().row(0), f.y().stride(),
              scratch);

  // Chroma at half resolution: slow noise field scaled by saturation.
  const double ox = scene.pan_x * frame_index;
  const double oy = scene.pan_y * frame_index;
  const int cw = width / 2, ch = height / 2;
  NoiseOctave cb_noise(scene.seed + 2, 40.0, cw, 2.0, ox);
  NoiseOctave cr_noise(scene.seed + 3, 40.0, cw, 2.0, ox);
  for (int y = 0; y < ch; ++y) {
    cb_noise.seek(2.0 * y + oy);
    cr_noise.seek(2.0 * y + oy);
    std::uint8_t* cb = f.cb().row(y);
    std::uint8_t* cr = f.cr().row(y);
    for (int x = 0; x < cw; ++x) {
      const double ncb = cb_noise.at(x) - 0.5;
      const double ncr = cr_noise.at(x) - 0.5;
      cb[x] = common::clamp_u8(static_cast<int>(128.0 + 2.0 * scene.saturation * ncb + 0.5));
      cr[x] = common::clamp_u8(static_cast<int>(128.0 + 2.0 * scene.saturation * ncr + 0.5));
    }
  }
  return f;
}

SyntheticVideo::SyntheticVideo(int width, int height,
                               std::vector<SceneParams> scenes,
                               int black_separator_frames)
    : width_(width), height_(height), scenes_(std::move(scenes)),
      separator_(black_separator_frames) {
  int at = 0;
  for (std::size_t i = 0; i < scenes_.size(); ++i) {
    if (i > 0) at += separator_;
    scene_starts_.push_back(at);
    at += scenes_[i].frames;
  }
}

int SyntheticVideo::total_frames() const noexcept {
  int total = 0;
  for (const auto& s : scenes_) total += s.frames;
  if (!scenes_.empty())
    total += separator_ * static_cast<int>(scenes_.size() - 1);
  return total;
}

std::optional<Frame> SyntheticVideo::next() {
  if (scene_idx_ >= scenes_.size()) return std::nullopt;
  if (separator_left_ > 0) {
    --separator_left_;
    return Frame::black(width_, height_);
  }
  const auto& scene = scenes_[scene_idx_];
  Frame f = render(width_, height_, scene, frame_in_scene_);
  if (++frame_in_scene_ >= scene.frames) {
    frame_in_scene_ = 0;
    ++scene_idx_;
    if (scene_idx_ < scenes_.size()) separator_left_ = separator_;
  }
  return f;
}

}  // namespace mmsoc::video
