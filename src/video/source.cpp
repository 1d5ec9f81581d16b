#include "video/source.h"

#include <cmath>

#include "common/mathutil.h"

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
  NoiseOctave(std::uint64_t seed, double cell, int n, double step, double ox)
      : seed_(seed), cell_(cell), col_(n), sx_(n), top_(n), bottom_(n) {
    for (int i = 0; i < n; ++i) {
      const double gx = (step * i + ox) / cell;
      const int x0 = static_cast<int>(std::floor(gx));
      if (i == 0) first_x0_ = x0;
      col_[i] = x0 - first_x0_;
      sx_[i] = smoothstep(gx - x0);
    }
    lattice_.resize(n > 0 ? col_.back() + 2 : 0);
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

  std::uint64_t seed_;
  double cell_;
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

struct ObjectSpec {
  double x0, y0;      // initial position
  double vx, vy;      // velocity px/frame
  int w, h;           // size
  double luma_delta;  // brightness offset of the object
};

std::vector<ObjectSpec> make_objects(const SceneParams& p, int width,
                                     int height) {
  common::Rng rng(p.seed * 0x5851F42D4C957F2Dull + 7);
  std::vector<ObjectSpec> objs;
  objs.reserve(static_cast<std::size_t>(p.num_objects));
  for (int i = 0; i < p.num_objects; ++i) {
    ObjectSpec o;
    o.w = static_cast<int>(rng.next_in(width / 16, width / 6));
    o.h = static_cast<int>(rng.next_in(height / 16, height / 6));
    o.x0 = rng.next_double_in(0, width);
    o.y0 = rng.next_double_in(0, height);
    o.vx = rng.next_double_in(-2.0, 2.0) * (1.0 + std::abs(p.pan_x));
    o.vy = rng.next_double_in(-1.5, 1.5) * (1.0 + std::abs(p.pan_y));
    o.luma_delta = rng.next_double_in(-70.0, 70.0);
    objs.push_back(o);
  }
  return objs;
}

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

Frame SyntheticVideo::render(int width, int height, const SceneParams& scene,
                             int frame_index) {
  Frame f(width, height);
  const double ox = scene.pan_x * frame_index;
  const double oy = scene.pan_y * frame_index;
  common::Rng noise_rng(scene.seed ^ (0xABCDull + static_cast<std::uint64_t>(frame_index) * 0x10001ull));

  // Objects move independently of the background pan; place them once.
  struct Placed {
    double left, top;
    int w, h;
    double luma_delta;
  };
  std::vector<Placed> objects;
  for (const auto& o : make_objects(scene, width, height)) {
    const double px = std::fmod(o.x0 + o.vx * frame_index, static_cast<double>(width));
    const double py = std::fmod(o.y0 + o.vy * frame_index, static_cast<double>(height));
    objects.push_back({px < 0 ? px + width : px, py < 0 ? py + height : py,
                       o.w, o.h, o.luma_delta});
  }

  // Luma: two noise octaves panned by (ox, oy), plus objects, plus noise.
  // Each row is built in passes that keep every pixel's operations in the
  // per-pixel order: base value, object deltas in object order, then one
  // Gaussian draw per pixel in row-major order (one fill_gaussian per row
  // draws exactly the values of per-pixel next_gaussian calls).
  NoiseOctave coarse(scene.seed, 24.0, width, 1.0, ox);
  NoiseOctave fine(scene.seed + 1, 5.0, width, 1.0, ox);
  std::vector<double> v(static_cast<std::size_t>(width));
  std::vector<double> gauss(static_cast<std::size_t>(width));
  for (int y = 0; y < height; ++y) {
    coarse.seek(y + oy);
    fine.seek(y + oy);
    for (int x = 0; x < width; ++x) {
      v[x] = scene.brightness +
             scene.detail * (90.0 * (coarse.at(x) - 0.5) + 40.0 * (fine.at(x) - 0.5));
    }
    for (const auto& o : objects) {
      const double dy = y - o.top;
      if (!(dy >= 0 && dy < o.h)) continue;
      for (int x = 0; x < width; ++x) {
        const double dx = x - o.left;
        if (dx >= 0 && dx < o.w) v[x] += o.luma_delta;
      }
    }
    noise_rng.fill_gaussian(gauss.data(), gauss.size());
    std::uint8_t* row = f.y().row(y);
    for (int x = 0; x < width; ++x) {
      const double s = v[x] + scene.noise_sigma * gauss[x];
      row[x] = common::clamp_u8(static_cast<int>(s + 0.5));
    }
  }

  // Chroma at half resolution: slow noise field scaled by saturation.
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
