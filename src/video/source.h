// Deterministic synthetic video generator.
//
// Substitute for real camera/broadcast content (see DESIGN.md §3): scenes
// are panned multi-octave value-noise textures with moving objects, which
// gives the motion estimator genuine translational motion to find, the DCT
// controllable spatial detail, and the content-analysis experiments exact
// ground truth (scene boundaries, black separators, per-segment
// saturation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "video/frame.h"

namespace mmsoc::video {

/// Parameters of one synthetic scene.
struct SceneParams {
  int frames = 30;                   ///< scene length in frames
  double pan_x = 1.0;                ///< global pan, px/frame (luma)
  double pan_y = 0.0;
  double detail = 0.5;               ///< texture amplitude 0..1
  double brightness = 128.0;         ///< mean luma
  double saturation = 30.0;          ///< chroma amplitude (0 = B&W content)
  int num_objects = 2;               ///< independently moving rectangles
  double noise_sigma = 1.0;          ///< per-pixel sensor noise
  std::uint64_t seed = 1;            ///< texture/object layout seed
};

/// Pre-canned scene kinds used across tests and benches.
SceneParams scene_low_motion(std::uint64_t seed);
SceneParams scene_high_motion(std::uint64_t seed);
SceneParams scene_high_detail(std::uint64_t seed);
SceneParams scene_flat(std::uint64_t seed);

/// Reusable working memory of SyntheticVideo::render_luma: the noise
/// octaves' rows, the object list and the row buffers. A caller that keeps
/// one across frames of one width renders without allocating once the
/// buffers have reached their size.
class LumaScratch {
 public:
  LumaScratch();
  ~LumaScratch();

 private:
  friend class SyntheticVideo;
  struct State;
  std::unique_ptr<State> state_;
};

/// Streams frames of a scripted sequence of scenes, optionally separated
/// by runs of black frames (the program/commercial separator of §5).
///
/// There is one luma renderer, render_luma(); render() calls it for Y and
/// adds the chroma planes. It builds each frame row by row: the pan is a
/// pure translation, so lattice cells and interpolation weights are
/// computed once per column and lattice hashes once per lattice row. Its
/// output is bit-stable: every sample is the same floating-point
/// arithmetic, in the same order, as evaluating each pixel from scratch,
/// and tests/video_test.cpp pins the bytes with golden CRCs over all scene
/// kinds, six sizes (odd widths among them), both pan signs and every
/// compiled SIMD level. The per-pixel Gaussian sensor noise goes through
/// dsp's sensor_noise_u8 kernel, whose AVX2 variant certifies the byte of
/// every pair computed with a vector log against scalar log. On one core
/// of a 4-vCPU Xeon VM (Release build) a 352x288 frame, all three planes,
/// costs about 0.9 ms (1.8 ms before the certified kernel). The luma plane
/// is ~0.35 ms of polar draws, ~0.25 ms of certified noise (0.57 ms with
/// the scalar kernel) and ~0.3 ms of noise octaves and objects.
class SyntheticVideo {
 public:
  SyntheticVideo(int width, int height, std::vector<SceneParams> scenes,
                 int black_separator_frames = 0);

  /// Next frame, or nullopt when the script is exhausted.
  std::optional<Frame> next();

  /// Total frames the script will produce.
  [[nodiscard]] int total_frames() const noexcept;

  /// Frame index of the start of each scene (after any separator),
  /// for ground-truth checks in the analysis experiments.
  [[nodiscard]] const std::vector<int>& scene_starts() const noexcept {
    return scene_starts_;
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  /// Render one frame of a scene directly (stateless utility).
  static Frame render(int width, int height, const SceneParams& scene,
                      int frame_index);

  /// Render only the luma plane of one frame into dst (rows `stride`
  /// bytes apart): the same bytes as render(...).y().
  static void render_luma(int width, int height, const SceneParams& scene,
                          int frame_index, std::uint8_t* dst,
                          std::ptrdiff_t stride, LumaScratch& scratch);

  /// Process-wide count of sensor-noise pairs whose vector-log bytes could
  /// not be certified and were recomputed with scalar log.
  [[nodiscard]] static std::uint64_t noise_fallbacks() noexcept;

 private:
  int width_;
  int height_;
  std::vector<SceneParams> scenes_;
  int separator_;
  std::vector<int> scene_starts_;
  std::size_t scene_idx_ = 0;
  int frame_in_scene_ = 0;
  int separator_left_ = 0;
};

}  // namespace mmsoc::video
