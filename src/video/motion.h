// Motion estimation and compensation — the "MOTION ESTIMATOR" and "MOTION
// COMPENSATED PREDICTOR" boxes of Fig. 1.
//
// "Motion estimation compares part of one frame to a reference frame and
// determines what motion would cause the selected part to appear in the
// reference frame. Motion compensation at the receiver then applies that
// motion vector to reconstruct the frame." (paper, §3)
//
// Three search strategies are provided because ME dominates encoder cost
// and is the main symmetric/asymmetric lever (§2): exhaustive full search,
// the classic three-step search, and diamond search. All minimize SAD over
// 16x16 macroblocks and report the number of SAD evaluations so benches
// can chart the cost/quality trade-off.
//
// Frame borders: reads outside a plane repeat its edge pixel
// (Plane::at_clamped). The search handles this once per macroblock, not
// per candidate: when the block and its +/-range reference area lie inside
// the planes the SAD kernel reads them in place, otherwise the area is
// copied edge-clamped into a scratch buffer reused across blocks. Every
// candidate is then one call of the dispatched dsp::kernels().sad16, so
// border blocks cost the same as interior ones. Compensation clamps each
// source row once and copies the inside columns of a block row with
// memcpy. Cost per CIF luma frame (scene_high_motion, three-step search,
// range 8, AVX2 dispatch, one core of a 4-vCPU Xeon VM, best of 200
// calls): estimate_frame ~0.14 ms and compensate ~0.07 ms.
//
// Both have output-parameter forms that reuse the caller's field, search
// scratch and prediction plane; the value-returning forms wrap them. A
// caller that keeps those across frames, as the Fig. 1 stages do,
// allocates nothing per frame, and never touches fresh pages for a
// 100 KB plane.
#pragma once

#include <cstdint>
#include <vector>

#include "video/frame.h"

namespace mmsoc::video {

inline constexpr int kMacroblockSize = 16;

/// A motion vector in integer luma pixels.
struct MotionVector {
  int dx = 0;
  int dy = 0;
  bool operator==(const MotionVector&) const = default;
};

enum class SearchAlgorithm { kFullSearch, kThreeStep, kDiamond, kNone };

/// Result of estimating one macroblock.
struct MotionResult {
  MotionVector mv;
  std::uint64_t sad = 0;        ///< SAD at the chosen vector
  std::uint32_t evaluations = 0; ///< number of candidate SADs computed
};

/// Sum of absolute differences between the 16x16 block at (bx, by) in
/// `cur` and the block at (bx+dx, by+dy) in `ref` (edge-clamped).
[[nodiscard]] std::uint64_t sad16(const Plane& cur, const Plane& ref, int bx,
                                  int by, int dx, int dy) noexcept;

/// Estimate the motion of the macroblock whose top-left luma corner is
/// (bx, by); search range is +/-`range` pixels in each axis.
[[nodiscard]] MotionResult estimate_block(const Plane& cur, const Plane& ref,
                                          int bx, int by, int range,
                                          SearchAlgorithm algo);

/// Motion field for a whole frame (one vector per macroblock, raster order).
struct MotionField {
  int blocks_x = 0;
  int blocks_y = 0;
  std::vector<MotionResult> blocks;
  [[nodiscard]] std::uint64_t total_sad() const noexcept;
  [[nodiscard]] std::uint64_t total_evaluations() const noexcept;
};

/// Estimate motion for every macroblock of `cur` against `ref` into
/// `field`. `field` and `scratch` (the edge-clamped search windows) may
/// hold anything from an earlier call, at any size; their storage is
/// reused, so a caller that keeps both allocates only on the first call.
void estimate_frame(const Plane& cur, const Plane& ref, int range,
                    SearchAlgorithm algo, MotionField& field,
                    std::vector<std::uint8_t>& scratch);

/// Estimate motion for every macroblock of `cur` against `ref`.
[[nodiscard]] MotionField estimate_frame(const Plane& cur, const Plane& ref,
                                         int range, SearchAlgorithm algo);

/// Motion-compensated prediction into `out`: the predicted luma plane
/// built from `ref` and the motion field. `out` may hold an earlier
/// prediction; it is resized to ref's size only when that differs.
void compensate(const Plane& ref, const MotionField& field, Plane& out);

/// Motion-compensated prediction: build the predicted luma plane from
/// `ref` and the motion field. Chroma planes use the halved vectors.
[[nodiscard]] Plane compensate(const Plane& ref, const MotionField& field);

/// Chroma compensation with luma vectors halved (4:2:0).
[[nodiscard]] Plane compensate_chroma(const Plane& ref,
                                      const MotionField& field);

}  // namespace mmsoc::video
