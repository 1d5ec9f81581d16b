// Tests for the video subsystem: frames, synthetic source, quantizer,
// motion estimation/compensation, VLC, the full Fig. 1 codec, metrics,
// and the transcoding study.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "dsp/dispatch.h"
#include "entropy/rle.h"
#include "video/codec.h"
#include "video/frame.h"
#include "video/metrics.h"
#include "video/motion.h"
#include "video/quantizer.h"
#include "video/source.h"
#include "video/transcode.h"
#include "video/vlc.h"
#include "video/wavelet_codec.h"

namespace mmsoc::video {
namespace {

using common::Rng;

// -------------------------------------------------------------------- frame

TEST(Plane, ClampedSampling) {
  Plane p(4, 4);
  p.set(0, 0, 10);
  p.set(3, 3, 99);
  EXPECT_EQ(p.at_clamped(-5, -5), 10);
  EXPECT_EQ(p.at_clamped(100, 100), 99);
  EXPECT_EQ(p.at_clamped(0, 100), p.at(0, 3));
}

TEST(Plane, RowsAreCacheLineAlignedAndPackedCopiesRoundTrip) {
  Plane p(66, 5, 7);
  EXPECT_GE(p.stride(), 66);
  EXPECT_EQ(p.stride() % 64, 0);
  Rng rng(5);
  for (int y = 0; y < p.height(); ++y) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p.row(y)) % 64, 0u);
    for (int x = 0; x < p.width(); ++x)
      p.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  }
  std::vector<std::uint8_t> packed(66 * 5);
  p.copy_packed_to(packed.data());
  Plane q(66, 5, /*fill=*/255);  // different padding fill than p
  q.copy_packed_from(packed.data(), packed.size());
  EXPECT_EQ(p, q);  // equality is over visible pixels only
}

TEST(Plane, MeanAndVariance) {
  Plane p(2, 2);
  p.set(0, 0, 0);
  p.set(1, 0, 100);
  p.set(0, 1, 100);
  p.set(1, 1, 200);
  EXPECT_DOUBLE_EQ(p.mean(), 100.0);
  EXPECT_DOUBLE_EQ(p.variance(), 5000.0);
}

TEST(Frame, BlackFrameProperties) {
  const Frame f = Frame::black(32, 32);
  EXPECT_DOUBLE_EQ(f.y().mean(), 16.0);       // studio black
  EXPECT_DOUBLE_EQ(f.mean_saturation(), 0.0); // neutral chroma
}

TEST(Frame, ChromaIsHalfResolution) {
  const Frame f(64, 48);
  EXPECT_EQ(f.cb().width(), 32);
  EXPECT_EQ(f.cb().height(), 24);
  EXPECT_EQ(f.cr().width(), 32);
}

// ------------------------------------------------------------------- source

TEST(SyntheticVideo, DeterministicForSeed) {
  const auto scene = scene_low_motion(99);
  const Frame a = SyntheticVideo::render(64, 64, scene, 5);
  const Frame b = SyntheticVideo::render(64, 64, scene, 5);
  EXPECT_EQ(a, b);
}

TEST(SyntheticVideo, FramesDifferOverTime) {
  const auto scene = scene_high_motion(1);
  const Frame a = SyntheticVideo::render(64, 64, scene, 0);
  const Frame b = SyntheticVideo::render(64, 64, scene, 10);
  EXPECT_NE(a, b);
  EXPECT_LT(psnr_luma(a, b), 40.0);  // genuinely different content
}

TEST(SyntheticVideo, ScriptLengthAndSeparators) {
  std::vector<SceneParams> scenes = {scene_flat(1), scene_flat(2)};
  scenes[0].frames = 5;
  scenes[1].frames = 7;
  SyntheticVideo src(32, 32, scenes, /*black_separator_frames=*/3);
  EXPECT_EQ(src.total_frames(), 15);
  int count = 0, black = 0;
  while (auto f = src.next()) {
    ++count;
    if (f->y().mean() < 17.0 && f->y().variance() < 1.0) ++black;
  }
  EXPECT_EQ(count, 15);
  EXPECT_EQ(black, 3);
  ASSERT_EQ(src.scene_starts().size(), 2u);
  EXPECT_EQ(src.scene_starts()[0], 0);
  EXPECT_EQ(src.scene_starts()[1], 8);  // 5 content + 3 separator
}

TEST(SyntheticVideo, SaturationControlsChroma) {
  auto colorful = scene_low_motion(5);
  colorful.saturation = 60.0;
  auto bw = scene_low_motion(5);
  bw.saturation = 0.0;
  const Frame fc = SyntheticVideo::render(64, 64, colorful, 0);
  const Frame fb = SyntheticVideo::render(64, 64, bw, 0);
  EXPECT_GT(fc.mean_saturation(), 10.0);
  EXPECT_LT(fb.mean_saturation(), 1.0);
}

// Golden bytes of the renderer. Every codec, pipeline and benchmark CRC
// downstream starts from these planes, so a renderer change that moves a
// single sample must fail here first. Each row chains the CRC-32 of one
// plane's visible rows over frames 0, 1, 19 and 200 of one scene kind at
// one size, with the scene's pan as given or negated.
struct RenderGolden {
  const char* kind;
  int width, height;
  bool negate_pan;
  std::uint32_t y, cb, cr;
};

SceneParams golden_scene(const std::string& kind) {
  constexpr std::uint64_t kSeed = 77;
  if (kind == "low-motion") return scene_low_motion(kSeed);
  if (kind == "high-motion") return scene_high_motion(kSeed);
  if (kind == "high-detail") return scene_high_detail(kSeed);
  return scene_flat(kSeed);
}

void chain_plane(common::Crc32& crc, const Plane& p) {
  for (int y = 0; y < p.height(); ++y) crc.update(p.row_span(y));
}

constexpr RenderGolden kRenderGoldens[] = {
    // clang-format off
    {"low-motion", 32, 32, false, 0x1dccc25c, 0xcfb8b326, 0xfc4dedda},
    {"low-motion", 32, 32, true, 0x9a2f1a82, 0xe0637e80, 0x4bd9c679},
    {"low-motion", 64, 64, false, 0x7b712a91, 0x1a475b1c, 0xef663b5c},
    {"low-motion", 64, 64, true, 0xee4c93e8, 0x2cb4cc5a, 0x2bbbb7aa},
    {"low-motion", 176, 144, false, 0xf2d80dbc, 0x44293c15, 0xa0c38051},
    {"low-motion", 176, 144, true, 0x20592b30, 0xdc6a78a6, 0x2fa73029},
    {"low-motion", 352, 288, false, 0xcc92bc9a, 0xe295af83, 0x47598f9c},
    {"low-motion", 352, 288, true, 0x82ce4fb3, 0xb9cc574b, 0x43f3036e},
    {"high-motion", 32, 32, false, 0xd1607020, 0x59a82cc1, 0xd7dd382e},
    {"high-motion", 32, 32, true, 0x547fab2d, 0x22dd5f04, 0x2dea3072},
    {"high-motion", 64, 64, false, 0xa6d478e8, 0x139dbe27, 0xc782df40},
    {"high-motion", 64, 64, true, 0x2732531f, 0x01e44b98, 0xee87956a},
    {"high-motion", 176, 144, false, 0x6ce54e79, 0x70596560, 0xb75ef209},
    {"high-motion", 176, 144, true, 0x8cf00077, 0x11790681, 0x29293edc},
    {"high-motion", 352, 288, false, 0x1cf3d1b0, 0x6caa920a, 0x414900fc},
    {"high-motion", 352, 288, true, 0x4be4e5fe, 0x94ad4cff, 0xa78fdd0d},
    {"high-detail", 32, 32, false, 0xe1aababe, 0xb3f2340e, 0x20b2ce61},
    {"high-detail", 32, 32, true, 0x6b075fb7, 0x1d30147f, 0xd96b3a0d},
    {"high-detail", 64, 64, false, 0x5798c2ca, 0x3a6f369a, 0x4bf5f419},
    {"high-detail", 64, 64, true, 0x54c6e1de, 0x132e68f4, 0xc7c2da96},
    {"high-detail", 176, 144, false, 0x8c502df7, 0x1cb953d5, 0xccefa96e},
    {"high-detail", 176, 144, true, 0x9c6ef11c, 0x4677bdca, 0x720bd13f},
    {"high-detail", 352, 288, false, 0x9fee44ea, 0x861aef49, 0x1ba63948},
    {"high-detail", 352, 288, true, 0xc0ea623a, 0x8842d2fa, 0x30919949},
    {"flat", 32, 32, false, 0xa483be11, 0x354f721f, 0x40bd7f32},
    {"flat", 32, 32, true, 0xa483be11, 0x354f721f, 0x40bd7f32},
    {"flat", 64, 64, false, 0x575642e1, 0x237efecc, 0xa010ee88},
    {"flat", 64, 64, true, 0x575642e1, 0x237efecc, 0xa010ee88},
    {"flat", 176, 144, false, 0xa4c653f8, 0x6c1545ef, 0x9d4a7854},
    {"flat", 176, 144, true, 0xa4c653f8, 0x6c1545ef, 0x9d4a7854},
    {"flat", 352, 288, false, 0x7a1c5311, 0x3da107e3, 0x7d08e488},
    {"flat", 352, 288, true, 0x7a1c5311, 0x3da107e3, 0x7d08e488},
    {"low-motion", 33, 17, false, 0xdd6bd1cf, 0x36b83909, 0xfd802e7b},
    {"low-motion", 33, 17, true, 0x55ead372, 0x0ed2d643, 0x7b654f6b},
    {"low-motion", 50, 30, false, 0x736235e8, 0x21bdfa1c, 0xc808a1fc},
    {"low-motion", 50, 30, true, 0xa43d4f48, 0x7e16f218, 0xe460767e},
    {"high-motion", 33, 17, false, 0x8ebfd728, 0x945aee9e, 0xbba1cc3e},
    {"high-motion", 33, 17, true, 0x7ba71287, 0xa959ab25, 0x02276257},
    {"high-motion", 50, 30, false, 0xbf5c5e42, 0x0733b232, 0x4a4c21c6},
    {"high-motion", 50, 30, true, 0xd90880b9, 0xfbeb847e, 0x50b73c93},
    {"high-detail", 33, 17, false, 0xedb1ee26, 0xdd9a6ae7, 0xd8f3a438},
    {"high-detail", 33, 17, true, 0xa9f0d580, 0xc57e64a6, 0xf9a26bdc},
    {"high-detail", 50, 30, false, 0x49eedbfd, 0xb7031735, 0xcc5118f9},
    {"high-detail", 50, 30, true, 0xcac12db5, 0xdc19355a, 0xa68e1b1b},
    {"flat", 33, 17, false, 0x92dfee30, 0x043dedbc, 0xd435be7b},
    {"flat", 33, 17, true, 0x92dfee30, 0x043dedbc, 0xd435be7b},
    {"flat", 50, 30, false, 0x0f00bd26, 0xa7ee60cb, 0x2df266e6},
    {"flat", 50, 30, true, 0x0f00bd26, 0xa7ee60cb, 0x2df266e6},
    // clang-format on
};

// Every compiled SIMD level the CPU can run renders the golden bytes; the
// level in force on entry is restored on exit.
std::vector<dsp::SimdLevel> runnable_levels() {
  std::vector<dsp::SimdLevel> out;
  for (const auto level : dsp::compiled_levels())
    if (dsp::cpu_supports(level)) out.push_back(level);
  return out;
}

class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(dsp::active_simd_level()) {}
  ~ScopedSimdLevel() { dsp::set_simd_level(saved_); }

 private:
  dsp::SimdLevel saved_;
};

TEST(SyntheticVideo, RenderMatchesGoldenCrcs) {
  ScopedSimdLevel restore;
  const std::uint64_t fallbacks0 = SyntheticVideo::noise_fallbacks();
  for (const auto level : runnable_levels()) {
    ASSERT_TRUE(dsp::set_simd_level(level));
    for (const auto& g : kRenderGoldens) {
      SceneParams scene = golden_scene(g.kind);
      if (g.negate_pan) {
        scene.pan_x = -scene.pan_x;
        scene.pan_y = -scene.pan_y;
      }
      common::Crc32 y, cb, cr;
      for (const int frame : {0, 1, 19, 200}) {
        const Frame f = SyntheticVideo::render(g.width, g.height, scene, frame);
        chain_plane(y, f.y());
        chain_plane(cb, f.cb());
        chain_plane(cr, f.cr());
      }
      const auto hex = [](std::uint32_t v) {
        char buf[11];
        std::snprintf(buf, sizeof buf, "0x%08x", v);
        return std::string(buf);
      };
      EXPECT_TRUE(y.value() == g.y && cb.value() == g.cb && cr.value() == g.cr)
          << dsp::simd_level_name(level) << " rendered {\"" << g.kind << "\", "
          << g.width << ", " << g.height << ", "
          << (g.negate_pan ? "true" : "false") << ", " << hex(y.value()) << ", "
          << hex(cb.value()) << ", " << hex(cr.value()) << "}";
    }
  }
  // The seeded scenes never put a pixel within 2^-40 of a rounding edge.
  EXPECT_EQ(SyntheticVideo::noise_fallbacks(), fallbacks0);
}

// render_luma writes exactly render()'s Y bytes at any stride and leaves
// the row padding alone, with one scratch reused across sizes and frames.
TEST(SyntheticVideo, RenderLumaMatchesRenderAcrossSizesWithOneScratch) {
  LumaScratch scratch;
  const std::pair<int, int> sizes[] = {{64, 64}, {33, 17}, {176, 144}, {33, 17}, {50, 30}};
  int frame = 0;
  for (const auto& [w, h] : sizes) {
    const SceneParams scene = scene_high_motion(9);
    const std::ptrdiff_t stride = w + 7;
    std::vector<std::uint8_t> luma(static_cast<std::size_t>(stride) * h, 0xa5);
    SyntheticVideo::render_luma(w, h, scene, frame, luma.data(), stride, scratch);
    const Frame f = SyntheticVideo::render(w, h, scene, frame);
    for (int y = 0; y < h; ++y) {
      const std::uint8_t* row = luma.data() + y * stride;
      ASSERT_EQ(std::memcmp(row, f.y().row(y), static_cast<std::size_t>(w)), 0)
          << w << "x" << h << " row " << y;
      for (int x = w; x < stride; ++x) ASSERT_EQ(row[x], 0xa5) << "padding written";
    }
    frame += 7;
  }
}

// With the fallback forced, every pair the vector kernel sees is counted
// and recomputed with scalar log, and the bytes do not move.
TEST(SyntheticVideo, ForcedNoiseFallbackIsCountedAndExact) {
  ScopedSimdLevel restore;
  const SceneParams scene = scene_high_detail(4);
  const Frame want = SyntheticVideo::render(64, 64, scene, 3);
  for (const auto level : runnable_levels()) {
    ASSERT_TRUE(dsp::set_simd_level(level));
    const bool certifying =
        dsp::kernels().sensor_noise_u8 !=
        dsp::kernel_table(dsp::SimdLevel::kScalar)->sensor_noise_u8;
    dsp::force_sensor_noise_fallback(true);
    const std::uint64_t before = SyntheticVideo::noise_fallbacks();
    const Frame got = SyntheticVideo::render(64, 64, scene, 3);
    const std::uint64_t counted = SyntheticVideo::noise_fallbacks() - before;
    dsp::force_sensor_noise_fallback(false);
    EXPECT_TRUE(got.y() == want.y()) << dsp::simd_level_name(level);
    EXPECT_EQ(counted, certifying ? 64u * 64u / 2u : 0u) << dsp::simd_level_name(level);
  }
}

// ---------------------------------------------------------------- quantizer

TEST(Quantizer, RoundTripErrorBoundedByHalfStep) {
  Rng rng(1);
  const Quantizer q(default_intra_matrix(), 8);
  std::array<float, 64> coeffs;
  for (auto& c : coeffs) c = static_cast<float>(rng.next_double_in(-500, 500));
  std::array<std::int16_t, 64> levels;
  std::array<float, 64> back;
  q.quantize(coeffs, levels);
  q.dequantize(levels, back);
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(std::abs(back[i] - coeffs[i]), q.step(i) / 2.0f + 1e-3f);
  }
}

TEST(Quantizer, HigherQscaleCoarserSteps) {
  const Quantizer fine(default_intra_matrix(), 2);
  const Quantizer coarse(default_intra_matrix(), 20);
  for (int i = 0; i < 64; ++i) EXPECT_GE(coarse.step(i), fine.step(i));
}

TEST(Quantizer, IntraMatrixPenalizesHighFrequencies) {
  const auto& m = default_intra_matrix();
  EXPECT_LT(m[0], m[63]);  // DC step < highest-frequency step
}

TEST(Quantizer, CoarseQuantizationZeroesHighFrequenciesFirst) {
  // The paper's §3 claim, directly: code a natural-statistics block at
  // increasing qscale and watch the high-frequency tail die first.
  Rng rng(2);
  std::array<float, 64> coeffs;
  for (int i = 0; i < 64; ++i) {
    // 1/f-style spectrum.
    coeffs[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.next_double_in(-1, 1) * 800.0 / (1 + i));
  }
  const Quantizer coarse(default_intra_matrix(), 24);
  std::array<std::int16_t, 64> levels;
  coarse.quantize(coeffs, levels);
  int low_nonzero = 0, high_nonzero = 0;
  for (int i = 0; i < 8; ++i)
    if (levels[static_cast<std::size_t>(i)] != 0) ++low_nonzero;
  for (int i = 48; i < 64; ++i)
    if (levels[static_cast<std::size_t>(i)] != 0) ++high_nonzero;
  EXPECT_GT(low_nonzero, 0);
  EXPECT_EQ(high_nonzero, 0);
}

TEST(Quantizer, QscaleClampedToValidRange) {
  const Quantizer q0(default_intra_matrix(), 0);
  const Quantizer q99(default_intra_matrix(), 99);
  EXPECT_EQ(q0.qscale(), 1);
  EXPECT_EQ(q99.qscale(), 31);
}

// ------------------------------------------------------------------- motion

Plane translated_noise_plane(int w, int h, int dx, int dy, std::uint64_t seed) {
  // Build a large noise field and cut two windows displaced by (dx, dy).
  Rng rng(seed);
  const int margin = 32;
  std::vector<std::uint8_t> big(static_cast<std::size_t>(w + 2 * margin) *
                                (h + 2 * margin));
  for (auto& p : big) p = static_cast<std::uint8_t>(rng.next());
  Plane out(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      out.set(x, y, big[static_cast<std::size_t>(y + margin + dy) * (w + 2 * margin) +
                        (x + margin + dx)]);
  return out;
}

class FullSearchRecovery
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FullSearchRecovery, FindsExactTranslation) {
  // Property (§3): if the current frame is the reference translated by
  // (dx, dy), full-search ME must find exactly that vector with SAD 0.
  const auto [dx, dy] = GetParam();
  const Plane ref = translated_noise_plane(64, 64, 0, 0, 77);
  const Plane cur = translated_noise_plane(64, 64, dx, dy, 77);
  const auto field = estimate_frame(cur, ref, 8, SearchAlgorithm::kFullSearch);
  // Interior blocks (away from clamped borders) must find the exact vector.
  const auto& b = field.blocks[static_cast<std::size_t>(1) * field.blocks_x + 1];
  EXPECT_EQ(b.mv.dx, dx);
  EXPECT_EQ(b.mv.dy, dy);
  EXPECT_EQ(b.sad, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, FullSearchRecovery,
    ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{-1, 2},
                      std::pair{3, -3}, std::pair{-7, 5}, std::pair{8, -8},
                      std::pair{-8, 8}, std::pair{4, 7}));

TEST(Motion, FastSearchesCheaperThanFull) {
  const auto scene = scene_high_motion(3);
  const Plane cur = SyntheticVideo::render(96, 96, scene, 4).y();
  const Plane ref = SyntheticVideo::render(96, 96, scene, 3).y();
  const auto full = estimate_frame(cur, ref, 8, SearchAlgorithm::kFullSearch);
  const auto tss = estimate_frame(cur, ref, 8, SearchAlgorithm::kThreeStep);
  const auto ds = estimate_frame(cur, ref, 8, SearchAlgorithm::kDiamond);
  EXPECT_LT(tss.total_evaluations(), full.total_evaluations() / 5);
  EXPECT_LT(ds.total_evaluations(), full.total_evaluations() / 5);
  // Fast searches are suboptimal but close: within 2x of optimal SAD.
  EXPECT_LE(full.total_sad(), tss.total_sad());
  EXPECT_LE(full.total_sad(), ds.total_sad());
  EXPECT_LT(tss.total_sad(), 2 * full.total_sad() + 1000);
  EXPECT_LT(ds.total_sad(), 2 * full.total_sad() + 1000);
}

TEST(Motion, CompensationReconstructsTranslation) {
  const Plane ref = translated_noise_plane(64, 64, 0, 0, 9);
  const Plane cur = translated_noise_plane(64, 64, 5, -3, 9);
  const auto field = estimate_frame(cur, ref, 8, SearchAlgorithm::kFullSearch);
  const Plane pred = compensate(ref, field);
  // Interior (non-border) pixels of prediction match the current frame.
  int exact = 0, total = 0;
  for (int y = 16; y < 48; ++y)
    for (int x = 16; x < 48; ++x) {
      ++total;
      if (pred.at(x, y) == cur.at(x, y)) ++exact;
    }
  EXPECT_EQ(exact, total);
}

TEST(Motion, SadZeroForIdenticalBlocks) {
  const Plane p = translated_noise_plane(32, 32, 0, 0, 10);
  EXPECT_EQ(sad16(p, p, 8, 8, 0, 0), 0u);
}

TEST(Motion, SearchRespectsRange) {
  const Plane ref = translated_noise_plane(64, 64, 0, 0, 11);
  const Plane cur = translated_noise_plane(64, 64, 0, 0, 12);
  for (const auto algo : {SearchAlgorithm::kFullSearch,
                          SearchAlgorithm::kThreeStep,
                          SearchAlgorithm::kDiamond}) {
    const auto field = estimate_frame(cur, ref, 4, algo);
    for (const auto& b : field.blocks) {
      EXPECT_LE(std::abs(b.mv.dx), 4);
      EXPECT_LE(std::abs(b.mv.dy), 4);
    }
  }
}

TEST(Motion, NoneAlgorithmReturnsZeroVector) {
  const Plane p = translated_noise_plane(32, 32, 0, 0, 13);
  const auto r = estimate_block(p, p, 16, 16, 8, SearchAlgorithm::kNone);
  EXPECT_EQ(r.mv, (MotionVector{0, 0}));
  EXPECT_EQ(r.evaluations, 1u);
}

TEST(Motion, ThreeStepReachesOddRangeCorners) {
  // Regression: the step schedule used to start at range/2 truncated, so
  // with range 5 the steps were 2,1 and no displacement beyond 3 was
  // reachable. The schedule must start at the smallest power of two with
  // 2*step - 1 >= range (4 for range 5: reach 4+2+1 = 7).
  Plane ref(64, 48), cur(64, 48);
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      // Pure x-gradient; cur is ref translated right by 5, so the best
      // vector has dx == -5 (any dy — rows are identical) with SAD 0.
      ref.set(x, y, static_cast<std::uint8_t>(3 * x));
      cur.set(x, y, static_cast<std::uint8_t>(3 * (x >= 5 ? x - 5 : 0)));
    }
  }
  const auto r =
      estimate_block(cur, ref, 24, 16, /*range=*/5, SearchAlgorithm::kThreeStep);
  EXPECT_EQ(r.mv.dx, -5);
  EXPECT_EQ(r.sad, 0u);
}

TEST(Motion, DiamondRefinementKeepsFixedCenter) {
  // Regression: the small-diamond refinement used to move the center
  // mid-loop, so after accepting one improving neighbour the remaining
  // candidates were measured around the drifted point and the true argmin
  // of the four fixed neighbours could never be evaluated. Seed 265 was
  // chosen so the SAD landscape around the converged center (0,0) is:
  //   f(1,0) < f(0,-1) < f(0,0) <= f(d) for every large-diamond d,
  //   f(0,1), f(-1,0) >= f(1,0).
  // The drifting version accepts (0,-1) first and then never evaluates
  // (1,0); the fixed argmin returns (1,0).
  Rng rng(265);
  Plane ref(48, 48), cur(48, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x)
      ref.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x) {
      const int v =
          ref.at_clamped(x + 1, y) + static_cast<int>(rng.next_in(-24, 24));
      cur.set(x, y, common::clamp_u8(v));
    }
  const int bx = 16, by = 16;
  const auto f = [&](int dx, int dy) { return sad16(cur, ref, bx, by, dx, dy); };
  // Validate the landscape preconditions the regression relies on.
  const auto f00 = f(0, 0);
  for (const auto& d :
       {MotionVector{0, -2}, MotionVector{1, -1}, MotionVector{2, 0},
        MotionVector{1, 1}, MotionVector{0, 2}, MotionVector{-1, 1},
        MotionVector{-2, 0}, MotionVector{-1, -1}}) {
    ASSERT_GE(f(d.dx, d.dy), f00);
  }
  ASSERT_LT(f(0, -1), f00);
  ASSERT_LT(f(1, 0), f(0, -1));
  ASSERT_GE(f(0, 1), f(1, 0));
  ASSERT_GE(f(-1, 0), f(1, 0));
  const auto r = estimate_block(cur, ref, bx, by, 8, SearchAlgorithm::kDiamond);
  EXPECT_EQ(r.mv, (MotionVector{1, 0}));
  EXPECT_EQ(r.sad, f(1, 0));
}

TEST(Motion, PartialEdgeMacroblocksAreEstimatedAndCompensated) {
  // Regression: non-multiple-of-16 frames used to lose their right/bottom
  // strips — block counts truncated, and compensate() left the uncovered
  // pixels at the Plane fill value. Block counts now round up and the
  // border blocks edge-clamp.
  const int w = 72, h = 40;  // 4.5 x 2.5 macroblocks
  Rng rng(31);
  Plane ref(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      ref.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  const Plane cur = ref;
  const auto field = estimate_frame(cur, ref, 4, SearchAlgorithm::kFullSearch);
  EXPECT_EQ(field.blocks_x, 5);
  EXPECT_EQ(field.blocks_y, 3);
  for (const auto& b : field.blocks) {
    EXPECT_EQ(b.mv, (MotionVector{0, 0}));
    EXPECT_EQ(b.sad, 0u);
  }
  // Identical frames + zero vectors: compensation must reproduce the
  // reference exactly, including the partial edge strips.
  EXPECT_EQ(compensate(ref, field), ref);
  // Chroma plane of a 72x40 4:2:0 frame: 36x20, also not block-aligned.
  Plane cref(w / 2, h / 2);
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x)
      cref.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
  EXPECT_EQ(compensate_chroma(cref, field), cref);
}

// Reference motion search and compensation, written per pixel against
// Plane::at_clamped (never through sad16 or the search window): the
// specification the kernel-based paths must reproduce exactly, including
// the tie-breaks and the evaluation counts.
std::uint64_t naive_sad(const Plane& cur, const Plane& ref, int bx, int by,
                        int dx, int dy) {
  std::uint64_t sad = 0;
  for (int y = 0; y < kMacroblockSize; ++y)
    for (int x = 0; x < kMacroblockSize; ++x)
      sad += static_cast<std::uint64_t>(
          std::abs(cur.at_clamped(bx + x, by + y) -
                   ref.at_clamped(bx + x + dx, by + y + dy)));
  return sad;
}

MotionResult naive_search(const Plane& cur, const Plane& ref, int bx, int by,
                          int range, SearchAlgorithm algo) {
  MotionResult r;
  const auto f = [&](int dx, int dy) {
    ++r.evaluations;
    return naive_sad(cur, ref, bx, by, dx, dy);
  };
  const auto in_range = [&](int dx, int dy) {
    return std::abs(dx) <= range && std::abs(dy) <= range;
  };
  // Argmin of f over `offsets` around the centre (strict improvement only).
  const auto step = [&](const auto& offsets, int scale) {
    MotionVector next = r.mv;
    std::uint64_t next_sad = r.sad;
    for (const auto& d : offsets) {
      const int dx = r.mv.dx + d.dx * scale, dy = r.mv.dy + d.dy * scale;
      if (!in_range(dx, dy)) continue;
      const auto s = f(dx, dy);
      if (s < next_sad) {
        next = {dx, dy};
        next_sad = s;
      }
    }
    const bool moved = !(next == r.mv);
    r.mv = next;
    r.sad = next_sad;
    return moved;
  };
  const std::vector<MotionVector> ring = {{-1, -1}, {0, -1}, {1, -1}, {-1, 0},
                                          {1, 0},   {-1, 1}, {0, 1},  {1, 1}};
  const std::vector<MotionVector> large = {{0, -2}, {1, -1}, {2, 0},  {1, 1},
                                           {0, 2},  {-1, 1}, {-2, 0}, {-1, -1}};
  const std::vector<MotionVector> small = {{0, -1}, {1, 0}, {0, 1}, {-1, 0}};
  switch (algo) {
    case SearchAlgorithm::kFullSearch:
      r.sad = ~std::uint64_t{0};
      for (int dy = -range; dy <= range; ++dy)
        for (int dx = -range; dx <= range; ++dx) {
          const auto s = f(dx, dy);
          const int len = std::abs(dx) + std::abs(dy);
          if (s < r.sad ||
              (s == r.sad && len < std::abs(r.mv.dx) + std::abs(r.mv.dy))) {
            r.mv = {dx, dy};
            r.sad = s;
          }
        }
      break;
    case SearchAlgorithm::kThreeStep: {
      r.sad = f(0, 0);
      int s = 1;
      while (2 * s - 1 < range) s *= 2;
      for (; s >= 1; s /= 2) step(ring, s);
      break;
    }
    case SearchAlgorithm::kDiamond:
      r.sad = f(0, 0);
      for (int iter = 0; iter < 4 * range + 8 && step(large, 1); ++iter) {
      }
      step(small, 1);
      break;
    case SearchAlgorithm::kNone:
      r.sad = f(0, 0);
      break;
  }
  return r;
}

Plane naive_compensate(const Plane& ref, const MotionField& field, int size,
                       int scale) {
  Plane out(ref.width(), ref.height());
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x) {
      const auto& mv =
          field.blocks[static_cast<std::size_t>(y / size) * field.blocks_x +
                       x / size]
              .mv;
      out.set(x, y, ref.at_clamped(x + mv.dx / scale, y + mv.dy / scale));
    }
  return out;
}

// Noise planes give unique minima; coarse planes (four levels) give many
// equal SADs, so the tie-breaks are exercised too.
Plane random_plane(int w, int h, Rng& rng, bool coarse) {
  Plane p(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      p.set(x, y, static_cast<std::uint8_t>(coarse ? 60 * rng.next_below(4)
                                                   : rng.next_below(256)));
  return p;
}

TEST(Motion, SearchMatchesPerPixelClampedReference) {
  const std::vector<std::pair<int, int>> sizes = {
      {16, 16}, {40, 24}, {64, 64}, {352, 288}};
  Rng rng(4242);
  for (const auto& [w, h] : sizes) {
    for (const bool coarse : {false, true}) {
      const Plane ref = random_plane(w, h, rng, coarse);
      const Plane cur = random_plane(w, h, rng, coarse);
      for (const int range : {1, 4, 8, 16}) {
        for (const auto algo :
             {SearchAlgorithm::kFullSearch, SearchAlgorithm::kThreeStep,
              SearchAlgorithm::kDiamond, SearchAlgorithm::kNone}) {
          const auto field = estimate_frame(cur, ref, range, algo);
          ASSERT_EQ(field.blocks_x, (w + 15) / 16);
          ASSERT_EQ(field.blocks_y, (h + 15) / 16);
          for (int by = 0; by < field.blocks_y; ++by) {
            for (int bx = 0; bx < field.blocks_x; ++bx) {
              const auto want =
                  naive_search(cur, ref, 16 * bx, 16 * by, range, algo);
              const auto& got =
                  field.blocks[static_cast<std::size_t>(by) * field.blocks_x +
                               bx];
              ASSERT_EQ(got.mv, want.mv)
                  << w << "x" << h << " coarse " << coarse << " range "
                  << range << " algo " << static_cast<int>(algo) << " block "
                  << bx << "," << by;
              ASSERT_EQ(got.sad, want.sad);
              ASSERT_EQ(got.evaluations, want.evaluations);
            }
          }
        }
      }
      // The public single-candidate and single-block entry points, at
      // block positions and vectors well outside the planes as well.
      for (int i = 0; i < 200; ++i) {
        const int bx = static_cast<int>(rng.next_in(-40, w + 24));
        const int by = static_cast<int>(rng.next_in(-40, h + 24));
        const int dx = static_cast<int>(rng.next_in(-600, 600));
        const int dy = static_cast<int>(rng.next_in(-600, 600));
        ASSERT_EQ(sad16(cur, ref, bx, by, dx, dy),
                  naive_sad(cur, ref, bx, by, dx, dy));
        const auto algo = static_cast<SearchAlgorithm>(i % 4);
        const auto want = naive_search(cur, ref, bx, by, 4, algo);
        const auto got = estimate_block(cur, ref, bx, by, 4, algo);
        ASSERT_EQ(got.mv, want.mv);
        ASSERT_EQ(got.sad, want.sad);
        ASSERT_EQ(got.evaluations, want.evaluations);
      }
    }
  }
}

TEST(Motion, CompensationMatchesPerPixelClampedReference) {
  const std::vector<std::pair<int, int>> sizes = {
      {16, 16}, {40, 24}, {64, 64}, {352, 288}};
  Rng rng(777);
  for (const auto& [w, h] : sizes) {
    const Plane ref = random_plane(w, h, rng, false);
    const Plane cref = random_plane(w / 2, h / 2, rng, false);
    for (const int reach : {0, 3, 24, 5000}) {
      // Vectors up to `reach` pixels: inside, across the border, and (as
      // a decoder may read from a corrupt bitstream) far outside.
      MotionField field;
      field.blocks_x = (w + 15) / 16;
      field.blocks_y = (h + 15) / 16;
      field.blocks.resize(
          static_cast<std::size_t>(field.blocks_x) * field.blocks_y);
      for (auto& b : field.blocks) {
        b.mv.dx = static_cast<int>(rng.next_in(-reach, reach));
        b.mv.dy = static_cast<int>(rng.next_in(-reach, reach));
      }
      EXPECT_EQ(compensate(ref, field), naive_compensate(ref, field, 16, 1))
          << w << "x" << h << " reach " << reach;
      EXPECT_EQ(compensate_chroma(cref, field),
                naive_compensate(cref, field, 8, 2))
          << w << "x" << h << " reach " << reach;
    }
  }
}

// The output-parameter forms reuse whatever a previous call left in the
// field, the search scratch and the prediction plane, at another size,
// range or algorithm; they must still equal the value-returning forms on
// the inputs of the two reference tests above.
TEST(Motion, OutputFormsOnDirtyStorageMatchValueForms) {
  const std::vector<std::pair<int, int>> sizes = {
      {352, 288}, {16, 16}, {64, 64}, {40, 24}};
  Rng rng(4243);
  MotionField field;
  std::vector<std::uint8_t> scratch;
  Plane pred;
  for (const auto& [w, h] : sizes) {
    for (const bool coarse : {false, true}) {
      const Plane ref = random_plane(w, h, rng, coarse);
      const Plane cur = random_plane(w, h, rng, coarse);
      for (const int range : {16, 1, 8, 4}) {
        for (const auto algo :
             {SearchAlgorithm::kFullSearch, SearchAlgorithm::kThreeStep,
              SearchAlgorithm::kDiamond, SearchAlgorithm::kNone}) {
          estimate_frame(cur, ref, range, algo, field, scratch);
          const auto want = estimate_frame(cur, ref, range, algo);
          ASSERT_EQ(field.blocks_x, want.blocks_x);
          ASSERT_EQ(field.blocks_y, want.blocks_y);
          ASSERT_EQ(field.blocks.size(), want.blocks.size());
          for (std::size_t i = 0; i < want.blocks.size(); ++i) {
            ASSERT_EQ(field.blocks[i].mv, want.blocks[i].mv)
                << w << "x" << h << " range " << range << " algo "
                << static_cast<int>(algo) << " block " << i;
            ASSERT_EQ(field.blocks[i].sad, want.blocks[i].sad);
            ASSERT_EQ(field.blocks[i].evaluations, want.blocks[i].evaluations);
          }
          compensate(ref, field, pred);
          ASSERT_EQ(pred, compensate(ref, field))
              << w << "x" << h << " range " << range;
        }
      }
    }
    // Vectors far outside the plane, as a corrupt bitstream may carry.
    const Plane ref = random_plane(w, h, rng, false);
    for (const int reach : {0, 3, 24, 5000}) {
      for (auto& b : field.blocks) {
        b.mv.dx = static_cast<int>(rng.next_in(-reach, reach));
        b.mv.dy = static_cast<int>(rng.next_in(-reach, reach));
      }
      compensate(ref, field, pred);
      ASSERT_EQ(pred, compensate(ref, field)) << w << "x" << h << " reach "
                                               << reach;
    }
    // A field covering only the top-left macroblock: the prediction plane
    // still holds the last frame's pixels, and everything the field does
    // not cover must come out 0, as in a fresh plane.
    MotionField corner;
    corner.blocks_x = 1;
    corner.blocks_y = 1;
    corner.blocks.resize(1);
    corner.blocks[0].mv = MotionVector{3, -2};
    compensate(ref, corner, pred);
    ASSERT_EQ(pred, compensate(ref, corner)) << w << "x" << h;
  }
}

// ---------------------------------------------------------------------- vlc

TEST(Vlc, BlockRoundTripRandomLevels) {
  Rng rng(20);
  for (int trial = 0; trial < 100; ++trial) {
    std::array<std::int16_t, 64> levels{};
    levels[0] = static_cast<std::int16_t>(rng.next_in(-200, 200));
    const int n = static_cast<int>(rng.next_below(25));
    for (int i = 0; i < n; ++i) {
      auto v = static_cast<std::int16_t>(rng.next_in(-40, 40));
      if (v == 0) v = 1;
      levels[1 + rng.next_below(63)] = v;
    }
    common::BitWriter w;
    std::int16_t dc_pred_enc = 0;
    encode_block(levels, true, dc_pred_enc, w);
    const auto bytes = w.take();
    common::BitReader r(bytes);
    std::array<std::int16_t, 64> decoded{};
    std::int16_t dc_pred_dec = 0;
    ASSERT_TRUE(decode_block(r, true, dc_pred_dec, decoded));
    EXPECT_EQ(decoded, levels) << "trial " << trial;
    EXPECT_EQ(dc_pred_enc, dc_pred_dec);
  }
}

TEST(Vlc, EscapePathForLargeLevels) {
  std::array<std::int16_t, 64> levels{};
  levels[0] = 0;
  levels[9] = 3000;   // |level| > 16 forces escape
  levels[17] = -2500;
  common::BitWriter w;
  std::int16_t dc = 0;
  encode_block(levels, false, dc, w);
  const auto bytes = w.take();
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> decoded{};
  std::int16_t dc2 = 0;
  ASSERT_TRUE(decode_block(r, false, dc2, decoded));
  EXPECT_EQ(decoded, levels);
}

TEST(Vlc, DcPredictionChains) {
  common::BitWriter w;
  std::int16_t dc_pred = 0;
  std::array<std::int16_t, 64> a{}, b{};
  a[0] = 100;
  b[0] = 103;
  encode_block(a, true, dc_pred, w);
  encode_block(b, true, dc_pred, w);
  EXPECT_EQ(dc_pred, 103);
  const auto bytes = w.take();
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> da{}, db{};
  std::int16_t dc2 = 0;
  ASSERT_TRUE(decode_block(r, true, dc2, da));
  ASSERT_TRUE(decode_block(r, true, dc2, db));
  EXPECT_EQ(da[0], 100);
  EXPECT_EQ(db[0], 103);
}

// An all-nonzero block codes 63 AC events and the EOB: the most the fixed
// event arrays on both sides hold.
TEST(Vlc, DenseBlockRoundTrip) {
  std::array<std::int16_t, 64> levels;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels[i] = static_cast<std::int16_t>(i % 2 == 0 ? 1 + i : -40 - 3 * i);
  }
  common::BitWriter w;
  std::int16_t dc = 0;
  const auto stats = encode_block(levels, true, dc, w);
  EXPECT_EQ(stats.symbols, 1u + 63u + 1u);  // DC, 63 events, EOB
  const auto bytes = w.take();
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> decoded{};
  std::int16_t dc2 = 0;
  ASSERT_TRUE(decode_block(r, true, dc2, decoded));
  EXPECT_EQ(decoded, levels);
}

// Streams a valid encoder never writes: runs past the end of the block,
// and (run 0, level 1) events that never reach an EOB.
TEST(Vlc, DecodeRejectsOverflowAndMissingEob) {
  const auto& table = default_vlc_table();
  const auto put_event = [&](common::BitWriter& w, int run) {
    const entropy::RunLevel rl{static_cast<std::uint8_t>(run), 1};
    ASSERT_TRUE(table.encode(
        static_cast<std::size_t>(entropy::run_level_to_symbol(rl)), w));
    w.put_bit(0);  // sign: positive
  };
  const auto decodes = [](std::vector<std::uint8_t> bytes) {
    common::BitReader r(bytes);
    std::array<std::int16_t, 64> levels;
    levels.fill(9);
    std::int16_t dc = 0;
    return decode_block(r, true, dc, levels);
  };
  const auto put_eob = [&](common::BitWriter& w) {
    ASSERT_TRUE(table.encode(entropy::kEobSymbol, w));
  };
  {  // Runs of 31 reach scan position 64 on the second event.
    common::BitWriter w;
    w.put_se(0);
    put_event(w, 31);
    put_event(w, 31);
    put_eob(w);
    EXPECT_FALSE(decodes(w.take()));
  }
  {  // The same stream one zero shorter fits exactly.
    common::BitWriter w;
    w.put_se(0);
    put_event(w, 31);
    put_event(w, 30);
    put_eob(w);
    EXPECT_TRUE(decodes(w.take()));
  }
  {  // 64 AC events and no EOB: one more than a block holds.
    common::BitWriter w;
    w.put_se(0);
    for (int i = 0; i < 64; ++i) put_event(w, 0);
    put_eob(w);
    EXPECT_FALSE(decodes(w.take()));
  }
  {  // Three events, then the stream ends (padded with 1-bits, which no
     // short code matches) before any EOB.
    common::BitWriter w;
    w.put_se(0);
    for (int i = 0; i < 3; ++i) put_event(w, 0);
    const unsigned pad = 8 - static_cast<unsigned>(w.bit_count() % 8);
    w.put_bits((1u << pad) - 1, pad);
    EXPECT_FALSE(decodes(w.take()));
  }
}

TEST(Vlc, TruncatedStreamFailsCleanly) {
  std::array<std::int16_t, 64> levels{};
  levels[5] = 7;
  common::BitWriter w;
  std::int16_t dc = 0;
  encode_block(levels, true, dc, w);
  auto bytes = w.take();
  bytes.resize(bytes.size() / 2);
  common::BitReader r(bytes);
  std::array<std::int16_t, 64> decoded{};
  std::int16_t dc2 = 0;
  // Either decodes garbage-free or fails; must not crash. Most truncations
  // fail; all leave the reader in a detectable state.
  const bool ok = decode_block(r, true, dc2, decoded);
  if (!ok) SUCCEED();
}

// -------------------------------------------------------------------- codec

EncoderConfig small_config() {
  EncoderConfig c;
  c.width = 64;
  c.height = 64;
  c.gop_size = 6;
  c.qscale = 6;
  c.search_range = 8;
  return c;
}

std::vector<Frame> test_sequence(int n, int w = 64, int h = 64) {
  std::vector<Frame> frames;
  const auto scene = scene_low_motion(42);
  for (int i = 0; i < n; ++i)
    frames.push_back(SyntheticVideo::render(w, h, scene, i));
  return frames;
}

TEST(Codec, IntraRoundTripQuality) {
  auto cfg = small_config();
  cfg.gop_size = 1;  // all intra
  cfg.qscale = 4;
  VideoEncoder enc(cfg);
  VideoDecoder dec;
  const auto frames = test_sequence(3);
  for (const auto& f : frames) {
    const auto encoded = enc.encode(f);
    EXPECT_EQ(encoded.type, FrameType::kIntra);
    auto decoded = dec.decode(encoded.bytes);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_GT(psnr_luma(f, decoded.value()), 32.0);
  }
}

TEST(Codec, DecoderMatchesEncoderReconstructionExactly) {
  // The drift-free invariant of the Fig. 1 loop: the encoder's local
  // decode must be bit-exact with the real decoder, frame after frame.
  VideoEncoder enc(small_config());
  VideoDecoder dec;
  for (const auto& f : test_sequence(8)) {
    const auto encoded = enc.encode(f);
    auto decoded = dec.decode(encoded.bytes);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), enc.reconstructed());
  }
}

// Golden bytes of the codec. Each row encodes 12 frames of a high-motion
// scene (I and P frames) and chains the CRC-32 of every coded frame and
// of every reconstructed plane; the decoder's output must chain to the
// same recon CRC. A change to the transform, quantizer, rounding or
// entropy path that moves a single bit fails here.
struct CodecGolden {
  int width, height;
  bool rate_control;
  bool alternate_standard;
  std::uint32_t bitstream, recon;
  std::size_t bytes;
};

constexpr CodecGolden kCodecGoldens[] = {
    // clang-format off
    {64, 64, false, true, 0x7481c37f, 0xe711bf89, 3428},
    {176, 144, false, false, 0xb4a8c71d, 0x86c42c6c, 14187},
    {352, 288, true, false, 0x51e3fcb0, 0xad259d83, 39023},
    // clang-format on
};

TEST(Codec, EncodeMatchesGoldenCrcs) {
  for (const auto& g : kCodecGoldens) {
    EncoderConfig cfg;
    cfg.width = g.width;
    cfg.height = g.height;
    cfg.gop_size = 6;
    cfg.qscale = 6;
    cfg.rate_control = g.rate_control;
    cfg.alternate_standard = g.alternate_standard;
    VideoEncoder enc(cfg);
    VideoDecoder dec;
    const auto scene = scene_high_motion(77);
    common::Crc32 bitstream, recon, decoded;
    std::size_t bytes = 0;
    for (int i = 0; i < 12; ++i) {
      const auto e = enc.encode(SyntheticVideo::render(g.width, g.height, scene, i));
      bitstream.update(e.bytes);
      bytes += e.bytes.size();
      for (const Plane* p : {&enc.reconstructed().y(), &enc.reconstructed().cb(),
                             &enc.reconstructed().cr()}) {
        chain_plane(recon, *p);
      }
      auto d = dec.decode(e.bytes);
      ASSERT_TRUE(d.is_ok());
      for (const Plane* p : {&d.value().y(), &d.value().cb(), &d.value().cr()}) {
        chain_plane(decoded, *p);
      }
    }
    char got[96];
    std::snprintf(got, sizeof got, "{%d, %d, %s, %s, 0x%08x, 0x%08x, %zu}",
                  g.width, g.height, g.rate_control ? "true" : "false",
                  g.alternate_standard ? "true" : "false", bitstream.value(),
                  recon.value(), bytes);
    EXPECT_TRUE(bitstream.value() == g.bitstream && recon.value() == g.recon &&
                bytes == g.bytes)
        << "encoded " << got;
    EXPECT_EQ(decoded.value(), recon.value()) << got;
  }
}

TEST(Codec, GopStructure) {
  VideoEncoder enc(small_config());  // gop_size = 6
  std::vector<FrameType> types;
  for (const auto& f : test_sequence(13)) types.push_back(enc.encode(f).type);
  for (int i = 0; i < 13; ++i) {
    EXPECT_EQ(types[static_cast<std::size_t>(i)],
              i % 6 == 0 ? FrameType::kIntra : FrameType::kPredicted)
        << "frame " << i;
  }
}

TEST(Codec, PFramesSmallerThanIFramesOnStaticContent) {
  VideoEncoder enc(small_config());
  // Integer pan + rich texture: intra coding must spend bits on the
  // texture every frame, while MC finds it in the reference for free.
  SceneParams scene = scene_high_detail(42);
  scene.pan_x = 2.0;  // exactly representable by integer motion vectors
  scene.noise_sigma = 0.5;
  std::vector<Frame> frames;
  for (int i = 0; i < 6; ++i)
    frames.push_back(SyntheticVideo::render(64, 64, scene, i));
  std::size_t i_bits = 0, p_bits = 0;
  int p_count = 0;
  for (const auto& f : frames) {
    const auto e = enc.encode(f);
    if (e.type == FrameType::kIntra) {
      i_bits = e.bytes.size() * 8;
    } else {
      p_bits += e.bytes.size() * 8;
      ++p_count;
    }
  }
  ASSERT_GT(p_count, 0);
  // §3: motion estimation/compensation reduce the number of bits. (The
  // stronger "greatly reduce" claim is exercised against a no-motion
  // encoder in MotionSearchReducesResidualBits.)
  const double p_mean = static_cast<double>(p_bits) / p_count;
  EXPECT_LT(p_mean, 0.8 * static_cast<double>(i_bits));
}

TEST(Codec, MotionSearchReducesResidualBits) {
  auto with_me = small_config();
  with_me.me_algo = SearchAlgorithm::kFullSearch;
  auto without_me = small_config();
  without_me.me_algo = SearchAlgorithm::kNone;
  // Strong panning makes ME matter.
  std::vector<Frame> frames;
  auto scene = scene_high_motion(7);
  for (int i = 0; i < 6; ++i)
    frames.push_back(SyntheticVideo::render(64, 64, scene, i));

  auto total_p_bits = [&](const EncoderConfig& cfg) {
    VideoEncoder enc(cfg);
    std::size_t bits = 0;
    for (const auto& f : frames) {
      const auto e = enc.encode(f);
      if (e.type == FrameType::kPredicted) bits += e.bytes.size() * 8;
    }
    return bits;
  };
  EXPECT_LT(total_p_bits(with_me), total_p_bits(without_me));
}

TEST(Codec, RequestIntraForcesIFrame) {
  VideoEncoder enc(small_config());
  const auto frames = test_sequence(4);
  enc.encode(frames[0]);
  enc.encode(frames[1]);
  enc.request_intra();
  EXPECT_EQ(enc.encode(frames[2]).type, FrameType::kIntra);
  EXPECT_EQ(enc.encode(frames[3]).type, FrameType::kPredicted);
}

TEST(Codec, RateControlTracksBudget) {
  auto cfg = small_config();
  cfg.rate_control = true;
  cfg.bitrate_bps = 400000.0;
  cfg.fps = 30.0;
  VideoEncoder enc(cfg);
  std::size_t total_bits = 0;
  const int n = 30;
  std::vector<Frame> frames;
  const auto scene = scene_high_detail(8);
  for (int i = 0; i < n; ++i)
    frames.push_back(SyntheticVideo::render(64, 64, scene, i));
  for (const auto& f : frames) total_bits += enc.encode(f).bytes.size() * 8;
  const double achieved_bps = static_cast<double>(total_bits) / (n / 30.0);
  // Rate control is coarse but must land within 2x of target.
  EXPECT_LT(achieved_bps, cfg.bitrate_bps * 2.0);
  EXPECT_GT(achieved_bps, cfg.bitrate_bps * 0.2);
}

TEST(Codec, HigherQscaleFewerBitsLowerQuality) {
  auto fine = small_config();
  fine.qscale = 2;
  fine.gop_size = 1;
  auto coarse = small_config();
  coarse.qscale = 24;
  coarse.gop_size = 1;
  const auto frames = test_sequence(2);

  auto run = [&](const EncoderConfig& cfg) {
    VideoEncoder enc(cfg);
    VideoDecoder dec;
    std::size_t bits = 0;
    double psnr_sum = 0;
    for (const auto& f : frames) {
      const auto e = enc.encode(f);
      bits += e.bytes.size() * 8;
      auto d = dec.decode(e.bytes);
      psnr_sum += psnr_luma(f, d.value());
    }
    return std::pair{bits, psnr_sum / static_cast<double>(frames.size())};
  };
  const auto [fine_bits, fine_psnr] = run(fine);
  const auto [coarse_bits, coarse_psnr] = run(coarse);
  EXPECT_GT(fine_bits, coarse_bits);
  EXPECT_GT(fine_psnr, coarse_psnr + 3.0);
}

TEST(Codec, StageOpsPopulated) {
  VideoEncoder enc(small_config());
  const auto frames = test_sequence(2);
  const auto e0 = enc.encode(frames[0]);
  EXPECT_GT(e0.ops.dct_blocks, 0u);
  EXPECT_GT(e0.ops.idct_blocks, 0u);
  EXPECT_GT(e0.ops.vlc_symbols, 0u);
  EXPECT_EQ(e0.ops.me_sad_ops, 0u);  // intra frame: no motion search
  const auto e1 = enc.encode(frames[1]);
  EXPECT_GT(e1.ops.me_sad_ops, 0u);
  EXPECT_GT(e1.ops.mc_pixels, 0u);
}

TEST(Codec, PFrameWithoutReferenceFails) {
  VideoEncoder enc(small_config());
  VideoDecoder dec;
  const auto frames = test_sequence(2);
  enc.encode(frames[0]);                      // I
  const auto p = enc.encode(frames[1]);       // P
  ASSERT_EQ(p.type, FrameType::kPredicted);
  const auto r = dec.decode(p.bytes);         // decoder never saw the I frame
  EXPECT_FALSE(r.is_ok());
}

TEST(Codec, TruncatedStreamFailsGracefully) {
  VideoEncoder enc(small_config());
  const auto frames = test_sequence(1);
  auto e = enc.encode(frames[0]);
  e.bytes.resize(e.bytes.size() / 3);
  VideoDecoder dec;
  EXPECT_FALSE(dec.decode(e.bytes).is_ok());
}

TEST(Codec, EmptyStreamFails) {
  VideoDecoder dec;
  EXPECT_FALSE(dec.decode({}).is_ok());
}

// ------------------------------------------------------------------ metrics

TEST(Metrics, PsnrIdenticalIsCapped) {
  const Frame f = SyntheticVideo::render(32, 32, scene_flat(1), 0);
  EXPECT_DOUBLE_EQ(psnr_luma(f, f), 99.0);
}

TEST(Metrics, PsnrDecreasesWithNoise) {
  const Frame f = SyntheticVideo::render(32, 32, scene_flat(2), 0);
  Rng rng(3);
  Frame noisy1 = f, noisy2 = f;
  for (int y = 0; y < noisy1.y().height(); ++y)
    for (auto& p : noisy1.y().row_span(y))
      p = common::clamp_u8(p + static_cast<int>(rng.next_in(-2, 2)));
  for (int y = 0; y < noisy2.y().height(); ++y)
    for (auto& p : noisy2.y().row_span(y))
      p = common::clamp_u8(p + static_cast<int>(rng.next_in(-20, 20)));
  EXPECT_GT(psnr_luma(f, noisy1), psnr_luma(f, noisy2));
}

TEST(Metrics, SsimIdenticalIsOne) {
  const Frame f = SyntheticVideo::render(32, 32, scene_high_detail(4), 0);
  EXPECT_NEAR(global_ssim(f.y(), f.y()), 1.0, 1e-9);
}

TEST(Metrics, MseOfKnownDifference) {
  Plane a(4, 4, 100), b(4, 4, 110);
  EXPECT_DOUBLE_EQ(mse(a, b), 100.0);
}

// ------------------------------------------------------------ wavelet codec

TEST(WaveletCodec, LosslessAtUnitStep) {
  // qstep 1 over the reversible 5/3 transform: bit-exact reconstruction.
  const auto frame = SyntheticVideo::render(64, 64, scene_high_detail(71), 0);
  const WaveletCodecConfig cfg{3, 1};
  auto encoded = wavelet_encode_plane(frame.y(), cfg);
  ASSERT_TRUE(encoded.is_ok());
  auto decoded = wavelet_decode_plane(encoded.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), frame.y());
}

class WaveletQstepSweep : public ::testing::TestWithParam<int> {};

TEST_P(WaveletQstepSweep, RoundTripQualityReasonable) {
  const auto frame = SyntheticVideo::render(64, 64, scene_high_detail(72), 0);
  const WaveletCodecConfig cfg{3, GetParam()};
  auto encoded = wavelet_encode_plane(frame.y(), cfg);
  ASSERT_TRUE(encoded.is_ok());
  auto decoded = wavelet_decode_plane(encoded.value());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_GT(psnr(frame.y(), decoded.value()), 26.0) << "qstep " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Steps, WaveletQstepSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(WaveletCodec, RateDistortionMonotone) {
  const auto frame = SyntheticVideo::render(64, 64, scene_high_detail(73), 0);
  std::size_t prev_bytes = static_cast<std::size_t>(-1);
  double prev_psnr = 1e9;
  for (const int qstep : {1, 4, 16, 64}) {
    auto encoded = wavelet_encode_plane(frame.y(), WaveletCodecConfig{3, qstep});
    ASSERT_TRUE(encoded.is_ok());
    auto decoded = wavelet_decode_plane(encoded.value());
    ASSERT_TRUE(decoded.is_ok());
    const double p = psnr(frame.y(), decoded.value());
    EXPECT_LT(encoded.value().size(), prev_bytes);
    EXPECT_LE(p, prev_psnr + 1e-9);
    prev_bytes = encoded.value().size();
    prev_psnr = p;
  }
}

TEST(WaveletCodec, LosslessBeatsRawSize) {
  // Even lossless, the transform + zero-run coding compresses natural
  // content below 8 bits/pixel.
  const auto frame = SyntheticVideo::render(64, 64, scene_low_motion(74), 0);
  auto encoded = wavelet_encode_plane(frame.y(), WaveletCodecConfig{3, 1});
  ASSERT_TRUE(encoded.is_ok());
  EXPECT_LT(encoded.value().size(), 64u * 64u);
}

TEST(WaveletCodec, RejectsBadConfigs) {
  const Plane p(48, 48);  // not divisible by 2^3... 48/8 = 6, actually fine
  EXPECT_TRUE(wavelet_encode_plane(p, WaveletCodecConfig{3, 1}).is_ok());
  const Plane odd(50, 50);  // 50 % 8 != 0
  EXPECT_FALSE(wavelet_encode_plane(odd, WaveletCodecConfig{3, 1}).is_ok());
  EXPECT_FALSE(wavelet_encode_plane(p, WaveletCodecConfig{0, 1}).is_ok());
  EXPECT_FALSE(wavelet_encode_plane(p, WaveletCodecConfig{3, 0}).is_ok());
}

TEST(WaveletCodec, CorruptStreamRejected) {
  const auto frame = SyntheticVideo::render(32, 32, scene_flat(75), 0);
  auto encoded = wavelet_encode_plane(frame.y(), WaveletCodecConfig{2, 2});
  ASSERT_TRUE(encoded.is_ok());
  auto bytes = encoded.value();
  bytes[0] ^= 0xFF;  // magic
  EXPECT_FALSE(wavelet_decode_plane(bytes).is_ok());
  EXPECT_FALSE(wavelet_decode_plane({}).is_ok());
  auto truncated = encoded.value();
  truncated.resize(truncated.size() / 4);
  // Truncation may decode fewer coefficients or fail; must not crash, and
  // if it fails it reports corrupt data.
  const auto r = wavelet_decode_plane(truncated);
  if (!r.is_ok()) {
    EXPECT_EQ(r.status().code(), common::StatusCode::kCorruptData);
  }
}

// ---------------------------------------------------------------- transcode

TEST(Transcode, GenerationalQualityLoss) {
  // §3: "each generation of transcoding reduces image quality."
  const auto frames = test_sequence(4);
  auto cfg_a = small_config();
  cfg_a.qscale = 6;
  auto cfg_b = small_config();
  cfg_b.qscale = 6;
  cfg_b.alternate_standard = true;
  const auto points = generation_study(frames, 5, cfg_a, cfg_b);
  ASSERT_EQ(points.size(), 5u);
  // Quality after 5 generations is strictly worse than after 1.
  EXPECT_LT(points[4].psnr_db, points[0].psnr_db - 0.2);
  // And the first generation is itself lossy.
  EXPECT_LT(points[0].psnr_db, 99.0);
  // Degradation is (weakly) monotone within tolerance.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].psnr_db, points[i - 1].psnr_db + 0.3);
  }
}

TEST(Transcode, SameStandardIsNearlyIdempotent) {
  // Re-encoding with the identical quantizer mostly re-makes the same
  // decisions: generation 2 loses far less than generation 1.
  const auto frames = test_sequence(3);
  const auto cfg = small_config();
  const auto points = generation_study(frames, 3, cfg, cfg);
  ASSERT_EQ(points.size(), 3u);
  const double loss1 = 99.0 - points[0].psnr_db;
  const double loss2 = points[0].psnr_db - points[1].psnr_db;
  EXPECT_LT(loss2, loss1 * 0.5);
}

}  // namespace
}  // namespace mmsoc::video
