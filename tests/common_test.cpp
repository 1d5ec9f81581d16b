// Unit and property tests for the common substrate: bitstream, CRC,
// PRNG, fixed-point, math utilities, status types.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/bitstream.h"
#include "common/crc32.h"
#include "common/fixed.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "common/status.h"

namespace mmsoc::common {
namespace {

// ---------------------------------------------------------------- bitstream

TEST(BitWriter, EmptyTakeIsEmpty) {
  BitWriter w;
  EXPECT_TRUE(w.take().empty());
}

TEST(BitWriter, SingleByteMsbFirst) {
  BitWriter w;
  w.put_bits(0b10110001, 8);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110001);
}

TEST(BitWriter, CrossByteField) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bits(0b11111, 5);
  w.put_bits(0xAB, 8);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0b10111111);
  EXPECT_EQ(bytes[1], 0xAB);
}

TEST(BitWriter, AlignPadsWithZeros) {
  BitWriter w;
  w.put_bits(0b1, 1);
  w.align_to_byte();
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10000000);
}

TEST(BitWriter, SixtyFourBitValue) {
  BitWriter w;
  const std::uint64_t v = 0xDEADBEEFCAFEBABEull;
  w.put_bits(v, 64);
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(64), v);
}

TEST(BitStream, RandomFieldRoundTrip) {
  // Property: any sequence of (value, width) fields reads back exactly.
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    BitWriter w;
    const int n = static_cast<int>(rng.next_in(1, 200));
    for (int i = 0; i < n; ++i) {
      const unsigned width = static_cast<unsigned>(rng.next_in(1, 64));
      std::uint64_t value = rng.next();
      if (width < 64) value &= (std::uint64_t{1} << width) - 1;
      fields.emplace_back(value, width);
      w.put_bits(value, width);
    }
    const auto bytes = w.take();
    BitReader r(bytes);
    for (const auto& [value, width] : fields) {
      EXPECT_EQ(r.get_bits(width), value) << "trial " << trial;
    }
    EXPECT_TRUE(r.ok());
  }
}

TEST(BitReader, UnderrunClearsOkAndReturnsZero) {
  const std::uint8_t one_byte[] = {0xFF};
  BitReader r({one_byte, 1});
  EXPECT_EQ(r.get_bits(8), 0xFFu);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_bits(1), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(BitReader, PeekDoesNotConsume) {
  const std::uint8_t data[] = {0b10100000};
  BitReader r({data, 1});
  EXPECT_EQ(r.peek_bits(3), 0b101u);
  EXPECT_EQ(r.peek_bits(3), 0b101u);
  EXPECT_EQ(r.get_bits(3), 0b101u);
}

TEST(BitReader, PeekPastEndReadsZeros) {
  const std::uint8_t data[] = {0b11000000};
  BitReader r({data, 1});
  r.skip_bits(7);
  EXPECT_EQ(r.peek_bits(8), 0u);  // last real bit is 0, rest zero-padded
  EXPECT_TRUE(r.ok());            // peek never clears ok
}

class ExpGolombRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExpGolombRoundTrip, Unsigned) {
  BitWriter w;
  w.put_ue(GetParam());
  const auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_ue(), GetParam());
  EXPECT_TRUE(r.ok());
}

TEST_P(ExpGolombRoundTrip, SignedBothSigns) {
  const auto magnitude = static_cast<std::int32_t>(GetParam() & 0x7FFFFFFF);
  for (const std::int32_t v : {magnitude, -magnitude}) {
    BitWriter w;
    w.put_se(v);
    const auto bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(r.get_se(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, ExpGolombRoundTrip,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 8u, 100u,
                                           255u, 256u, 65535u, 1u << 20,
                                           0x7FFFFFFEu));

TEST(ExpGolomb, SequenceRoundTrip) {
  Rng rng(7);
  BitWriter w;
  std::vector<std::int32_t> values;
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int32_t>(rng.next_in(-100000, 100000));
    values.push_back(v);
    w.put_se(v);
  }
  const auto bytes = w.take();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_se(), v);
  EXPECT_TRUE(r.ok());
}

TEST(BitReader, AlignToByteSkipsToBoundary) {
  const std::uint8_t data[] = {0xFF, 0x01};
  BitReader r({data, 2});
  r.get_bits(3);
  r.align_to_byte();
  EXPECT_EQ(r.bit_position(), 8u);
  EXPECT_EQ(r.get_bits(8), 0x01u);
}

// -------------------------------------------------------------------- crc32

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value of "123456789".
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32({data, 9}), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0x00000000u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(3);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  Crc32 inc;
  inc.update({data.data(), 100});
  inc.update({data.data() + 100, 924});
  EXPECT_EQ(inc.value(), crc32(data));
}

// The CRC is computed eight bytes at a time; this bytewise form of the
// same reflected polynomial is the definition it must match.
std::uint32_t bytewise_crc_state(std::uint32_t state, const std::uint8_t* p,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : (state >> 1);
    }
  }
  return state;
}

TEST(Crc32, SlicedMatchesBytewise) {
  constexpr std::size_t kMaxLen = 4099;
  Rng rng(29);
  std::vector<std::uint8_t> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  // Every length at every start offset modulo 8, so each tail length
  // meets each alignment of the eight-byte loads.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(crc32({p, len}), state ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << len;
      if (len < kMaxLen) state = bytewise_crc_state(state, p + len, 1);
    }
  }
  // Incremental updates split at random points must chain to the same
  // value as one pass.
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.next_below(kMaxLen + 1);
    const std::size_t offset = rng.next_below(8);
    const std::uint8_t* p = buf.data() + offset;
    Crc32 inc;
    for (std::size_t at = 0; at < len;) {
      const std::size_t piece = std::min<std::size_t>(len - at, rng.next_below(40));
      inc.update({p + at, piece});
      at += piece;
    }
    ASSERT_EQ(inc.value(), bytewise_crc_state(0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu)
        << "trial " << trial << " length " << len;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const auto before = crc32(data);
  data[17] ^= 0x04;
  EXPECT_NE(crc32(data), before);
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.next_in(9, 9), 9);
  EXPECT_EQ(rng.next_in(10, 3), 10);  // degenerate bounds return lo
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double m = sum / n;
  const double var = sum2 / n - m * m;
  EXPECT_NEAR(m, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

// Bitwise equality: rebuilt values must reproduce every bit of the single
// draws.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Appends n next_gaussian() values to `out`, rebuilt from draw_polar's
// pairs and polar_scale: `spare` plays next_gaussian's pending second
// deviate, consumed first and left holding an odd tail's v * m.
void gaussians_from_polar(Rng& rng, std::size_t n, std::vector<double>& out,
                          std::optional<double>& spare) {
  if (n > 0 && spare) {
    out.push_back(*spare);
    spare.reset();
    --n;
  }
  const std::size_t pairs = (n + 1) / 2;
  std::vector<double> u(pairs), v(pairs), s(pairs);
  rng.draw_polar(u.data(), v.data(), s.data(), pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    const double m = Rng::polar_scale(s[k]);
    out.push_back(u[k] * m);
    if (2 * k + 1 < n) {
      out.push_back(v[k] * m);
    } else {
      spare = v[k] * m;
    }
  }
}

TEST(Rng, DrawPolarRebuildsNextGaussian) {
  // Odd and even counts below, at and past 64 pairs (128 values), a CIF
  // row width and one past it.
  const std::size_t sizes[] = {0, 1, 2, 63, 64, 65, 127, 128, 129, 352, 353};
  for (const bool spare_on_entry : {false, true}) {
    for (const std::size_t n : sizes) {
      Rng polar(31), single(31);
      std::optional<double> spare;
      std::vector<double> got, want;
      if (spare_on_entry) {
        gaussians_from_polar(polar, 1, got, spare);
        want.push_back(single.next_gaussian());
      }
      gaussians_from_polar(polar, n, got, spare);
      while (want.size() < got.size()) want.push_back(single.next_gaussian());
      EXPECT_TRUE(same_bits(got, want))
          << "n " << n << " spare on entry " << spare_on_entry;
      // The pending spare and the generator state must match too.
      for (int i = 0; i < 3; ++i) {
        got.clear();
        gaussians_from_polar(polar, 1, got, spare);
        const double b = single.next_gaussian();
        EXPECT_EQ(std::memcmp(&got[0], &b, sizeof b), 0)
            << "n " << n << " spare on entry " << spare_on_entry
            << " draw " << i << " after the pairs";
      }
    }
  }
  // Rebuilds of every size interleaved with single values over one stream.
  Rng polar(37), single(37), sizes_rng(41);
  std::optional<double> spare;
  std::vector<double> got, want;
  for (int step = 0; step < 400; ++step) {
    const std::size_t n =
        sizes_rng.next_bool(0.3) ? 1 : sizes_rng.next_below(300);
    gaussians_from_polar(polar, n, got, spare);
    while (want.size() < got.size()) want.push_back(single.next_gaussian());
  }
  EXPECT_TRUE(same_bits(got, want));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

// -------------------------------------------------------------------- fixed

TEST(Fixed, FromIntRoundTrip) {
  for (int v = -1000; v <= 1000; v += 37) {
    EXPECT_EQ(Q15::from_int(v).to_int(), v);
  }
}

TEST(Fixed, FromDoubleAccuracy) {
  for (double v = -10.0; v <= 10.0; v += 0.137) {
    EXPECT_NEAR(Q15::from_double(v).to_double(), v, 1.0 / 32768.0);
  }
}

TEST(Fixed, AdditionMatchesDouble) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double_in(-100, 100);
    const double b = rng.next_double_in(-100, 100);
    const auto r = Q15::from_double(a) + Q15::from_double(b);
    EXPECT_NEAR(r.to_double(), a + b, 3.0 / 32768.0);
  }
}

TEST(Fixed, MultiplicationMatchesDouble) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double_in(-30, 30);
    const double b = rng.next_double_in(-30, 30);
    const auto r = Q15::from_double(a) * Q15::from_double(b);
    EXPECT_NEAR(r.to_double(), a * b, 0.01);
  }
}

TEST(Fixed, DivisionMatchesDouble) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.next_double_in(-100, 100);
    double b = rng.next_double_in(0.5, 50);
    if (rng.next_bool(0.5)) b = -b;
    const auto r = Q15::from_double(a) / Q15::from_double(b);
    EXPECT_NEAR(r.to_double(), a / b, 0.02);
  }
}

TEST(Fixed, SaturatesInsteadOfWrapping) {
  const auto big = Q15::from_double(65000.0);
  const auto sum = big + big;
  EXPECT_GT(sum.to_double(), 65000.0);  // saturated at max, did not wrap negative
  const auto neg = -big - big;
  EXPECT_LT(neg.to_double(), -65000.0);
}

TEST(Fixed, DivisionByZeroSaturates) {
  const auto r = Q15::from_int(5) / Q15::from_raw(0);
  EXPECT_GT(r.to_double(), 60000.0);
}

TEST(Fixed, ComparisonOperators) {
  EXPECT_LT(Q15::from_double(1.5), Q15::from_double(2.5));
  EXPECT_EQ(Q15::from_int(3), Q15::from_int(3));
}

// ----------------------------------------------------------------- mathutil

TEST(MathUtil, ClampU8) {
  EXPECT_EQ(clamp_u8(-5), 0);
  EXPECT_EQ(clamp_u8(0), 0);
  EXPECT_EQ(clamp_u8(128), 128);
  EXPECT_EQ(clamp_u8(255), 255);
  EXPECT_EQ(clamp_u8(900), 255);
}

TEST(MathUtil, ClampS16) {
  EXPECT_EQ(clamp_s16(-40000), -32768);
  EXPECT_EQ(clamp_s16(40000), 32767);
  EXPECT_EQ(clamp_s16(123), 123);
}

TEST(MathUtil, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2((1ull << 63)), 63u);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
}

TEST(MathUtil, RoundHalfAwayMatchesLroundf) {
  const auto check = [](float x) {
    ASSERT_EQ(round_half_away(x), std::lroundf(x)) << "x = " << std::hexfloat << x;
  };
  // Every float within 64 ulps of each half-integer k + 0.5, both signs
  // covered by the range of k.
  for (int k = -1024; k <= 1024; ++k) {
    const float half = static_cast<float>(k) + 0.5f;
    float below = half, above = half;
    check(half);
    for (int ulp = 0; ulp < 64; ++ulp) {
      below = std::nextafter(below, -std::numeric_limits<float>::infinity());
      above = std::nextafter(above, std::numeric_limits<float>::infinity());
      check(below);
      check(above);
    }
  }
  // Signed zeros, subnormals and the smallest normals.
  const float tiny[] = {0.0f, std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::denorm_min() * 3.0f,
                        std::numeric_limits<float>::min() / 2.0f,
                        std::nextafter(std::numeric_limits<float>::min(), 0.0f),
                        std::numeric_limits<float>::min()};
  for (const float t : tiny) {
    check(t);
    check(-t);
  }
  // Seeded random values spanning the float range the codec produces.
  Rng rng(43);
  for (int i = 0; i < 1000000; ++i) {
    check(static_cast<float>(rng.next_double_in(-8388608.0, 8388608.0)));
  }
}

// The inverse-DCT stage rounds each 8-wide row through the int32 form;
// it must equal the long form everywhere a bounded IDCT output can land:
// at every half-integer tie of both signs, at +-0, and at magnitudes up
// to 2^29 (the output bound is ~5.2e8 < 2^29 * 1.01; the int32
// truncation holds to 2^31 - 1).
TEST(MathUtil, RoundHalfAwayRow8MatchesRoundHalfAway) {
  const auto check_row = [](const float (&row)[8]) {
    std::int16_t got[8];
    round_half_away_row8(row, got);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(got[i], static_cast<std::int16_t>(round_half_away(row[i])))
          << "x = " << std::hexfloat << row[i];
    }
  };
  // Ties k + 0.5 for |k| < 2^12, where float still holds the half, with
  // both neighbouring floats in the same row.
  for (int k = -4096; k < 4096; ++k) {
    const float tie = static_cast<float>(k) + 0.5f;
    const float neg = -tie;
    check_row({tie, std::nextafter(tie, 0.0f), std::nextafter(tie, 1e9f), neg,
               std::nextafter(neg, 0.0f), std::nextafter(neg, -1e9f),
               static_cast<float>(k), -static_cast<float>(k)});
  }
  check_row({0.0f, -0.0f, 0.5f, -0.5f, 0.49999997f, -0.49999997f,
             std::numeric_limits<float>::denorm_min(),
             -std::numeric_limits<float>::denorm_min()});
  // Magnitudes up to 2^29: powers of two, their neighbours and random
  // values, where narrowing to int16 wraps.
  for (int e = 0; e <= 29; ++e) {
    const float p = std::ldexp(1.0f, e);
    check_row({p, -p, std::nextafter(p, 0.0f), -std::nextafter(p, 0.0f),
               std::nextafter(p, 1e10f), -std::nextafter(p, 1e10f),
               p * 0.75f, -p * 0.75f});
  }
  Rng rng(77);
  for (int trial = 0; trial < 20000; ++trial) {
    float row[8];
    for (auto& x : row) {
      x = static_cast<float>(rng.next_double_in(-0x1.0p29, 0x1.0p29) /
                             static_cast<double>(1u << rng.next_below(30)));
    }
    check_row(row);
  }
}

TEST(MathUtil, MeanVariance) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean({xs, 4}), 2.5);
  EXPECT_DOUBLE_EQ(variance({xs, 4}), 1.25);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(MathUtil, ToDbFloorsTinyRatios) {
  EXPECT_NEAR(to_db(1.0), 0.0, 1e-9);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-9);
  EXPECT_GT(to_db(0.0), -130.0);  // floored, not -inf
}

// ------------------------------------------------------------------- status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_text(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s(StatusCode::kNotFound, "missing title");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_text(), "not_found: missing title");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(StatusCode::kCorruptData, "bad bits");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  EXPECT_EQ(r.value_or(-1), -1);
}

}  // namespace
}  // namespace mmsoc::common
