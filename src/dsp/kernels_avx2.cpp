// AVX2 kernel variants. Built with -mavx2 -ffp-contract=off; compiles away
// unless x86 SIMD dispatch is enabled. No code in this TU runs before
// dispatch.cpp has checked CPUID: the exported table is constant-
// initialized from function addresses only.
//
// Same bit-exactness scheme as the SSE2 TU (see that file and dispatch.h);
// AVX2 just gives full-width lanes: one 256-bit vector covers all 8
// outputs of a DCT pass, vpmuldq provides the signed 32x32->64 multiply
// directly, and psadbw handles two pixel rows per instruction. The sensor
// noise kernel is the one variant that is not exact by construction: it
// certifies each byte instead (see below).
#if defined(MMSOC_SIMD_X86) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

#include "dsp/kernels.h"

namespace mmsoc::dsp::detail {
namespace {

std::uint32_t sad16_avx2(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride) {
  __m256i acc = _mm256_setzero_si256();
  for (int y = 0; y < 16; y += 2) {
    const __m256i va = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + a_stride)), 1);
    const __m256i vb = _mm256_inserti128_si256(
        _mm256_castsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b))),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + b_stride)), 1);
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
    a += 2 * a_stride;
    b += 2 * b_stride;
  }
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(sum) +
      _mm_cvtsi128_si32(_mm_srli_si128(sum, 8)));
}

// Float 2-D transform: out = C · in · Cᵀ with `cols` holding the basis
// laid out per input element (see the SSE2 TU). Row pass: each input row
// becomes one vector of its 8 outputs (broadcast input x, multiply by its
// basis column, add, in x order). Column pass: output row y is
// Σ_v bcast(cols[v][y]) · tmp row v with v ascending from zero, so every
// lane runs the scalar column pass's mul/add sequence and the result
// lands as whole rows, with no scatter through a transposed store.
void f32_2d_avx2(const float (*cols)[8], const float* in, float* out) {
  __m256 tmp[8];
  for (int y = 0; y < 8; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int x = 0; x < 8; ++x) {
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_load_ps(cols[x]),
                                             _mm256_set1_ps(in[y * 8 + x])));
    }
    tmp[y] = acc;
  }
  for (int y = 0; y < 8; ++y) {
    __m256 acc = _mm256_setzero_ps();
    for (int v = 0; v < 8; ++v) {
      acc = _mm256_add_ps(acc,
                          _mm256_mul_ps(tmp[v], _mm256_set1_ps(cols[v][y])));
    }
    _mm256_storeu_ps(out + y * 8, acc);
  }
}

void fdct8x8_f32_avx2(const float* in, float* out) {
  f32_2d_avx2(dct_tables().c_t, in, out);
}

void idct8x8_f32_avx2(const float* in, float* out) {
  f32_2d_avx2(dct_tables().c, in, out);
}

// Q15 1-D pass with 64-bit accumulation (exactly the scalar int64 math).
inline void q15_pass8_avx2(const std::int64_t (*cols)[8],
                           const std::int32_t in[8], std::int32_t out[8],
                           unsigned out_shift) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  for (int x = 0; x < 8; ++x) {
    const __m256i v = _mm256_set1_epi64x(in[x]);
    const __m256i* c = reinterpret_cast<const __m256i*>(cols[x]);
    acc0 = _mm256_add_epi64(acc0,
                            _mm256_mul_epi32(_mm256_load_si256(c + 0), v));
    acc1 = _mm256_add_epi64(acc1,
                            _mm256_mul_epi32(_mm256_load_si256(c + 1), v));
  }
  alignas(32) std::int64_t accs[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(accs + 0), acc0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(accs + 4), acc1);
  const std::int64_t half = std::int64_t{1} << (out_shift - 1);
  for (int u = 0; u < 8; ++u) {
    const std::int64_t acc = accs[u];
    out[u] = static_cast<std::int32_t>((acc + (acc >= 0 ? half : -half)) >>
                                       out_shift);
  }
}

void q15_2d_avx2(const std::int64_t (*cols)[8], const std::int16_t* in,
                 std::int16_t* out) {
  std::int32_t tmp[64];
  for (int y = 0; y < 8; ++y) {
    std::int32_t row[8], res[8];
    for (int x = 0; x < 8; ++x) row[x] = in[y * 8 + x];
    q15_pass8_avx2(cols, row, res, kQ15RowShift);
    for (int x = 0; x < 8; ++x) tmp[y * 8 + x] = res[x];
  }
  for (int x = 0; x < 8; ++x) {
    std::int32_t col[8], res[8];
    for (int y = 0; y < 8; ++y) col[y] = tmp[y * 8 + x];
    q15_pass8_avx2(cols, col, res, kQ15ColShift);
    for (int y = 0; y < 8; ++y) {
      const std::int32_t v = res[y];
      out[y * 8 + x] = static_cast<std::int16_t>(
          v < -32768 ? -32768 : (v > 32767 ? 32767 : v));
    }
  }
}

void fdct8x8_q15_avx2(const std::int16_t* in, std::int16_t* out) {
  q15_2d_avx2(dct_tables().q15_fwd, in, out);
}

void idct8x8_q15_avx2(const std::int16_t* in, std::int16_t* out) {
  q15_2d_avx2(dct_tables().q15_inv, in, out);
}

// lroundf emulation for 8 floats (see the SSE2 TU for the derivation).
inline __m256i lround8_avx2(__m256 v) {
  const __m256i trunc = _mm256_cvttps_epi32(v);
  const __m256 frac = _mm256_sub_ps(v, _mm256_cvtepi32_ps(trunc));
  const __m256i up = _mm256_castps_si256(
      _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ));
  const __m256i down = _mm256_castps_si256(
      _mm256_cmp_ps(frac, _mm256_set1_ps(-0.5f), _CMP_LE_OQ));
  return _mm256_add_epi32(_mm256_sub_epi32(trunc, up), down);
}

void quantize64_avx2(const float* coeffs, const float* steps,
                     std::int16_t* levels) {
  for (int i = 0; i < 64; i += 16) {
    const __m256i q0 = lround8_avx2(_mm256_div_ps(
        _mm256_loadu_ps(coeffs + i), _mm256_loadu_ps(steps + i)));
    const __m256i q1 = lround8_avx2(_mm256_div_ps(
        _mm256_loadu_ps(coeffs + i + 8), _mm256_loadu_ps(steps + i + 8)));
    // packs saturates per 128-bit lane; permute restores linear order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(q0, q1), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(levels + i), packed);
  }
}

void dequantize64_avx2(const std::int16_t* levels, const float* steps,
                       float* coeffs) {
  for (int i = 0; i < 64; i += 8) {
    const __m256i lv = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + i)));
    _mm256_storeu_ps(coeffs + i, _mm256_mul_ps(_mm256_cvtepi32_ps(lv),
                                               _mm256_loadu_ps(steps + i)));
  }
}

void fb_analyze_avx2(const double* x64, double* bands32) {
  const FbTables& t = fb_tables();
  alignas(32) double s[64];
  for (int n = 0; n < 64; n += 4) {
    _mm256_store_pd(s + n, _mm256_mul_pd(_mm256_load_pd(t.window + n),
                                         _mm256_loadu_pd(x64 + n)));
  }
  __m256d acc[8];
  for (auto& a : acc) a = _mm256_setzero_pd();
  for (int n = 0; n < 64; ++n) {
    const __m256d v = _mm256_set1_pd(s[n]);
    const double* bt = t.basis_t[n];
    for (int j = 0; j < 8; ++j) {
      acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(_mm256_load_pd(bt + 4 * j), v));
    }
  }
  for (int j = 0; j < 8; ++j) _mm256_storeu_pd(bands32 + 4 * j, acc[j]);
}

void fb_synth_avx2(const double* bands32, double* y64) {
  const FbTables& t = fb_tables();
  for (int n0 = 0; n0 < 64; n0 += 16) {
    __m256d acc[4];
    for (auto& a : acc) a = _mm256_setzero_pd();
    for (int k = 0; k < 32; ++k) {
      const __m256d v = _mm256_set1_pd(bands32[k]);
      const double* b = t.basis[k] + n0;
      for (int j = 0; j < 4; ++j) {
        acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(_mm256_load_pd(b + 4 * j), v));
      }
    }
    for (int j = 0; j < 4; ++j) {
      _mm256_storeu_pd(
          y64 + n0 + 4 * j,
          _mm256_mul_pd(_mm256_load_pd(t.synth_scale + n0 + 4 * j), acc[j]));
    }
  }
}

// ---- certified sensor noise ------------------------------------------------
//
// A pixel's byte is b(m) = clamp_u8(int(base + sigma * (w * m) + 0.5)),
// w = u or v, m = sqrt(-2 ln s / s). Everything but log is a correctly
// rounded IEEE operation, identical in a vector lane and in scalar code
// (this TU builds with -ffp-contract=off, so no FMA changes a rounding).
// The vector log comes from glibc's libmvec and is not bit-exact, so the
// kernel certifies every byte instead:
//
//  1. b is monotone in m. Each step after m (multiply by w, multiply by
//     sigma, add base, add 0.5) is a correctly rounded operation with one
//     variable operand, hence monotone; truncation and clamping are
//     monotone too. (Whether b rises or falls with m depends on the signs
//     of w and sigma; monotone either way.)
//  2. If the vector log is within K = kNoiseLogMaxUlps ulps of scalar log,
//     the fast m is within a relative (K/2 + 2) * 2^-52 of the scalar m:
//     -2 ln s is exact, the division adds one rounding on each side, sqrt
//     halves the log's relative error and adds one more rounding on each
//     side. That is far below 2^-41.
//  3. So the scalar m lies in [m * (1 - 2^-40), m * (1 + 2^-40)], even
//     after those two products are rounded. If b gives the same byte at
//     both ends, by 1 it gives that byte at the scalar m too. Otherwise
//     the pair is recomputed with scalar log (sensor_noise_u8_scalar).
//
// The bytes therefore equal the scalar reference whichever libmvec
// variant the IFUNC picks on a given CPU, as long as it keeps the K-ulp
// bound that dsp_test pins.
extern "C" __m256d _ZGVdN4v_log(__m256d x);

static_assert((kNoiseLogMaxUlps / 2.0 + 2.0) * 0x1p-52 < 0x1p-41,
              "the log error bound must fit well inside the 2^-40 bracket");

void noise_log4_avx2(const double* in4, double* out4) {
  _mm256_storeu_pd(out4, _ZGVdN4v_log(_mm256_loadu_pd(in4)));
}

// Bytes of the 8 pixels {u0, v0, u1, v1, u2, v2, u3, v3} of 4 pairs at
// per-pair scale m, each lane in the scalar order of operations; the
// saturating packs clamp exactly like clamp_u8.
inline __m128i noise_bytes8(__m256d uv01, __m256d uv23, __m256d m,
                            __m256d sigma, const double* base) {
  const __m256d m01 = _mm256_permute4x64_pd(m, _MM_SHUFFLE(1, 1, 0, 0));
  const __m256d m23 = _mm256_permute4x64_pd(m, _MM_SHUFFLE(3, 3, 2, 2));
  const __m256d half = _mm256_set1_pd(0.5);
  const __m128i i01 = _mm256_cvttpd_epi32(_mm256_add_pd(
      _mm256_add_pd(_mm256_loadu_pd(base),
                    _mm256_mul_pd(sigma, _mm256_mul_pd(uv01, m01))),
      half));
  const __m128i i23 = _mm256_cvttpd_epi32(_mm256_add_pd(
      _mm256_add_pd(_mm256_loadu_pd(base + 4),
                    _mm256_mul_pd(sigma, _mm256_mul_pd(uv23, m23))),
      half));
  const __m128i words = _mm_packs_epi32(i01, i23);
  return _mm_packus_epi16(words, words);
}

// Writes the 8 bytes of pairs [0, 4) to out8 and returns a per-pixel mask
// (bit 2j and 2j+1 for pair j) of the bytes the bracket did not certify.
inline unsigned noise_certify4(const double* u, const double* v,
                               const double* s, const double* base,
                               __m256d sigma, std::uint8_t* out8) {
  const __m256d s4 = _mm256_loadu_pd(s);
  const __m256d m = _mm256_sqrt_pd(_mm256_div_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0), _ZGVdN4v_log(s4)), s4));
  const __m256d u4 = _mm256_loadu_pd(u);
  const __m256d v4 = _mm256_loadu_pd(v);
  const __m256d lo = _mm256_unpacklo_pd(u4, v4);  // u0 v0 u2 v2
  const __m256d hi = _mm256_unpackhi_pd(u4, v4);  // u1 v1 u3 v3
  const __m256d uv01 = _mm256_permute2f128_pd(lo, hi, 0x20);
  const __m256d uv23 = _mm256_permute2f128_pd(lo, hi, 0x31);
  const __m128i low = noise_bytes8(
      uv01, uv23, _mm256_mul_pd(m, _mm256_set1_pd(1.0 - 0x1p-40)), sigma, base);
  const __m128i high = noise_bytes8(
      uv01, uv23, _mm256_mul_pd(m, _mm256_set1_pd(1.0 + 0x1p-40)), sigma, base);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out8), low);
  return ~static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(low, high))) &
         0xffu;
}

std::size_t sensor_noise_u8_avx2(const double* u, const double* v,
                                 const double* s, std::size_t pairs,
                                 const double* base, double sigma,
                                 std::uint8_t* out) {
  const __m256d sig = _mm256_set1_pd(sigma);
  const bool forced = sensor_noise_fallback_forced();
  std::size_t fallbacks = 0;
  // Recomputes with scalar log each of the n pairs from k that the mask
  // (or the test hook) marks uncertified.
  const auto settle = [&](std::size_t k, unsigned bad, std::size_t n) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!forced && ((bad >> (2 * j)) & 3u) == 0) continue;
      const std::size_t p = k + j;
      sensor_noise_u8_scalar(u + p, v + p, s + p, 1, base + 2 * p, sigma,
                             out + 2 * p);
      ++fallbacks;
    }
  };
  std::size_t k = 0;
  for (; k + 4 <= pairs; k += 4) {
    const unsigned bad =
        noise_certify4(u + k, v + k, s + k, base + 2 * k, sig, out + 2 * k);
    if (bad != 0 || forced) settle(k, bad, 4);
  }
  if (k < pairs) {
    // Tail: pad to a whole vector with in-contract dummy pairs.
    const std::size_t n = pairs - k;
    double tu[4] = {}, tv[4] = {}, ts[4] = {0.5, 0.5, 0.5, 0.5}, tb[8] = {};
    std::uint8_t tout[8];
    for (std::size_t j = 0; j < n; ++j) {
      tu[j] = u[k + j];
      tv[j] = v[k + j];
      ts[j] = s[k + j];
      tb[2 * j] = base[2 * (k + j)];
      tb[2 * j + 1] = base[2 * (k + j) + 1];
    }
    const unsigned bad = noise_certify4(tu, tv, ts, tb, sig, tout);
    std::memcpy(out + 2 * k, tout, 2 * n);
    settle(k, bad, n);
  }
  return fallbacks;
}

}  // namespace

const NoiseLog4 kNoiseLog4 = &noise_log4_avx2;

const KernelTable kKernelsAvx2 = {
    SimdLevel::kAvx2,   &sad16_avx2,       &fdct8x8_f32_avx2,
    &idct8x8_f32_avx2,  &fdct8x8_q15_avx2, &idct8x8_q15_avx2,
    &quantize64_avx2,   &dequantize64_avx2, &fb_analyze_avx2,
    &fb_synth_avx2,     &sensor_noise_u8_avx2};

}  // namespace mmsoc::dsp::detail

#endif  // MMSOC_SIMD_X86 && __AVX2__
