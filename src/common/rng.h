// Deterministic PRNG used by all synthetic sources and simulators.
//
// Every experiment in this repo must be reproducible run-to-run, so all
// randomness flows through this explicitly-seeded generator rather than
// std::random_device. SplitMix64 for seeding, xoshiro256** for the stream
// (public-domain algorithms by Blackman & Vigna).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace mmsoc::common {

/// Small, fast, explicitly-seeded PRNG. Satisfies UniformRandomBitGenerator
/// so it can also feed <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept {
    // SplitMix64 expansion of the seed into four non-zero lanes.
    std::uint64_t x = seed;
    for (auto& lane : s_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      lane = z ^ (z >> 31);
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;  // avoid all-zero state
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free variant is overkill here;
    // 64-bit modulo bias is < 2^-40 for all bounds used in this repo.
    return next() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    if (hi <= lo) return lo;
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Standard normal via Marsaglia polar method (deterministic).
  double next_gaussian() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    PolarPoint p{};
    do {
      p = polar_draw();
    } while (!polar_accept(p.s));
    const double m = polar_scale(p.s);
    spare_ = p.v * m;
    have_spare_ = true;
    return p.u * m;
  }

  /// Draws `pairs` accepted Marsaglia polar points into u, v and s
  /// (s = u*u + v*v, 0 < s < 1): the points next_gaussian would accept,
  /// from the same stream, with the spare left untouched. The loop is
  /// branch-free (every candidate is stored; the cursor advances only on
  /// acceptance) and runs on a local copy of the generator, which keeps
  /// its state in registers.
  void draw_polar(double* u, double* v, double* s, std::size_t pairs) noexcept {
    Rng gen = *this;
    for (std::size_t k = 0; k < pairs;) {
      const PolarPoint p = gen.polar_draw();
      u[k] = p.u;
      v[k] = p.v;
      s[k] = p.s;
      k += polar_accept(p.s);
    }
    *this = gen;
  }

  /// The scale sqrt(-2 ln s / s) that maps an accepted polar point
  /// (u, v, s) to the two normal deviates u*m and v*m, as next_gaussian
  /// computes it.
  static double polar_scale(double s) noexcept {
    return sqrt_impl(-2.0 * log_impl(s) / s);
  }

  /// Bernoulli draw with probability p of returning true.
  bool next_bool(double p) noexcept { return next_double() < p; }

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  // The polar method in one copy, shared by next_gaussian and draw_polar:
  // a candidate point in the square and the unit-disc test.
  struct PolarPoint {
    double u, v, s;
  };
  PolarPoint polar_draw() noexcept {
    const double u = next_double_in(-1.0, 1.0);
    const double v = next_double_in(-1.0, 1.0);
    return {u, v, u * u + v * v};
  }
  static bool polar_accept(double s) noexcept {
    return (s < 1.0) & (s != 0.0);
  }

  // Tiny wrappers keep <cmath> out of this hot header's interface.
  static double sqrt_impl(double x) noexcept;
  static double log_impl(double x) noexcept;
};

inline double Rng::sqrt_impl(double x) noexcept {
  return __builtin_sqrt(x);
}
inline double Rng::log_impl(double x) noexcept {
  return __builtin_log(x);
}

}  // namespace mmsoc::common
