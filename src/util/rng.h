#ifndef EMSIM_UTIL_RNG_H_
#define EMSIM_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace emsim {

/// SplitMix64: used to expand a single 64-bit seed into the state of larger
/// generators. Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom
/// Number Generators".
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Deterministic pseudo-random generator (xoshiro256++). Every stochastic
/// component of the simulator draws from an explicitly seeded Rng so that
/// experiments are exactly reproducible; there is no global RNG state.
class Rng {
 public:
  /// Seeds the generator. Equal seeds produce identical streams on every
  /// platform.
  explicit Rng(uint64_t seed = 0x243F6A8885A308D3ULL);

  /// Raw 64 uniform bits. Inline (with the bounded draws below): every
  /// priced disk access draws rotational latency, so these sit on the
  /// simulator's per-request hot path.
  uint64_t Next64() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless unbiased bounded generation.
  uint64_t UniformInt(uint64_t bound) {
    EMSIM_CHECK(bound > 0);
    // Lemire's method: multiply-shift with rejection to remove modulo bias.
    uint64_t x = Next64();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = Next64();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble() {
    // 53 uniform mantissa bits.
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) { return lo + (hi - lo) * UniformDouble(); }

  /// Exponentially distributed double with the given mean (> 0).
  double Exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Picks an index in [0, weights.size()) proportionally to weights; the
  /// weights must be non-negative with a positive sum.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<uint32_t> Permutation(uint32_t n);

  /// The same shuffle (identical draws) into `*out`, replacing its contents
  /// without allocating once the buffer has grown to `n`.
  void Permutation(uint32_t n, std::vector<uint32_t>* out);

  /// Creates an independent generator derived from this one (stream split).
  Rng Split();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// Zipf(θ) sampler over {0, ..., n-1} using the rejection-inversion method of
/// Hörmann & Derflinger, O(1) per sample after O(1) setup. θ = 0 degenerates
/// to uniform; larger θ skews mass toward low indices.
class ZipfGenerator {
 public:
  /// `n` must be >= 1 and `theta` >= 0.
  ZipfGenerator(uint64_t n, double theta);

  /// Draws one sample in [0, n).
  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  double H(double x) const;
  double HInverse(double x) const;

  uint64_t n_;
  double theta_;
  double h_integral_x1_;
  double h_integral_num_elements_;
  double s_;
};

}  // namespace emsim

#endif  // EMSIM_UTIL_RNG_H_
