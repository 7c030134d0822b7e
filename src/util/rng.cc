#include "util/rng.h"

#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>

namespace emsim {

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) {
    s = sm.Next();
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  EMSIM_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::Exponential(double mean) {
  EMSIM_CHECK(mean > 0);
  double u = UniformDouble();
  // Avoid log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(1.0 - u);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  return UniformDouble() < p;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  EMSIM_CHECK(!weights.empty());
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  EMSIM_CHECK(total > 0);
  double u = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    EMSIM_CHECK(weights[i] >= 0);
    acc += weights[i];
    if (u < acc) {
      return i;
    }
  }
  return weights.size() - 1;  // Floating-point slack: return the last index.
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> perm;
  Permutation(n, &perm);
  return perm;
}

void Rng::Permutation(uint32_t n, std::vector<uint32_t>* out) {
  std::vector<uint32_t>& perm = *out;
  perm.resize(n);
  std::iota(perm.begin(), perm.end(), 0U);
  for (uint32_t i = n; i > 1; --i) {
    uint32_t j = static_cast<uint32_t>(UniformInt(i));
    std::swap(perm[i - 1], perm[j]);
  }
}

Rng Rng::Split() { return Rng(Next64() ^ 0x9E3779B97F4A7C15ULL); }

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  EMSIM_CHECK(n >= 1);
  EMSIM_CHECK(theta >= 0);
  h_integral_x1_ = H(1.5) - 1.0;
  h_integral_num_elements_ = H(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HInverse(H(2.5) - std::pow(2.0, -theta));
}

double ZipfGenerator::H(double x) const {
  // Integral of x^-theta: handles theta == 1 (log) separately.
  if (theta_ == 1.0) {
    return std::log(x);
  }
  return (std::pow(x, 1.0 - theta_) - 1.0) / (1.0 - theta_);
}

double ZipfGenerator::HInverse(double x) const {
  if (theta_ == 1.0) {
    return std::exp(x);
  }
  return std::pow(1.0 + x * (1.0 - theta_), 1.0 / (1.0 - theta_));
}

uint64_t ZipfGenerator::Next(Rng& rng) {
  if (n_ == 1) {
    return 0;
  }
  if (theta_ == 0.0) {
    return rng.UniformInt(n_);
  }
  while (true) {
    double u =
        h_integral_num_elements_ + rng.UniformDouble() * (h_integral_x1_ - h_integral_num_elements_);
    double x = HInverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) {
      k = 1.0;
    } else if (k > static_cast<double>(n_)) {
      k = static_cast<double>(n_);
    }
    if (k - x <= s_ || u >= H(k + 0.5) - std::pow(k, -theta_)) {
      return static_cast<uint64_t>(k) - 1;  // 0-based rank.
    }
  }
}

}  // namespace emsim
