#include "util/rng.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace emsim {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next64() == b.Next64();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.UniformInt(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntApproximatelyUniform) {
  Rng rng(13);
  const int buckets = 10;
  const int samples = 100000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < samples; ++i) {
    ++counts[rng.UniformInt(buckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, samples / buckets, samples / buckets * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  Rng rng(19);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformDoubleRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.UniformDouble(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(3.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(43);
  auto perm = rng.Permutation(100);
  std::vector<uint32_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(RngTest, PermutationZeroAndOne) {
  Rng rng(47);
  EXPECT_TRUE(rng.Permutation(0).empty());
  auto one = rng.Permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(RngTest, PermutationIntoBufferMatchesPermutation) {
  // The in-place overload makes exactly the draws of the returning one
  // (itself checked against a spelled-out Fisher-Yates), whatever the
  // buffer held before.
  Rng a(59);
  Rng b(59);
  Rng reference(59);
  std::vector<uint32_t> buffer(200, 7);
  for (uint32_t n : {0u, 1u, 2u, 5u, 100u, 3u}) {
    std::vector<uint32_t> expected = a.Permutation(n);
    b.Permutation(n, &buffer);
    EXPECT_EQ(buffer, expected) << "n=" << n;

    std::vector<uint32_t> spelled(n);
    for (uint32_t i = 0; i < n; ++i) {
      spelled[i] = i;
    }
    for (uint32_t i = n; i > 1; --i) {
      std::swap(spelled[i - 1], spelled[reference.UniformInt(i)]);
    }
    EXPECT_EQ(spelled, expected) << "n=" << n;
  }
  const uint64_t next = a.Next64();
  EXPECT_EQ(b.Next64(), next);
  EXPECT_EQ(reference.Next64(), next);
}

TEST(RngTest, SplitStreamsLookIndependent) {
  Rng parent(53);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.Next64() == child.Next64();
  }
  EXPECT_LT(same, 2);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(59);
  ZipfGenerator zipf(8, 0.0);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[zipf.Next(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(ZipfTest, MassDecreasesWithRank) {
  Rng rng(61);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[99]);
}

TEST(ZipfTest, SingleElement) {
  Rng rng(67);
  ZipfGenerator zipf(1, 0.99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.Next(rng), 0u);
  }
}

TEST(ZipfTest, InRange) {
  Rng rng(71);
  for (double theta : {0.0, 0.5, 0.99, 1.0, 1.5}) {
    ZipfGenerator zipf(37, theta);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(zipf.Next(rng), 37u);
    }
  }
}

}  // namespace
}  // namespace emsim
