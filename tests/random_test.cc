// Unit tests for the PRNG substrate: determinism, ranges, rough
// uniformity, stream independence, the engine's identity with
// std::mt19937_64 and the exactness of the integer coin thresholds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "random/rng.h"
#include "random/splitmix64.h"
#include "random/xoshiro256pp.h"

namespace soldist {
namespace {

TEST(SplitMix64Test, DeterministicForSameSeed) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64Test, KnownReferenceValue) {
  // Reference: first output of SplitMix64 for seed 0 per Vigna's code.
  SplitMix64 g(0);
  EXPECT_EQ(g.Next(), 0xe220a8397b1dcdafULL);
}

TEST(DeriveSeedTest, DistinctIndexesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seeds.insert(DeriveSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(DeriveSeedTest, Deterministic) {
  EXPECT_EQ(DeriveSeed(7, 3), DeriveSeed(7, 3));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(8, 3));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(7, 4));
}

TEST(Xoshiro256ppTest, DeterministicForSameSeed) {
  Xoshiro256pp a(9), b(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Xoshiro256ppTest, JumpChangesStream) {
  Xoshiro256pp a(9), b(9);
  b.Jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UnitRealInHalfOpenInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UnitReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UnitRealMeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.UnitReal();
  // SD of the mean is ~1/sqrt(12*kSamples) ≈ 0.0009; 5 sigma tolerance.
  EXPECT_NEAR(sum / kSamples, 0.5, 0.005);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(4);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100000;
  std::vector<int> buckets(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++buckets[rng.UniformInt(kBound)];
  // Chi-squared with 9 dof: 99.9% quantile ≈ 27.9.
  double expected = static_cast<double>(kSamples) / kBound;
  double chi2 = 0.0;
  for (int b : buckets) {
    chi2 += (b - expected) * (b - expected) / expected;
  }
  EXPECT_LT(chi2, 35.0);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  constexpr int kSamples = 200000;
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (rng.Bernoulli(p)) ++hits;
    }
    double rate = static_cast<double>(hits) / kSamples;
    // 5-sigma band: sigma = sqrt(p(1-p)/kSamples) <= 0.0011.
    EXPECT_NEAR(rate, p, 0.006) << "p=" << p;
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));  // UnitReal() < 0 never holds
  }
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    if (rng.Bernoulli(1.0)) ++hits;
  }
  EXPECT_EQ(hits, 100);  // UnitReal() < 1 always holds
}

TEST(RngTest, EngineUsableWithStdShuffle) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  std::shuffle(v.begin(), v.end(), rng.engine());
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

/// Rng::UniformInt's Lemire method on a std::mt19937_64.
std::uint64_t StdUniformInt(std::mt19937_64* engine, std::uint64_t bound) {
  unsigned __int128 m = static_cast<unsigned __int128>((*engine)()) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (-bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>((*engine)()) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

TEST(RngTest, StreamMatchesStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  // 3 full refill blocks plus a partial one per operation.
  constexpr int kDraws = 3 * 312 + 100;
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                             std::uint64_t{42}, DeriveSeed(7, 2),
                             std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < kDraws; ++i) ASSERT_EQ(rng.NextBits(), ref());
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(rng.UnitReal(), static_cast<double>(ref() >> 11) * 0x1.0p-53);
    }
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(rng.UniformInt(241), StdUniformInt(&ref, 241));
    }
    // std::shuffle through engine(): same permutations, same draws.
    std::vector<int> got(1000);
    std::iota(got.begin(), got.end(), 0);
    std::vector<int> want = got;
    for (int round = 0; round < 3; ++round) {
      std::shuffle(got.begin(), got.end(), rng.engine());
      std::shuffle(want.begin(), want.end(), ref);
      ASSERT_EQ(got, want);
    }
    ASSERT_EQ(rng.NextBits(), ref());
  }
}

TEST(RngTest, CoinThresholdIsExact) {
  std::vector<double> probs = {1.0, 0.1, 0.01};
  for (int d = 1; d <= 5000; ++d) probs.push_back(1.0 / d);
  const std::size_t base = probs.size();
  for (std::size_t i = 0; i < base; ++i) {
    probs.push_back(std::nextafter(probs[i], 0.0));
  }
  Rng rng(13);
  for (double p : probs) {
    SCOPED_TRACE(p);
    const std::uint64_t t = CoinThreshold(p);
    ASSERT_LE(t, std::uint64_t{1} << 53);
    for (std::uint64_t k : {t - 1, t, rng.NextBits() >> 11}) {
      if (k >= std::uint64_t{1} << 53) continue;  // not a 53-bit draw
      ASSERT_EQ(k < t, static_cast<double>(k) * 0x1.0p-53 < p) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace soldist
