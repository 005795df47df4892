// Unit tests for rl0/hashing: field arithmetic, k-wise hash, mixing hash,
// and the nested ranged sampling (paper Fact 1(b)).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "rl0/hashing/cell_hasher.h"
#include "rl0/hashing/kwise_hash.h"
#include "rl0/hashing/mix_hash.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

// ----------------------------------------------------------- field math

TEST(Mod61Test, SmallValuesUnchanged) {
  EXPECT_EQ(Mod61(0), 0u);
  EXPECT_EQ(Mod61(1), 1u);
  EXPECT_EQ(Mod61(kMersenne61 - 1), kMersenne61 - 1);
}

TEST(Mod61Test, ModulusFoldsToZero) {
  EXPECT_EQ(Mod61(kMersenne61), 0u);
  EXPECT_EQ(Mod61(static_cast<__uint128_t>(kMersenne61) * 2), 0u);
  EXPECT_EQ(Mod61(static_cast<__uint128_t>(kMersenne61) * kMersenne61), 0u);
}

TEST(Mod61Test, MatchesNaiveModulo) {
  for (uint64_t x : {uint64_t{12345}, uint64_t{1} << 40, uint64_t{1} << 63,
                     ~uint64_t{0}}) {
    EXPECT_EQ(Mod61(x), x % kMersenne61) << x;
  }
}

TEST(MulMod61Test, MatchesSmallProducts) {
  EXPECT_EQ(MulMod61(3, 5), 15u);
  EXPECT_EQ(MulMod61(kMersenne61 - 1, 2), kMersenne61 - 2);
  // (p-1)^2 = p^2 - 2p + 1 ≡ 1 (mod p).
  EXPECT_EQ(MulMod61(kMersenne61 - 1, kMersenne61 - 1), 1u);
}

// --------------------------------------------------------- k-wise hash

TEST(KWisePolyHashTest, DeterministicPerSeed) {
  KWisePolyHash h1(8, 42), h2(8, 42), h3(8, 43);
  EXPECT_EQ(h1(17), h2(17));
  EXPECT_NE(h1(17), h3(17));  // different seed (whp)
}

TEST(KWisePolyHashTest, OutputInField) {
  KWisePolyHash h(16, 7);
  for (uint64_t x = 0; x < 1000; ++x) EXPECT_LT(h(x), kMersenne61);
}

TEST(KWisePolyHashTest, PairwiseUniformityOfLowBit) {
  // Over random seeds, Pr[h(x) even] should be ~1/2 for any fixed x.
  const uint64_t x = 123456789;
  int even = 0;
  const int trials = 2000;
  for (int seed = 0; seed < trials; ++seed) {
    KWisePolyHash h(2, static_cast<uint64_t>(seed));
    even += (h(x) & 1) == 0;
  }
  EXPECT_NEAR(static_cast<double>(even) / trials, 0.5, 0.05);
}

TEST(KWisePolyHashTest, DegreeMatchesK) {
  EXPECT_EQ(KWisePolyHash(2, 1).k(), 2u);
  EXPECT_EQ(KWisePolyHash(32, 1).k(), 32u);
}

TEST(KWisePolyHashTest, DistinctInputsRarelyCollide) {
  KWisePolyHash h(8, 99);
  std::set<uint64_t> outputs;
  const int n = 10000;
  for (int x = 0; x < n; ++x) outputs.insert(h(static_cast<uint64_t>(x)));
  // Birthday bound: expected collisions ~ n^2 / (2 * 2^61) ≈ 0.
  EXPECT_EQ(outputs.size(), static_cast<size_t>(n));
}

TEST(KWisePolyHashTest, LowBitsBalanced) {
  KWisePolyHash h(8, 5);
  int ones = 0;
  const int n = 20000;
  for (int x = 0; x < n; ++x) ones += h(static_cast<uint64_t>(x)) & 1;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02);
}

// ------------------------------------------------------------- mix hash

TEST(MixHashTest, DeterministicPerSeed) {
  MixHash h1(11), h2(11), h3(12);
  EXPECT_EQ(h1(500), h2(500));
  EXPECT_NE(h1(500), h3(500));
}

TEST(MixHashTest, AvalancheOnInputBitFlip) {
  MixHash h(3);
  int flipped = __builtin_popcountll(h(1000) ^ h(1001));
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(MixHashTest, LowBitsBalanced) {
  MixHash h(9);
  int ones = 0;
  const int n = 20000;
  for (int x = 0; x < n; ++x) ones += h(static_cast<uint64_t>(x)) & 1;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02);
}

// ---------------------------------------------------------- cell hasher

class CellHasherFamilyTest : public ::testing::TestWithParam<HashFamily> {};

TEST_P(CellHasherFamilyTest, LevelZeroSamplesEverything) {
  CellHasher hasher(GetParam(), 77);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_TRUE(hasher.SampledAtLevel(key, 0));
  }
}

TEST_P(CellHasherFamilyTest, NestednessFact1b) {
  // Sampled at level l+1 implies sampled at level l: h(x) mod 2R == 0
  // implies h(x) mod R == 0.
  CellHasher hasher(GetParam(), 123);
  for (uint64_t key = 0; key < 5000; ++key) {
    for (uint32_t level = 1; level <= 12; ++level) {
      if (hasher.SampledAtLevel(key, level)) {
        EXPECT_TRUE(hasher.SampledAtLevel(key, level - 1))
            << "key=" << key << " level=" << level;
      }
    }
  }
}

TEST_P(CellHasherFamilyTest, SampleRateApproximatelyTwoToMinusLevel) {
  CellHasher hasher(GetParam(), 321);
  const int n = 200000;
  for (uint32_t level : {1u, 2u, 4u, 6u}) {
    int sampled = 0;
    for (int key = 0; key < n; ++key) {
      sampled += hasher.SampledAtLevel(static_cast<uint64_t>(key), level);
    }
    const double expect = std::pow(2.0, -static_cast<double>(level));
    EXPECT_NEAR(static_cast<double>(sampled) / n, expect, expect * 0.15)
        << "level=" << level;
  }
}

TEST_P(CellHasherFamilyTest, DeterministicAcrossInstances) {
  CellHasher a(GetParam(), 55), b(GetParam(), 55);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(a.Hash(key), b.Hash(key));
    EXPECT_EQ(a.SampledAtLevel(key, 5), b.SampledAtLevel(key, 5));
  }
}

TEST_P(CellHasherFamilyTest, DepthMatchesSampledAtEveryLevel) {
  // Depth(k) is the whole nested hierarchy in one number: sampled at
  // level l ⇔ l ≤ Depth(k), for every level up to kMaxLevel.
  CellHasher hasher(GetParam(), 2718);
  Xoshiro256pp rng(SplitMix64(31415));
  uint64_t mismatches = 0;
  uint32_t deepest = 0;
  for (uint64_t i = 0; i < 100000; ++i) {
    // Dense small keys and full-width random ones.
    const uint64_t key = (i & 1) != 0 ? i : rng();
    const uint32_t depth = hasher.Depth(key);
    ASSERT_LE(depth, CellHasher::kMaxLevel);
    deepest = std::max(deepest, depth);
    for (uint32_t level = 0; level <= CellHasher::kMaxLevel; ++level) {
      mismatches += hasher.SampledAtLevel(key, level) != (level <= depth);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(deepest, 12u);  // ~log2(1e5) levels are reached
}

/// A key whose degree-1 polynomial hash (kwise_k = 2) is `target`:
/// h(x) = c0 + c1·x mod p gives x = (target − c0) / c1 mod p.
uint64_t KeyWithPolyHash(const CellHasher& hasher, uint64_t target) {
  const uint64_t c0 = hasher.Hash(0);
  const uint64_t c1 = (hasher.Hash(1) + kMersenne61 - c0) % kMersenne61;
  EXPECT_NE(c1, 0u);
  uint64_t inverse = 1;  // c1^(p-2) by square-and-multiply (Fermat)
  for (uint64_t e = kMersenne61 - 2, b = c1; e != 0; e >>= 1) {
    if ((e & 1) != 0) inverse = MulMod61(inverse, b);
    b = MulMod61(b, b);
  }
  return MulMod61((target + kMersenne61 - c0) % kMersenne61, inverse);
}

TEST(CellHasherTest, DepthAtExtremeHashes) {
  // Hash 0 is sampled at every level (Depth caps at kMaxLevel); hashes
  // with exactly 59 or 60 trailing zeros sit at and just below the cap.
  CellHasher hasher(HashFamily::kKWisePoly, 99, /*kwise_k=*/2);
  for (const uint64_t target :
       {uint64_t{0}, uint64_t{1} << 59, uint64_t{1} << 60,
        (uint64_t{1} << 60) | (uint64_t{1} << 59), uint64_t{1}}) {
    const uint64_t key = KeyWithPolyHash(hasher, target);
    ASSERT_EQ(hasher.Hash(key), target);
    const uint32_t expect =
        target == 0 ? CellHasher::kMaxLevel
                    : std::min<uint32_t>(
                          static_cast<uint32_t>(__builtin_ctzll(target)),
                          CellHasher::kMaxLevel);
    EXPECT_EQ(hasher.Depth(key), expect) << "hash " << target;
    for (uint32_t level = 0; level <= CellHasher::kMaxLevel; ++level) {
      EXPECT_EQ(hasher.SampledAtLevel(key, level), level <= expect)
          << "hash " << target << " level " << level;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CellHasherFamilyTest,
                         ::testing::Values(HashFamily::kMix64,
                                           HashFamily::kKWisePoly),
                         [](const auto& info) {
                           return info.param == HashFamily::kMix64
                                      ? "Mix64"
                                      : "KWisePoly";
                         });

TEST(CellHasherTest, FamiliesDiffer) {
  CellHasher mix(HashFamily::kMix64, 5);
  CellHasher poly(HashFamily::kKWisePoly, 5);
  int diff = 0;
  for (uint64_t key = 0; key < 64; ++key) diff += mix.Hash(key) != poly.Hash(key);
  EXPECT_GT(diff, 60);
}

}  // namespace
}  // namespace rl0
