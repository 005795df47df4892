// CellIndex probe tests: the runtime-dispatched (AVX2 / scalar) bucket
// compare must agree with a reference map under arbitrary churn, and the
// dispatch name must match the build configuration. The multi-bucket
// SIMD compare only changes how a probe sequence is scanned — hash
// order, tombstone handling, and growth are shared with the scalar
// path, so equivalence here pins the whole family.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rl0/core/cell_index.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

TEST(CellIndexSimdTest, DispatchMatchesBuildConfiguration) {
  const std::string name = CellIndexDispatch();
#ifdef RL0_NO_SIMD
  EXPECT_EQ(name, "scalar");
#else
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
#endif
}

TEST(CellIndexSimdTest, MatchesReferenceMapUnderRandomChurn) {
  Xoshiro256pp rng(SplitMix64(20260807));
  CellIndex index;
  std::unordered_map<uint64_t, uint32_t> reference;
  std::vector<uint64_t> inserted;  // with repeats; good erase targets

  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 5 || inserted.empty()) {
      // Mix dense sequential keys (adjacent grid cells collide in the
      // low bits) with full-width random ones.
      const uint64_t key = rng.NextBounded(2) == 0
                               ? rng.NextBounded(512)
                               : rng();
      const uint32_t head = static_cast<uint32_t>(rng.NextBounded(1 << 20));
      const uint32_t prev = index.Upsert(key, head);
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(prev, CellIndex::kNpos) << "key " << key;
        reference.emplace(key, head);
      } else {
        EXPECT_EQ(prev, it->second) << "key " << key;
        it->second = head;
      }
      inserted.push_back(key);
    } else if (op < 7) {
      const uint64_t key = inserted[rng.NextBounded(inserted.size())];
      index.Erase(key);
      reference.erase(key);
    } else if (op < 9) {
      // Lookup a key that was live at some point (may be erased now).
      const uint64_t key = inserted[rng.NextBounded(inserted.size())];
      const auto it = reference.find(key);
      EXPECT_EQ(index.Find(key),
                it == reference.end() ? CellIndex::kNpos : it->second)
          << "key " << key;
    } else {
      // Lookup a key that has (almost surely) never been inserted.
      EXPECT_EQ(index.Find(rng() | (uint64_t{1} << 63)), CellIndex::kNpos);
    }
    ASSERT_EQ(index.live(), reference.size());
  }

  // Final sweep: every surviving key resolves, and ForEach visits the
  // exact live set once.
  std::unordered_map<uint64_t, uint32_t> visited;
  index.ForEach([&](uint64_t key, uint32_t head) {
    EXPECT_TRUE(visited.emplace(key, head).second) << "key " << key;
  });
  EXPECT_EQ(visited.size(), reference.size());
  for (const auto& [key, head] : reference) {
    EXPECT_EQ(index.Find(key), head) << "key " << key;
    const auto it = visited.find(key);
    ASSERT_NE(it, visited.end()) << "key " << key;
    EXPECT_EQ(it->second, head);
  }
}

TEST(CellIndexSimdTest, TombstoneHeavyProbeChainsStayCorrect) {
  // Insert a packed run of keys, erase most of them, then re-probe:
  // the dispatched compare has to step over tombstone runs without
  // terminating early (tombstones are not empties).
  CellIndex index;
  constexpr uint64_t kKeys = 300;  // forces several growth rounds
  for (uint64_t k = 0; k < kKeys; ++k) {
    index.SetHead(k, static_cast<uint32_t>(k * 3));
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k % 5 != 0) index.Erase(k);
  }
  EXPECT_EQ(index.live(), kKeys / 5);
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k % 5 == 0) {
      EXPECT_EQ(index.Find(k), static_cast<uint32_t>(k * 3)) << "key " << k;
    } else {
      EXPECT_EQ(index.Find(k), CellIndex::kNpos) << "key " << k;
    }
  }
  // Reinsert into the tombstoned table; every key must land cleanly.
  for (uint64_t k = 0; k < kKeys; ++k) {
    index.SetHead(k, static_cast<uint32_t>(k + 7));
  }
  EXPECT_EQ(index.live(), kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(index.Find(k), static_cast<uint32_t>(k + 7)) << "key " << k;
  }
}

TEST(CellIndexSimdTest, NeverFilledIndexAnswersWithoutBuckets) {
  // A new index holds no buckets until its first insertion; every read
  // and Erase must work on it as on an empty table.
  CellIndex index;
  for (const uint64_t key : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
    EXPECT_EQ(index.Find(key), CellIndex::kNpos);
    index.Prefetch(key);
    index.Erase(key);
  }
  size_t visited = 0;
  index.ForEach([&](uint64_t, uint32_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(index.live(), 0u);
  // The first insertion allocates; the table then behaves normally.
  EXPECT_EQ(index.Upsert(42, 7), CellIndex::kNpos);
  EXPECT_EQ(index.Find(42), 7u);
  EXPECT_EQ(index.live(), 1u);
}

TEST(CellIndexSimdTest, ClearEmptiesSmallAndGrownTables) {
  for (const uint64_t keys : {uint64_t{5}, uint64_t{300}}) {
    CellIndex index;
    for (uint64_t k = 0; k < keys; ++k) index.SetHead(k, 1);
    index.Clear();
    EXPECT_EQ(index.live(), 0u);
    for (uint64_t k = 0; k < keys; ++k) {
      EXPECT_EQ(index.Find(k), CellIndex::kNpos) << "key " << k;
    }
    size_t visited = 0;
    index.ForEach([&](uint64_t, uint32_t) { ++visited; });
    EXPECT_EQ(visited, 0u);
    for (uint64_t k = 0; k < keys; ++k) index.SetHead(k, 2);
    EXPECT_EQ(index.live(), keys);
    EXPECT_EQ(index.Find(keys - 1), 2u);
  }
}

TEST(CellIndexSimdTest, WideValuesUseZeroAsAbsent) {
  // The sliding-window cell directory's map: 64-bit level masks with 0
  // for "no entry"; FindOrInsert hands out a zero to OR bits into.
  BasicCellIndex<uint64_t, 0> masks;
  EXPECT_EQ(masks.Find(9), 0u);
  masks.FindOrInsert(9) |= uint64_t{1} << 63;
  masks.FindOrInsert(9) |= 1;
  EXPECT_EQ(masks.Find(9), (uint64_t{1} << 63) | 1);
  EXPECT_EQ(masks.live(), 1u);
  masks.Erase(9);
  EXPECT_EQ(masks.Find(9), 0u);
  EXPECT_EQ(masks.live(), 0u);
}

}  // namespace
}  // namespace rl0
