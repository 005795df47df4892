// Structural invariants of the Algorithm 2/3 bookkeeping that the other
// suites exercise only implicitly: the key-value store A holds exactly one
// pair per candidate group with its value inside the window, subwindow
// Fact 3 (each non-empty level ends with an accepted latest point... as
// maintained by the split rule), and the split threshold restoration.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "rl0/core/checkpoint.h"
#include "rl0/core/snapshot.h"
#include "rl0/core/sw_fixed_sampler.h"
#include "rl0/core/sw_sampler.h"

namespace rl0 {
namespace {

SamplerOptions BaseOptions(uint64_t seed) {
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.expected_stream_length = 1 << 16;
  return opts;
}

TEST(SwInvariantsTest, OnePairPerGroupValuesInWindow) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(1), 0, 20).value();
  Xoshiro256pp rng(2);
  for (int t = 0; t < 400; ++t) {
    // 30 groups revisited with jitter.
    const int g = static_cast<int>(rng.NextBounded(30));
    sampler->Insert(Point{10.0 * g + 0.3 * (rng.NextDouble() - 0.5)}, t);

    std::vector<GroupRecord> groups;
    sampler->SnapshotGroups(&groups);
    // (a) all latest stamps inside the window (t-20, t];
    // (b) representatives pairwise > alpha apart (one pair per group);
    // (c) latest point within alpha of its representative.
    for (size_t i = 0; i < groups.size(); ++i) {
      ASSERT_GT(groups[i].latest_stamp, t - 20);
      ASSERT_LE(groups[i].latest_stamp, t);
      ASSERT_LE(Distance(groups[i].rep, groups[i].latest), 1.0 + 1e-12);
      for (size_t j = i + 1; j < groups.size(); ++j) {
        ASSERT_GT(Distance(groups[i].rep, groups[j].rep), 1.0);
      }
    }
  }
}

TEST(SwInvariantsTest, RepIndexNeverAfterLatestIndex) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(3), 1, 50).value();
  Xoshiro256pp rng(4);
  for (int t = 0; t < 500; ++t) {
    const int g = static_cast<int>(rng.NextBounded(40));
    Point p{10.0 * g + 0.2 * (rng.NextDouble() - 0.5)};
    std::vector<uint64_t> adj;
    sampler->InsertPrepared(
        sampler->context().Prepare(p, t, static_cast<uint64_t>(t), &adj));

    std::vector<GroupRecord> groups;
    sampler->SnapshotGroups(&groups);
    for (const GroupRecord& g2 : groups) {
      ASSERT_LE(g2.rep_index, g2.latest_index);
    }
  }
}

TEST(SwInvariantsTest, HierarchyGroupsPartitionAcrossLevels) {
  // A group representative tracked as *accepted* must appear at exactly
  // one level (rejected bookkeeping entries may shadow it above).
  SamplerOptions opts = BaseOptions(5);
  opts.accept_cap = 8;
  auto sampler = RobustL0SamplerSW::Create(opts, 128).value();
  Xoshiro256pp rng(6);
  for (int t = 0; t < 1500; ++t) {
    const int g = static_cast<int>(rng.NextBounded(300));
    sampler.Insert(Point{10.0 * g + 0.2 * (rng.NextDouble() - 0.5)}, t);
    if (t % 100 != 99) continue;
    std::set<int> accepted_groups;
    for (size_t l = 0; l < sampler.num_levels(); ++l) {
      std::vector<GroupRecord> groups;
      sampler.level(l).SnapshotGroups(&groups);
      for (const GroupRecord& record : groups) {
        if (!record.accepted) continue;
        const int group = static_cast<int>(record.rep[0] / 10.0 + 0.5);
        ASSERT_TRUE(accepted_groups.insert(group).second)
            << "group " << group << " accepted at two levels, t=" << t;
      }
    }
  }
}

TEST(SwInvariantsTest, SplitRestoresCapAtThisLevel) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(7), 0, 1 << 20)
          .value();
  for (int i = 0; i < 100; ++i) sampler->Insert(Point{10.0 * i}, i);
  const size_t before = sampler->accept_size();
  std::vector<GroupRecord> promoted;
  ASSERT_TRUE(sampler->SplitPromote(&promoted));
  // Accounting: every previously accepted group is now kept, promoted as
  // accepted, or was demoted/dropped by the rate halving.
  size_t promoted_accepted = 0;
  for (const GroupRecord& g : promoted) promoted_accepted += g.accepted;
  EXPECT_LT(sampler->accept_size(), before);
  EXPECT_GT(promoted_accepted, 0u);
  EXPECT_LE(sampler->accept_size() + promoted_accepted, before);
  // The kept suffix is all unsampled at the next level (that is what
  // makes the split threshold effective).
  std::vector<GroupRecord> kept;
  sampler->SnapshotGroups(&kept);
  for (const GroupRecord& g : kept) {
    if (g.accepted) {
      EXPECT_FALSE(sampler->context().hasher.SampledAtLevel(g.rep_cell, 1));
    }
  }
}

TEST(SwInvariantsTest, ExpireIsIdempotent) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(9), 0, 10).value();
  for (int t = 0; t < 30; ++t) sampler->Insert(Point{10.0 * t}, t);
  sampler->Expire(35);
  const size_t after_first = sampler->group_count();
  sampler->Expire(35);
  EXPECT_EQ(sampler->group_count(), after_first);
  sampler->Expire(30);  // earlier horizon: no effect either
  EXPECT_EQ(sampler->group_count(), after_first);
}

/// The cross-level cell directory is exact: every entry's mask is the
/// set of levels whose table has a chain at that cell, and every live
/// group's level is in its representative cell's mask.
void ExpectDirectoryExact(const RobustL0SamplerSW& sampler) {
  const SwCellDirectory& directory = sampler.directory();
  directory.ForEach([&](uint64_t key, uint64_t levels) {
    uint64_t expect = 0;
    for (size_t l = 0; l < sampler.num_levels(); ++l) {
      if (sampler.level(l).table().CellHead(key) != SwGroupTable::kNpos) {
        expect |= uint64_t{1} << l;
      }
    }
    EXPECT_EQ(levels, expect) << "cell " << key;
  });
  for (size_t l = 0; l < sampler.num_levels(); ++l) {
    const SwGroupTable& table = sampler.level(l).table();
    for (uint32_t slot = 0; slot < table.slot_count(); ++slot) {
      if (!table.IsLive(slot)) continue;
      EXPECT_NE(directory.Levels(table.rep_cell(slot)) >> l & 1, 0u)
          << "level " << l << " slot " << slot;
    }
  }
}

TEST(SwInvariantsTest, CellDirectoryMatchesLevelTables) {
  // Evidence that the streams exercised each structural path.
  bool compacted = false;
  bool cascaded = false;
  bool waved = false;
  struct Config {
    int64_t window;
    size_t accept_cap;
    uint64_t arrivals_per_tick;  // mean arrivals per stamp unit
  };
  // A three-level hierarchy with ~40 arrivals per stamp grows its top
  // table past Compact's size floor before each expiry wave; a cap of 6
  // over ten levels cascades on almost every accepted arrival.
  for (const Config c : {Config{4, 200, 40}, Config{300, 6, 2}}) {
    SCOPED_TRACE("window " + std::to_string(c.window));
    SamplerOptions opts = BaseOptions(11);
    opts.accept_cap = c.accept_cap;
    const int64_t window = c.window;
    auto sampler = RobustL0SamplerSW::Create(opts, window).value();
    Xoshiro256pp rng(12);
    int64_t stamp = 0;
    const auto feed = [&](RobustL0SamplerSW* s, int count) {
      for (int i = 0; i < count; ++i) {
        std::vector<size_t> slots_before(s->num_levels());
        size_t groups_before = 0;
        for (size_t l = 0; l < s->num_levels(); ++l) {
          slots_before[l] = s->level(l).table().slot_count();
          groups_before += s->level(l).group_count();
        }
        // Bursts over a wide group range with rare gaps wider than the
        // window (expiry waves that empty levels and trigger Compact).
        const int g = static_cast<int>(rng.NextBounded(400));
        if (rng.NextBounded(150) == 0) {
          stamp += window + static_cast<int64_t>(rng.NextBounded(200));
        } else if (rng.NextBounded(c.arrivals_per_tick) == 0) {
          ++stamp;
        }
        s->Insert(Point{10.0 * g + 0.3 * (rng.NextDouble() - 0.5)}, stamp);
        size_t groups_after = 0;
        for (size_t l = 0; l < s->num_levels(); ++l) {
          compacted = compacted ||
                      s->level(l).table().slot_count() < slots_before[l];
          cascaded = cascaded || (l >= 3 && s->level(l).group_count() > 0);
          groups_after += s->level(l).group_count();
        }
        waved = waved || groups_after + 20 < groups_before;
        if (i % 25 == 0) ExpectDirectoryExact(*s);
      }
      ExpectDirectoryExact(*s);
    };

    feed(&sampler, 2500);

    // Snapshot restore rebuilds every level through MergeFrom.
    std::string snapshot;
    ASSERT_TRUE(SnapshotSamplerSW(sampler, &snapshot).ok());
    auto restored = RestoreSamplerSW(snapshot).value();
    ExpectDirectoryExact(restored);
    feed(&restored, 500);

    // Delta-checkpoint recovery: full cut, more arrivals, delta cut,
    // fold, restore — then keep going on the recovered sampler.
    std::string full;
    ASSERT_TRUE(SnapshotSamplerFullSW(&sampler, &full).ok());
    feed(&sampler, 800);
    std::string delta;
    ASSERT_TRUE(
        SnapshotSamplerDeltaSW(&sampler, SnapshotChainChecksum(full), &delta)
            .ok());
    std::string folded;
    ASSERT_TRUE(ApplySamplerDeltaSW(full, delta, &folded).ok());
    auto recovered = RestoreSamplerSW(folded).value();
    ExpectDirectoryExact(recovered);
    feed(&recovered, 800);
  }
  EXPECT_TRUE(compacted);
  EXPECT_TRUE(cascaded);
  EXPECT_TRUE(waved);
}

}  // namespace
}  // namespace rl0
