// Unit tests for the duplicate-suppression front-end (core/dup_filter.h):
// the set-associative cache mechanics (store/lookup/evict), the
// caller-side epoch discipline, the disabled and compiled-out
// configurations, and the counter accounting surfaced through the
// infinite-window sampler. The decision-identity contract itself —
// filter-on equals filter-off bit-for-bit — is pinned by the determinism
// and fuzz suites; this file covers the cache in isolation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rl0/core/dup_filter.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/geom/metric.h"
#include "rl0/geom/point.h"
#include "rl0/grid/random_grid.h"

namespace rl0 {
namespace {

TEST(DupFilterTest, CompiledInMatchesBuildConfiguration) {
#if defined(RL0_NO_DUP_FILTER)
  EXPECT_FALSE(DupFilter::kCompiledIn);
#else
  EXPECT_TRUE(DupFilter::kCompiledIn);
#endif
}

TEST(DupFilterTest, DefaultAndDisabledFiltersAreInert) {
  DupFilter none;
  EXPECT_FALSE(none.enabled());
  none.Store(0, Point{1.0, 2.0}, 1);
  EXPECT_FALSE(none.Lookup(Point{1.0, 2.0}).found);

  DupFilter off(/*dim=*/2, /*enabled=*/false);
  EXPECT_FALSE(off.enabled());
  off.Store(0, Point{1.0, 2.0}, 1);
  EXPECT_FALSE(off.Lookup(Point{1.0, 2.0}).found);
  // Everything the sampler processed counts as bypassed.
  const DupFilterStats stats = off.stats(/*points_processed=*/17);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bypassed, 17u);
}

TEST(DupFilterTest, StoreLookupRoundtrip) {
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  DupFilter filter(/*dim=*/3, /*enabled=*/true);
  ASSERT_TRUE(filter.enabled());
  const Point p{1.5, -2.25, 3.0};

  filter.Store(/*epoch=*/7, p, /*payload=*/11);

  const DupFilter::View hit = filter.Lookup(p);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.epoch, 7u);
  EXPECT_EQ(hit.payload, 11u);

  // Nearby bytes: the guard must reject.
  EXPECT_FALSE(filter.Lookup(Point{1.5, -2.25, 3.0000001}).found);
  // Same cell, different bytes: -0.0 == 0.0 as coordinates and quantizes
  // to the same cell, but entries are keyed and guarded by bytes.
  const Point zero{0.0, 0.5, 0.5}, neg_zero{-0.0, 0.5, 0.5};
  const RandomGrid grid(/*dim=*/3, /*side=*/4.0, /*seed=*/5, Metric::kL2);
  ASSERT_EQ(zero, neg_zero);
  ASSERT_EQ(grid.CellKeyOf(zero), grid.CellKeyOf(neg_zero));
  filter.Store(/*epoch=*/1, zero, 33);
  EXPECT_TRUE(filter.Lookup(zero).found);
  EXPECT_FALSE(filter.Lookup(neg_zero).found);
}

TEST(DupFilterTest, LookupReportsEpochForCallerSideValidation) {
  // The filter deliberately does NOT validate epochs (a stale "ignored"
  // verdict may still replay); it hands the recorded epoch back and the
  // caller compares. A stale epoch must therefore still be *found*.
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  DupFilter filter(/*dim=*/1, /*enabled=*/true);
  const Point p{4.0};
  filter.Store(/*epoch=*/3, p, 1);
  const DupFilter::View hit = filter.Lookup(p);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.epoch, 3u);  // caller checks this against generation()
  // Re-storing refreshes the epoch in place.
  filter.Store(/*epoch=*/9, p, 2);
  const DupFilter::View refreshed = filter.Lookup(p);
  ASSERT_TRUE(refreshed.found);
  EXPECT_EQ(refreshed.epoch, 9u);
  EXPECT_EQ(refreshed.payload, 2u);
}

TEST(DupFilterTest, SameCellPatternsBothStayResident) {
  // A perturbed arrival shares the exact repeat's cell but not its bytes;
  // both patterns stay resident instead of evicting each other.
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  DupFilter filter(/*dim=*/1, /*enabled=*/true);
  const Point hot{1.0}, noise{1.0000001};
  filter.Store(0, hot, 1);
  filter.Store(0, noise, 2);
  const DupFilter::View h = filter.Lookup(hot);
  const DupFilter::View n = filter.Lookup(noise);
  ASSERT_TRUE(h.found);
  ASSERT_TRUE(n.found);
  EXPECT_EQ(h.payload, 1u);
  EXPECT_EQ(n.payload, 2u);
}

TEST(DupFilterTest, SetEvictsLeastRecentlyUsedWay) {
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  // Find three points mapping to the same set (searched with the filter's
  // own slot function): the third store must evict the way the set
  // touched least recently, not the hottest entry.
  const Point pa{1.0};
  double x = 2.0;
  while (DupFilter::SetOf(Point{x}) != DupFilter::SetOf(pa)) x += 1.0;
  const Point pb{x};
  x += 1.0;
  while (DupFilter::SetOf(Point{x}) != DupFilter::SetOf(pa)) x += 1.0;
  const Point pc{x};

  DupFilter filter(/*dim=*/1, /*enabled=*/true);
  filter.Store(0, pa, 1);
  filter.Store(0, pb, 2);
  ASSERT_TRUE(filter.Lookup(pa).found);  // marks a's way most-recent
  filter.Store(0, pc, 3);
  EXPECT_TRUE(filter.Lookup(pa).found);   // survived: it was hot
  EXPECT_TRUE(filter.Lookup(pc).found);
  EXPECT_FALSE(filter.Lookup(pb).found);  // evicted as least-recent
}

TEST(DupFilterTest, StatsAccountingSplitsHitsMissesBypassed) {
  DupFilter filter(/*dim=*/1, DupFilter::kCompiledIn);
  filter.CountHit();
  filter.CountHit();
  filter.CountMiss();
  const DupFilterStats stats = filter.stats(/*points_processed=*/10);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bypassed, 7u);

  DupFilterStats sum;
  sum += stats;
  sum += stats;
  EXPECT_EQ(sum.hits, 4u);
  EXPECT_EQ(sum.bypassed, 14u);
}

TEST(DupFilterTest, SamplerCountersReflectExactRepeats) {
  // End-to-end counter plumbing: exact repeats of a settled group set
  // must show up as hits in the sampler's filter_stats(), and a
  // --no-filter-style configuration reports pure bypass.
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 99;
  opts.expected_stream_length = 1024;
  auto on = RobustL0SamplerIW::Create(opts).value();
  SamplerOptions off_opts = opts;
  off_opts.dup_filter = false;
  auto off = RobustL0SamplerIW::Create(off_opts).value();

  const Point a{0.0, 0.0}, b{50.0, 50.0};
  for (int i = 0; i < 20; ++i) {
    on.Insert(i % 2 ? a : b);
    off.Insert(i % 2 ? a : b);
  }
  const DupFilterStats stats_on = on.filter_stats();
  const DupFilterStats stats_off = off.filter_stats();
  EXPECT_EQ(stats_on.hits + stats_on.misses + stats_on.bypassed, 20u);
  if (DupFilter::kCompiledIn) {
    // After both groups exist and their entries are re-armed, every
    // further exact repeat hits: 20 arrivals, 2 first-sightings, and 2
    // stale-epoch misses right after each Add bumps the generation.
    EXPECT_GT(stats_on.hits, 10u);
  } else {
    EXPECT_EQ(stats_on.bypassed, 20u);
  }
  EXPECT_EQ(stats_off.hits, 0u);
  EXPECT_EQ(stats_off.misses, 0u);
  EXPECT_EQ(stats_off.bypassed, 20u);
  // Counters are observability only: decisions are identical regardless.
  EXPECT_EQ(on.accept_size() + on.reject_size(),
            off.accept_size() + off.reject_size());
}

}  // namespace
}  // namespace rl0
