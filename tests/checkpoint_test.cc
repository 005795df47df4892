// Tests for incremental checkpoints and the stamped journal
// (core/checkpoint.h): delta cuts fold to blobs byte-identical to
// contemporaneous full snapshots, the chain checksum binds every delta
// to its exact base, journals tolerate torn tails at any byte offset,
// pool checkpoints round-trip through RecoverPool, and the on-disk chain
// (serve/checkpointer.h) survives an interrupted recovery rebase.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "rl0/core/checkpoint.h"
#include "rl0/core/snapshot.h"
#include "rl0/serve/checkpointer.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

SamplerOptions IwOptions(uint64_t seed, bool reservoir) {
  SamplerOptions opts;
  opts.dim = 3;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.accept_cap = 12;
  opts.expected_stream_length = 1 << 14;
  opts.random_representative = reservoir;
  return opts;
}

SamplerOptions SwOptions(uint64_t seed, bool reservoir = false) {
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.accept_cap = 8;
  opts.expected_stream_length = 1 << 14;
  opts.random_representative = reservoir;
  return opts;
}

/// Clustered revisit stream: `groups` centers 10 apart with jitter, so
/// refilters, splits and (windowed) expiry all fire.
std::vector<Point> Revisits(size_t n, size_t groups, size_t dim,
                            uint64_t seed) {
  std::vector<Point> points;
  points.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed));
  for (size_t i = 0; i < n; ++i) {
    const double g = static_cast<double>(rng.NextBounded(groups));
    Point p(dim);
    for (size_t d = 0; d < dim; ++d) {
      p[d] = 10.0 * g + 0.3 * (rng.NextDouble() - 0.5);
    }
    points.push_back(std::move(p));
  }
  return points;
}

// ------------------------------------------------ infinite-window deltas

TEST(CheckpointDeltaTest, IwDeltaFoldsToContemporaneousFull) {
  for (const bool reservoir : {false, true}) {
    SCOPED_TRACE(reservoir ? "reservoir" : "first-arrival");
    const std::vector<Point> points = Revisits(600, 70, 3, 101);
    auto sampler =
        RobustL0SamplerIW::Create(IwOptions(11, reservoir)).value();
    for (size_t i = 0; i < 200; ++i) sampler.Insert(points[i]);

    std::string base;
    ASSERT_TRUE(SnapshotSamplerFull(&sampler, &base).ok());
    // The full cut itself must be byte-identical to the plain snapshot.
    std::string plain;
    ASSERT_TRUE(SnapshotSampler(sampler, &plain).ok());
    EXPECT_EQ(base, plain);

    for (size_t i = 200; i < points.size(); ++i) sampler.Insert(points[i]);
    std::string reference;
    ASSERT_TRUE(SnapshotSampler(sampler, &reference).ok());
    std::string delta;
    ASSERT_TRUE(
        SnapshotSamplerDelta(&sampler, SnapshotChainChecksum(base), &delta)
            .ok());

    std::string folded;
    ASSERT_TRUE(ApplySamplerDelta(base, delta, &folded).ok());
    EXPECT_EQ(folded, reference);
    // ... and the folded blob restores like any full snapshot.
    EXPECT_TRUE(RestoreSampler(folded).ok());
  }
}

TEST(CheckpointDeltaTest, IwQuietDeltaIsSmall) {
  // A delta cut over an interval that touched nothing but a handful of
  // groups must not re-encode the whole table.
  const std::vector<Point> points = Revisits(800, 90, 3, 103);
  auto sampler = RobustL0SamplerIW::Create(IwOptions(13, false)).value();
  for (const Point& p : points) sampler.Insert(p);
  std::string base;
  ASSERT_TRUE(SnapshotSamplerFull(&sampler, &base).ok());

  // Revisit one existing group a few times: at most a couple of records
  // go dirty (dup-suppression may even absorb the repeats).
  for (int i = 0; i < 5; ++i) sampler.Insert(points[0]);
  std::string reference;
  ASSERT_TRUE(SnapshotSampler(sampler, &reference).ok());
  std::string delta;
  ASSERT_TRUE(
      SnapshotSamplerDelta(&sampler, SnapshotChainChecksum(base), &delta)
          .ok());
  EXPECT_LT(delta.size(), reference.size() / 2);

  std::string folded;
  ASSERT_TRUE(ApplySamplerDelta(base, delta, &folded).ok());
  EXPECT_EQ(folded, reference);
}

TEST(CheckpointDeltaTest, IwDeltaChainsAcrossManyLinks) {
  const std::vector<Point> points = Revisits(1200, 80, 3, 105);
  auto sampler = RobustL0SamplerIW::Create(IwOptions(17, true)).value();
  size_t fed = 0;
  for (; fed < 150; ++fed) sampler.Insert(points[fed]);

  std::string full;
  ASSERT_TRUE(SnapshotSamplerFull(&sampler, &full).ok());
  for (int link = 0; link < 5; ++link) {
    SCOPED_TRACE("link " + std::to_string(link));
    const size_t until = fed + 210;
    for (; fed < until; ++fed) sampler.Insert(points[fed]);
    std::string reference;
    ASSERT_TRUE(SnapshotSampler(sampler, &reference).ok());
    std::string delta;
    ASSERT_TRUE(
        SnapshotSamplerDelta(&sampler, SnapshotChainChecksum(full), &delta)
            .ok());
    std::string folded;
    ASSERT_TRUE(ApplySamplerDelta(full, delta, &folded).ok());
    ASSERT_EQ(folded, reference);
    full = std::move(folded);  // the fold is the next link's base
  }
}

TEST(CheckpointDeltaTest, IwDeltaRejectsWrongBaseAndTamper) {
  const std::vector<Point> points = Revisits(400, 50, 3, 107);
  auto sampler = RobustL0SamplerIW::Create(IwOptions(19, false)).value();
  for (size_t i = 0; i < 150; ++i) sampler.Insert(points[i]);
  std::string base_a;
  ASSERT_TRUE(SnapshotSamplerFull(&sampler, &base_a).ok());
  for (size_t i = 150; i < 250; ++i) sampler.Insert(points[i]);
  std::string delta_a;
  ASSERT_TRUE(
      SnapshotSamplerDelta(&sampler, SnapshotChainChecksum(base_a), &delta_a)
          .ok());
  std::string base_b;
  ASSERT_TRUE(SnapshotSamplerFull(&sampler, &base_b).ok());
  for (size_t i = 250; i < 400; ++i) sampler.Insert(points[i]);
  std::string delta_b;
  ASSERT_TRUE(
      SnapshotSamplerDelta(&sampler, SnapshotChainChecksum(base_b), &delta_b)
          .ok());

  std::string folded;
  // delta_b chains on base_b, not base_a; delta_a's base moved on.
  EXPECT_FALSE(ApplySamplerDelta(base_a, delta_b, &folded).ok());
  EXPECT_TRUE(ApplySamplerDelta(base_b, delta_b, &folded).ok());
  // Any byte flip in either blob breaks the fold.
  std::string tampered = delta_b;
  tampered[tampered.size() / 2] ^= 0x40;
  EXPECT_FALSE(ApplySamplerDelta(base_b, tampered, &folded).ok());
  tampered = base_b;
  tampered[tampered.size() / 3] ^= 0x40;
  EXPECT_FALSE(ApplySamplerDelta(tampered, delta_b, &folded).ok());
  // Kind confusion: an IW delta must not fold onto/with SW machinery.
  EXPECT_FALSE(ApplySamplerDeltaSW(base_b, delta_b, &folded).ok());
}

// ------------------------------------------------- sliding-window deltas

TEST(CheckpointDeltaTest, SwDeltaFoldsToContemporaneousFull) {
  for (const bool reservoir : {false, true}) {
    SCOPED_TRACE(reservoir ? "reservoir" : "first-arrival");
    const std::vector<Point> points = Revisits(900, 60, 1, 109);
    const int64_t window = 151;  // genuine expiry between the cuts
    auto sampler =
        RobustL0SamplerSW::Create(SwOptions(23, reservoir), window).value();
    for (size_t i = 0; i < 300; ++i) {
      sampler.Insert(points[i], static_cast<int64_t>(i));
    }

    std::string base;
    ASSERT_TRUE(SnapshotSamplerFullSW(&sampler, &base).ok());
    std::string plain;
    ASSERT_TRUE(SnapshotSamplerSW(sampler, &plain).ok());
    EXPECT_EQ(base, plain);

    Xoshiro256pp qrng(SplitMix64(31));
    for (size_t i = 300; i < points.size(); ++i) {
      sampler.Insert(points[i], static_cast<int64_t>(i));
      // Queries between cuts: reservoir expiry on the query path mutates
      // record content and must land in the delta.
      if (i % 97 == 0) {
        (void)sampler.Sample(static_cast<int64_t>(i), &qrng);
      }
    }
    std::string reference;
    ASSERT_TRUE(SnapshotSamplerSW(sampler, &reference).ok());
    std::string delta;
    ASSERT_TRUE(
        SnapshotSamplerDeltaSW(&sampler, SnapshotChainChecksum(base), &delta)
            .ok());
    std::string folded;
    ASSERT_TRUE(ApplySamplerDeltaSW(base, delta, &folded).ok());
    EXPECT_EQ(folded, reference);
    EXPECT_TRUE(RestoreSamplerSW(folded).ok());
  }
}

TEST(CheckpointDeltaTest, SwDeltaChainsAcrossExpiryWaves) {
  const std::vector<Point> points = Revisits(1500, 50, 1, 111);
  const int64_t window = 101;
  auto sampler =
      RobustL0SamplerSW::Create(SwOptions(29, true), window).value();
  int64_t stamp = 0;
  Xoshiro256pp rng(SplitMix64(211));
  size_t fed = 0;
  auto feed_some = [&](size_t n) {
    for (size_t i = 0; i < n; ++i, ++fed) {
      // Occasional bursts past the window: whole expiry waves inside a
      // checkpoint interval (group-table Clear/Compact move slots, which
      // must carry their dirty epochs along).
      stamp += rng.NextBounded(120) == 0
                   ? 2 * window
                   : static_cast<int64_t>(1 + rng.NextBounded(3));
      sampler.Insert(points[fed], stamp);
    }
  };

  feed_some(200);
  std::string full;
  ASSERT_TRUE(SnapshotSamplerFullSW(&sampler, &full).ok());
  for (int link = 0; link < 6; ++link) {
    SCOPED_TRACE("link " + std::to_string(link));
    feed_some(200);
    std::string reference;
    ASSERT_TRUE(SnapshotSamplerSW(sampler, &reference).ok());
    std::string delta;
    ASSERT_TRUE(
        SnapshotSamplerDeltaSW(&sampler, SnapshotChainChecksum(full), &delta)
            .ok());
    std::string folded;
    ASSERT_TRUE(ApplySamplerDeltaSW(full, delta, &folded).ok());
    ASSERT_EQ(folded, reference);
    full = std::move(folded);
  }
}

TEST(CheckpointDeltaTest, SwDeltaRejectsWrongBaseAndTamper) {
  const std::vector<Point> points = Revisits(500, 40, 1, 113);
  auto sampler = RobustL0SamplerSW::Create(SwOptions(31), 131).value();
  for (size_t i = 0; i < 250; ++i) {
    sampler.Insert(points[i], static_cast<int64_t>(i));
  }
  std::string base;
  ASSERT_TRUE(SnapshotSamplerFullSW(&sampler, &base).ok());
  for (size_t i = 250; i < 500; ++i) {
    sampler.Insert(points[i], static_cast<int64_t>(i));
  }
  std::string delta;
  ASSERT_TRUE(
      SnapshotSamplerDeltaSW(&sampler, SnapshotChainChecksum(base), &delta)
          .ok());
  std::string folded;
  ASSERT_TRUE(ApplySamplerDeltaSW(base, delta, &folded).ok());

  std::string other_base;
  ASSERT_TRUE(SnapshotSamplerFullSW(&sampler, &other_base).ok());
  EXPECT_FALSE(ApplySamplerDeltaSW(other_base, delta, &folded).ok());
  std::string tampered = delta;
  tampered[tampered.size() - 9] ^= 0x01;  // inside the trailing checksum
  EXPECT_FALSE(ApplySamplerDeltaSW(base, tampered, &folded).ok());
  EXPECT_FALSE(ApplySamplerDelta(base, delta, &folded).ok());  // kind mix
}

// -------------------------------------------------------------- journal

std::vector<Point> SmallPoints(size_t n, size_t dim, uint64_t seed) {
  std::vector<Point> points;
  Xoshiro256pp rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Point p(dim);
    for (size_t d = 0; d < dim; ++d) p[d] = rng.NextDouble();
    points.push_back(std::move(p));
  }
  return points;
}

TEST(JournalTest, RoundTripsAllRecordTypes) {
  const size_t dim = 2;
  const std::vector<Point> a = SmallPoints(3, dim, 1);
  const std::vector<Point> b = SmallPoints(5, dim, 2);
  const std::vector<int64_t> b_stamps = {10, 11, 11, 15, 20};

  std::string journal;
  JournalWriter writer(&journal, dim);
  writer.AppendPoints(a, /*index_base=*/0);
  writer.AppendStamped(b, b_stamps, /*index_base=*/3);
  writer.AppendWatermark(17, /*index_base=*/8);
  EXPECT_EQ(writer.next_seq(), 3u);

  JournalContents contents;
  ASSERT_TRUE(ReadJournal(journal, &contents).ok());
  EXPECT_EQ(contents.dim, dim);
  EXPECT_EQ(contents.valid_bytes, journal.size());
  ASSERT_EQ(contents.records.size(), 3u);

  EXPECT_EQ(contents.records[0].type, JournalRecordType::kPoints);
  EXPECT_EQ(contents.records[0].index_base, 0u);
  ASSERT_EQ(contents.records[0].points.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(contents.records[0].points[i], a[i]);
  }
  EXPECT_EQ(contents.records[1].type, JournalRecordType::kStamped);
  EXPECT_EQ(contents.records[1].index_base, 3u);
  ASSERT_EQ(contents.records[1].points.size(), b.size());
  EXPECT_EQ(contents.records[1].stamps, b_stamps);
  EXPECT_EQ(contents.records[2].type, JournalRecordType::kWatermark);
  EXPECT_EQ(contents.records[2].watermark, 17);
  EXPECT_EQ(contents.records[2].index_base, 8u);
}

TEST(JournalTest, EmptyAndHeaderOnlyJournalsAreValid) {
  JournalContents contents;
  ASSERT_TRUE(ReadJournal("", &contents).ok());
  EXPECT_TRUE(contents.records.empty());

  std::string journal;
  JournalWriter writer(&journal, 4);  // header only
  ASSERT_TRUE(ReadJournal(journal, &contents).ok());
  EXPECT_EQ(contents.dim, 4u);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_EQ(contents.valid_bytes, journal.size());
}

TEST(JournalTest, RejectsForeignHeader) {
  JournalContents contents;
  EXPECT_FALSE(ReadJournal("definitely not a journal header..", &contents)
                   .ok());
}

TEST(JournalTest, TornTailAtEveryByteOffsetYieldsTheValidPrefix) {
  const size_t dim = 2;
  std::string journal;
  JournalWriter writer(&journal, dim);
  // Record boundaries, so every cut's expected prefix is known.
  std::vector<size_t> ends;
  writer.AppendPoints(SmallPoints(2, dim, 3), 0);
  ends.push_back(journal.size());
  const std::vector<int64_t> stamps = {5, 6, 7};
  writer.AppendStamped(SmallPoints(3, dim, 4), stamps, 2);
  ends.push_back(journal.size());
  writer.AppendWatermark(3, 5);
  ends.push_back(journal.size());
  writer.AppendPoints(SmallPoints(1, dim, 5), 5);
  ends.push_back(journal.size());

  for (size_t cut = 0; cut <= journal.size(); ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    JournalContents contents;
    ASSERT_TRUE(ReadJournal(journal.substr(0, cut), &contents).ok());
    size_t expected = 0;
    size_t expected_bytes = cut < 20 ? 0 : 20;  // header size
    for (const size_t end : ends) {
      if (end <= cut) {
        ++expected;
        expected_bytes = end;
      }
    }
    EXPECT_EQ(contents.records.size(), expected);
    EXPECT_EQ(contents.valid_bytes, expected_bytes);
  }
}

TEST(JournalTest, TruncateAndContinueAfterATear) {
  const size_t dim = 1;
  std::string journal;
  JournalWriter writer(&journal, dim);
  writer.AppendPoints(SmallPoints(4, dim, 6), 0);
  writer.AppendPoints(SmallPoints(2, dim, 7), 4);
  // Tear mid-second-record.
  journal.resize(journal.size() - 5);

  JournalContents contents;
  ASSERT_TRUE(ReadJournal(journal, &contents).ok());
  ASSERT_EQ(contents.records.size(), 1u);
  // Recovery protocol: truncate to the valid prefix, continue writing
  // with the surviving record count as the next sequence number.
  journal.resize(contents.valid_bytes);
  JournalWriter cont(&journal, dim, contents.records.size());
  cont.AppendWatermark(9, 4);
  ASSERT_TRUE(ReadJournal(journal, &contents).ok());
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[1].type, JournalRecordType::kWatermark);
  EXPECT_EQ(contents.records[1].seq, 1u);
}

TEST(JournalTest, CorruptedRecordEndsThePrefix) {
  const size_t dim = 1;
  std::string journal;
  JournalWriter writer(&journal, dim);
  writer.AppendPoints(SmallPoints(2, dim, 8), 0);
  const size_t first_end = journal.size();
  writer.AppendPoints(SmallPoints(2, dim, 9), 2);
  writer.AppendPoints(SmallPoints(2, dim, 10), 4);

  // Flip a payload byte in the middle record: its CRC fails, and the
  // third record is unreachable (prefix semantics — no resync).
  std::string corrupt = journal;
  corrupt[first_end + 40] ^= 0x10;
  JournalContents contents;
  ASSERT_TRUE(ReadJournal(corrupt, &contents).ok());
  EXPECT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.valid_bytes, first_end);
}

// ---------------------------------------------------- pool checkpoints

/// Per-shard full snapshots — the byte-level state fingerprint recovery
/// is pinned against.
std::vector<std::string> ShardBlobs(const ShardedSwSamplerPool& pool) {
  std::vector<std::string> blobs(pool.num_shards());
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    EXPECT_TRUE(SnapshotSamplerSW(pool.shard(s), &blobs[s]).ok());
  }
  return blobs;
}

/// Canonical (id-sorted) per-level state equality — the semantic
/// comparison for pools that no longer share a slot layout (the LIFO
/// recycling caveat in core/checkpoint.h).
void ExpectSameCanonicalState(const RobustL0SamplerSW& a,
                              const RobustL0SamplerSW& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (size_t l = 0; l < a.num_levels(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    std::vector<GroupRecord> ga, gb;
    a.level(l).SnapshotGroups(&ga);
    b.level(l).SnapshotGroups(&gb);
    const auto by_id = [](const GroupRecord& x, const GroupRecord& y) {
      return x.id < y.id;
    };
    std::sort(ga.begin(), ga.end(), by_id);
    std::sort(gb.begin(), gb.end(), by_id);
    ASSERT_EQ(ga.size(), gb.size());
    for (size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i].id, gb[i].id);
      EXPECT_EQ(ga[i].rep_index, gb[i].rep_index);
      EXPECT_EQ(ga[i].accepted, gb[i].accepted);
      EXPECT_EQ(ga[i].latest_stamp, gb[i].latest_stamp);
      EXPECT_EQ(ga[i].latest_index, gb[i].latest_index);
      EXPECT_EQ(ga[i].rep, gb[i].rep);
      EXPECT_EQ(ga[i].latest, gb[i].latest);
      ASSERT_EQ(ga[i].reservoir.size(), gb[i].reservoir.size());
      for (size_t r = 0; r < ga[i].reservoir.size(); ++r) {
        EXPECT_EQ(ga[i].reservoir[r].priority, gb[i].reservoir[r].priority);
        EXPECT_EQ(ga[i].reservoir[r].stream_index,
                  gb[i].reservoir[r].stream_index);
        EXPECT_EQ(ga[i].reservoir[r].point, gb[i].reservoir[r].point);
      }
    }
  }
}

void ExpectLockstepDraws(ShardedSwSamplerPool* a, ShardedSwSamplerPool* b) {
  Xoshiro256pp rng_a(SplitMix64(4040));
  Xoshiro256pp rng_b(SplitMix64(4040));
  for (int q = 0; q < 16; ++q) {
    const auto da = a->SampleLatest(&rng_a);
    const auto db = b->SampleLatest(&rng_b);
    ASSERT_EQ(da.has_value(), db.has_value()) << "draw " << q;
    if (da.has_value()) {
      EXPECT_EQ(da->stream_index, db->stream_index) << "draw " << q;
      EXPECT_EQ(da->point, db->point) << "draw " << q;
    }
  }
}

TEST(PoolCheckpointTest, DeltaFoldsToContemporaneousFull) {
  const std::vector<Point> points = Revisits(2000, 60, 1, 115);
  const int64_t window = 301;
  auto pool =
      ShardedSwSamplerPool::Create(SwOptions(37, true), window, 3).value();
  pool.Feed(Span<const Point>(points.data(), 800));
  pool.Drain();
  std::string base;
  ASSERT_TRUE(CheckpointPool(&pool, /*journal_seq=*/0, &base).ok());

  pool.Feed(Span<const Point>(points.data() + 800, 1200));
  pool.Drain();
  std::string delta;
  ASSERT_TRUE(CheckpointPoolDelta(&pool, base, /*journal_seq=*/5, &delta)
                  .ok());
  // The delta marked fresh epochs; a full cut of the same quiescent state
  // is the contemporaneous reference.
  std::string reference;
  ASSERT_TRUE(CheckpointPool(&pool, /*journal_seq=*/5, &reference).ok());
  std::string folded;
  ASSERT_TRUE(FoldPoolDelta(base, delta, &folded).ok());
  EXPECT_EQ(folded, reference);

  // Chain link two on the folded blob.
  pool.Feed(Span<const Point>(points.data(), 500));
  pool.Drain();
  std::string delta2;
  ASSERT_TRUE(
      CheckpointPoolDelta(&pool, folded, /*journal_seq=*/9, &delta2).ok());
  std::string reference2;
  ASSERT_TRUE(CheckpointPool(&pool, /*journal_seq=*/9, &reference2).ok());
  std::string folded2;
  ASSERT_TRUE(FoldPoolDelta(folded, delta2, &folded2).ok());
  EXPECT_EQ(folded2, reference2);
  // Wrong-base and tamper rejection at the pool level.
  EXPECT_FALSE(FoldPoolDelta(base, delta2, &folded).ok());
  std::string tampered = delta2;
  tampered[tampered.size() / 2] ^= 0x08;
  EXPECT_FALSE(FoldPoolDelta(folded2, tampered, &folded).ok());
}

TEST(PoolCheckpointTest, RecoverWithEmptyJournalRestoresTheCut) {
  const std::vector<Point> points = Revisits(1500, 50, 1, 117);
  const int64_t window = 257;
  auto pool =
      ShardedSwSamplerPool::Create(SwOptions(41), window, 2).value();
  pool.Feed(points);
  pool.Drain();
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&pool, 0, &ckpt).ok());

  auto recovered_r = RecoverPool(ckpt, "");
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool recovered = std::move(recovered_r).value();
  EXPECT_EQ(recovered.num_shards(), pool.num_shards());
  EXPECT_EQ(recovered.window(), pool.window());
  EXPECT_EQ(recovered.points_processed(), pool.points_processed());
  EXPECT_EQ(ShardBlobs(recovered), ShardBlobs(pool));
  ExpectLockstepDraws(&recovered, &pool);
}

TEST(PoolCheckpointTest, RecoverReplaysTheJournalSequenceMode) {
  const std::vector<Point> points = Revisits(2400, 70, 1, 119);
  const int64_t window = 401;
  const SamplerOptions opts = SwOptions(43, true);

  auto pool = ShardedSwSamplerPool::Create(opts, window, 3).value();
  std::string journal;
  JournalWriter writer(&journal, opts.dim);
  AttachJournal(&pool, &writer);

  pool.Feed(Span<const Point>(points.data(), 700));
  pool.Feed(Span<const Point>(points.data() + 700, 300));
  pool.Drain();
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&pool, writer.next_seq(), &ckpt).ok());
  // Post-checkpoint chunks land in the journal and nowhere else durable.
  pool.Feed(Span<const Point>(points.data() + 1000, 900));
  pool.Feed(Span<const Point>(points.data() + 1900, 500));
  pool.Drain();

  // "Crash": all that survives is (ckpt, journal). The reference shares
  // the restore point (slot layout is packed on restore; see the LIFO
  // caveat in core/checkpoint.h) and re-feeds the suffix with a
  // DIFFERENT chunking — recovery must be chunking-invariant.
  auto reference_r = RecoverPool(ckpt, "");
  ASSERT_TRUE(reference_r.ok());
  ShardedSwSamplerPool reference = std::move(reference_r).value();
  size_t offset = 1000;
  Xoshiro256pp chunk_rng(SplitMix64(77));
  while (offset < points.size()) {
    const size_t chunk = std::min<size_t>(
        1 + chunk_rng.NextBounded(211), points.size() - offset);
    reference.Feed(Span<const Point>(points.data() + offset, chunk));
    offset += chunk;
  }
  reference.Drain();

  auto recovered_r = RecoverPool(ckpt, journal);
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool recovered = std::move(recovered_r).value();
  EXPECT_EQ(recovered.points_processed(), points.size());
  EXPECT_EQ(ShardBlobs(recovered), ShardBlobs(reference));
  ExpectLockstepDraws(&recovered, &reference);
}

TEST(PoolCheckpointTest, EmptyCheckpointReplayEqualsUninterruptedRun) {
  // The strongest sub-case: a checkpoint cut before any feeding has
  // perfectly packed (empty) tables, so the recovered pool must equal a
  // genuinely uninterrupted pool byte-for-byte, not just a restored twin.
  const std::vector<Point> points = Revisits(1200, 60, 1, 121);
  const int64_t window = 307;
  const SamplerOptions opts = SwOptions(47);

  auto pool = ShardedSwSamplerPool::Create(opts, window, 2).value();
  std::string journal;
  JournalWriter writer(&journal, opts.dim);
  AttachJournal(&pool, &writer);
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&pool, writer.next_seq(), &ckpt).ok());
  pool.Feed(Span<const Point>(points.data(), 500));
  pool.Feed(Span<const Point>(points.data() + 500, 700));
  pool.Drain();

  auto uninterrupted =
      ShardedSwSamplerPool::Create(opts, window, 2).value();
  uninterrupted.Feed(points);
  uninterrupted.Drain();

  auto recovered_r = RecoverPool(ckpt, journal);
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool recovered = std::move(recovered_r).value();
  EXPECT_EQ(ShardBlobs(recovered), ShardBlobs(uninterrupted));
  ExpectLockstepDraws(&recovered, &uninterrupted);
}

TEST(PoolCheckpointTest, RecoverReplaysTheJournalTimeMode) {
  const std::vector<Point> points = Revisits(1800, 60, 1, 123);
  std::vector<int64_t> stamps;
  Xoshiro256pp srng(SplitMix64(88));
  int64_t t = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    t += 1 + static_cast<int64_t>(srng.NextBounded(4));
    stamps.push_back(t);
  }
  const int64_t window = 601;
  const SamplerOptions opts = SwOptions(53);

  auto pool = ShardedSwSamplerPool::Create(opts, window, 3).value();
  std::string journal;
  JournalWriter writer(&journal, opts.dim);
  AttachJournal(&pool, &writer);
  pool.FeedStamped(Span<const Point>(points.data(), 600),
                   Span<const int64_t>(stamps.data(), 600));
  pool.Drain();
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&pool, writer.next_seq(), &ckpt).ok());
  pool.FeedStamped(Span<const Point>(points.data() + 600, 1200),
                   Span<const int64_t>(stamps.data() + 600, 1200));
  pool.Drain();

  auto reference_r = RecoverPool(ckpt, "");
  ASSERT_TRUE(reference_r.ok());
  ShardedSwSamplerPool reference = std::move(reference_r).value();
  size_t offset = 600;
  Xoshiro256pp chunk_rng(SplitMix64(99));
  while (offset < points.size()) {
    const size_t chunk = std::min<size_t>(
        1 + chunk_rng.NextBounded(173), points.size() - offset);
    reference.FeedStamped(Span<const Point>(points.data() + offset, chunk),
                          Span<const int64_t>(stamps.data() + offset, chunk));
    offset += chunk;
  }
  reference.Drain();

  auto recovered_r = RecoverPool(ckpt, journal);
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool recovered = std::move(recovered_r).value();
  EXPECT_EQ(recovered.points_processed(), points.size());
  EXPECT_EQ(ShardBlobs(recovered), ShardBlobs(reference));
  ExpectLockstepDraws(&recovered, &reference);
}

TEST(PoolCheckpointTest, RecoverRearmsWatermarkAndFrontier) {
  // The satellite-2 regression: a checkpoint of a bounded-lateness pool
  // must carry the event watermark and release frontier. The recovered
  // pool (a) reports the same per-shard event time, and (b) judges a
  // stale re-offer late instead of re-admitting it.
  SamplerOptions opts = SwOptions(59);
  opts.allowed_lateness = 10;
  const int64_t window = 120;
  auto pool = ShardedSwSamplerPool::Create(opts, window, 2).value();

  std::vector<Point> points = Revisits(400, 30, 1, 125);
  std::vector<int64_t> stamps;
  for (size_t i = 0; i < points.size(); ++i) {
    stamps.push_back(static_cast<int64_t>(2 * i));
  }
  // Mild disorder within the bound: swap adjacent pairs.
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    std::swap(points[i], points[i + 1]);
    std::swap(stamps[i], stamps[i + 1]);
  }
  pool.FeedStampedLate(points, stamps);
  pool.FlushLate();
  pool.Drain();
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&pool, 0, &ckpt).ok());

  auto recovered_r = RecoverPool(ckpt, "");
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool recovered = std::move(recovered_r).value();
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    // Without the watermark carried in the header, a restored quiet lane
    // falls back to its own latest stamp and under-expires.
    EXPECT_EQ(recovered.shard(s).watermark(), pool.shard(s).watermark())
        << "shard " << s;
  }

  // A stale offer (far below the flushed frontier) must be judged late by
  // both pools — the recovered one must not re-admit it...
  const int64_t stale = stamps.back() / 2;
  const std::vector<Point> one = {Point{999.0}};
  const std::vector<int64_t> stale_stamp = {stale};
  pool.FeedStampedLate(one, stale_stamp);
  recovered.FeedStampedLate(one, stale_stamp);
  EXPECT_EQ(recovered.late_stats().late_dropped, 1u);

  // ... and fresh in-order feeding continues identically on both sides.
  // Expiry holes in the original's tables recycle in LIFO order while
  // the recovered tables were restored packed, so slot *layout* (and
  // hence raw snapshot bytes) legitimately diverge here — the pinned
  // contract is canonical state equality (byte equality against a
  // restore-point-sharing reference is pinned by the replay tests).
  const int64_t resume = stamps.back() + 3 * opts.allowed_lateness;
  std::vector<Point> fresh = Revisits(200, 30, 1, 127);
  std::vector<int64_t> fresh_stamps;
  for (size_t i = 0; i < fresh.size(); ++i) {
    fresh_stamps.push_back(resume + static_cast<int64_t>(i));
  }
  pool.FeedStampedLate(fresh, fresh_stamps);
  pool.FlushLate();
  pool.Drain();
  recovered.FeedStampedLate(fresh, fresh_stamps);
  recovered.FlushLate();
  recovered.Drain();
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(recovered.shard(s).points_processed(),
              pool.shard(s).points_processed());
    EXPECT_EQ(recovered.shard(s).watermark(), pool.shard(s).watermark());
    ExpectSameCanonicalState(recovered.shard(s), pool.shard(s));
  }
}

TEST(PoolCheckpointTest, RecoverRejectsCorruptInputs) {
  const std::vector<Point> points = Revisits(300, 30, 1, 129);
  auto pool = ShardedSwSamplerPool::Create(SwOptions(61), 101, 2).value();
  pool.Feed(points);
  pool.Drain();
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&pool, 0, &ckpt).ok());

  EXPECT_FALSE(RecoverPool("", "").ok());
  EXPECT_FALSE(RecoverPool("garbage", "").ok());
  std::string tampered = ckpt;
  tampered[tampered.size() / 2] ^= 0x04;
  EXPECT_FALSE(RecoverPool(tampered, "").ok());
  // A truncated checkpoint fails the checksum, never crashes.
  EXPECT_FALSE(RecoverPool(ckpt.substr(0, ckpt.size() / 2), "").ok());

  // A journal with the wrong dimension is rejected before any feeding.
  std::string journal;
  JournalWriter writer(&journal, /*dim=*/3);
  writer.AppendPoints(SmallPoints(2, 3, 130), pool.points_processed());
  EXPECT_FALSE(RecoverPool(ckpt, journal).ok());

  // A journal whose index base doesn't continue the checkpoint is a
  // discontinuity, not silent misfeeding.
  std::string bad_base;
  JournalWriter writer2(&bad_base, /*dim=*/1);
  writer2.AppendPoints(SmallPoints(2, 1, 131),
                       pool.points_processed() + 7);
  EXPECT_FALSE(RecoverPool(ckpt, bad_base).ok());
}

TEST(PoolCheckpointTest, RebaseRemovesDeltasPastAGapInTheChain) {
  // A rebase cut short after removing ckpt-000001.delta leaves deltas
  // 2..k on disk. Recovery folds nothing past the gap, and the next
  // Rebase must still remove them all: otherwise the new chain's delta 1
  // is followed by a stale delta 2 cut against the old base.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("rl0_ckpt_rebase_gap_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{dir};
  const std::vector<Point> points = Revisits(2000, 60, 1, 121);
  const SamplerOptions opts = SwOptions(47);
  const int64_t window = 257;

  {
    auto pool = ShardedSwSamplerPool::Create(opts, window, 2).value();
    serve::PoolCheckpointer ckpt(&pool, dir, /*every=*/0, opts.dim);
    for (size_t cut = 0; cut < 4; ++cut) {  // full + 3 deltas
      pool.Feed(Span<const Point>(points.data() + 300 * cut, 300));
      ASSERT_TRUE(ckpt.Finish().ok());
    }
  }
  ASSERT_TRUE(std::filesystem::remove(
      serve::CheckpointFileName(dir, 1, /*full=*/false)));

  auto chain = serve::LoadCheckpointChain(dir);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain.value().deltas, 0u);
  auto recovered_r =
      RecoverPool(chain.value().checkpoint, chain.value().journal);
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool live = std::move(recovered_r).value();
  EXPECT_EQ(live.points_processed(), 1200u);
  {
    serve::PoolCheckpointer ckpt(&live, dir, /*every=*/0, opts.dim,
                                 std::move(chain).value());
    ASSERT_TRUE(ckpt.Rebase().ok());
    live.Feed(Span<const Point>(points.data() + 1200, 800));
    ASSERT_TRUE(ckpt.Finish().ok());
  }
  for (size_t i = 2; i <= 3; ++i) {
    EXPECT_FALSE(std::filesystem::exists(
        serve::CheckpointFileName(dir, i, /*full=*/false)))
        << "stale delta " << i;
  }

  auto reloaded = serve::LoadCheckpointChain(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().deltas, 1u);
  auto again_r =
      RecoverPool(reloaded.value().checkpoint, reloaded.value().journal);
  ASSERT_TRUE(again_r.ok()) << again_r.status().ToString();
  ShardedSwSamplerPool again = std::move(again_r).value();
  live.Drain();
  EXPECT_EQ(again.points_processed(), points.size());
  for (size_t s = 0; s < live.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameCanonicalState(again.shard(s), live.shard(s));
  }
  ExpectLockstepDraws(&again, &live);
}

}  // namespace
}  // namespace rl0
