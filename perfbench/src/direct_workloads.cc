// direct_window and direct_iw: one producer thread of this process feeds
// an in-process sharded pool with borrowed chunks and queries it at a
// fixed stream cadence — first back to back (saturation), then at a
// fixed offered rate (paced: each chunk fed and drained on schedule).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rl0/core/checkpoint.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "workloads.h"

namespace pb {
namespace {

using rl0::Point;
using rl0::SampleItem;
using rl0::Span;

constexpr int kSetups = 51;
constexpr int kRestores = 7;

struct DirectPlan {
  Stream stream;
  rl0::SamplerOptions options;
  int64_t window = 0;  // 0: infinite window (Algorithm 1)
  /// Points per Feed and query cadence (in points) of the saturation
  /// bursts and of the paced blocks, which feed 1000 chunks a second.
  size_t sat_chunk = 0;
  size_t sat_every = 0;
  size_t paced_chunk = 0;
  size_t paced_every = 0;
  /// Points of one round's saturation burst and paced block.
  size_t sat_points = 0;
  size_t paced_points = 0;
  double paced_pts_per_s = 0;
  double ack_limit_ms = 0;
  /// Every round replays the stream from its start into a fresh pool
  /// (the infinite-window workload, whose state would otherwise grow
  /// from round to round); otherwise the rounds continue one stream.
  bool fresh_pool_per_round = false;

  size_t RoundStart(int round) const {
    return fresh_pool_per_round
               ? 0
               : static_cast<size_t>(round) * (sat_points + paced_points);
  }
};

/// What one query returned: stream index and point of the draw.
struct Answer {
  bool some = false;
  uint64_t index = 0;
  Point point;
  bool operator==(const Answer& o) const {
    return some == o.some && index == o.index && point == o.point;
  }
};

Answer ToAnswer(const std::optional<SampleItem>& s) {
  Answer a;
  if (s) {
    a.some = true;
    a.index = s->stream_index;
    a.point = s->point;
  }
  return a;
}

/// The two pool types behind one small surface.
class PoolUnderTest {
 public:
  explicit PoolUnderTest(const DirectPlan& plan) : plan_(plan) {}

  void Create() {
    if (plan_.window > 0) {
      sw_.emplace(rl0::ShardedSwSamplerPool::Create(plan_.options,
                                                    plan_.window, kLanes)
                      .value());
    } else {
      iw_.emplace(rl0::ShardedSamplerPool::Create(plan_.options, kLanes)
                      .value());
    }
  }
  void Reset() {
    sw_.reset();
    iw_.reset();
  }
  void Feed(Span<const Point> chunk) {
    if (sw_) {
      sw_->FeedBorrowed(chunk);
    } else {
      iw_->FeedBorrowed(chunk);
    }
  }
  void Drain() {
    if (sw_) {
      sw_->Drain();
    } else {
      iw_->Drain();
    }
  }
  /// One query on a drained pool: SampleLatest (windowed) or Merged() +
  /// Sample (infinite window). *merge_s receives the Merged() time.
  Answer Query(rl0::Xoshiro256pp* rng, double* merge_s) {
    if (sw_) {
      *merge_s = 0;
      return ToAnswer(sw_->SampleLatest(rng));
    }
    const Clock::time_point t0 = Clock::now();
    auto merged = iw_->Merged();
    *merge_s = Seconds(t0, Clock::now());
    if (!merged.ok()) return Answer();
    return ToAnswer(merged.value().Sample(rng));
  }
  size_t shards() const { return sw_ ? sw_->num_shards() : iw_->num_shards(); }
  uint64_t lane_points(size_t s) const {
    return sw_ ? sw_->shard(s).points_processed()
               : iw_->shard(s).points_processed();
  }
  /// Per-lane state fingerprint for the re-chunking gate.
  std::vector<uint64_t> LaneState() const {
    std::vector<uint64_t> out;
    for (size_t s = 0; s < shards(); ++s) {
      if (sw_) {
        const auto& sh = sw_->shard(s);
        out.insert(out.end(), {sh.points_processed(), sh.SpaceWords(),
                               sh.num_levels(), sh.error_count()});
      } else {
        const auto& sh = iw_->shard(s);
        out.insert(out.end(), {sh.points_processed(), sh.SpaceWords(),
                               sh.level(), sh.accept_size(),
                               sh.reject_size()});
      }
    }
    return out;
  }
  rl0::DupFilterStats FilterStats() const {
    return sw_ ? sw_->FilterStats() : iw_->FilterStats();
  }
  rl0::ShardedSwSamplerPool* sw() { return sw_ ? &*sw_ : nullptr; }
  rl0::ShardedSamplerPool* iw() { return iw_ ? &*iw_ : nullptr; }

 private:
  const DirectPlan& plan_;
  std::optional<rl0::ShardedSwSamplerPool> sw_;
  std::optional<rl0::ShardedSamplerPool> iw_;
};

/// The chunk at stream position `b`: positions past the generated
/// stream wrap around to its start (the retransmit workload replays its
/// own stream; the others never wrap).
Span<const Point> ChunkAt(const DirectPlan& plan, size_t b, size_t len) {
  const size_t n = plan.stream.points.size();
  return Span<const Point>(plan.stream.points.data() + b % n, len);
}

struct DirectLog {
  /// Stream position and answer of every query, in order.
  std::vector<std::pair<size_t, Answer>> answers;
  std::vector<double> round_rates;     // saturation burst of each round
  std::vector<double> round_cpu_rates; // the same per CPU second
  std::vector<double> paced_cpu_us;    // CPU per point of each paced block
  std::vector<double> drain_ms;        // traced: drain before a query
  std::vector<double> sample_us;       // traced: the query call alone
  std::vector<double> merge_ms;        // traced: Merged()
  double feed_s = 0;                   // traced: producer time inside Feed
  size_t sat_fed = 0;
  Series ack, lag, event_lag, query;
  /// Called, outside the timed spans, at the end of each burst and each
  /// paced block (the pool is drained then).
  std::function<void()> on_quiescent;
};

/// One round. The saturation burst feeds chunks back to back with a
/// drain + query every sat_every points; the paced block feeds each chunk
/// at its scheduled time and drains it (its ack), with a query after
/// every paced_every points (its EVENT).
void DriveRound(const DirectPlan& plan, PoolUnderTest* pool, int round,
                bool traced, bool paced, rl0::Xoshiro256pp* rng,
                DirectLog* log) {
  const size_t base = plan.RoundStart(round);
  double merge_s = 0;
  double cpu0 = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (size_t b = base; b < base + plan.sat_points; b += plan.sat_chunk) {
    const size_t len = std::min(plan.sat_chunk, base + plan.sat_points - b);
    if (traced) {
      const Clock::time_point f0 = Clock::now();
      pool->Feed(ChunkAt(plan, b, len));
      log->feed_s += Seconds(f0, Clock::now());
    } else {
      pool->Feed(ChunkAt(plan, b, len));
    }
    if ((b + len - base) % plan.sat_every != 0) continue;
    const Clock::time_point q0 = Clock::now();
    pool->Drain();
    const Clock::time_point q1 = Clock::now();
    log->answers.emplace_back(b + len, pool->Query(rng, &merge_s));
    const Clock::time_point q2 = Clock::now();
    if (traced) {
      log->drain_ms.push_back(Millis(q0, q1));
      log->sample_us.push_back(Seconds(q1, q2) * 1e6 - merge_s * 1e6);
      log->merge_ms.push_back(merge_s * 1e3);
    }
  }
  pool->Drain();
  log->round_rates.push_back(static_cast<double>(plan.sat_points) /
                             Seconds(start, Clock::now()));
  log->round_cpu_rates.push_back(static_cast<double>(plan.sat_points) /
                                 (SelfCpuSeconds() - cpu0));
  log->sat_fed += plan.sat_points;
  if (log->on_quiescent) log->on_quiescent();
  if (!paced) return;

  const double interval =
      static_cast<double>(plan.paced_chunk) / plan.paced_pts_per_s;
  const size_t paced_base = base + plan.sat_points;
  // The paced block's ingest CPU: the queries' own CPU is taken out (it
  // is query_cpu_us's business, and Merged() alone swings with the host).
  double query_cpu = 0;
  cpu0 = SelfCpuSeconds();
  const Clock::time_point p0 = Clock::now();
  for (size_t k = 0; k < plan.paced_points / plan.paced_chunk; ++k) {
    const size_t b = paced_base + k * plan.paced_chunk;
    const Clock::time_point due =
        p0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(interval * k));
    std::this_thread::sleep_until(due);
    log->lag.ms.push_back(Millis(due, Clock::now()));
    pool->Feed(ChunkAt(plan, b, plan.paced_chunk));
    pool->Drain();
    log->ack.ms.push_back(Millis(due, Clock::now()));
    if ((k + 1) * plan.paced_chunk % plan.paced_every != 0) continue;
    const double qcpu0 = SelfCpuSeconds();
    const Clock::time_point q0 = Clock::now();
    pool->Drain();
    log->answers.emplace_back(b + plan.paced_chunk, pool->Query(rng, &merge_s));
    const Clock::time_point q1 = Clock::now();
    query_cpu += SelfCpuSeconds() - qcpu0;
    log->query.ms.push_back(Millis(q0, q1));
    log->event_lag.ms.push_back(Millis(due, q1));
  }
  log->paced_cpu_us.push_back((SelfCpuSeconds() - cpu0 - query_cpu) * 1e6 /
                              static_cast<double>(plan.paced_points));
  if (log->on_quiescent) log->on_quiescent();
}

/// The same stream re-chunked (chunks of at most 1000, split at the
/// query positions) into a fresh pool, queried at the same positions with
/// the same rng: per the determinism contract the answers and every
/// lane's state must be identical.
void CheckRechunked(const DirectPlan& plan, PoolUnderTest* run,
                    const std::vector<std::pair<size_t, Answer>>& answers,
                    RunResult* result) {
  PoolUnderTest ref(plan);
  ref.Create();
  rl0::Xoshiro256pp rng(SplitMix64Seed(plan.options.seed, 11));
  const size_t n = plan.stream.points.size();
  size_t mismatched = 0;
  size_t empty = 0;
  double merge_s = 0;
  size_t b = 0;
  for (const auto& [pos, answer] : answers) {
    while (b < pos) {
      // Never straddle the wrap point (ChunkAt spans are contiguous).
      const size_t e = std::min({b + 1000, pos, (b / n + 1) * n});
      ref.Feed(ChunkAt(plan, b, e - b));
      b = e;
    }
    ref.Drain();
    mismatched += ref.Query(&rng, &merge_s) == answer ? 0 : 1;
    empty += answer.some ? 0 : 1;
  }
  ref.Drain();
  result->Check("answers_match_rechunked_feed", mismatched == 0 && empty == 0,
                std::to_string(answers.size()) + " answers, " +
                    std::to_string(mismatched) + " mismatched, " +
                    std::to_string(empty) + " empty");
  result->Check("lane_state_matches_rechunked_feed",
                ref.LaneState() == run->LaneState(), "");
}

/// Restore from the pool's durable form, kRestores times: RecoverPool
/// from a full pool checkpoint (windowed) or RestoreSampler of every
/// shard snapshot (infinite window). The restored state must answer like
/// the original.
void MeasureRestore(const DirectPlan& plan, PoolUnderTest* pool,
                    RunResult* result) {
  std::vector<double> seconds;
  std::vector<double> cpu_ms;
  bool same = true;
  if (pool->sw() != nullptr) {
    std::string blob;
    same = rl0::CheckpointPool(pool->sw(), 0, &blob).ok();
    for (int r = 0; r < kRestores && same; ++r) {
      const double cpu0 = SelfCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      auto restored = rl0::RecoverPool(blob, "");
      seconds.push_back(Seconds(t0, Clock::now()));
      cpu_ms.push_back((SelfCpuSeconds() - cpu0) * 1e3);
      same = restored.ok();
      if (!same) break;
      rl0::Xoshiro256pp a(r + 1);
      rl0::Xoshiro256pp b(r + 1);
      same = ToAnswer(restored.value().SampleLatest(&a)) ==
             ToAnswer(pool->sw()->SampleLatest(&b));
    }
  } else {
    std::vector<std::string> blobs(pool->shards());
    for (size_t s = 0; s < blobs.size(); ++s) {
      same = same && rl0::SnapshotSampler(pool->iw()->shard(s), &blobs[s]).ok();
    }
    for (int r = 0; r < kRestores && same; ++r) {
      std::vector<rl0::RobustL0SamplerIW> shards;
      const double cpu0 = SelfCpuSeconds();
      const Clock::time_point t0 = Clock::now();
      for (const std::string& blob : blobs) {
        auto restored = rl0::RestoreSampler(blob);
        if (!restored.ok()) {
          same = false;
          break;
        }
        shards.push_back(std::move(restored).value());
      }
      seconds.push_back(Seconds(t0, Clock::now()));
      cpu_ms.push_back((SelfCpuSeconds() - cpu0) * 1e3);
      for (size_t s = 0; s < shards.size() && same; ++s) {
        rl0::Xoshiro256pp a(r + 1);
        rl0::Xoshiro256pp b(r + 1);
        same = ToAnswer(shards[s].Sample(&a)) ==
               ToAnswer(pool->iw()->shard(s).Sample(&b));
      }
    }
  }
  result->Check("restored_state_answers_like_original", same, "");
  result->scalars["recover_s"] = seconds;
  result->scalars["recover_cpu_ms"] = cpu_ms;
}

void RunDirect(const DirectPlan& plan, const RunConfig& config,
               RunResult* result) {
  const Stream& s = plan.stream;
  const size_t n = s.points.size();
  result->props["points"] = static_cast<double>(n);
  result->props["exact_repeat_share"] =
      static_cast<double>(CountExactRepeats(s.points)) / static_cast<double>(n);
  if (plan.window > 0) {
    result->props["window"] = static_cast<double>(plan.window);
    result->props["groups_per_window"] =
        MeanGroupsPerWindow(s, static_cast<size_t>(plan.window));
  }
  result->props["paced_pts_per_s"] = plan.paced_pts_per_s;
  result->props["ack_limit_ms"] = plan.ack_limit_ms;

  // Set-up: pool Create, kSetups times (median); the last pool runs.
  PoolUnderTest pool(plan);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    pool.Reset();
    const Clock::time_point t0 = Clock::now();
    pool.Create();
    setups.push_back(Seconds(t0, Clock::now()));
  }
  result->scalars["setup_s"] = setups;

  // Trace runs first measure untraced saturation bursts in a pool of
  // their own, for the tracing overhead.
  double untraced_rate = 0;
  if (config.trace) {
    PoolUnderTest warm(plan);
    DirectLog wl;
    rl0::Xoshiro256pp rng(SplitMix64Seed(plan.options.seed, 11));
    for (int r = 0; r < kRounds; ++r) {
      if (r == 0 || plan.fresh_pool_per_round) {
        warm.Reset();
        warm.Create();
        rng = rl0::Xoshiro256pp(SplitMix64Seed(plan.options.seed, 11));
      }
      DriveRound(plan, &warm, r, false, false, &rng, &wl);
    }
    untraced_rate = Median(wl.round_cpu_rates);
  }

  // The pool lives in this process beside the pre-generated input, so its
  // footprint is the heap it holds above the pre-run baseline (sampled
  // whenever the pool is drained between phases), not the process RSS.
  // mallinfo2 walks the allocator's free lists, so it never runs inside a
  // timed span.
  const double heap_before = HeapInUseMb();
  double heap_peak = heap_before;
  HostStealShareSinceLastCall();
  DirectLog log;
  log.on_quiescent = [&heap_peak] {
    heap_peak = std::max(heap_peak, HeapInUseMb());
  };
  rl0::Xoshiro256pp rng(SplitMix64Seed(plan.options.seed, 11));
  std::vector<std::pair<size_t, Answer>> first_round;
  size_t round_mismatch = 0;
  for (int r = 0; r < kRounds; ++r) {
    const size_t before = log.answers.size();
    if (r > 0 && plan.fresh_pool_per_round) {
      pool.Reset();
      pool.Create();
      rng = rl0::Xoshiro256pp(SplitMix64Seed(plan.options.seed, 11));
    }
    DriveRound(plan, &pool, r, config.trace, true, &rng, &log);
    if (!plan.fresh_pool_per_round) continue;
    // Replayed rounds must answer exactly like the first.
    const std::vector<std::pair<size_t, Answer>> this_round(
        log.answers.begin() + before, log.answers.end());
    if (r == 0) {
      first_round = this_round;
    } else if (!(this_round == first_round)) {
      ++round_mismatch;
    }
  }
  result->props["host_steal_share"] = HostStealShareSinceLastCall();
  result->scalars["peak_rss_mb"] = {heap_peak - heap_before};
  if (plan.fresh_pool_per_round) {
    result->Check("replayed_rounds_answer_identically", round_mismatch == 0,
                  std::to_string(kRounds) + " rounds");
  }

  result->scalars["ingest_segments_pts_per_s"] = log.round_rates;
  result->scalars["ingest_pts_per_cpu_s"] = log.round_cpu_rates;
  result->scalars["paced_cpu_us_per_pt"] = log.paced_cpu_us;
  // CPU per query on the drained pool, in blocks of 100.
  {
    std::vector<double> per_query;
    double merge_s = 0;
    for (int block = 0; block < 5; ++block) {
      const double cpu0 = SelfCpuSeconds();
      for (int i = 0; i < 100; ++i) {
        pool.Drain();
        pool.Query(&rng, &merge_s);
      }
      per_query.push_back((SelfCpuSeconds() - cpu0) * 1e4);
    }
    result->scalars["query_cpu_us"] = per_query;
  }
  result->series["ack_ms"] = log.ack;
  result->series["loadgen_lag_ms"] = log.lag;
  result->series["event_lag_ms"] = log.event_lag;
  // Query latency while ingest continues at the paced rate; the
  // saturation queries (mostly the drain of the backlog) are part of the
  // ingest rate, and in the trace as pool.drain_ms.
  result->series["query_ms"] = log.query;
  // Every fed chunk and every query is one attempted operation.
  const size_t chunks = kRounds * (plan.sat_points / plan.sat_chunk +
                                   plan.paced_points / plan.paced_chunk);
  result->Count(chunks + log.answers.size(), 0);

  CheckRechunked(plan, &pool,
                 plan.fresh_pool_per_round ? first_round : log.answers,
                 result);
  MeasureRestore(plan, &pool, result);

  if (config.trace) {
    auto& layers = result->layers;
    layers["pool.feed_ns_per_pt"] =
        log.feed_s * 1e9 / static_cast<double>(log.sat_fed);
    layers["pool.drain_ms"] = Median(log.drain_ms);
    layers["pool.query_us"] = Median(log.sample_us);
    layers["pool.merge_ms"] = plan.window > 0 ? 0 : Median(log.merge_ms);
    double max_lane = 0;
    double sum_lane = 0;
    for (size_t i = 0; i < pool.shards(); ++i) {
      const double v = static_cast<double>(pool.lane_points(i));
      max_lane = std::max(max_lane, v);
      sum_lane += v;
    }
    layers["pool.lane_skew"] =
        max_lane / (sum_lane / static_cast<double>(pool.shards()));
    const rl0::DupFilterStats fs = pool.FilterStats();
    layers["filter.hits"] = static_cast<double>(fs.hits);
    layers["filter.misses"] = static_cast<double>(fs.misses);
    layers["filter.hit_ratio"] =
        fs.hits + fs.misses == 0
            ? 0
            : static_cast<double>(fs.hits) /
                  static_cast<double>(fs.hits + fs.misses);
    layers["loadgen.lag_p99_ms"] = Quantile(log.lag.ms, 0.99);
    // Both passes by their median burst rate per CPU second, so neither
    // pays for being first (cold allocator and caches) or for time the
    // host stole.
    layers["trace.overhead_frac"] =
        untraced_rate / Median(log.round_cpu_rates) - 1.0;
    PeelSamplerAndGrid(Span<const Point>(s.points.data(), plan.sat_points),
                       nullptr, plan.options, plan.window, result);
  }
}

}  // namespace

void RunDirectWindow(const RunConfig& config, RunResult* result) {
  DirectPlan plan;
  plan.window = 20000;
  plan.sat_chunk = 256;
  plan.sat_every = 2048;
  plan.paced_chunk = 32;
  plan.paced_every = 256;
  plan.sat_points =
      static_cast<size_t>(config.seconds * 40000 / kRounds) / 2048 * 2048;
  plan.paced_pts_per_s = 32000;
  plan.paced_points = kPacedPerRound * plan.paced_chunk;
  plan.ack_limit_ms = 50;
  const size_t need = kRounds * (plan.sat_points + plan.paced_points);
  // Power-law groups: n·(ln n + 1.6) arrivals for n groups.
  size_t groups = 1000;
  while (static_cast<double>(groups) *
             (std::log(static_cast<double>(groups)) + 1.6) <
         static_cast<double>(need)) {
    groups += groups / 8;
  }
  plan.stream = PowerLawNearDuplicates(groups, 20, config.seed);
  plan.stream.points.resize(need);
  plan.stream.group_of.resize(need);
  CompactInArrivalOrder(&plan.stream);
  plan.options.dim = 20;
  plan.options.alpha = plan.stream.alpha;
  plan.options.seed = config.seed;
  plan.options.expected_stream_length = need;
  RunDirect(plan, config, result);
}

void RunDirectIw(const RunConfig& config, RunResult* result) {
  DirectPlan plan;
  plan.window = 0;
  plan.sat_chunk = 2048;
  plan.sat_every = 16384;
  plan.paced_chunk = 256;
  plan.paced_every = 2048;
  // A stream of 2^17 arrivals per run second (its Points take ~70 B
  // each), replayed into a fresh pool every round; the paced block
  // continues from its start, itself more retransmits of earlier points.
  plan.sat_points = static_cast<size_t>(config.seconds * 131072) / 16384 * 16384;
  plan.fresh_pool_per_round = true;
  plan.paced_pts_per_s = 256000;
  plan.paced_points = kPacedPerRound * plan.paced_chunk;
  plan.ack_limit_ms = 50;
  const size_t need = plan.sat_points;
  // Retransmits: each arrival repeats, byte for byte, one of the last 32
  // arrivals with probability 0.8; otherwise it is the next fresh point.
  const Stream fresh =
      PaperNearDuplicates(need / 5 / 45 + 16, 5, 100, config.seed);
  rl0::Xoshiro256pp rng(SplitMix64Seed(config.seed, 13));
  Stream& s = plan.stream;
  s.dim = 5;
  s.alpha = fresh.alpha;
  size_t next = 0;
  while (s.points.size() < need) {
    const size_t have = s.points.size();
    if (have > 0 && (next >= fresh.points.size() || rng.NextDouble() < 0.8)) {
      const size_t back = 1 + rng.NextBounded(std::min<size_t>(32, have));
      s.points.push_back(s.points[have - back]);
      s.group_of.push_back(s.group_of[have - back]);
    } else {
      s.points.push_back(fresh.points[next]);
      s.group_of.push_back(fresh.group_of[next]);
      ++next;
    }
  }
  CompactInArrivalOrder(&s);
  plan.options.dim = 5;
  plan.options.alpha = s.alpha;
  plan.options.seed = config.seed;
  plan.options.expected_stream_length = need;
  RunDirect(plan, config, result);
}

}  // namespace pb
