// Thread-parallel ingestion via sharded samplers.
//
// The samplers are single-writer streaming structures. The standard way to
// use many cores — and the pattern behind the distributed setting of
// AbsorbFrom — is sharding: partition the stream across S samplers created
// with identical options (shared grid/hash randomness), feed each shard
// from its own thread, and merge on query. ShardedSamplerPool packages
// that pattern on top of a persistent IngestPool: one long-lived worker
// per shard, bounded per-shard chunk queues with backpressure, and a
// Merged() view built with RobustL0SamplerIW::AbsorbFrom.
//
// Partition: shard s receives the points at *global* stream positions
// ≡ s (mod S), in stream order, via the strided batch path
// (RobustL0SamplerIW::InsertStrided). Because the residue class is taken
// over global indices, each shard's input subsequence — and therefore its
// entire decision trajectory — is independent of how the stream was cut
// into Feed chunks. A later Merged() resolves groups judged by several
// shards deterministically by true arrival order.
//
// Concurrency contract: Feed/FeedOwned/FeedBorrowed are safe from any
// number of threads; each shard is only ever touched by its own worker.
// Drain() is the barrier: after it returns (with no concurrent feeders),
// Merged(), shard() and points_processed() read quiescent state.
// MergedQuiesced() is the exception that needs no barrier — it pauses the
// workers between chunks, so it is safe concurrently with ongoing
// feeding (each shard then contributes a prefix of its stream).

#ifndef RL0_CORE_SHARDED_POOL_H_
#define RL0_CORE_SHARDED_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <optional>

#include "rl0/core/chunk_policy.h"
#include "rl0/core/ingest_pool.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {

/// A pool of identically-seeded samplers fed in parallel by a persistent
/// worker pipeline.
class ShardedSamplerPool {
 public:
  /// Creates `shards` samplers with identical options and starts the
  /// persistent worker threads (idle until fed). Requires shards ≥ 1.
  static Result<ShardedSamplerPool> Create(
      const SamplerOptions& options, size_t shards,
      const IngestPool::Options& pipeline_options = IngestPool::Options());

  /// Number of shards.
  size_t num_shards() const { return shards_.size(); }

  /// Direct access to a shard. Requires a quiescent pipeline (after
  /// Drain, or before any feeding).
  RobustL0SamplerIW& shard(size_t i) { return shards_[i]; }
  const RobustL0SamplerIW& shard(size_t i) const { return shards_[i]; }

  /// Streams `points` into the pipeline as one chunk (copied; the pool
  /// has its own lifetime for the data). Returns as soon as the chunk is
  /// queued on every shard — call Drain() before querying.
  /// (std::vector<Point> converts implicitly.)
  void Feed(Span<const Point> points);

  /// As Feed but adopts the vector — no copy.
  void FeedOwned(std::vector<Point> points);

  /// As Feed but zero-copy: `points` must stay valid until the next
  /// Drain() returns.
  void FeedBorrowed(Span<const Point> points);

  /// Chops `points` into chunks sized by the shared adaptive policy
  /// (core/chunk_policy.h): queue depth grows the chunks, lane
  /// starvation shrinks them. Chunk boundaries never affect shard state
  /// (the determinism contract), so this is pure throughput tuning.
  /// Copies each chunk; single producer per policy (see chunk_policy()).
  void FeedAdaptive(Span<const Point> points);

  /// The adaptive chunk-sizing policy used by FeedAdaptive (mutable: the
  /// producer may reconfigure or share it across feeds).
  AdaptiveChunkPolicy& chunk_policy() { return chunk_policy_; }

  /// Blocks until everything fed before this call is consumed by every
  /// shard. Safe from any thread, also concurrently with feeding.
  void Drain();

  /// Feeds `points` and drains: the pipelined equivalent of the original
  /// blocking call. Deterministic: the global-residue partition does not
  /// depend on thread scheduling or chunk boundaries.
  void ConsumeParallel(Span<const Point> points);

  /// The pre-pipeline implementation: spawns one thread per shard, feeds
  /// the chunk with chunk-relative striding, joins all workers before
  /// returning. Kept as the bench_pipeline baseline and for differential
  /// testing; shares the pipeline's global index space, so the two paths
  /// may be interleaved (ConsumeParallelSpawnJoin drains first).
  void ConsumeParallelSpawnJoin(Span<const Point> points);

  /// A merged sampler over the union of all shards' streams (copy of
  /// shard 0 absorbing the rest; see AbsorbFrom's guarantee). Requires a
  /// quiescent pipeline (after Drain).
  Result<RobustL0SamplerIW> Merged() const;

  /// As Merged(), but safe concurrently with ongoing feeding: pauses the
  /// workers between chunks and merges each shard's current prefix. The
  /// result is a valid sampler over the subset of the stream processed at
  /// the pause point. Do not call the feed-side APIs (Feed*/Drain/
  /// points_fed) from the same thread while it runs — see
  /// IngestPool::QuiescedRun's deadlock caveat.
  Result<RobustL0SamplerIW> MergedQuiesced();

  /// Total points across shards. Requires a quiescent pipeline.
  uint64_t points_processed() const;

  /// Points handed to the pool so far (fed or consumed; any thread).
  uint64_t points_fed() const;

  /// Total space across shards. Requires a quiescent pipeline.
  size_t SpaceWords() const;

  /// Summed duplicate-suppression counters over the per-lane filters
  /// (each shard owns its own front-end; see core/dup_filter.h).
  /// Requires a quiescent pipeline.
  DupFilterStats FilterStats() const {
    DupFilterStats stats;
    for (const RobustL0SamplerIW& s : shards_) stats += s.filter_stats();
    return stats;
  }

 private:
  ShardedSamplerPool(std::vector<RobustL0SamplerIW> shards,
                     const IngestPool::Options& pipeline_options);

  /// Starts the persistent workers. Called from the constructor — the
  /// pipeline exists before the pool is visible to any other thread, so
  /// concurrent Feeds never race on its creation. The sinks capture
  /// addresses of shards_ elements: stable across moves of the pool (the
  /// vector's heap buffer moves with it) because shards_ never resizes.
  void StartPipeline();

  std::vector<RobustL0SamplerIW> shards_;
  IngestPool::Options pipeline_options_;
  std::unique_ptr<IngestPool> pipeline_;
  AdaptiveChunkPolicy chunk_policy_;
};

/// The windowed mode of the sharded pool: S sliding-window hierarchies
/// (RobustL0SamplerSW) fed as persistent IngestPool lanes.
///
/// Partition and stamps: shard s consumes the points at *global* stream
/// positions ≡ s (mod S). The pool supports both of the paper's window
/// models, chosen by which feed API is used first (modes cannot mix):
///
///   * sequence-based (Feed/FeedOwned/FeedBorrowed) — every point is
///     stamped with its global position; the stamp of chunk[0] is
///     carried by the chunk's index base;
///   * time-based (FeedStamped/FeedOwnedStamped/FeedBorrowedStamped) —
///     every point carries an explicit stamp from a parallel stamp
///     array that rides the chunk through the pipeline; stamps must be
///     non-decreasing in feed order (a point is live at query time
///     `now` iff its stamp lies in (now − w, now]).
///
/// In both modes per-shard input — stamps included — is invariant under
/// re-chunking of the feed, even when a chunk straddles a window-expiry
/// boundary (or a stamp gap jumps past whole windows). Lanes therefore
/// make bit-identical decisions for any chunking and any number of
/// producers (pinned by tests/sw_pipeline_determinism_test.cc).
///
/// Queries merge the per-shard window samples. Two shards may both track
/// one underlying group (each saw a sub-view of its points); the merge
/// dedupes reports within distance α of each other, keeping the report
/// with the latest stream index — exact for well-separated streams, the
/// same contract as RobustL0SamplerIW::AbsorbFrom. The concurrency
/// contract (Feed*/Drain/QuiescedRun) matches ShardedSamplerPool.
class ShardedSwSamplerPool {
 public:
  /// Creates `shards` identically-seeded windowed samplers and starts the
  /// persistent worker threads (idle until fed). Requires shards ≥ 1.
  static Result<ShardedSwSamplerPool> Create(
      const SamplerOptions& options, int64_t window, size_t shards,
      const IngestPool::Options& pipeline_options = IngestPool::Options());

  size_t num_shards() const { return shards_.size(); }
  int64_t window() const { return window_; }

  /// Direct access to a shard. Requires a quiescent pipeline.
  RobustL0SamplerSW& shard(size_t i) { return shards_[i]; }
  const RobustL0SamplerSW& shard(size_t i) const { return shards_[i]; }

  /// Streams `points` into the pipeline as one chunk (copied). Returns as
  /// soon as the chunk is queued on every shard — Drain() before querying.
  /// Sequence mode: stamps are global stream positions.
  void Feed(Span<const Point> points);
  /// As Feed but adopts the vector — no copy.
  void FeedOwned(std::vector<Point> points);
  /// As Feed but zero-copy: `points` must stay valid until the next
  /// Drain() returns.
  void FeedBorrowed(Span<const Point> points);

  /// Streams one explicitly stamped chunk (time-based windows; copied):
  /// `stamps[i]` is the stamp of `points[i]`. Stamps must align with the
  /// points, be non-decreasing within the chunk and across feeds, and the
  /// pool must not have been fed through the sequence-stamped APIs
  /// (modes cannot mix; checked). Lanes route their residue class
  /// through RobustL0SamplerSW::InsertStamped, so per-shard state —
  /// expiry schedule included — is invariant under re-chunking.
  void FeedStamped(Span<const Point> points, Span<const int64_t> stamps);
  /// As FeedStamped but adopts both vectors — no copy.
  void FeedOwnedStamped(std::vector<Point> points,
                        std::vector<int64_t> stamps);
  /// As FeedStamped but zero-copy: both arrays must stay valid until the
  /// next Drain() returns.
  void FeedBorrowedStamped(Span<const Point> points,
                           Span<const int64_t> stamps);

  /// Bounded-lateness time-based feeding (core/reorder_buffer.h): the
  /// stamps may run backwards by up to options().allowed_lateness behind
  /// the maximum stamp seen across all late feeds. A pool-level
  /// ReorderStage restores sorted order and streams the released prefix
  /// through the ordinary stamped pipeline, followed by a watermark
  /// chunk that advances every lane's event time (so a lane whose
  /// residue class went quiet still expires on schedule). For ANY
  /// arrival order within the bound, per-lane state — coin streams and
  /// snapshot bytes included — is bit-identical to FeedStamped of the
  /// canonically sorted stream (ties broken by
  /// ReorderStage::CanonicalLess). Beyond-bound points follow
  /// options().late_policy and are fully accounted in late_stats().
  /// Safe from any number of threads (serialized internally); do not mix
  /// with the strict FeedStamped* calls. Call FlushLate() + Drain()
  /// before end-of-stream queries.
  void FeedStampedLate(Span<const Point> points, Span<const int64_t> stamps);

  /// Releases everything the reorder stage still buffers into the
  /// pipeline and broadcasts the final watermark (the maximum stamp
  /// seen). Drain() afterwards for the usual barrier. No-op before any
  /// FeedStampedLate.
  void FlushLate();

  /// Counters of the pool's reorder stage (all-zero before any
  /// FeedStampedLate). The identity offered == released + late_dropped +
  /// late_redirected + buffered holds at every quiescent point.
  ReorderStats late_stats() const;

  /// Side-channel sink for beyond-bound arrivals under
  /// LatePolicy::kSideChannel; without one they buffer inside the stage
  /// (TakeLateSideChannel). The sink runs on the feeding thread, under
  /// the pool's reorder lock — keep it cheap and do not call back into
  /// the pool.
  void set_late_sink(ReorderStage::LateSink sink);

  /// Drains the internally buffered side-channel deliveries (kSideChannel
  /// with no sink set), in arrival order.
  std::vector<std::pair<Point, int64_t>> TakeLateSideChannel();

  /// Adaptive-chunked feeding (see ShardedSamplerPool::FeedAdaptive and
  /// core/chunk_policy.h); sequence mode.
  void FeedAdaptive(Span<const Point> points);
  /// Adaptive-chunked stamped feeding (time mode).
  void FeedStampedAdaptive(Span<const Point> points,
                           Span<const int64_t> stamps);
  /// The adaptive chunk-sizing policy used by the adaptive feeds.
  AdaptiveChunkPolicy& chunk_policy() { return chunk_policy_; }

  /// Blocks until everything fed before this call is consumed by every
  /// shard. Safe from any thread, also concurrently with feeding.
  void Drain();

  /// Feeds `points` and drains (the blocking convenience call).
  void ConsumeParallel(Span<const Point> points);

  /// The stamp of the most recently fed point — the global position of
  /// the stream's last point in sequence mode, the last explicit stamp in
  /// time mode; -1 before any feeding.
  int64_t now() const;

  /// Deterministic merged window view: the union of all shards' accepted
  /// groups across levels (no rate unification), deduped latest-wins.
  /// Requires a quiescent pipeline. At rate 1 every reported item is the
  /// true latest window point of a live group of the union stream.
  std::vector<SampleItem> MergedWindowItems(int64_t now);

  /// The merged rate-unified candidate pool behind Sample: every shard's
  /// query pool unified to the *global* deepest non-empty level across
  /// shards (each shard's groups then enter at one common rate
  /// 1/R_c_global; without the cross-shard unification a shard whose own
  /// hierarchy is shallower would over-contribute by its rate gap), then
  /// deduped α-proximity latest-wins so each underlying group keeps at
  /// most one entry. Requires a quiescent pipeline. Exposed for tests
  /// and for callers that want the pool rather than one draw.
  std::vector<SampleItem> UnifiedQueryPool(int64_t query_now,
                                           Xoshiro256pp* rng);

  /// A robust ℓ0-sample of the union window at time `query_now`: a
  /// uniform draw from UnifiedQueryPool. Requires a quiescent pipeline.
  /// nullopt iff the window is empty.
  ///
  /// Uniformity caveat: the cross-shard dedupe keeps one entry per
  /// group, and the global-level unification gives every shard's groups
  /// one common selection rate — but below rate 1 a group whose window
  /// points span k residue classes still gets k independent chances to
  /// enter the pool (up to S-fold over-inclusion *in probability*), the
  /// same graceful Θ(1)-per-group degradation regime as Theorem 3.1 and
  /// RobustL0SamplerIW::AbsorbFrom. Exact at rate 1; with one lane this
  /// is exactly the pointwise sampler's draw.
  std::optional<SampleItem> Sample(int64_t query_now, Xoshiro256pp* rng);

  /// Sample at the stamp of the most recently fed point.
  std::optional<SampleItem> SampleLatest(Xoshiro256pp* rng);

  /// As Sample, but safe concurrently with ongoing feeding: pauses the
  /// workers between chunks and queries each shard at its own processed
  /// prefix (shard-local latest stamp), so no shard's state is disturbed
  /// ahead of its stream position. See IngestPool::QuiescedRun's caveat:
  /// do not call the feed-side APIs from the same thread while it runs.
  std::optional<SampleItem> SampleQuiesced(Xoshiro256pp* rng);

  /// Runs `fn` with every worker paused between chunks (checkpointing a
  /// shard with SnapshotSamplerSW while the stream flows). `fn` must not
  /// call this pool's feed-side APIs (deadlock caveat above).
  void QuiescedRun(const std::function<void()>& fn);

  /// Total points across shards. Requires a quiescent pipeline.
  uint64_t points_processed() const;
  /// Points handed to the pool so far (any thread).
  uint64_t points_fed() const;
  /// Total space across shards. Requires a quiescent pipeline.
  size_t SpaceWords() const;

  /// Duplicate-suppression counters in the shape of
  /// ShardedSamplerPool::FilterStats: always {0, 0, points_processed()},
  /// because the sliding-window sampler has no filter and every arrival
  /// bypasses one (perfbench's layer breakdown reads both pool kinds).
  /// Requires a quiescent pipeline.
  DupFilterStats FilterStats() const {
    DupFilterStats stats;
    stats.bypassed = points_processed();
    return stats;
  }

  /// Durability tap on the feed path (core/checkpoint.h). When set, every
  /// fed chunk is reported to the sink *before* it enters the pipeline,
  /// together with the global index of its first point; watermark
  /// broadcasts are reported as empty chunks with `watermark` non-null.
  /// The reporting order equals the pipeline's index-base assignment
  /// order (both happen under one internal lock), so the journal is a
  /// faithful prefix-closed record of the fed stream. Sequence-mode
  /// chunks arrive with an empty `stamps` span. The sink runs on the
  /// feeding thread — keep it cheap and do not call back into the pool.
  using JournalSink = std::function<void(
      Span<const Point> points, Span<const int64_t> stamps,
      uint64_t index_base, const int64_t* watermark)>;

  /// Installs (or clears, with nullptr) the journal sink. Call before
  /// feeding or at a quiescent point — the installation itself is not
  /// synchronized against in-flight feeds.
  void SetJournalSink(JournalSink sink) { journal_ = std::move(sink); }

 private:
  // Checkpoint/recovery (core/checkpoint.h) reads the private header
  // fields (mode, counters, reorder frontier) and rebuilds a pool around
  // restored shards via the private constructor.
  friend Status CheckpointPool(ShardedSwSamplerPool* pool,
                               uint64_t journal_seq, std::string* out);
  friend Status CheckpointPoolDelta(ShardedSwSamplerPool* pool,
                                    const std::string& base,
                                    uint64_t journal_seq, std::string* out);
  friend Result<ShardedSwSamplerPool> RecoverPool(
      const std::string& checkpoint, const std::string& journal,
      const IngestPool::Options& pipeline_options);

  /// Which stamp semantics the pool has been fed with. Latched by the
  /// first feed; mixing modes is a programming error (CHECK-fails).
  enum class StampMode : uint8_t { kUnset = 0, kSequence = 1, kTime = 2 };

  ShardedSwSamplerPool(std::vector<RobustL0SamplerSW> shards, int64_t window,
                       const IngestPool::Options& pipeline_options);

  void StartPipeline();
  /// Latches the pool's stamp mode (atomic; safe from concurrent
  /// producers) and CHECK-fails on a mode mix.
  void LatchMode(StampMode mode);
  /// Streams the reorder stage's staged releases into the pipeline and
  /// broadcasts its advanced watermark. The caller holds the front end's
  /// mutex (compiler-checked via the parameter-based capability).
  void PumpReorderLocked(ReorderFrontEnd* fe) RL0_REQUIRES(fe->mu);
  /// In-place α-proximity dedup, keeping the item with the larger stream
  /// index per group; preserves first-seen order (single-shard pools pass
  /// through untouched, matching the pointwise sampler bit-for-bit).
  void DedupeLatestWins(std::vector<SampleItem>* items) const;
  /// Shared body of UnifiedQueryPool/SampleQuiesced: pools every shard at
  /// `now_of(shard)` unified to the global deepest level, then dedupes.
  template <typename NowOf>
  std::vector<SampleItem> BuildUnifiedPool(NowOf now_of, Xoshiro256pp* rng);
  /// Journal-then-feed: reports (points, stamps) to the sink and runs
  /// `feed` (which must enqueue exactly points.size() points) with
  /// journal_mu_ held across both, so journal order equals the pipeline's
  /// index-base assignment order. With no sink, just runs `feed`.
  template <typename FeedCall>
  void FeedJournaled(Span<const Point> points, Span<const int64_t> stamps,
                     FeedCall feed);

  std::vector<RobustL0SamplerSW> shards_;
  int64_t window_;
  IngestPool::Options pipeline_options_;
  std::unique_ptr<IngestPool> pipeline_;
  /// Heap-allocated so the pool stays movable.
  std::unique_ptr<std::atomic<uint8_t>> mode_;
  AdaptiveChunkPolicy chunk_policy_;
  /// Bounded-lateness front end of FeedStampedLate: the reorder stage
  /// and watermark memory grouped with the mutex that serializes the
  /// late path — the Offer → release → watermark sequence must hit the
  /// pipeline in one piece per producer, or two producers could
  /// interleave a release with a stale watermark. Heap-allocated so the
  /// pool stays movable.
  std::unique_ptr<ReorderFrontEnd> reorder_fe_;
  /// Serializes journal emission with index-base assignment: held across
  /// {points_fed() read, sink call, pipeline feed} so the journal records
  /// chunks in exactly the order the pipeline indexes them. An ordering
  /// lock, not a data guard (journal_ itself is installed at quiescent
  /// points by contract). Taken after reorder_fe_->mu on the late path
  /// (strict feeds never take reorder_fe_->mu, so the order is acyclic).
  std::unique_ptr<Mutex> journal_mu_;
  /// The installed durability tap, empty by default (see SetJournalSink).
  JournalSink journal_;
};

}  // namespace rl0

#endif  // RL0_CORE_SHARDED_POOL_H_
