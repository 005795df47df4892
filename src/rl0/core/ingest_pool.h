// Persistent worker-pool ingestion pipeline.
//
// PR 1 made batch ingestion fast inside one sampler; this is the layer
// that keeps many samplers fed from a live stream. An IngestPool owns one
// long-lived worker thread per *lane* (a lane is one shard of a
// ShardedSamplerPool, or one copy of an F0 estimator). Producers hand the
// pool stream chunks via Feed; every chunk is stamped with its global
// stream index base and broadcast to each lane's bounded queue, where the
// lane's worker consumes it through a caller-supplied sink (for sharded
// ingestion, the strided walk of the lane's residue class). Thread startup
// is paid once per pool, not once per chunk, and chunks pipeline through
// the lanes instead of barriering at every call.
//
// Determinism contract: chunk index bases are assigned atomically with
// enqueue order under one feed lock, so every lane observes the same
// chunk sequence and every point carries the same global stream index no
// matter how many producers feed or how the scheduler runs the lanes.
// Sinks that partition by *global* index (see ShardedSamplerPool::Feed)
// therefore process bit-identical per-lane streams for any chunking.
//
// Backpressure: each lane queue holds at most Options::queue_capacity
// chunks; Feed blocks while any lane is full, so a slow lane throttles
// the producers instead of queueing unboundedly.
//
// Barriers: Drain() blocks until everything fed *before the call* has
// been consumed by every lane — after it returns (and with no concurrent
// feeders), lane state may be read directly. QuiescedRun(fn) runs fn
// while every worker is paused between chunks, which is what makes
// merge/snapshot safe *concurrently* with ongoing feeding.
//
// Stamped chunks (time-based windows): FeedStamped carries an explicit
// per-point stamp array alongside the chunk. The stamp array rides the
// same atomic index-base assignment — every lane sees identical
// (points, stamps, index_base) triples in identical order — so per-lane
// state stays chunking-invariant exactly as in the sequence-stamped
// mode. Stamps must be non-decreasing within a chunk (scanned before
// the feed lock is taken) and across chunks in enqueue order (the O(1)
// watermark check under the feed lock); a violation is a programming
// error and CHECK-fails. Lanes consume stamped chunks through their
// StampedSink; pools that never feed stamps never need one.
//
// Watermark chunks (bounded-lateness ingestion): FeedWatermark
// broadcasts a point-free control chunk announcing that event time has
// progressed to `watermark` — no stamped point below it will ever be
// fed again. Lanes consume it through their WatermarkSink (typically
// RobustL0SamplerSW::NoteWatermark), letting a lane whose residue class
// saw no recent points still advance its notion of event time (the
// empty-lane watermark stall). Watermark chunks ride the ordinary chunk
// sequence: they raise the pool's stamp watermark, count toward Drain's
// completion target, and never consume stream indices.
//
// Fleet mode (multi-tenant hosting): Options::fleet replaces the
// dedicated per-lane threads with membership in a shared WorkerFleet
// (core/worker_fleet.h) — many pools, one fixed thread set, fair
// round-robin service across every registered lane. All contracts above
// (index-base determinism, backpressure, Drain, QuiescedRun) hold
// identically; a lane is still consumed in order by one worker at a
// time. The fleet must outlive the pool (Stop deregisters the lanes).

#ifndef RL0_CORE_INGEST_POOL_H_
#define RL0_CORE_INGEST_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "rl0/geom/point.h"
#include "rl0/util/bounded_queue.h"
#include "rl0/util/span.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {

class WorkerFleet;

/// A pool of persistent worker threads feeding per-lane samplers from a
/// shared chunked stream.
class IngestPool {
 public:
  /// Consumes one stream chunk on a lane's worker thread. `index_base` is
  /// the global stream position of chunk[0].
  using Sink = std::function<void(Span<const Point> chunk,
                                  uint64_t index_base)>;

  /// Consumes one explicitly stamped chunk (time-based windows):
  /// `stamps[i]` is the stamp of `chunk[i]`, `index_base + i` its global
  /// stream position.
  using StampedSink = std::function<void(Span<const Point> chunk,
                                         Span<const int64_t> stamps,
                                         uint64_t index_base)>;

  /// Consumes one watermark announcement (see FeedWatermark) on a lane's
  /// worker thread.
  using WatermarkSink = std::function<void(int64_t watermark)>;

  struct Options {
    /// Chunks buffered per lane before Feed blocks (backpressure window).
    size_t queue_capacity = 4;
    /// Global index of the first point fed through this pool (continues a
    /// stream that was partially consumed through another path).
    uint64_t index_base = 0;
    /// When non-null, lanes are serviced by this shared fleet instead of
    /// dedicated per-lane threads (multi-tenant hosting; see the file
    /// comment). The fleet must outlive the pool.
    WorkerFleet* fleet = nullptr;
  };

  /// Starts one worker thread per sink. Requires at least one sink.
  IngestPool(std::vector<Sink> sinks, const Options& options);
  explicit IngestPool(std::vector<Sink> sinks);

  /// As above, with a stamped sink per lane (same order as `sinks`; must
  /// be empty or match `sinks` in size). Lanes without stamped sinks
  /// reject FeedStamped.
  IngestPool(std::vector<Sink> sinks, std::vector<StampedSink> stamped_sinks,
             const Options& options);

  /// As above, with a watermark sink per lane (empty or matching `sinks`
  /// in size). Lanes without watermark sinks reject FeedWatermark.
  IngestPool(std::vector<Sink> sinks, std::vector<StampedSink> stamped_sinks,
             std::vector<WatermarkSink> watermark_sinks,
             const Options& options);

  /// Stops the pipeline (drains queued chunks, joins workers).
  ~IngestPool();

  IngestPool(const IngestPool&) = delete;
  IngestPool& operator=(const IngestPool&) = delete;

  /// Enqueues a copy of `points` for every lane. Safe from any thread;
  /// blocks while a lane queue is full. No-op on an empty span.
  void Feed(Span<const Point> points);

  /// As Feed but adopts the vector — no copy.
  void FeedOwned(std::vector<Point> points);

  /// As Feed but zero-copy: the caller guarantees `points` stays valid
  /// until the next Drain() (or Stop()) returns.
  void FeedBorrowed(Span<const Point> points);

  /// Enqueues a copy of the explicitly stamped chunk for every lane
  /// (requires stamped sinks). `stamps` must align with `points`, be
  /// non-decreasing, and start at or after the pool's stamp watermark.
  void FeedStamped(Span<const Point> points, Span<const int64_t> stamps);

  /// As FeedStamped but adopts both vectors — no copy.
  void FeedOwnedStamped(std::vector<Point> points,
                        std::vector<int64_t> stamps);

  /// Broadcasts a watermark control chunk (requires watermark sinks):
  /// every lane's WatermarkSink observes `watermark` after the chunks
  /// fed before this call. Must not regress the pool's stamp watermark,
  /// and stamped chunks fed afterwards must start at or after it (the
  /// standard cross-chunk stamp check covers this). Raises the pool's
  /// stamp watermark like NoteStamp; consumes no stream indices.
  void FeedWatermark(int64_t watermark);

  /// Blocks until every chunk fed before this call has been consumed by
  /// every lane. Safe from any thread, including concurrently with Feed
  /// (chunks fed after the call may still be in flight when it returns).
  void Drain();

  /// Runs `fn` while every worker is paused between chunks. Each lane has
  /// consumed a prefix of the fed chunk sequence (lanes may be at
  /// different prefixes); combine with a preceding Drain for a barrier on
  /// everything fed so far. Safe concurrently with Feed. `fn` must only
  /// READ lane state — in particular it must not call Feed, Drain,
  /// AdvanceIndexBase or points_fed on this pool: with the workers
  /// paused, a backpressured producer can be blocked holding the feed
  /// lock, and taking it from `fn` would deadlock.
  void QuiescedRun(const std::function<void()>& fn);

  /// Drains, closes the queues and joins the workers. Idempotent; called
  /// by the destructor. After Stop the pool no longer accepts Feeds.
  void Stop();

  /// Reserves the next `n` global stream indices without enqueuing
  /// anything — lets a serial insert that bypasses the lanes interleave
  /// with pipelined feeding under one index space (see
  /// F0EstimatorSW::Insert). Returns the base of the reserved range.
  uint64_t AdvanceIndexBase(uint64_t n);

  /// Raises the stamp watermark to `stamp` (no-op if already past it) —
  /// lets serial explicit-stamp inserts interleave with stamped feeding
  /// under one monotone stamp sequence (see F0EstimatorSW::Insert).
  void NoteStamp(int64_t stamp);

  /// The stamp of the most recently fed stamped point (or noted via
  /// NoteStamp); -1 before any stamped feeding.
  int64_t latest_stamp() const;

  /// Points fed (or index-reserved) so far.
  uint64_t points_fed() const;

  /// Number of lanes.
  size_t num_lanes() const { return lanes_.size(); }

 private:
  struct Chunk {
    /// Keeps copied/adopted storage alive; null for borrowed chunks.
    std::shared_ptr<const std::vector<Point>> owner;
    const Point* data = nullptr;
    size_t size = 0;
    uint64_t index_base = 0;
    /// Explicit stamps (stamped chunks only; null = sequence-stamped).
    std::shared_ptr<const std::vector<int64_t>> stamp_owner;
    const int64_t* stamps = nullptr;
    /// Watermark control chunk (size == 0; `watermark` is the payload).
    bool watermark_only = false;
    int64_t watermark = 0;
  };

  struct Lane {
    Lane(size_t queue_capacity, Sink lane_sink, StampedSink lane_stamped,
         WatermarkSink lane_watermark)
        : queue(queue_capacity),
          sink(std::move(lane_sink)),
          stamped_sink(std::move(lane_stamped)),
          watermark_sink(std::move(lane_watermark)) {}

    BoundedQueue<Chunk> queue;
    Sink sink;
    StampedSink stamped_sink;
    WatermarkSink watermark_sink;
    /// Dedicated worker (default mode; unused in fleet mode).
    std::thread worker;
    /// Fleet membership id (fleet mode; 0 in dedicated mode).
    uint64_t fleet_id = 0;
    /// Held by the worker while a chunk is inside the sink (QuiescedRun
    /// acquires all lanes' mutexes — via MutexLockSet — to pause the
    /// pool between chunks).
    Mutex proc_mu;
    /// Guards `completed`; signalled after every consumed chunk.
    Mutex done_mu;
    CondVar done_cv;
    uint64_t completed RL0_GUARDED_BY(done_mu) = 0;
  };

  void FeedChunk(Chunk chunk) RL0_EXCLUDES(feed_mu_);
  void WorkerLoop(Lane* lane);
  /// Runs one queued chunk through `lane`'s sink (shared by both worker
  /// modes; holds proc_mu across the sink and signals done_cv).
  void ProcessChunk(Lane* lane, Chunk chunk);
  /// Fleet-mode work callback: consume at most one queued chunk.
  bool RunLaneOnce(Lane* lane);

  /// The shared fleet servicing the lanes (null = dedicated threads).
  WorkerFleet* fleet_ = nullptr;
  /// Serializes index-base assignment with enqueue order (the determinism
  /// contract) and guards the feed-side counters below.
  mutable Mutex feed_mu_;
  uint64_t fed_ RL0_GUARDED_BY(feed_mu_) = 0;
  uint64_t chunks_fed_ RL0_GUARDED_BY(feed_mu_) = 0;
  /// Stamp watermark for stamped chunks; -1 until the first stamped feed
  /// (or NoteStamp). Monotonicity across chunks is only enforced once
  /// the watermark exists, so negative initial stamps stay legal.
  int64_t latest_stamp_ RL0_GUARDED_BY(feed_mu_) = -1;
  bool stamp_watermark_set_ RL0_GUARDED_BY(feed_mu_) = false;
  bool stopped_ RL0_GUARDED_BY(feed_mu_) = false;
  /// Stable addresses: workers hold Lane* across the pool's lifetime.
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace rl0

#endif  // RL0_CORE_INGEST_POOL_H_
