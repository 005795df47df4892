#include "rl0/core/ingest_pool.h"

#include <utility>

#include "rl0/core/worker_fleet.h"
#include "rl0/util/check.h"

namespace rl0 {

IngestPool::IngestPool(std::vector<Sink> sinks,
                       std::vector<StampedSink> stamped_sinks,
                       std::vector<WatermarkSink> watermark_sinks,
                       const Options& options)
    : fleet_(options.fleet), fed_(options.index_base) {
  RL0_CHECK(!sinks.empty());
  RL0_CHECK(stamped_sinks.empty() || stamped_sinks.size() == sinks.size());
  RL0_CHECK(watermark_sinks.empty() ||
            watermark_sinks.size() == sinks.size());
  const size_t queue_capacity =
      options.queue_capacity < 1 ? 1 : options.queue_capacity;
  lanes_.reserve(sinks.size());
  for (size_t i = 0; i < sinks.size(); ++i) {
    StampedSink stamped =
        stamped_sinks.empty() ? StampedSink() : std::move(stamped_sinks[i]);
    WatermarkSink watermark = watermark_sinks.empty()
                                  ? WatermarkSink()
                                  : std::move(watermark_sinks[i]);
    lanes_.push_back(std::make_unique<Lane>(queue_capacity,
                                            std::move(sinks[i]),
                                            std::move(stamped),
                                            std::move(watermark)));
  }
  if (fleet_ != nullptr) {
    for (std::unique_ptr<Lane>& lane : lanes_) {
      lane->fleet_id = fleet_->Register(
          [this, raw = lane.get()] { return RunLaneOnce(raw); });
    }
  } else {
    for (std::unique_ptr<Lane>& lane : lanes_) {
      lane->worker =
          std::thread([this, raw = lane.get()] { WorkerLoop(raw); });
    }
  }
}

IngestPool::IngestPool(std::vector<Sink> sinks,
                       std::vector<StampedSink> stamped_sinks,
                       const Options& options)
    : IngestPool(std::move(sinks), std::move(stamped_sinks),
                 std::vector<WatermarkSink>(), options) {}

IngestPool::IngestPool(std::vector<Sink> sinks, const Options& options)
    : IngestPool(std::move(sinks), std::vector<StampedSink>(), options) {}

IngestPool::IngestPool(std::vector<Sink> sinks)
    : IngestPool(std::move(sinks), Options()) {}

IngestPool::~IngestPool() { Stop(); }

void IngestPool::ProcessChunk(Lane* lane, Chunk chunk) {
  {
    MutexLock proc(&lane->proc_mu);
    if (chunk.watermark_only) {
      lane->watermark_sink(chunk.watermark);
    } else if (chunk.stamps != nullptr) {
      lane->stamped_sink(Span<const Point>(chunk.data, chunk.size),
                         Span<const int64_t>(chunk.stamps, chunk.size),
                         chunk.index_base);
    } else {
      lane->sink(Span<const Point>(chunk.data, chunk.size),
                 chunk.index_base);
    }
  }
  chunk.owner.reset();  // release chunk storage before signalling
  chunk.stamp_owner.reset();
  {
    MutexLock done(&lane->done_mu);
    ++lane->completed;
  }
  lane->done_cv.NotifyAll();
}

void IngestPool::WorkerLoop(Lane* lane) {
  Chunk chunk;
  while (lane->queue.Pop(&chunk)) {
    ProcessChunk(lane, std::move(chunk));
  }
}

bool IngestPool::RunLaneOnce(Lane* lane) {
  Chunk chunk;
  if (!lane->queue.TryPop(&chunk)) return false;
  ProcessChunk(lane, std::move(chunk));
  return true;
}

void IngestPool::FeedChunk(Chunk chunk) {
  if (chunk.size == 0 && !chunk.watermark_only) return;
  // One critical section assigns the index base AND enqueues everywhere:
  // every lane sees the same chunk order, and bases are dense and unique
  // even under concurrent producers. Push may block here (backpressure);
  // that also throttles other producers, which is the intent — the
  // workers drain the queues without ever taking feed_mu_, so the pool
  // always makes progress.
  MutexLock lock(&feed_mu_);
  if (stopped_) return;
  if (chunk.watermark_only) {
    // A watermark announces "no stamped point below this will ever be
    // fed" — regressing the pool's stamp watermark would falsify the
    // announcements already broadcast.
    RL0_CHECK(!stamp_watermark_set_ || chunk.watermark >= latest_stamp_);
    latest_stamp_ = chunk.watermark;
    stamp_watermark_set_ = true;
  } else if (chunk.stamps != nullptr) {
    // Stamped chunks ride the same critical section, so the stamp
    // sequence is monotone in enqueue order — the time-based analogue of
    // the index-base contract. A violation means the producer handed the
    // pool out-of-order time; fail loudly rather than corrupt every
    // lane's expiry schedule. (Intra-chunk monotonicity was already
    // scanned outside this lock, so only the O(1) cross-chunk check and
    // watermark update serialize the producers.)
    RL0_CHECK(!stamp_watermark_set_ || chunk.stamps[0] >= latest_stamp_);
    latest_stamp_ = chunk.stamps[chunk.size - 1];
    stamp_watermark_set_ = true;
  }
  chunk.index_base = fed_;
  fed_ += chunk.size;
  ++chunks_fed_;
  for (std::unique_ptr<Lane>& lane : lanes_) {
    lane->queue.Push(chunk);
    // Fleet mode: wake a shared worker for this lane right after its
    // push, so an earlier lane progresses even while a later lane's
    // full queue blocks the loop.
    if (fleet_ != nullptr) fleet_->Notify(lane->fleet_id);
  }
}

void IngestPool::Feed(Span<const Point> points) {
  if (points.empty()) return;
  auto storage = std::make_shared<const std::vector<Point>>(points.begin(),
                                                            points.end());
  Chunk chunk;
  chunk.data = storage->data();
  chunk.size = storage->size();
  chunk.owner = std::move(storage);
  FeedChunk(std::move(chunk));
}

void IngestPool::FeedOwned(std::vector<Point> points) {
  if (points.empty()) return;
  auto storage =
      std::make_shared<const std::vector<Point>>(std::move(points));
  Chunk chunk;
  chunk.data = storage->data();
  chunk.size = storage->size();
  chunk.owner = std::move(storage);
  FeedChunk(std::move(chunk));
}

void IngestPool::FeedBorrowed(Span<const Point> points) {
  if (points.empty()) return;
  Chunk chunk;
  chunk.data = points.data();
  chunk.size = points.size();
  FeedChunk(std::move(chunk));
}

namespace {

/// Intra-chunk stamp validation, run before the feed lock is taken (the
/// scan is O(chunk); only the cross-chunk watermark check needs the
/// serializing critical section).
void CheckStampsNonDecreasing(Span<const int64_t> stamps) {
  for (size_t i = 1; i < stamps.size(); ++i) {
    RL0_CHECK(stamps[i] >= stamps[i - 1]);
  }
}

}  // namespace

void IngestPool::FeedStamped(Span<const Point> points,
                             Span<const int64_t> stamps) {
  if (points.empty()) return;
  RL0_CHECK(stamps.size() == points.size());
  FeedOwnedStamped(std::vector<Point>(points.begin(), points.end()),
                   std::vector<int64_t>(stamps.begin(), stamps.end()));
}

void IngestPool::FeedOwnedStamped(std::vector<Point> points,
                                  std::vector<int64_t> stamps) {
  if (points.empty()) return;
  RL0_CHECK(stamps.size() == points.size());
  RL0_CHECK(lanes_[0]->stamped_sink != nullptr);
  CheckStampsNonDecreasing(Span<const int64_t>(stamps.data(), stamps.size()));
  auto storage =
      std::make_shared<const std::vector<Point>>(std::move(points));
  auto stamp_storage =
      std::make_shared<const std::vector<int64_t>>(std::move(stamps));
  Chunk chunk;
  chunk.data = storage->data();
  chunk.size = storage->size();
  chunk.owner = std::move(storage);
  chunk.stamps = stamp_storage->data();
  chunk.stamp_owner = std::move(stamp_storage);
  FeedChunk(std::move(chunk));
}

void IngestPool::FeedWatermark(int64_t watermark) {
  RL0_CHECK(lanes_[0]->watermark_sink != nullptr);
  Chunk chunk;
  chunk.watermark_only = true;
  chunk.watermark = watermark;
  FeedChunk(std::move(chunk));
}

void IngestPool::Drain() {
  uint64_t target;
  {
    MutexLock lock(&feed_mu_);
    target = chunks_fed_;
  }
  for (std::unique_ptr<Lane>& lane : lanes_) {
    MutexLock done(&lane->done_mu);
    while (lane->completed < target) lane->done_cv.Wait(&lane->done_mu);
  }
}

void IngestPool::QuiescedRun(const std::function<void()>& fn) {
  // Lock every lane's processing mutex, always in lane order (workers
  // only ever hold their own, so this cannot deadlock). With all of them
  // held, every worker sits between chunks and lane state is stable. The
  // lock set's size is only known at runtime, so this is the one place
  // that needs MutexLockSet's analysis escape (see util/sync.h).
  MutexLockSet paused;
  for (std::unique_ptr<Lane>& lane : lanes_) {
    paused.Lock(&lane->proc_mu);
  }
  fn();
}

void IngestPool::Stop() {
  {
    MutexLock lock(&feed_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Close() leaves queued chunks poppable: workers finish the backlog,
  // then their Pop returns false and the loop exits.
  for (std::unique_ptr<Lane>& lane : lanes_) {
    lane->queue.Close();
  }
  if (fleet_ != nullptr) {
    // Fleet mode: finish the backlog (every queued chunk was Notify'd,
    // so the fleet drains it), then withdraw the lanes. Deregister
    // blocks until a lane's in-flight run ends, so after this loop the
    // fleet never touches this pool again.
    Drain();
    for (std::unique_ptr<Lane>& lane : lanes_) {
      fleet_->Deregister(lane->fleet_id);
    }
    return;
  }
  for (std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
}

uint64_t IngestPool::AdvanceIndexBase(uint64_t n) {
  MutexLock lock(&feed_mu_);
  const uint64_t base = fed_;
  fed_ += n;
  return base;
}

void IngestPool::NoteStamp(int64_t stamp) {
  MutexLock lock(&feed_mu_);
  if (!stamp_watermark_set_ || stamp > latest_stamp_) {
    latest_stamp_ = stamp;
  }
  stamp_watermark_set_ = true;
}

int64_t IngestPool::latest_stamp() const {
  MutexLock lock(&feed_mu_);
  return stamp_watermark_set_ ? latest_stamp_ : -1;
}

uint64_t IngestPool::points_fed() const {
  MutexLock lock(&feed_mu_);
  return fed_;
}

}  // namespace rl0
