#include "rl0/core/sw_sampler.h"

#include <cmath>

#include "rl0/util/bits.h"
#include "rl0/util/check.h"

namespace rl0 {

Result<RobustL0SamplerSW> RobustL0SamplerSW::Create(
    const SamplerOptions& options, int64_t window) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  const uint32_t levels =
      CeilLog2(static_cast<uint64_t>(window)) + 1;  // L+1 instances
  if (levels > CellHasher::kMaxLevel) {
    return Status::InvalidArgument("window too large for hash levels");
  }
  return RobustL0SamplerSW(options, window);
}

RobustL0SamplerSW::RobustL0SamplerSW(const SamplerOptions& options,
                                     int64_t window)
    : ctx_(std::make_unique<SamplerContext>(options)),
      id_counter_(std::make_unique<uint64_t>(0)),
      store_(std::make_unique<PointStore>(options.dim)),
      window_(window),
      accept_cap_(options.EffectiveAcceptCap()) {
  const uint32_t L = CeilLog2(static_cast<uint64_t>(window));
  levels_.reserve(L + 1);
  for (uint32_t l = 0; l <= L; ++l) {
    levels_.push_back(std::make_unique<SwFixedRateSampler>(
        ctx_.get(), l, window, id_counter_.get(), store_.get()));
  }
  UpdateMeters();
}

void RobustL0SamplerSW::Insert(const Point& p, int64_t stamp) {
  InsertStamped(p, stamp, points_processed_);
}

void RobustL0SamplerSW::InsertGlobal(const Point& p, uint64_t global_index) {
  InsertStamped(p, static_cast<int64_t>(global_index), global_index);
}

void RobustL0SamplerSW::InsertStrided(Span<const Point> points, size_t start,
                                      size_t stride, uint64_t index_base) {
  RL0_DCHECK(stride > 0);
  const size_t n = points.size();
  // Gate decided once per chunk (the prefetch costs a CellKeyOf per
  // element and only pays on out-of-cache indexes); the common loop
  // stays free of the hint entirely.
  if (levels_.back()->PrefetchPays()) {
    for (size_t i = start; i < n; i += stride) {
      if (i + stride < n) {
        // Warm the first bucket the next element will probe (the top
        // level is fed first in the Algorithm 3 descent).
        levels_.back()->PrefetchCell(
            ctx_->grid.CellKeyOf(points[i + stride]));
      }
      InsertGlobal(points[i], index_base + i);
    }
    return;
  }
  for (size_t i = start; i < n; i += stride) {
    InsertGlobal(points[i], index_base + i);
  }
}

void RobustL0SamplerSW::InsertStridedStamped(Span<const Point> points,
                                             Span<const int64_t> stamps,
                                             size_t start, size_t stride,
                                             uint64_t index_base) {
  RL0_DCHECK(stride > 0);
  RL0_DCHECK(stamps.size() == points.size());
  const size_t n = points.size();
  // Same chunk-level prefetch gate as InsertStrided: warm the next
  // element's top-level cell bucket while this one inserts.
  if (levels_.back()->PrefetchPays()) {
    for (size_t i = start; i < n; i += stride) {
      if (i + stride < n) {
        levels_.back()->PrefetchCell(
            ctx_->grid.CellKeyOf(points[i + stride]));
      }
      InsertStamped(points[i], stamps[i], index_base + i);
    }
    return;
  }
  for (size_t i = start; i < n; i += stride) {
    InsertStamped(points[i], stamps[i], index_base + i);
  }
}

void RobustL0SamplerSW::InsertStamped(const Point& p, int64_t stamp,
                                      uint64_t stream_index) {
  RL0_DCHECK(p.dim() == ctx_->options.dim);
  RL0_DCHECK(points_processed_ == 0 || stamp >= latest_stamp_);
  latest_stamp_ = stamp;
  ++points_processed_;

  PreparedPoint prep;
  prep.point = &p;
  prep.stamp = stamp;
  prep.stream_index = stream_index;
  // Fused pass: the adjacency search also yields cell(p)'s key.
  prep.cell_key = ctx_->grid.AdjacentCellsWithBase(p, ctx_->options.alpha,
                                                   &adj_scratch_);
  prep.adj_keys = &adj_scratch_;

  // Algorithm 3 lines 5-18: feed top-down and stop at the highest level
  // that records p in its *accept* set ("accept it at the highest level ℓ
  // in which the point falls into Sacc_ℓ"), pruning everything below it.
  // Rejected records at upper levels are retained (they block later points
  // of the same group from masquerading as new representatives there) but
  // must not stop the descent: the newest point has to end up accepted at
  // some level, or Lemma 2.10's non-emptiness guarantee would fail.
  for (size_t l = levels_.size(); l-- > 0;) {
    if (levels_[l]->InsertPrepared(prep) != InsertOutcome::kAccepted) {
      continue;
    }
    for (size_t j = 0; j < l; ++j) levels_[j]->Reset();
    if (levels_[l]->accept_size() > accept_cap_) Cascade(l);
    break;
    // Level 0 samples every cell and has no tracked rejected groups, so
    // the loop always accepts somewhere.
  }
  UpdateMeters();
}

void RobustL0SamplerSW::Insert(const Point& p) {
  Insert(p, static_cast<int64_t>(points_processed_));
}

void RobustL0SamplerSW::InsertBatch(Span<const Point> points) {
  const size_t n = points.size();
  if (levels_.back()->PrefetchPays()) {
    for (size_t i = 0; i < n; ++i) {
      if (i + 1 < n) {
        levels_.back()->PrefetchCell(ctx_->grid.CellKeyOf(points[i + 1]));
      }
      Insert(points[i], static_cast<int64_t>(points_processed_));
    }
    return;
  }
  for (const Point& p : points) {
    Insert(p, static_cast<int64_t>(points_processed_));
  }
}

void RobustL0SamplerSW::Cascade(size_t start_level) {
  size_t j = start_level;
  while (levels_[j]->accept_size() > accept_cap_) {
    if (j + 1 >= levels_.size()) {
      // Algorithm 3 line 17: the cascade ran past the top level. With
      // κ0 large enough this has probability ≤ 1/m² (Lemma 2.8); we
      // record the event and leave the top level over-full rather than
      // fail the stream.
      ++error_count_;
      return;
    }
    // Arena-internal promotion: the groups move between the two levels'
    // tables without materializing GroupRecords (both levels share one
    // PointStore), and their reservoir coin streams survive the split.
    if (!levels_[j]->PromoteInto(levels_[j + 1].get())) {
      // No accepted representative survives the next rate: nothing can be
      // promoted this round (DESIGN.md §3). The cap is restored on a later
      // arrival with fresh representatives.
      ++stuck_split_count_;
      return;
    }
    ++j;
  }
}

void RobustL0SamplerSW::ExpireAll(int64_t now) {
  for (auto& level : levels_) level->Expire(now);
}

std::vector<SampleItem> RobustL0SamplerSW::BuildQueryPool(int64_t now,
                                                          Xoshiro256pp* rng,
                                                          int min_level) {
  ExpireAll(now);
  // c = deepest level with a non-empty accept set (Algorithm 3 line 20).
  int c = -1;
  for (size_t l = levels_.size(); l-- > 0;) {
    if (levels_[l]->accept_size() > 0) {
      c = static_cast<int>(l);
      break;
    }
  }
  std::vector<SampleItem> pool;
  if (c < 0) return pool;
  // A sharded pool may unify deeper than this sampler's own hierarchy
  // reaches (the global deepest level across shards); the own deepest
  // level then gets thinned too, and the pool may legitimately come out
  // empty.
  const int unify = min_level > c ? min_level : c;

  // Unify the per-level rates: keep a level-ℓ group with probability
  // R_ℓ/R_unify = 2^(ℓ-unify), so that every surviving group was selected
  // with probability exactly 1/R_unify (Algorithm 3 lines 21-22).
  std::vector<SampleItem> level_points;
  for (int l = 0; l <= c; ++l) {
    level_points.clear();
    levels_[l]->AcceptedGroupSamples(now, &level_points);
    if (l == unify) {
      pool.insert(pool.end(), level_points.begin(), level_points.end());
      continue;
    }
    const double keep = std::pow(2.0, static_cast<double>(l - unify));
    for (const SampleItem& item : level_points) {
      if (rng->NextBernoulli(keep)) pool.push_back(item);
    }
  }
  // Level c contributes with probability 1 when unify == c.
  RL0_DCHECK(unify > c || !pool.empty());
  return pool;
}

std::optional<SampleItem> RobustL0SamplerSW::Sample(int64_t now,
                                                    Xoshiro256pp* rng) {
  const std::vector<SampleItem> pool = BuildQueryPool(now, rng, -1);
  if (pool.empty()) return std::nullopt;
  return pool[rng->NextBounded(pool.size())];
}

Result<std::vector<SampleItem>> RobustL0SamplerSW::SampleK(
    size_t count, int64_t now, Xoshiro256pp* rng) {
  std::vector<SampleItem> pool = BuildQueryPool(now, rng, -1);
  if (pool.size() < count) {
    return Status::FailedPrecondition(
        "fewer unified window groups than requested samples");
  }
  // Every pool entry belongs to a distinct group (each group is
  // accept-tracked at exactly one level), so a partial Fisher–Yates over
  // the pool is a without-replacement group sample.
  std::vector<SampleItem> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng->NextBounded(pool.size() - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

std::optional<SampleItem> RobustL0SamplerSW::SampleLatest(Xoshiro256pp* rng) {
  return Sample(watermark(), rng);
}

void RobustL0SamplerSW::InsertStampedLate(const Point& p, int64_t stamp) {
  if (!reorder_) {
    reorder_ = std::make_unique<ReorderStage>(ctx_->options.allowed_lateness,
                                              ctx_->options.late_policy);
  }
  reorder_->Offer(p, stamp);
  DrainLateReleases();
}

void RobustL0SamplerSW::FlushLate() {
  if (!reorder_) return;
  reorder_->Flush();
  DrainLateReleases();
}

void RobustL0SamplerSW::DrainLateReleases() {
  if (reorder_->TakeReleased(&late_points_scratch_, &late_stamps_scratch_)) {
    for (size_t i = 0; i < late_points_scratch_.size(); ++i) {
      // Insert assigns the dense stream index the sorted feed would —
      // released order IS the canonically sorted order, so indices,
      // coin streams and snapshot bytes match the strict path exactly.
      Insert(late_points_scratch_[i], late_stamps_scratch_[i]);
    }
  }
  if (reorder_->has_watermark()) NoteWatermark(reorder_->watermark());
}

ReorderStats RobustL0SamplerSW::late_stats() const {
  return reorder_ ? reorder_->stats() : ReorderStats();
}

void RobustL0SamplerSW::set_late_sink(ReorderStage::LateSink sink) {
  if (!reorder_) {
    reorder_ = std::make_unique<ReorderStage>(ctx_->options.allowed_lateness,
                                              ctx_->options.late_policy);
  }
  reorder_->set_late_sink(std::move(sink));
}

void RobustL0SamplerSW::NoteWatermark(int64_t watermark) {
  if (!has_event_watermark_ || watermark > event_watermark_) {
    has_event_watermark_ = true;
    event_watermark_ = watermark;
  }
}

void RobustL0SamplerSW::AcceptedWindowItems(int64_t now,
                                            std::vector<SampleItem>* out) {
  ExpireAll(now);
  for (auto& level : levels_) level->AcceptedGroupSamples(now, out);
}

std::optional<uint32_t> RobustL0SamplerSW::DeepestNonEmptyLevel(int64_t now) {
  ExpireAll(now);
  for (size_t l = levels_.size(); l-- > 0;) {
    if (levels_[l]->accept_size() > 0) return static_cast<uint32_t>(l);
  }
  return std::nullopt;
}

size_t RobustL0SamplerSW::CoreSpaceWords() const {
  size_t words = 8;  // scalars
  for (const auto& level : levels_) words += level->SpaceWords();
  return words;
}

size_t RobustL0SamplerSW::SpaceWords() const {
  // The bounded-lateness buffer is real Θ(lateness · rate) state; after
  // a FlushLate it holds nothing and contributes nothing.
  return CoreSpaceWords() + (reorder_ ? reorder_->SpaceWords() : 0);
}

void RobustL0SamplerSW::UpdateMeters() {
  const size_t core = CoreSpaceWords();
  core_meter_.Set(core);
  meter_.Set(core + (reorder_ ? reorder_->SpaceWords() : 0));
}

}  // namespace rl0
