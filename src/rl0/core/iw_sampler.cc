#include "rl0/core/iw_sampler.h"

#include <algorithm>

#include "rl0/util/check.h"

namespace rl0 {

namespace {
// Scalar bookkeeping charged once per sampler (level, counters, caps, ...).
constexpr size_t kSamplerScalarWords = 8;
}  // namespace

Result<RobustL0SamplerIW> RobustL0SamplerIW::Create(
    const SamplerOptions& options) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  return RobustL0SamplerIW(options, options.GridSide());
}

RobustL0SamplerIW::RobustL0SamplerIW(const SamplerOptions& options,
                                     double side)
    : options_(options),
      grid_(options.dim, side, SplitMix64(options.seed ^ 0x6772696400ULL),
            options.metric),
      hasher_(options.hash_family, SplitMix64(options.seed ^ 0x68617368ULL),
              options.kwise_k),
      reservoir_rng_(SplitMix64(options.seed ^ 0x7265737600ULL)),
      accept_cap_(options.EffectiveAcceptCap()),
      reps_(options.dim, options.random_representative),
      dup_filter_(options.dim, /*payload_len=*/1, options.dup_filter) {
  meter_.Add(kSamplerScalarWords);
}

size_t RobustL0SamplerIW::RepWords() const {
  size_t words = RepArenaWords(options_.dim);
  if (options_.random_representative) {
    words += ReservoirRepExtraWords(options_.dim);
  }
  return words;
}

uint32_t RobustL0SamplerIW::FindCandidate(PointView p,
                                          const AdjKeyVec& adj_keys) const {
  // A representative u with d(u, p) ≤ α satisfies d(p, cell(u)) ≤ α, so
  // cell(u) is one of the adj(p) keys: the scan below is complete.
  // Per bucket, the chain is gathered into a flat slot list first and the
  // batched kernel probes it four lanes at a time (geom/
  // distance_kernels.h): the pointer-chasing touches only the slot
  // columns, the arithmetic streams over the arena. Buckets holding a
  // single rep — the common case at low dimension — keep the direct
  // scalar check. Probe order, and with it every decision, matches the
  // original per-rep walk exactly.
  for (uint64_t key : adj_keys) {
    const uint32_t head = reps_.CellHead(key);
    if (head == RepTable::kNpos) continue;
    const uint32_t second = reps_.NextInCell(head);
    if (second == RepTable::kNpos) {
      if (MetricWithinDistance(reps_.point(head), p, options_.alpha,
                               options_.metric)) {
        return head;
      }
      continue;
    }
    cand_slots_.clear();
    cand_arena_.clear();
    for (uint32_t slot = head; slot != RepTable::kNpos;
         slot = reps_.NextInCell(slot)) {
      cand_slots_.push_back(slot);
      cand_arena_.push_back(reps_.point_arena_slot(slot));
    }
    const size_t hit =
        FindFirstWithin(reps_.store(), p, cand_arena_.data(),
                        cand_arena_.size(), options_.metric, options_.alpha);
    if (hit != Bitmask::npos) return cand_slots_[hit];
  }
  return RepTable::kNpos;
}

void RobustL0SamplerIW::Insert(const Point& p) {
  InsertView(p, points_processed_);
  ++points_processed_;
}

void RobustL0SamplerIW::InsertBatch(Span<const Point> points) {
  const size_t n = points.size();
  // Decided once per chunk, outside the loop: issuing the prefetch costs
  // a CellKeyOf per element, which only pays once the index has outgrown
  // cache (PrefetchPays) — and keeping the hint out of the common loop
  // keeps that loop's code identical to the plain path.
  if (reps_.PrefetchPays()) {
    for (size_t i = 0; i < n; ++i) {
      // Overlap the next element's CellIndex bucket load with this
      // element's distance work (the probe's first dependent memory
      // read).
      if (i + 1 < n) reps_.PrefetchCell(grid_.CellKeyOf(points[i + 1]));
      InsertView(points[i], points_processed_);
      ++points_processed_;
    }
    return;
  }
  for (const Point& p : points) {
    InsertView(p, points_processed_);
    ++points_processed_;
  }
}

void RobustL0SamplerIW::InsertStrided(Span<const Point> points, size_t start,
                                      size_t stride, uint64_t index_base) {
  RL0_CHECK(stride >= 1);
  const size_t n = points.size();
  if (reps_.PrefetchPays()) {
    for (size_t i = start; i < n; i += stride) {
      if (i + stride < n) {
        reps_.PrefetchCell(grid_.CellKeyOf(points[i + stride]));
      }
      InsertView(points[i], index_base + static_cast<uint64_t>(i));
      ++points_processed_;
    }
    return;
  }
  for (size_t i = start; i < n; i += stride) {
    InsertView(points[i], index_base + static_cast<uint64_t>(i));
    ++points_processed_;
  }
}

void RobustL0SamplerIW::DuplicateLoss(uint32_t candidate, PointView p,
                                      uint64_t stream_index) {
  // p is not the first point of its (candidate) group: skip it, but keep
  // the reservoir of the group fresh (Section 2.3 variant).
  if (options_.random_representative) {
    const uint64_t count = reps_.group_count(candidate) + 1;
    reps_.set_group_count(candidate, count);
    if (reservoir_rng_.NextBounded(count) == 0) {
      reps_.set_sample_point(candidate, p);
      reps_.set_sample_index(candidate, stream_index);
    }
  }
}

void RobustL0SamplerIW::InsertView(PointView p, uint64_t stream_index) {
  RL0_DCHECK(p.dim() == options_.dim);

  // Duplicate-suppression front-end: replay the verdict the full probe
  // reached for these exact bytes when it provably still holds
  // (core/dup_filter.h). A cached candidate needs an intact rep table
  // (epoch == generation) and a kernel re-verify, then takes the identical
  // duplicate-loss path. A cached "ignored" verdict (kNpos) stays true as
  // the level rises (nestedness); only in reservoir mode, where a
  // representative added nearby would draw a coin, does it need the
  // epoch. Anything else falls through to the full probe.
  if (dup_filter_.enabled()) {
    const DupFilter::View hit = dup_filter_.Lookup(p);
    if (hit.found) {
      const uint32_t candidate = hit.payload[0];
      const bool fresh = hit.epoch == reps_.generation();
      if (candidate == RepTable::kNpos) {
        if (fresh || !options_.random_representative) {
          dup_filter_.CountHit();
          return;
        }
      } else if (fresh) {
        RL0_DCHECK(reps_.IsLive(candidate));
        const uint32_t arena = reps_.point_arena_slot(candidate);
        if (FindFirstWithin(reps_.store(), p, &arena, 1, options_.metric,
                            options_.alpha) == 0) {
          dup_filter_.CountHit();
          DuplicateLoss(candidate, p, stream_index);
          return;
        }
      }
    }
    dup_filter_.CountMiss();
  }

  // One fused pass: the adjacency search also yields cell(p)'s key (the
  // zero-offset fold), sparing the separate CellKeyOf quantize-and-fold
  // on the new-representative path.
  const uint64_t cell_key =
      grid_.AdjacentCellsWithBase(p, options_.alpha, &adj_scratch_);
  const uint32_t candidate = FindCandidate(p, adj_scratch_);
  if (candidate != RepTable::kNpos) {
    if (dup_filter_.enabled()) {
      dup_filter_.Store(reps_.generation(), p)[0] = candidate;
    }
    DuplicateLoss(candidate, p, stream_index);
    return;
  }

  // p is the first point of a group not yet judged.
  const bool accepted = hasher_.SampledAtLevel(cell_key, level_);
  bool rejected = false;
  if (!accepted) {
    for (uint64_t key : adj_scratch_) {
      if (hasher_.SampledAtLevel(key, level_)) {
        rejected = true;
        break;
      }
    }
    if (!rejected) {
      // Group is ignored: no sampled cell nearby.
      if (dup_filter_.enabled()) {
        dup_filter_.Store(reps_.generation(), p)[0] = RepTable::kNpos;
      }
      return;
    }
  }

  const uint32_t slot =
      reps_.Add(p, next_rep_id_++, stream_index, cell_key, accepted);
  if (accepted) ++accept_size_;
  meter_.Add(RepWords());
  // Record before the refilter loop: a refilter (or its compaction) would
  // renumber/remove slots after bumping the generation, which correctly
  // invalidates this entry; recording afterwards could pair a renumbered
  // slot with the post-refilter generation.
  if (dup_filter_.enabled()) {
    dup_filter_.Store(reps_.generation(), p)[0] = slot;
  }

  // Halve the sample rate until the accept cap is restored (the paper
  // doubles once per arrival; a loop maintains the invariant strictly and
  // coincides with the paper's behaviour whenever one halving suffices).
  while (accept_size_ > accept_cap_ && level_ < CellHasher::kMaxLevel) {
    ++level_;
    Refilter();
  }
}

void RobustL0SamplerIW::Refilter() {
  // Nestedness (Fact 1(b)): sampled cells at the new level are a subset of
  // those at the previous level, so representatives only move
  // accepted -> {accepted, rejected, dropped} or rejected -> {rejected,
  // dropped}; no representative is (re)admitted.
  std::vector<uint32_t> to_remove;
  AdjKeyVec adj;
  const size_t slots = reps_.slot_count();
  for (uint32_t slot = 0; slot < slots; ++slot) {
    if (!reps_.IsLive(slot)) continue;
    if (hasher_.SampledAtLevel(reps_.cell_key(slot), level_)) {
      RL0_DCHECK(reps_.accepted(slot));
      continue;
    }
    grid_.AdjacentCells(reps_.point(slot), options_.alpha, &adj);
    bool near_sampled = false;
    for (uint64_t key : adj) {
      if (hasher_.SampledAtLevel(key, level_)) {
        near_sampled = true;
        break;
      }
    }
    if (near_sampled) {
      if (reps_.accepted(slot)) {
        reps_.set_accepted(slot, false);
        --accept_size_;
      }
    } else {
      to_remove.push_back(slot);
    }
  }
  for (uint32_t slot : to_remove) {
    if (reps_.accepted(slot)) --accept_size_;
    reps_.Remove(slot);
    meter_.Remove(RepWords());
  }
  // A halving typically kills about half the representatives; when it
  // does, repack the slot columns and the arena so the batched kernel
  // keeps streaming over dense coordinates. No caller holds slot indices
  // across Refilter (compaction renumbers them).
  reps_.MaybeCompact();
}

std::vector<uint32_t> RobustL0SamplerIW::SortedAcceptedSlots() const {
  // Deterministic (content-defined) order: queries answer identically for
  // identical state, independent of slot recycling — this is what makes
  // snapshot/restore behaviour reproducible.
  std::vector<uint32_t> slots;
  slots.reserve(accept_size_);
  const size_t n = reps_.slot_count();
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (reps_.IsLive(slot) && reps_.accepted(slot)) slots.push_back(slot);
  }
  std::sort(slots.begin(), slots.end(), [this](uint32_t a, uint32_t b) {
    return reps_.id(a) < reps_.id(b);
  });
  return slots;
}

std::optional<SampleItem> RobustL0SamplerIW::Sample(Xoshiro256pp* rng) const {
  if (accept_size_ == 0) return std::nullopt;
  const std::vector<uint32_t> slots = SortedAcceptedSlots();
  RL0_DCHECK(slots.size() == accept_size_);
  const uint32_t slot = slots[rng->NextBounded(slots.size())];
  if (options_.random_representative) {
    return SampleItem{reps_.sample_point(slot).Materialize(),
                      reps_.sample_index(slot)};
  }
  return SampleItem{reps_.point(slot).Materialize(), reps_.stream_index(slot)};
}

std::optional<SampleItem> RobustL0SamplerIW::Sample(uint64_t query_seed) const {
  Xoshiro256pp rng(query_seed);
  return Sample(&rng);
}

Result<std::vector<SampleItem>> RobustL0SamplerIW::SampleK(
    size_t count, Xoshiro256pp* rng) const {
  if (count > accept_size_) {
    return Status::FailedPrecondition(
        "fewer accepted groups than requested samples");
  }
  std::vector<uint32_t> accepted = SortedAcceptedSlots();
  // Partial Fisher–Yates: the first `count` entries become a uniform
  // without-replacement sample.
  std::vector<SampleItem> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t j = i + rng->NextBounded(accepted.size() - i);
    std::swap(accepted[i], accepted[j]);
    const uint32_t slot = accepted[i];
    if (options_.random_representative) {
      out.push_back(SampleItem{reps_.sample_point(slot).Materialize(),
                               reps_.sample_index(slot)});
    } else {
      out.push_back(SampleItem{reps_.point(slot).Materialize(),
                               reps_.stream_index(slot)});
    }
  }
  return out;
}

Status RobustL0SamplerIW::AbsorbFrom(const RobustL0SamplerIW& other) {
  const SamplerOptions& a = options_;
  const SamplerOptions& b = other.options_;
  if (a.dim != b.dim || a.alpha != b.alpha || a.metric != b.metric ||
      a.seed != b.seed || a.hash_family != b.hash_family ||
      a.side_mode != b.side_mode || a.custom_side != b.custom_side ||
      a.kwise_k != b.kwise_k) {
    return Status::InvalidArgument(
        "AbsorbFrom requires identical sampler options (shared grid/hash)");
  }

  // Raise this sampler to the coarser of the two rates first; nestedness
  // makes the refilter consistent with all past decisions.
  if (other.level_ > level_) {
    level_ = other.level_;
    Refilter();
  }

  // Re-judge the other partition's representatives at the unified rate and
  // install the ones that are not already covered. Processing in stream
  // order keeps the earlier-representative-wins rule deterministic (with
  // ties broken by rep id, for partitions fed by local arrival index).
  std::vector<uint32_t> incoming;
  incoming.reserve(other.reps_.live());
  const size_t other_slots = other.reps_.slot_count();
  for (uint32_t slot = 0; slot < other_slots; ++slot) {
    if (other.reps_.IsLive(slot)) incoming.push_back(slot);
  }
  std::sort(incoming.begin(), incoming.end(),
            [&other](uint32_t x, uint32_t y) {
              const uint64_t sx = other.reps_.stream_index(x);
              const uint64_t sy = other.reps_.stream_index(y);
              if (sx != sy) return sx < sy;
              return other.reps_.id(x) < other.reps_.id(y);
            });

  AdjKeyVec adj;
  for (uint32_t in : incoming) {
    const PointView in_point = other.reps_.point(in);
    const uint64_t in_cell = other.reps_.cell_key(in);
    const uint64_t in_index = other.reps_.stream_index(in);
    // One adjacency search serves both the rate check below and the
    // candidate lookup after it.
    grid_.AdjacentCells(in_point, options_.alpha, &adj_scratch_);
    const bool accepted = hasher_.SampledAtLevel(in_cell, level_);
    bool rejected = false;
    if (!accepted) {
      for (uint64_t key : adj_scratch_) {
        if (hasher_.SampledAtLevel(key, level_)) {
          rejected = true;
          break;
        }
      }
      if (!rejected) continue;  // dropped at the unified rate
    }
    const uint32_t existing = FindCandidate(in_point, adj_scratch_);
    if (existing != RepTable::kNpos) {
      // Same group seen by both partitions: the earlier representative
      // wins; pool the reservoir state so the kept entry still samples
      // uniformly over the union of observed group points.
      if (options_.random_representative) {
        const uint64_t total =
            reps_.group_count(existing) + other.reps_.group_count(in);
        if (reservoir_rng_.NextBounded(total) <
            other.reps_.group_count(in)) {
          reps_.set_sample_point(existing, other.reps_.sample_point(in));
          reps_.set_sample_index(existing, other.reps_.sample_index(in));
        }
        reps_.set_group_count(existing, total);
      }
      if (in_index < reps_.stream_index(existing)) {
        const bool was_accepted = reps_.accepted(existing);
        reps_.set_point(existing, in_point);
        reps_.set_stream_index(existing, in_index);
        // Re-index the cell and re-judge acceptance for the new rep point.
        reps_.RekeyCell(existing, in_cell);
        const bool now_accepted = hasher_.SampledAtLevel(in_cell, level_);
        reps_.set_accepted(existing, now_accepted);
        if (was_accepted != now_accepted) {
          accept_size_ += now_accepted ? 1 : -1;
        }
        if (!now_accepted) {
          // Keep Definition 2.2: the entry stays only if some cell within
          // α of the (new) representative is sampled; otherwise the group
          // is ignored at this rate and the entry is dropped.
          grid_.AdjacentCells(reps_.point(existing), options_.alpha, &adj);
          bool near_sampled = false;
          for (uint64_t key : adj) {
            near_sampled = near_sampled || hasher_.SampledAtLevel(key, level_);
          }
          if (!near_sampled) {
            reps_.Remove(existing);
            meter_.Remove(RepWords());
          }
        }
      }
      continue;
    }
    const uint32_t slot =
        reps_.Add(in_point, next_rep_id_++, in_index, in_cell, accepted);
    if (options_.random_representative) {
      reps_.set_sample_point(slot, other.reps_.sample_point(in));
      reps_.set_sample_index(slot, other.reps_.sample_index(in));
      reps_.set_group_count(slot, other.reps_.group_count(in));
    }
    if (accepted) ++accept_size_;
    meter_.Add(RepWords());
  }

  points_processed_ += other.points_processed_;
  while (accept_size_ > accept_cap_ && level_ < CellHasher::kMaxLevel) {
    ++level_;
    Refilter();
  }
  return Status::OK();
}

std::vector<SampleItem> RobustL0SamplerIW::AcceptedRepresentatives() const {
  std::vector<SampleItem> out;
  const size_t n = reps_.slot_count();
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (!reps_.IsLive(slot) || !reps_.accepted(slot)) continue;
    out.push_back(
        SampleItem{reps_.point(slot).Materialize(), reps_.stream_index(slot)});
  }
  std::sort(out.begin(), out.end(),
            [](const SampleItem& a, const SampleItem& b) {
              return a.stream_index < b.stream_index;
            });
  return out;
}

std::vector<SampleItem> RobustL0SamplerIW::RejectedRepresentatives() const {
  std::vector<SampleItem> out;
  const size_t n = reps_.slot_count();
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (!reps_.IsLive(slot) || reps_.accepted(slot)) continue;
    out.push_back(
        SampleItem{reps_.point(slot).Materialize(), reps_.stream_index(slot)});
  }
  std::sort(out.begin(), out.end(),
            [](const SampleItem& a, const SampleItem& b) {
              return a.stream_index < b.stream_index;
            });
  return out;
}

}  // namespace rl0
