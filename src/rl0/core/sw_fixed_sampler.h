// Sliding-window robust sampling at a fixed rate 1/R (paper Algorithm 2).
//
// For every *candidate* group (a group whose representative lies in a
// sampled cell or within α of one) the structure keeps a key-value pair
// (representative u, latest point p): u decides accept/reject, p tracks
// liveness. When the latest point of a group expires — no newer point of
// the group arrived within the window — the group is dropped; the next
// point of the group to arrive (if any) becomes its new representative.
// This realizes the representative-point semantics of the paper's
// Observation 1 / Figure 2: the representative of a group in the current
// window is the latest point p of the group such that the window ending
// right before p contains no other point of the group.
//
// The structure works for both sequence-based windows (stamp = arrival
// index) and time-based windows (stamp = arrival time); only the meaning
// of the stamp differs.
//
// Storage: groups live in a SwGroupTable — coordinates in a PointStore
// arena shared across all levels of a hierarchy, scalar fields in flat
// slot-indexed columns, cell membership in an open-addressing CellIndex,
// and expiry order in an intrusive stamp-sorted list (see
// core/sw_group_table.h). No node-based containers remain on the insert
// path. GroupRecord is the *materialized* exchange format (owning
// Points) used by SplitPromote/MergeFrom/SnapshotGroups; inside one
// hierarchy, split promotion instead moves groups arena-internally
// (PromoteInto), which also keeps reservoir coin streams intact across
// splits. The pre-refactor node-based implementation is preserved as
// baseline/legacy_sw_sampler.h for differential pinning.
//
// Used standalone (with a fixed rate it stores up to Θ(w/R) groups) and as
// the per-level building block of the space-efficient Algorithm 3, which
// additionally needs Reset (pruning), SplitPromote and MergeFrom
// (Algorithms 4 and 5).

#ifndef RL0_CORE_SW_FIXED_SAMPLER_H_
#define RL0_CORE_SW_FIXED_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rl0/core/context.h"
#include "rl0/core/sample.h"
#include "rl0/core/sw_group_table.h"
#include "rl0/core/windowed_reservoir.h"
#include "rl0/geom/distance_kernels.h"
#include "rl0/geom/point_store.h"
#include "rl0/util/space.h"
#include "rl0/util/status.h"

namespace rl0 {

/// One tracked candidate group, materialized with owning Points (the
/// exchange format for split/merge between levels, snapshotting and
/// tests; in-table storage is arena-backed).
struct GroupRecord {
  uint64_t id = 0;
  /// The representative (first point of the group in the current window).
  Point rep;
  uint64_t rep_index = 0;
  uint64_t rep_cell = 0;
  /// Accepted (rep's cell sampled) vs rejected (only a nearby cell is).
  bool accepted = false;
  /// The latest point of the group and its stamp — liveness tracking.
  Point latest;
  int64_t latest_stamp = 0;
  uint64_t latest_index = 0;
  /// Section 2.3 variant: the group's windowed-reservoir candidates
  /// (populated only when options.random_representative is set).
  std::vector<WindowedReservoir::RestoredCandidate> reservoir;
};

/// What happened to a point fed to a level (drives Algorithm 3's
/// feed-top-down loop: only *accepted* records stop the descent, per the
/// paper's "accept it at the highest level ℓ in which the point falls into
/// Sacc_ℓ" — rejected records are bookkeeping that must not block lower
/// levels, or Lemma 2.10's non-emptiness guarantee would break).
enum class InsertOutcome {
  /// The group is not a candidate at this level; no trace left.
  kIgnored,
  /// The point became (or refreshed) a *rejected* representative/pair.
  kRejected,
  /// The point became (or refreshed) an *accepted* representative/pair.
  kAccepted,
};

/// Fixed-rate sliding-window sampler (Algorithm 2).
class SwFixedRateSampler {
 public:
  /// Non-owning constructor: `ctx` and `store` must outlive the sampler;
  /// `id_counter` issues group ids unique across all levels of a
  /// hierarchy. A null `store` gives the sampler a private arena.
  SwFixedRateSampler(const SamplerContext* ctx, uint32_t level,
                     int64_t window, uint64_t* id_counter,
                     PointStore* store = nullptr);

  /// Standalone factory owning its context and arena (single-level use,
  /// tests).
  static Result<std::unique_ptr<SwFixedRateSampler>> CreateStandalone(
      const SamplerOptions& options, uint32_t level, int64_t window);

  /// Feeds a prepared point. Expires dead groups first. Reports whether
  /// the point was recorded, and into which class (see InsertOutcome).
  InsertOutcome InsertPrepared(const PreparedPoint& p);

  /// Feeds a prepared point; true iff it was recorded at all (updated an
  /// existing pair or became a new accepted/rejected representative).
  bool Insert(const PreparedPoint& p) {
    return InsertPrepared(p) != InsertOutcome::kIgnored;
  }

  /// Convenience overload computing cell/adjacency internally.
  bool Insert(const Point& p, int64_t stamp);

  /// Drops groups whose latest point left the window at time `now`
  /// (latest_stamp ≤ now − window). Big expiry waves (a stream gap wider
  /// than the window, a post-promotion Reset) leave mostly-dead slot
  /// columns behind; those compact via SwGroupTable::MaybeCompact.
  void Expire(int64_t now);

  /// Prefetches the cell bucket of `key` in this level's group table
  /// (the hierarchy's batch paths issue this one stream element ahead).
  void PrefetchCell(uint64_t key) const { table_.PrefetchCell(key); }

  /// Whether the prefetch is worth its CellKeyOf cost at this level (see
  /// SwGroupTable::PrefetchPays).
  bool PrefetchPays() const { return table_.PrefetchPays(); }

  /// Clears all tracked groups (the hierarchy's pruning step).
  void Reset();

  /// Uniform sample over the *latest points* of accepted groups alive at
  /// `now` (values of A restricted to Sacc). With the Section 2.3
  /// random-representative option, a uniform point of the group's window
  /// instead. Expires first.
  std::optional<SampleItem> Sample(int64_t now, Xoshiro256pp* rng);

  /// Number of accepted groups |Sacc|.
  size_t accept_size() const { return accept_size_; }
  /// Number of rejected groups |Srej|.
  size_t reject_size() const { return table_.live() - accept_size_; }
  /// Total tracked groups (|A|).
  size_t group_count() const { return table_.live(); }
  /// This instance's level ℓ (rate 1/2^ℓ).
  uint32_t level() const { return level_; }
  /// The window width.
  int64_t window() const { return window_; }
  /// The shared context (introspection for tests).
  const SamplerContext& context() const { return *ctx_; }
  /// The flat group table (introspection for tests).
  const SwGroupTable& table() const { return table_; }

  /// Appends the latest points of accepted groups to `out` (A(Sacc)), in
  /// slot order (deterministic for a fixed insertion history).
  void AcceptedLatestPoints(std::vector<SampleItem>* out) const;

  /// Appends one sample item per accepted group: the group's windowed-
  /// reservoir sample (random_representative mode) or its latest point.
  /// Expires the reservoirs at `now` first.
  void AcceptedGroupSamples(int64_t now, std::vector<SampleItem>* out);

  /// Appends materialized copies of all group records to `out`
  /// (introspection, checkpointing).
  void SnapshotGroups(std::vector<GroupRecord>* out) const;

  /// Starts a new dirty-tracking epoch on the group table; subsequent
  /// SnapshotDirtyGroups calls report only groups touched after this
  /// point (delta snapshots, core/checkpoint.h). O(1).
  void MarkCheckpoint() { table_.MarkCheckpoint(); }

  /// Appends materialized records of the groups touched since the last
  /// MarkCheckpoint() to `dirty`, and the id of every live group — in
  /// slot order, the order SnapshotGroups serializes — to `live_ids`.
  void SnapshotDirtyGroups(std::vector<GroupRecord>* dirty,
                           std::vector<uint64_t>* live_ids) const;

  /// Algorithm 4 (Split), promotion half. Finds the last accepted
  /// representative sampled at level ℓ+1; moves every group whose
  /// representative arrived before or at it into `promoted`, re-judged at
  /// level ℓ+1 (accept / reject / drop, per Definition 2.2); keeps the
  /// remaining groups at level ℓ. Returns false (and promotes nothing) if
  /// no accepted representative is sampled at level ℓ+1 — the caller must
  /// abandon the cascade (see DESIGN.md §3).
  bool SplitPromote(std::vector<GroupRecord>* promoted);

  /// As SplitPromote, but moves the promoted groups arena-internally into
  /// `upper` (the level-ℓ+1 sibling of the same hierarchy; both samplers
  /// must share one PointStore). No GroupRecord is materialized and the
  /// promoted groups' reservoirs move with their coin streams intact —
  /// unlike the MergeFrom path, a promoted group's future reservoir
  /// priorities are exactly those of an unsplit run.
  bool PromoteInto(SwFixedRateSampler* upper);

  /// Algorithm 5 (Merge): adopts `groups` (already at this level's rate).
  /// Reservoir coin streams restart from a derived seed (see
  /// core/snapshot.h for the statistical-equivalence contract).
  void MergeFrom(std::vector<GroupRecord>&& groups);

  /// Space in words under the util/space.h accounting model.
  size_t SpaceWords() const;

 private:
  /// The split decision for this level (Algorithm 4 lines 1-2): the
  /// promotion threshold t and the partition of live slots.
  struct SplitPlan {
    bool found = false;
    std::vector<uint32_t> promote_accepted;
    std::vector<uint32_t> promote_rejected;
    std::vector<uint32_t> drop;
  };
  SplitPlan PlanSplit();

  GroupRecord Materialize(uint32_t slot) const;
  /// Installs a materialized record (allocating arena slots).
  void Adopt(GroupRecord&& g);
  uint32_t FindCandidate(PointView p,
                         const std::vector<uint64_t>& adj_keys) const;
  size_t GroupWords() const;

  const SamplerContext* ctx_;
  std::unique_ptr<SamplerContext> owned_ctx_;  // standalone mode only
  PointStore* store_;
  std::unique_ptr<PointStore> owned_store_;  // standalone mode only
  uint32_t level_;
  int64_t window_;
  uint64_t* id_counter_;
  uint64_t owned_id_counter_ = 0;  // standalone mode only
  uint64_t reseed_epoch_ = 0;      // salts reservoir reseeds on adoption

  size_t accept_size_ = 0;
  SwGroupTable table_;

  mutable std::vector<uint64_t> adj_scratch_;
  // FindCandidate gather scratch (see RobustL0SamplerIW): table slots
  // and arena slot indices for one multi-rep cell bucket.
  mutable SmallVector<uint32_t, 16> cand_slots_;
  mutable SmallVector<uint32_t, 16> cand_arena_;
};

}  // namespace rl0

#endif  // RL0_CORE_SW_FIXED_SAMPLER_H_
