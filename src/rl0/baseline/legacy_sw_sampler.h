// The pre-refactor sliding-window samplers, preserved verbatim as a
// baseline — the same role baseline/legacy_iw_sampler.h plays for the
// infinite-window sampler.
//
// LegacySwFixedRateSampler keeps its groups in the original node-based
// containers (std::unordered_map<id, StoredGroup>, an unordered_multimap
// cell→id, and a std::map ordered by (stamp, id) for expiry);
// LegacySwSampler is the original Algorithm-3 hierarchy on top of it,
// with split promotion through materialized GroupRecords. The refactored
// core (core/sw_group_table.h flat index, arena-internal PromoteInto)
// must make bit-identical sampling decisions; the differential tests in
// tests/sw_pipeline_determinism_test.cc and tests/fuzz_robustness_test.cc
// pin that.
//
// Do not extend this code: it exists to stay equal to the seed behaviour.

#ifndef RL0_BASELINE_LEGACY_SW_SAMPLER_H_
#define RL0_BASELINE_LEGACY_SW_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "rl0/core/context.h"
#include "rl0/core/sample.h"
#include "rl0/core/sw_fixed_sampler.h"  // GroupRecord, InsertOutcome
#include "rl0/core/windowed_reservoir.h"
#include "rl0/geom/point_store.h"
#include "rl0/util/space.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Fixed-rate sliding-window sampler (Algorithm 2), node-based storage.
class LegacySwFixedRateSampler {
 public:
  LegacySwFixedRateSampler(const SamplerContext* ctx, uint32_t level,
                           int64_t window, uint64_t* id_counter,
                           PointStore* store = nullptr);

  static Result<std::unique_ptr<LegacySwFixedRateSampler>> CreateStandalone(
      const SamplerOptions& options, uint32_t level, int64_t window);

  InsertOutcome InsertPrepared(const PreparedPoint& p);
  bool Insert(const PreparedPoint& p) {
    return InsertPrepared(p) != InsertOutcome::kIgnored;
  }
  bool Insert(const Point& p, int64_t stamp);

  void Expire(int64_t now);
  void Reset();
  std::optional<SampleItem> Sample(int64_t now, Xoshiro256pp* rng);

  size_t accept_size() const { return accept_size_; }
  size_t reject_size() const { return groups_.size() - accept_size_; }
  size_t group_count() const { return groups_.size(); }
  uint32_t level() const { return level_; }
  int64_t window() const { return window_; }
  const SamplerContext& context() const { return *ctx_; }

  void AcceptedLatestPoints(std::vector<SampleItem>* out) const;
  void AcceptedGroupSamples(int64_t now, std::vector<SampleItem>* out);
  void SnapshotGroups(std::vector<GroupRecord>* out) const;
  bool SplitPromote(std::vector<GroupRecord>* promoted);
  void MergeFrom(std::vector<GroupRecord>&& groups);
  size_t SpaceWords() const;

 private:
  struct StoredGroup {
    uint64_t id = 0;
    PointRef rep;
    uint64_t rep_index = 0;
    uint64_t rep_cell = 0;
    bool accepted = false;
    PointRef latest;
    int64_t latest_stamp = 0;
    uint64_t latest_index = 0;
    WindowedReservoir reservoir;
  };

  void IndexGroup(const StoredGroup& g);
  void UnindexGroup(const StoredGroup& g);
  void ReleaseGroup(StoredGroup* g);
  GroupRecord Materialize(const StoredGroup& g) const;
  void Adopt(GroupRecord&& g);
  uint64_t FindCandidate(PointView p,
                         const std::vector<uint64_t>& adj_keys) const;
  size_t GroupWords() const;

  const SamplerContext* ctx_;
  std::unique_ptr<SamplerContext> owned_ctx_;
  PointStore* store_;
  std::unique_ptr<PointStore> owned_store_;
  uint32_t level_;
  int64_t window_;
  uint64_t* id_counter_;
  uint64_t owned_id_counter_ = 0;
  uint64_t reseed_epoch_ = 0;

  size_t accept_size_ = 0;
  std::unordered_map<uint64_t, StoredGroup> groups_;
  std::unordered_multimap<uint64_t, uint64_t> cell_to_group_;
  std::map<std::pair<int64_t, uint64_t>, uint64_t> by_stamp_;

  mutable std::vector<uint64_t> adj_scratch_;
};

/// The original hierarchical sliding-window sampler (Algorithms 3–5) over
/// the node-based per-level structure.
class LegacySwSampler {
 public:
  static Result<LegacySwSampler> Create(const SamplerOptions& options,
                                        int64_t window);

  void Insert(const Point& p, int64_t stamp);
  void Insert(const Point& p);
  void InsertBatch(Span<const Point> points);

  std::optional<SampleItem> Sample(int64_t now, Xoshiro256pp* rng);

  size_t num_levels() const { return levels_.size(); }
  const LegacySwFixedRateSampler& level(size_t i) const { return *levels_[i]; }
  int64_t window() const { return window_; }
  uint64_t points_processed() const { return points_processed_; }
  int64_t latest_stamp() const { return latest_stamp_; }
  uint64_t error_count() const { return error_count_; }
  uint64_t stuck_split_count() const { return stuck_split_count_; }

  size_t SpaceWords() const;

 private:
  LegacySwSampler(const SamplerOptions& options, int64_t window);

  void Cascade(size_t start_level);
  void ExpireAll(int64_t now);

  std::unique_ptr<SamplerContext> ctx_;
  std::unique_ptr<uint64_t> id_counter_;
  std::unique_ptr<PointStore> store_;
  std::vector<std::unique_ptr<LegacySwFixedRateSampler>> levels_;
  int64_t window_;
  size_t accept_cap_;
  uint64_t points_processed_ = 0;
  int64_t latest_stamp_ = 0;
  uint64_t error_count_ = 0;
  uint64_t stuck_split_count_ = 0;
  std::vector<uint64_t> adj_scratch_;
};

}  // namespace rl0

#endif  // RL0_BASELINE_LEGACY_SW_SAMPLER_H_
