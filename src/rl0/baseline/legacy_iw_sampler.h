// The pre-refactor, map-based implementation of Algorithm 1 — kept as a
// reference baseline.
//
// This is a faithful transcription of the original RobustL0SamplerIW
// ingestion path: one heap-allocated Point per representative, an
// std::unordered_map<id, Rep> for storage and an
// std::unordered_multimap<cell, id> for the cell index. It exists for
// differential testing: the arena/flat-index sampler must make
// bit-identical accept/reject decisions for any fixed seed
// (tests/differential_test.cc pins AcceptedRepresentatives and
// RejectedRepresentatives against this implementation).
//
// Only the fixed-representative insert path is implemented (the
// Section 2.3 reservoir variant does not change which representatives are
// stored, so the decision trajectory is already fully covered).

#ifndef RL0_BASELINE_LEGACY_IW_SAMPLER_H_
#define RL0_BASELINE_LEGACY_IW_SAMPLER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/core/sample.h"
#include "rl0/geom/point.h"
#include "rl0/grid/random_grid.h"
#include "rl0/hashing/cell_hasher.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Reference map-based infinite-window sampler (pre-refactor layout).
class LegacyL0SamplerIW {
 public:
  /// Validates `options` and constructs a sampler. The reservoir variant
  /// is not supported here (see header comment).
  static Result<LegacyL0SamplerIW> Create(const SamplerOptions& options);

  /// Processes the next stream point (original per-point path).
  void Insert(const Point& p);

  /// Number of accepted representatives |Sacc|.
  size_t accept_size() const { return accept_size_; }
  /// Number of rejected representatives |Srej|.
  size_t reject_size() const { return reps_.size() - accept_size_; }
  /// Current level ℓ.
  uint32_t level() const { return level_; }
  /// Total points processed.
  uint64_t points_processed() const { return points_processed_; }

  /// Accepted representatives in insertion order.
  std::vector<SampleItem> AcceptedRepresentatives() const;
  /// Rejected representatives in insertion order.
  std::vector<SampleItem> RejectedRepresentatives() const;

 private:
  struct Rep {
    Point point;
    uint64_t stream_index;
    uint64_t cell_key;
    bool accepted;
  };

  LegacyL0SamplerIW(const SamplerOptions& options, double side);

  void LegacyAdjacentCells(const Point& p,
                           std::vector<uint64_t>* out) const;
  uint64_t FindCandidate(const Point& p,
                         const std::vector<uint64_t>& adj_keys) const;
  void Refilter();

  SamplerOptions options_;
  RandomGrid grid_;
  CellHasher hasher_;
  uint32_t level_ = 0;
  size_t accept_cap_;
  size_t accept_size_ = 0;
  uint64_t points_processed_ = 0;
  uint64_t next_rep_id_ = 0;

  std::unordered_map<uint64_t, Rep> reps_;
  std::unordered_multimap<uint64_t, uint64_t> cell_to_rep_;
  mutable std::vector<uint64_t> adj_scratch_;
};

}  // namespace rl0

#endif  // RL0_BASELINE_LEGACY_IW_SAMPLER_H_
