// Shared immutable state for a family of sampler instances.
//
// The hierarchical sliding-window sampler (Algorithm 3) runs many
// fixed-rate instances (Algorithm 2) that must share one random grid and
// one nested cell hash — levels differ only in the sampling level ℓ fed to
// CellHasher::SampledAtLevel. SamplerContext bundles that shared state.

#ifndef RL0_CORE_CONTEXT_H_
#define RL0_CORE_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/grid/random_grid.h"
#include "rl0/hashing/cell_hasher.h"
#include "rl0/util/rng.h"

namespace rl0 {

struct PreparedPoint;

/// Immutable per-sampler-family state: options, grid, hash.
struct SamplerContext {
  explicit SamplerContext(const SamplerOptions& opts)
      : options(opts),
        grid(opts.dim, opts.GridSide(), SplitMix64(opts.seed ^ 0x6772696400ULL),
             opts.metric),
        hasher(opts.hash_family, SplitMix64(opts.seed ^ 0x68617368ULL),
               opts.kwise_k) {}

  /// The PreparedPoint of `p`: cell(p), adj(p) (written to `*adj`, which
  /// the result points at) and both depths.
  PreparedPoint Prepare(const Point& p, int64_t stamp, uint64_t stream_index,
                        std::vector<uint64_t>* adj) const;

  SamplerOptions options;
  RandomGrid grid;
  CellHasher hasher;
};

/// A stream point with everything the per-level samplers need, computed
/// once per arrival (the adjacency DFS dominates per-point cost and must
/// not be repeated at every level). SamplerContext::Prepare fills it.
struct PreparedPoint {
  const Point* point = nullptr;
  int64_t stamp = 0;
  uint64_t stream_index = 0;
  uint64_t cell_key = 0;
  const std::vector<uint64_t>* adj_keys = nullptr;
  /// CellHasher::Depth(cell_key): a new group of p is accepted exactly at
  /// the levels ℓ ≤ cell_depth.
  uint32_t cell_depth = 0;
  /// The maximum Depth over adj_keys (which include cell_key): a new
  /// group of p is tracked at all exactly at the levels ℓ ≤ adj_depth,
  /// rejected where cell_depth < ℓ ≤ adj_depth.
  uint32_t adj_depth = 0;
};

inline PreparedPoint SamplerContext::Prepare(
    const Point& p, int64_t stamp, uint64_t stream_index,
    std::vector<uint64_t>* adj) const {
  PreparedPoint prep;
  prep.point = &p;
  prep.stamp = stamp;
  prep.stream_index = stream_index;
  // Fused pass: the adjacency search also yields cell(p)'s key, and
  // adj(p) lists it first.
  prep.cell_key = grid.AdjacentCellsWithBase(p, options.alpha, adj);
  prep.adj_keys = adj;
  for (const uint64_t key : *adj) {
    const uint32_t depth = hasher.Depth(key);
    if (key == prep.cell_key) prep.cell_depth = depth;
    if (depth > prep.adj_depth) prep.adj_depth = depth;
  }
  return prep;
}

}  // namespace rl0

#endif  // RL0_CORE_CONTEXT_H_
