#include <algorithm>

#include "rl0/core/iw_sampler.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/grid/random_grid.h"
#include "rl0/hashing/cell_hasher.h"
#include "workloads.h"

namespace pb {
namespace {

// The timed loops fold their results into this, so none is optimized out.
volatile uint64_t g_sink = 0;

}  // namespace

void PeelSamplerAndGrid(rl0::Span<const rl0::Point> points,
                        const int64_t* stamps,
                        const rl0::SamplerOptions& options, int64_t window,
                        RunResult* result) {
  const size_t n = points.size();
  auto& layers = result->layers;
  if (window > 0) {
    auto sampler = rl0::RobustL0SamplerSW::Create(options, window).value();
    layers["sw.insert_ns_per_pt"] = NsPerPoint(n, [&] {
      if (stamps != nullptr) {
        for (size_t i = 0; i < n; ++i) sampler.Insert(points[i], stamps[i]);
      } else {
        sampler.InsertBatch(points);
      }
    });
    layers["sw.levels"] = static_cast<double>(sampler.num_levels());
    layers["sw.peak_space_words"] =
        static_cast<double>(sampler.PeakSpaceWords());
  } else {
    auto sampler = rl0::RobustL0SamplerIW::Create(options).value();
    layers["iw.insert_ns_per_pt"] =
        NsPerPoint(n, [&] { sampler.InsertBatch(points); });
    layers["iw.level"] = static_cast<double>(sampler.level());
    layers["iw.accept_size"] = static_cast<double>(sampler.accept_size());
    layers["iw.reject_size"] = static_cast<double>(sampler.reject_size());
    layers["iw.peak_space_words"] =
        static_cast<double>(sampler.PeakSpaceWords());
  }

  const rl0::RandomGrid grid(options.dim, options.GridSide(), options.seed,
                             options.metric);
  uint64_t sink = 0;
  layers["grid.cell_key_ns_per_pt"] = NsPerPoint(n, [&] {
    for (size_t i = 0; i < n; ++i) sink += grid.CellKeyOf(points[i]);
  });
  rl0::AdjKeyVec adj;
  std::vector<uint64_t> keys;
  keys.reserve(n * 2);
  layers["grid.adjacent_ns_per_pt"] = NsPerPoint(n, [&] {
    for (size_t i = 0; i < n; ++i) {
      adj.clear();
      sink += grid.AdjacentCellsWithBase(points[i], options.alpha, &adj);
      for (const uint64_t key : adj) keys.push_back(key);
    }
  });
  layers["grid.adj_cells_per_pt"] =
      static_cast<double>(keys.size()) / static_cast<double>(n);
  const rl0::CellHasher hasher(options.hash_family, options.seed,
                               options.kwise_k);
  layers["hash.ns_per_key"] = NsPerPoint(keys.size(), [&] {
    for (const uint64_t key : keys) sink += hasher.Hash(key);
  });
  g_sink = sink;
}

}  // namespace pb
