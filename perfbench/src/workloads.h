// The four workloads of the rl0 benchmark and the layer peel they share.
// Each Run* function generates its inputs from the seed, runs the timed
// traffic, checks the outputs against an in-process reference, and — on
// a traced run — feeds the same inputs through successively lower public
// entry points to measure each layer from outside.

#ifndef RL0_PERFBENCH_WORKLOADS_H_
#define RL0_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>

#include "common.h"
#include "rl0/core/options.h"
#include "rl0/util/span.h"

namespace pb {

/// Ingestion lanes of every pool and server fleet: two lanes plus the
/// producer (or the server's session thread) leave one of the 4 cores the
/// benchmark is sized for to the load generator and the host.
constexpr size_t kLanes = 2;

/// Every workload runs kRounds rounds of a saturation burst followed by
/// an open-loop paced block of kPacedPerRound requests at 1000 a second.
/// Interference from the host at any one moment then touches one round;
/// throughput is the median over the rounds' bursts, and each round's
/// paced block is one of the five slices run.py takes latency
/// percentiles over (1000 samples: ten beyond the p99).
constexpr int kRounds = 5;
constexpr size_t kPacedPerRound = 1000;

void RunServeSeq(const RunConfig& config, RunResult* result);
void RunServeLateCkpt(const RunConfig& config, RunResult* result);
void RunDirectWindow(const RunConfig& config, RunResult* result);
void RunDirectIw(const RunConfig& config, RunResult* result);

/// Time per point, in ns, of `fn` run once over `n` points.
template <typename Fn>
double NsPerPoint(size_t n, Fn fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(n);
}

/// The sampler-core and grid/hash rungs of the peel, shared by every
/// workload: a single RobustL0SamplerSW (window > 0, fed `stamps` when
/// given, else positions) or RobustL0SamplerIW (window == 0) over
/// `points`, then RandomGrid cell keys, AdjacentCellsWithBase and
/// CellHasher over the same points.
void PeelSamplerAndGrid(rl0::Span<const rl0::Point> points,
                        const int64_t* stamps,
                        const rl0::SamplerOptions& options, int64_t window,
                        RunResult* result);

}  // namespace pb

#endif  // RL0_PERFBENCH_WORKLOADS_H_
