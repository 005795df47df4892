// Shared pieces of the rl0 load generator: clocks, the raw result record
// run.py reads, input generators, and the unix-socket client and server
// process handling used by the serve_* workloads.

#ifndef RL0_PERFBENCH_COMMON_H_
#define RL0_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/geom/point.h"
#include "rl0/util/rng.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Derives an independent generator seed from the workload seed.
inline uint64_t SplitMix64Seed(uint64_t seed, uint64_t salt) {
  return rl0::SplitMix64(rl0::SplitMix64(seed) ^ (salt * 0x9E3779B97F4A7C15ULL));
}

/// Command-line settings of one load-generator run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Absolute path of the rl0_serve binary (serve_* workloads).
  std::string serve_bin;
};

/// A latency series in time order, in milliseconds. An operation that
/// failed (an ERR, a refusal, a timeout) is recorded as -1 and counted in
/// `failed`; it misses any latency limit.
struct Series {
  std::vector<double> ms;
  uint64_t failed = 0;
};

/// Everything one run reports; run.py turns it into the metrics.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Gate> gates;
  std::map<std::string, Series> series;
  std::map<std::string, std::vector<double>> scalars;
  std::map<std::string, double> props;
  std::map<std::string, double> layers;

  /// Records one output check; a failed check also counts as a failed
  /// operation.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Records the outcome of `n` operations, `bad` of which failed.
  void Count(uint64_t n, uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  std::string ToJson() const;
};

/// A point stream as the system under test receives it, in arrival order.
struct Stream {
  size_t dim = 0;
  double alpha = 0;
  std::vector<rl0::Point> points;
  /// Event-time stamps in arrival order (stamped workloads only).
  std::vector<int64_t> stamps;
  /// Ground-truth group of each arrival (input-property accounting).
  std::vector<uint32_t> group_of;
};

/// Paper-style near-duplicates (stream/neardup.h): `groups` uniform base
/// points, each with 1..max_dups noisy copies, shuffled; no exact repeats.
Stream PaperNearDuplicates(size_t groups, size_t dim, uint32_t max_dups,
                           uint64_t seed);

/// Near-duplicates with power-law group sizes (group of rank r gets
/// ceil(groups / r) noisy copies), centers uniform in a cube wide enough
/// that distinct groups stay far apart relative to alpha; shuffled, no
/// exact repeats.
Stream PowerLawNearDuplicates(size_t groups, size_t dim, uint64_t seed);

/// Re-allocates every point in arrival order. Generation shuffles Point
/// objects, which scatters their coordinates across the heap; a stream
/// decoded off a wire or a file is laid out in arrival order instead.
void CompactInArrivalOrder(Stream* stream);

/// Number of arrivals that are byte-identical to an earlier arrival.
uint64_t CountExactRepeats(const std::vector<rl0::Point>& points);

/// Mean number of distinct groups among `window` consecutive arrivals,
/// sampled at a few positions.
double MeanGroupsPerWindow(const Stream& stream, size_t window);

/// Quantile of `v` (nearest rank, q in [0,1]); 0 on empty input.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// "x,y,..." with %.17g coordinates: the protocol's point encoding.
void AppendCoords(const rl0::Point& p, std::string* out);

/// Peak resident set of a process from /proc/<pid>/status, in MiB.
double VmHwmMb(pid_t pid);
/// CPU seconds the process has run, summed over its live threads
/// (/proc/<pid>/task/*/schedstat). The kernel leaves time the host stole
/// from the virtual CPU out of this figure, so CPU-normalised metrics
/// stay steady on a shared host where wall-clock ones do not.
double ProcessCpuSeconds(pid_t pid);
/// CPU seconds of this process (all threads, including exited ones).
double SelfCpuSeconds();
/// Share of all CPU time the host stole since the previous call
/// (/proc/stat), for the report; the first call returns 0.
double HostStealShareSinceLastCall();

/// Heap bytes in use by this process (glibc mallinfo2, all arenas and
/// mmapped blocks), in MiB.
double HeapInUseMb();

/// Minimal blocking unix-socket client that reads whole lines.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(const std::string& path);
  bool Send(const std::string& bytes);
  /// Next line without its terminator; false on EOF, error, or when
  /// `timeout_ms` passes without a complete line.
  bool ReadLine(std::string* line, int timeout_ms = 60000);
  /// Sends one command and collects its data lines up to the status
  /// line (returned in *status). EVENT blocks are not expected here.
  bool Roundtrip(const std::string& command, std::vector<std::string>* data,
                 std::string* status, int timeout_ms = 60000);
  void Close();

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// One rl0_serve process launched with its stdout on a pipe.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `bin` with `args` and waits for its "listening" line.
  bool Start(const std::string& bin, const std::vector<std::string>& args);
  /// SIGTERM, then wait for exit (SIGKILL after 30 s). Idempotent. True
  /// on exit status 0; *how (optional) says how it ended.
  bool Stop(std::string* how = nullptr);
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Run facts compiled into the binary (run.py adds the source identity).
std::string BuildFactsJson();

}  // namespace pb

#endif  // RL0_PERFBENCH_COMMON_H_
