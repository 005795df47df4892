#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "rl0/core/dup_filter.h"
#include "rl0/core/rep_table.h"
#include "rl0/geom/distance_kernels.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/util/rng.h"

namespace pb {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  *out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      *out += ' ';
    } else {
      *out += c;
    }
  }
  *out += '"';
}

void AppendJsonNumber(double v, std::string* out) {
  char buf[40];
  if (!std::isfinite(v)) v = 0;  // JSON has no inf/nan; callers avoid them
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

}  // namespace

void RunResult::Check(const std::string& name, bool ok,
                      const std::string& detail) {
  gates.push_back({name, ok, detail});
  Count(1, ok ? 0 : 1);
}

std::string RunResult::ToJson() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"gates\": [";
  for (size_t i = 0; i < gates.size(); ++i) {
    if (i) out += ", ";
    out += "{\"name\": ";
    AppendJsonString(gates[i].name, &out);
    out += gates[i].ok ? ", \"ok\": true" : ", \"ok\": false";
    out += ", \"detail\": ";
    AppendJsonString(gates[i].detail, &out);
    out += "}";
  }
  out += "], \"series\": {";
  bool first = true;
  for (const auto& [name, s] : series) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(name, &out);
    out += ": {\"failed\": " + std::to_string(s.failed) + ", \"ms\": [";
    for (size_t i = 0; i < s.ms.size(); ++i) {
      if (i) out += ",";
      AppendJsonNumber(s.ms[i], &out);
    }
    out += "]}";
  }
  out += "}, \"scalars\": {";
  first = true;
  for (const auto& [name, v] : scalars) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(name, &out);
    out += ": [";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) out += ", ";
      AppendJsonNumber(v[i], &out);
    }
    out += "]";
  }
  const auto dump_map = [&out](const char* key,
                               const std::map<std::string, double>& m) {
    out += std::string("}, \"") + key + "\": {";
    bool first_entry = true;
    for (const auto& [name, v] : m) {
      if (!first_entry) out += ", ";
      first_entry = false;
      AppendJsonString(name, &out);
      out += ": ";
      AppendJsonNumber(v, &out);
    }
  };
  dump_map("props", props);
  dump_map("layers", layers);
  out += "}}";
  return out;
}

Stream PaperNearDuplicates(size_t groups, size_t dim, uint32_t max_dups,
                           uint64_t seed) {
  const rl0::BaseDataset base =
      rl0::RandomUniform(groups, dim, SplitMix64Seed(seed, 1), "pb");
  rl0::NearDupOptions nd;
  nd.max_dups = max_dups;
  nd.seed = SplitMix64Seed(seed, 2);
  rl0::NoisyDataset data = rl0::MakeNearDuplicates(base, nd);
  Stream s;
  s.dim = dim;
  s.alpha = data.alpha;
  s.points = std::move(data.points);
  s.group_of = std::move(data.group_of);
  return s;
}

Stream PowerLawNearDuplicates(size_t groups, size_t dim, uint64_t seed) {
  rl0::Xoshiro256pp rng(SplitMix64Seed(seed, 3));
  // Side of the center cube: about one unit of spacing per group along
  // each axis, so centers sit ~1 apart while the noise radius is
  // 0.5 / d^1.5 (the paper's construction, neardup.cc).
  const double side = std::pow(static_cast<double>(groups),
                               1.0 / static_cast<double>(dim)) *
                      2.0;
  const double max_noise = 0.5 / std::pow(static_cast<double>(dim), 1.5);
  std::vector<uint32_t> order(groups);
  std::iota(order.begin(), order.end(), 0u);
  for (size_t i = groups; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  Stream s;
  s.dim = dim;
  s.alpha = 2.0 * max_noise;
  for (size_t g = 0; g < groups; ++g) {
    rl0::Point center(dim);
    for (size_t j = 0; j < dim; ++j) center[j] = rng.NextDouble() * side;
    const size_t rank = order[g] + 1;
    const size_t copies = (groups + rank - 1) / rank;
    s.points.push_back(center);
    s.group_of.push_back(static_cast<uint32_t>(g));
    for (size_t c = 0; c < copies; ++c) {
      rl0::Point z(dim);
      double norm_sq = 0;
      for (size_t j = 0; j < dim; ++j) {
        z[j] = rng.NextDouble() - 0.5;
        norm_sq += z[j] * z[j];
      }
      const double len = (0.05 + 0.95 * rng.NextDouble()) * max_noise;
      s.points.push_back(center + z * (len / std::sqrt(norm_sq)));
      s.group_of.push_back(static_cast<uint32_t>(g));
    }
  }
  for (size_t i = s.points.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(s.points[i - 1], s.points[j]);
    std::swap(s.group_of[i - 1], s.group_of[j]);
  }
  return s;
}

void CompactInArrivalOrder(Stream* stream) {
  std::vector<rl0::Point> compact;
  compact.reserve(stream->points.size());
  for (const rl0::Point& p : stream->points) compact.emplace_back(p.data(), p.dim());
  stream->points = std::move(compact);
}

uint64_t CountExactRepeats(const std::vector<rl0::Point>& points) {
  struct Hash {
    size_t operator()(const rl0::Point* p) const {
      uint64_t h = 0x9E3779B97F4A7C15ULL;
      for (size_t i = 0; i < p->dim(); ++i) {
        uint64_t bits;
        const double v = (*p)[i];
        std::memcpy(&bits, &v, sizeof(bits));
        h = rl0::SplitMix64(h ^ bits);
      }
      return static_cast<size_t>(h);
    }
  };
  struct Eq {
    bool operator()(const rl0::Point* a, const rl0::Point* b) const {
      return *a == *b;
    }
  };
  std::unordered_set<const rl0::Point*, Hash, Eq> seen;
  seen.reserve(points.size());
  uint64_t repeats = 0;
  for (const rl0::Point& p : points) {
    if (!seen.insert(&p).second) ++repeats;
  }
  return repeats;
}

double MeanGroupsPerWindow(const Stream& stream, size_t window) {
  const size_t n = stream.group_of.size();
  if (n == 0) return 0;
  window = std::min(window, n);
  std::vector<double> counts;
  for (int k = 0; k < 8; ++k) {
    const size_t start = (n - window) * static_cast<size_t>(k) / 7;
    std::unordered_set<uint32_t> groups(stream.group_of.begin() + start,
                                        stream.group_of.begin() + start +
                                            window);
    counts.push_back(static_cast<double>(groups.size()));
  }
  return std::accumulate(counts.begin(), counts.end(), 0.0) /
         static_cast<double>(counts.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

void AppendCoords(const rl0::Point& p, std::string* out) {
  char num[40];
  for (size_t d = 0; d < p.dim(); ++d) {
    const int len = std::snprintf(num, sizeof(num), "%.17g", p[d]);
    if (d > 0) *out += ',';
    out->append(num, static_cast<size_t>(len));
  }
}

namespace {

double StatusKbField(pid_t pid, const char* key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::atof(line.c_str() + key_len + 1);
    }
  }
  return 0;
}

}  // namespace

double VmHwmMb(pid_t pid) { return StatusKbField(pid, "VmHWM") / 1024.0; }
double ProcessCpuSeconds(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  double total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    unsigned long long ns = 0;
    if (in >> ns) total += static_cast<double>(ns) * 1e-9;
  }
  return total;
}

double SelfCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double HostStealShareSinceLastCall() {
  static unsigned long long last_total = 0;
  static unsigned long long last_steal = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {0};
  in >> cpu;
  for (unsigned long long& x : v) in >> x;
  unsigned long long total = 0;
  for (const unsigned long long x : v) total += x;
  const unsigned long long steal = v[7];
  double share = 0;
  if (last_total != 0 && total > last_total) {
    share = static_cast<double>(steal - last_steal) /
            static_cast<double>(total - last_total);
  }
  last_total = total;
  last_steal = steal;
  return share;
}

double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

LineClient::~LineClient() { Close(); }

bool LineClient::Connect(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool LineClient::Send(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool LineClient::ReadLine(std::string* line, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      size_t end = nl;
      if (end > pos_ && buf_[end - 1] == '\r') --end;
      line->assign(buf_, pos_, end - pos_);
      pos_ = nl + 1;
      if (pos_ > (1 << 16) && pos_ * 2 > buf_.size()) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (left <= 0 || fd_ < 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, left);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

bool LineClient::Roundtrip(const std::string& command,
                           std::vector<std::string>* data,
                           std::string* status, int timeout_ms) {
  if (data != nullptr) data->clear();
  if (!Send(command)) return false;
  std::string line;
  while (ReadLine(&line, timeout_ms)) {
    if (line.rfind("OK", 0) == 0 || line.rfind("ERR", 0) == 0) {
      *status = line;
      return true;
    }
    if (data != nullptr) data->push_back(line);
  }
  return false;
}

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& bin,
                          const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  std::vector<std::string> argv_storage;
  argv_storage.push_back(bin);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  out_fd_ = pipe_fds[0];
  // Wait for "listening ..." (the server prints it once bound).
  std::string seen;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while (seen.find("listening") == std::string::npos ||
         seen.find('\n', seen.find("listening")) == std::string::npos) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (left <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, left) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    seen.append(buf, static_cast<size_t>(n));
  }
  return true;
}

bool ServerProcess::Stop(std::string* how) {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool clean = false;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (how != nullptr) {
        *how = WIFEXITED(status)
                   ? "exit " + std::to_string(WEXITSTATUS(status))
                   : "signal " + std::to_string(WTERMSIG(status));
      }
      break;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      if (how != nullptr) *how = "waitpid: " + std::string(std::strerror(errno));
      break;
    }
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      if (how != nullptr) *how = "killed after 30 s";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return clean;
}

std::string BuildFactsJson() {
  std::string out = "{\"compiler\": \"" RL0_PB_COMPILER
                    "\", \"build_type\": \"" RL0_PB_BUILD_TYPE
                    "\", \"cxx_flags\": \"" RL0_PB_CXX_FLAGS "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += std::string(", \"distance_kernel_dispatch\": \"") +
         rl0::DistanceKernelDispatch() + "\"";
  out += std::string(", \"cell_index_dispatch\": \"") +
         rl0::CellIndexDispatch() + "\"";
  out += std::string(", \"dup_filter_compiled_in\": ") +
         (rl0::DupFilter::kCompiledIn ? "true" : "false");
  out += "}";
  return out;
}

}  // namespace pb
