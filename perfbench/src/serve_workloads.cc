// serve_seq and serve_late_ckpt: rl0_serve as a separate process, reached
// over a unix socket by three connections of this one process — a feeder
// (closed-loop saturation phase, then an open-loop paced phase), a
// standing-query subscriber, and a querier.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rl0/core/checkpoint.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/worker_fleet.h"
#include "rl0/serve/checkpointer.h"
#include "rl0/serve/cvm.h"
#include "rl0/serve/protocol.h"
#include "rl0/serve/registry.h"
#include "workloads.h"

namespace pb {
namespace {

using rl0::Point;
using rl0::Span;

/// How many times set-up and restart are repeated per run (medians).
constexpr int kSetups = 9;
constexpr int kRestarts = 7;
/// Draws per final SAMPLE compared against the reference.
constexpr int kFinalDraws = 8;


struct ServePlan {
  bool late = false;
  Stream stream;
  /// Late mode: the stream in canonical stamp order (what the reorder
  /// stage releases), with its stamps.
  std::vector<Point> sorted_points;
  std::vector<int64_t> sorted_stamps;
  rl0::serve::CreateParams params;
  /// CREATE arguments after the tenant name (no newline).
  std::string create_args;
  /// SUBSCRIBE arguments after the tenant name.
  std::string subscribe_args;
  /// Points per FEED in the saturation and the paced phase (the paced
  /// phase sends 1000 commands a second).
  size_t sat_chunk = 128;
  size_t paced_chunk = 40;
  size_t in_flight = 8;
  /// Saturation chunks per round.
  size_t sat_per_round = 0;
  double paced_pts_per_s = 0;
  double ack_limit_ms = 0;
  double query_period_s = 0.01;
  /// Every aux_every-th query tick also sends the aux command.
  int aux_every = 10;
  std::string aux_verb;
  /// The querier starts once this many chunks are acknowledged (so the
  /// window it samples is never empty).
  size_t query_start_chunk = 0;
  /// Per-chunk wire bodies: " <pt> <pt> ...\n" (the verb and tenant are
  /// prepended at send time).
  std::vector<std::string> bodies;
  /// Stream offset where each chunk starts, plus the stream length.
  std::vector<size_t> bounds;
  /// First chunk of each round, plus the chunk count.
  std::vector<size_t> round_first;

  size_t total_chunks() const { return bounds.size() - 1; }
  bool is_paced(size_t c) const {
    const size_t r = static_cast<size_t>(
        std::upper_bound(round_first.begin(), round_first.end(), c) -
        round_first.begin() - 1);
    return c - round_first[r] >= sat_per_round;
  }
  size_t chunk_begin(size_t c) const { return bounds[c]; }
  size_t chunk_end(size_t c) const { return bounds[c + 1]; }
  /// The chunk that carries stream position `i`.
  size_t chunk_of(size_t i) const {
    return static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), i) - bounds.begin() - 1);
  }
  /// Lays out kRounds rounds of sat_points / kRounds saturation points
  /// then kPacedPerRound paced chunks; returns the stream length.
  size_t Layout(size_t sat_points) {
    sat_per_round = sat_points / kRounds / sat_chunk;
    bounds.assign(1, 0);
    round_first.clear();
    for (int r = 0; r < kRounds; ++r) {
      round_first.push_back(bounds.size() - 1);
      for (size_t c = 0; c < sat_per_round; ++c) {
        bounds.push_back(bounds.back() + sat_chunk);
      }
      for (size_t c = 0; c < kPacedPerRound; ++c) {
        bounds.push_back(bounds.back() + paced_chunk);
      }
    }
    round_first.push_back(bounds.size() - 1);
    return bounds.back();
  }
  std::string FeedPrefix(const std::string& tenant) const {
    return (late ? "FEEDSTAMPED " : "FEED ") + tenant;
  }
};

rl0::SamplerOptions ToOptions(const rl0::serve::CreateParams& p) {
  // Mirrors TenantRegistry::BuildAndRegister.
  rl0::SamplerOptions opts;
  opts.dim = p.dim;
  opts.alpha = p.alpha;
  opts.metric = p.metric;
  opts.seed = p.seed;
  opts.k = p.k;
  opts.random_representative = p.reservoir;
  opts.expected_stream_length = p.expected_m;
  opts.dup_filter = p.filter;
  if (p.mode == rl0::serve::TenantMode::kLate) {
    opts.allowed_lateness = p.lateness;
  }
  return opts;
}

void EncodeBodies(ServePlan* plan) {
  plan->bodies.resize(plan->total_chunks());
  for (size_t c = 0; c < plan->total_chunks(); ++c) {
    std::string& body = plan->bodies[c];
    for (size_t i = plan->chunk_begin(c); i < plan->chunk_end(c); ++i) {
      body += ' ';
      if (plan->late) {
        body += std::to_string(plan->stream.stamps[i]);
        body += '@';
      }
      AppendCoords(plan->stream.points[i], &body);
    }
    body += '\n';
  }
}

// ------------------------------------------------------------ connections

struct EventRec {
  int64_t at = 0;
  std::string kind;
  Clock::time_point recv;
  std::vector<std::string> lines;
};

/// The standing-query connection: a reader thread collecting EVENT blocks.
class Subscriber {
 public:
  ~Subscriber() { Stop(); }

  bool Open(const std::string& sock, const std::string& tenant,
            const std::string& args) {
    std::string status;
    if (!client_.Connect(sock) ||
        !client_.Roundtrip("SUBSCRIBE " + tenant + " " + args + "\n",
                           nullptr, &status) ||
        status.rfind("OK", 0) != 0) {
      return false;
    }
    thread_ = std::thread([this] { Loop(); });
    return true;
  }

  /// Stops reading once `expect` EVENT blocks arrived or, with expect 0,
  /// after 300 ms without one: blocks fired by the last feeds may still
  /// be on their way when the feeder has its last ack.
  void Stop(size_t expect = 0) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    size_t seen = count_.load();
    Clock::time_point quiet_since = Clock::now();
    while (thread_.joinable() && Clock::now() < deadline) {
      const size_t now_seen = count_.load();
      if (expect > 0 ? now_seen >= expect
                     : Clock::now() - quiet_since > std::chrono::milliseconds(300)) {
        break;
      }
      if (now_seen != seen) {
        seen = now_seen;
        quiet_since = Clock::now();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    client_.Close();
  }

  /// Valid after Stop().
  const std::vector<EventRec>& events() const { return events_; }
  uint64_t malformed() const { return malformed_; }

 private:
  void Loop() {
    std::string line;
    EventRec current;
    bool inside = false;
    for (;;) {
      if (!client_.ReadLine(&line, 100)) {
        if (stop_.load()) return;
        continue;
      }
      if (!inside) {
        char kind[32] = {0};
        long long at = 0;
        if (std::sscanf(line.c_str(), "EVENT %*s %*s %31s at=%lld", kind,
                        &at) == 2) {
          current = EventRec();
          current.kind = kind;
          current.at = at;
          current.recv = Clock::now();
          inside = true;
        } else {
          ++malformed_;
        }
      } else if (line == "END") {
        events_.push_back(std::move(current));
        count_.fetch_add(1);
        inside = false;
      } else {
        current.lines.push_back(line);
      }
    }
  }

  LineClient client_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> count_{0};
  std::vector<EventRec> events_;
  uint64_t malformed_ = 0;
};

struct Timeline {
  /// Chunks in the order they were sent.
  std::vector<size_t> order;
  /// Indexed by chunk.
  std::vector<Clock::time_point> sched, sent, acked;
  std::vector<uint8_t> ok;
  /// Server CPU seconds of each round's burst and paced block.
  std::vector<double> sat_cpu, paced_cpu;
};

/// Per round: the round's saturation chunks closed-loop with `in_flight`
/// outstanding, a wait for every ack, then (with_paced) its paced chunks
/// open-loop, each due at its scheduled time whatever the acks do, and
/// another wait for every ack.
class Feeder {
 public:
  Feeder(const ServePlan& plan, LineClient* client, const std::string& tenant,
         pid_t server)
      : plan_(plan),
        client_(client),
        prefix_(plan.FeedPrefix(tenant)),
        server_(server) {}

  void Run(bool with_paced, Timeline* tl) {
    const size_t n = plan_.total_chunks();
    tl->sched.assign(n, Clock::time_point());
    tl->sent.assign(n, Clock::time_point());
    tl->acked.assign(n, Clock::time_point());
    tl->ok.assign(n, 0);
    tl->order.clear();
    tl->sat_cpu.clear();
    tl->paced_cpu.clear();
    for (int r = 0; r < kRounds; ++r) {
      const size_t first = plan_.round_first[r];
      const size_t last = with_paced ? plan_.round_first[r + 1]
                                     : first + plan_.sat_per_round;
      for (size_t c = first; c < last; ++c) tl->order.push_back(c);
    }
    std::thread receiver([&] { Receive(tl); });
    const double interval = static_cast<double>(plan_.paced_chunk) /
                            plan_.paced_pts_per_s;
    for (int r = 0; r < kRounds && !dead(); ++r) {
      const size_t first = plan_.round_first[r];
      double cpu0 = ProcessCpuSeconds(server_);
      for (size_t c = first; c < first + plan_.sat_per_round; ++c) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock,
                   [&] { return dead_ || outstanding_ < plan_.in_flight; });
          if (dead_) break;
          ++outstanding_;
        }
        tl->sent[c] = tl->sched[c] = Clock::now();
        SendChunk(c);
      }
      WaitAllAcked();
      tl->sat_cpu.push_back(ProcessCpuSeconds(server_) - cpu0);
      if (!with_paced) continue;
      cpu0 = ProcessCpuSeconds(server_);
      const Clock::time_point start = Clock::now();
      for (size_t k = 0; k < kPacedPerRound && !dead(); ++k) {
        const size_t c = first + plan_.sat_per_round + k;
        tl->sched[c] =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(interval * k));
        std::this_thread::sleep_until(tl->sched[c]);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++outstanding_;
        }
        tl->sent[c] = Clock::now();
        SendChunk(c);
      }
      WaitAllAcked();
      tl->paced_cpu.push_back(ProcessCpuSeconds(server_) - cpu0);
    }
    receiver.join();
  }

  /// Chunks acknowledged so far (the querier waits on it).
  size_t acked() const { return acked_.load(); }

 private:
  bool dead() {
    std::lock_guard<std::mutex> lock(mu_);
    return dead_;
  }

  void WaitAllAcked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return dead_ || outstanding_ == 0; });
  }

  void SendChunk(size_t c) {
    if (!client_->Send(prefix_) || !client_->Send(plan_.bodies[c])) {
      std::lock_guard<std::mutex> lock(mu_);
      dead_ = true;
      cv_.notify_all();
    }
  }

  void Receive(Timeline* tl) {
    std::string line;
    for (const size_t c : tl->order) {
      // Unsent chunks of a dead connection never get a response.
      const bool got = !dead() && client_->ReadLine(&line, 30000);
      tl->acked[c] = Clock::now();
      tl->ok[c] = got && line.rfind("OK", 0) == 0;
      acked_.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu_);
      if (!got) dead_ = true;
      if (outstanding_ > 0) --outstanding_;
      cv_.notify_all();
    }
  }

  const ServePlan& plan_;
  LineClient* client_;
  std::string prefix_;
  pid_t server_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
  bool dead_ = false;
  std::atomic<size_t> acked_{0};
};

struct QueryLog {
  Series sample;
  Series aux;
  std::vector<std::vector<std::string>> sample_items;
};

/// SAMPLE every query period, plus the aux verb every aux_every-th tick,
/// one request at a time, until stopped.
class Querier {
 public:
  Querier(const ServePlan& plan, const std::string& sock,
          const std::string& tenant, const Feeder* feeder)
      : plan_(plan), tenant_(tenant), feeder_(feeder) {
    ok_ = client_.Connect(sock);
  }

  bool ok() const { return ok_; }

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const QueryLog& log() const { return log_; }

 private:
  void Loop() {
    while (!stop_.load() && feeder_->acked() < plan_.query_start_chunk) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Clock::time_point start = Clock::now();
    std::vector<std::string> data;
    std::string status;
    for (uint64_t tick = 0; !stop_.load(); ++tick) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan_.query_period_s *
                                                    tick)));
      if (stop_.load()) break;
      Clock::time_point t0 = Clock::now();
      if (client_.Roundtrip("SAMPLE " + tenant_ + "\n", &data, &status) &&
          status == "OK") {
        log_.sample.ms.push_back(Millis(t0, Clock::now()));
        log_.sample_items.push_back(data);
      } else {
        log_.sample.ms.push_back(-1);
        ++log_.sample.failed;
      }
      if (tick % plan_.aux_every != 0) continue;
      t0 = Clock::now();
      if (client_.Roundtrip(plan_.aux_verb + " " + tenant_ + "\n", &data,
                            &status) &&
          status == "OK") {
        log_.aux.ms.push_back(Millis(t0, Clock::now()));
      } else {
        log_.aux.ms.push_back(-1);
        ++log_.aux.failed;
      }
    }
  }

  const ServePlan& plan_;
  std::string tenant_;
  const Feeder* feeder_;
  LineClient client_;
  bool ok_ = false;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  QueryLog log_;
};

// --------------------------------------------------------------- the run

struct Traffic {
  Timeline tl;
  QueryLog queries;
  std::vector<EventRec> events;
  uint64_t malformed_events = 0;
};

/// One tenant's traffic on a running server: the feeder phases with the
/// querier alongside. The subscriber was opened at set-up.
bool RunTraffic(const ServePlan& plan, const std::string& sock,
                const std::string& tenant, LineClient* feeder_client,
                Subscriber* subscriber, bool with_paced, pid_t server,
                size_t expect_events, Traffic* out) {
  Feeder feeder(plan, feeder_client, tenant, server);
  Querier querier(plan, sock, tenant, &feeder);
  if (!querier.ok()) return false;
  querier.Start();
  feeder.Run(with_paced, &out->tl);
  querier.Stop();
  out->queries = querier.log();
  subscriber->Stop(expect_events);
  out->events = subscriber->events();
  out->malformed_events = subscriber->malformed();
  return true;
}

/// Server launch, "listening", CREATE OK and SUBSCRIBE OK.
bool SetUp(const ServePlan& plan, const RunConfig& config,
           const std::string& sock, const std::string& ckpt_dir,
           ServerProcess* server, LineClient* feeder, Subscriber* subscriber,
           const std::string& tenant, double* seconds) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::string> args = {"--unix", sock, "--threads",
                                   std::to_string(kLanes)};
  if (!ckpt_dir.empty()) {
    args.push_back("--checkpoint-dir");
    args.push_back(ckpt_dir);
  }
  std::string status;
  if (!server->Start(config.serve_bin, args) || !feeder->Connect(sock) ||
      !feeder->Roundtrip("CREATE " + tenant + " " + plan.create_args + "\n",
                         nullptr, &status) ||
      status != "OK" ||
      !subscriber->Open(sock, tenant, plan.subscribe_args)) {
    return false;
  }
  *seconds = Seconds(t0, Clock::now());
  return true;
}

std::string SampleCommand(const std::string& tenant) {
  return "SAMPLE " + tenant + " q=" + std::to_string(kFinalDraws) + "\n";
}

std::vector<std::string> ReferenceDraws(rl0::ShardedSwSamplerPool* pool,
                                        uint64_t seed, int draws) {
  pool->Drain();
  rl0::Xoshiro256pp rng(rl0::SplitMix64(seed ^ rl0::serve::kQuerySeedSalt));
  std::vector<std::string> out;
  for (int q = 0; q < draws; ++q) {
    const auto s = pool->SampleLatest(&rng);
    out.push_back(s ? "ITEM " + rl0::serve::FormatSampleLine(s->point,
                                                             s->stream_index)
                    : "ITEM none");
  }
  return out;
}

/// Checks that every mid-run SAMPLE item names a real point of the
/// stream at its stated position (`by_index` is the stream in the order
/// the sampler indexes it).
void CheckSampleItems(const QueryLog& log, const std::vector<Point>& by_index,
                      RunResult* result) {
  uint64_t bad = 0;
  uint64_t items = 0;
  std::string first_bad;
  for (const auto& lines : log.sample_items) {
    for (const std::string& line : lines) {
      ++items;
      const size_t at = line.rfind("# stream position ");
      const uint64_t idx =
          at == std::string::npos
              ? std::numeric_limits<uint64_t>::max()
              : std::strtoull(line.c_str() + at + 18, nullptr, 10);
      if (idx >= by_index.size() ||
          line != "ITEM " + rl0::serve::FormatSampleLine(by_index[idx], idx)) {
        if (bad++ == 0) first_bad = line;
      }
    }
  }
  result->Check("mid_run_sample_items_are_stream_points",
                bad == 0 && items > 0,
                std::to_string(items) + " items, " + std::to_string(bad) +
                    " mismatched" + (bad ? " (first: " + first_bad + ")" : ""));
}

void RecordTrafficSeries(const ServePlan& plan, const Traffic& tr,
                         const std::vector<size_t>& event_chunk,
                         RunResult* result) {
  uint64_t failed_feeds = 0;
  for (const size_t c : tr.tl.order) failed_feeds += tr.tl.ok[c] ? 0 : 1;
  result->Count(tr.tl.order.size(), failed_feeds);
  // Each round's burst (run.py takes medians): points per wall second,
  // and per CPU second of the server; the paced block's server CPU per
  // point.
  std::vector<double> rates, cpu_rates, paced_cpu;
  for (int r = 0; r < kRounds; ++r) {
    const size_t a = plan.round_first[r];
    const size_t b = a + plan.sat_per_round - 1;
    const size_t pts = plan.chunk_end(b) - plan.chunk_begin(a);
    rates.push_back(static_cast<double>(pts) /
                    Seconds(tr.tl.sent[a], tr.tl.acked[b]));
    cpu_rates.push_back(static_cast<double>(pts) / tr.tl.sat_cpu[r]);
    if (r < static_cast<int>(tr.tl.paced_cpu.size())) {
      const size_t paced_pts = plan.chunk_begin(plan.round_first[r + 1]) -
                               plan.chunk_end(b);
      paced_cpu.push_back(tr.tl.paced_cpu[r] * 1e6 /
                          static_cast<double>(paced_pts));
    }
  }
  result->scalars["ingest_segments_pts_per_s"] = rates;
  result->scalars["ingest_pts_per_cpu_s"] = cpu_rates;
  result->scalars["paced_cpu_us_per_pt"] = paced_cpu;
  Series& ack = result->series["ack_ms"];
  Series& lag = result->series["loadgen_lag_ms"];
  for (const size_t c : tr.tl.order) {
    if (!plan.is_paced(c)) continue;
    lag.ms.push_back(Millis(tr.tl.sched[c], tr.tl.sent[c]));
    if (tr.tl.ok[c]) {
      ack.ms.push_back(Millis(tr.tl.sched[c], tr.tl.acked[c]));
    } else {
      ack.ms.push_back(-1);
      ++ack.failed;
    }
  }
  Series& query = result->series["query_ms"];
  query.ms = tr.queries.sample.ms;
  query.failed = tr.queries.sample.failed;
  result->series["aux_ms"] = tr.queries.aux;
  result->Count(tr.queries.sample.ms.size(), tr.queries.sample.failed);
  result->Count(tr.queries.aux.ms.size(), tr.queries.aux.failed);
  Series& ev = result->series["event_lag_ms"];
  for (size_t e = 0; e < tr.events.size(); ++e) {
    const size_t c = event_chunk[e];
    if (c < plan.total_chunks() && plan.is_paced(c) &&
        tr.tl.sent[c] != Clock::time_point()) {
      ev.ms.push_back(Millis(tr.tl.sched[c], tr.events[e].recv));
    }
  }
  result->Count(tr.events.size() + tr.malformed_events, tr.malformed_events);
  result->props["events"] = static_cast<double>(tr.events.size());
}

// -------------------------------------------------------------- the plans

/// Digest cadence of serve_seq: 555 EVENTs in the paced phase.
constexpr int64_t kDigestEvery = 360;

ServePlan SeqPlan(const RunConfig& config) {
  ServePlan plan;
  plan.paced_chunk = 40;
  plan.paced_pts_per_s = 40000;
  plan.ack_limit_ms = 50;
  const size_t need =
      plan.Layout(static_cast<size_t>(config.seconds * 70000));
  // ~51.5 arrivals per group: the stream covers `need` with slack.
  for (size_t groups = need / 45 + 16; plan.stream.points.size() < need;
       groups += groups / 8) {
    plan.stream = PaperNearDuplicates(groups, 5, 100, config.seed);
  }
  plan.stream.points.resize(need);
  plan.stream.group_of.resize(need);
  CompactInArrivalOrder(&plan.stream);
  auto& p = plan.params;
  p.dim = 5;
  p.alpha = plan.stream.alpha;
  p.window = 50000;
  p.shards = kLanes;
  p.seed = config.seed;
  p.expected_m = need;
  char args[256];
  std::snprintf(args, sizeof(args),
                "dim=%zu alpha=%.17g window=%lld mode=seq shards=%zu "
                "seed=%" PRIu64 " m=%" PRIu64,
                p.dim, p.alpha, static_cast<long long>(p.window), p.shards,
                p.seed, p.expected_m);
  plan.create_args = args;
  plan.subscribe_args = "digest every=" + std::to_string(kDigestEvery) + " q=1";
  plan.aux_verb = "STATS";
  plan.query_start_chunk = 1;
  EncodeBodies(&plan);
  return plan;
}

ServePlan LatePlan(const RunConfig& config) {
  ServePlan plan;
  plan.late = true;
  plan.paced_chunk = 30;
  plan.paced_pts_per_s = 30000;
  plan.ack_limit_ms = 50;
  const size_t need =
      plan.Layout(static_cast<size_t>(config.seconds * 50000));
  // ~26.5 arrivals per group.
  Stream s;
  for (size_t groups = need / 22 + 16; s.points.size() < need;
       groups += groups / 8) {
    s = PaperNearDuplicates(groups, 2, 50, config.seed);
  }
  s.points.resize(need);
  s.group_of.resize(need);
  // Event time = position in the generated order; arrival = stamp plus a
  // heavy-tailed delay below the lateness bound (Pareto, shape 1.1), so
  // no arrival is late but a few straggle almost the whole bound.
  const int64_t lateness = 2000;
  rl0::Xoshiro256pp rng(SplitMix64Seed(config.seed, 7));
  std::vector<std::pair<double, size_t>> arrival(need);
  for (size_t i = 0; i < need; ++i) {
    const double u = 1.0 - rng.NextDouble();
    const double delay = std::min(static_cast<double>(lateness - 1),
                                  std::floor(8.0 * (std::pow(u, -1.0 / 1.1) - 1.0)));
    arrival[i] = {static_cast<double>(i) + delay, i};
  }
  std::stable_sort(arrival.begin(), arrival.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  plan.stream.dim = s.dim;
  plan.stream.alpha = s.alpha;
  for (const auto& [key, i] : arrival) {
    plan.stream.points.push_back(s.points[i]);
    plan.stream.stamps.push_back(static_cast<int64_t>(i));
    plan.stream.group_of.push_back(s.group_of[i]);
  }
  CompactInArrivalOrder(&plan.stream);
  plan.sorted_points = plan.stream.points;
  plan.sorted_stamps = plan.stream.stamps;
  rl0::ReorderStage::SortCanonical(&plan.sorted_points, &plan.sorted_stamps);
  auto& p = plan.params;
  p.dim = 2;
  p.alpha = s.alpha;
  p.window = 50000;
  p.mode = rl0::serve::TenantMode::kLate;
  p.lateness = lateness;
  p.shards = kLanes;
  p.seed = config.seed;
  p.expected_m = need;
  p.checkpoint = true;
  // Every cut rewrites the whole journal (serve/checkpointer.cc), so the
  // cut count, not the stream length, is held fixed: ten per run.
  p.checkpoint_every = need / 10;
  char args[256];
  std::snprintf(args, sizeof(args),
                "dim=%zu alpha=%.17g window=%lld mode=late lateness=%lld "
                "shards=%zu seed=%" PRIu64 " m=%" PRIu64 " ckpt=1 every=%" PRIu64,
                p.dim, p.alpha, static_cast<long long>(p.window),
                static_cast<long long>(lateness), p.shards, p.seed,
                p.expected_m, p.checkpoint_every);
  plan.create_args = args;
  // threshold=0: an alert at every trigger (600 in the paced phase), so
  // the EVENT lag has a fixed sample count.
  plan.subscribe_args = "churn every=250 threshold=0";
  plan.aux_verb = "F0";
  // First release happens once the stamps pass the lateness bound.
  plan.query_start_chunk = static_cast<size_t>(2 * lateness) / plan.sat_chunk + 1;
  EncodeBodies(&plan);
  return plan;
}

void RecordInputProps(const ServePlan& plan, RunResult* result) {
  const Stream& s = plan.stream;
  const size_t n = s.points.size();
  result->props["points"] = static_cast<double>(n);
  result->props["exact_repeat_share"] =
      static_cast<double>(CountExactRepeats(s.points)) / static_cast<double>(n);
  result->props["groups_per_window"] =
      MeanGroupsPerWindow(s, static_cast<size_t>(plan.params.window));
  result->props["window"] = static_cast<double>(plan.params.window);
  size_t bytes = 0;
  for (size_t c = 0; c < plan.total_chunks(); ++c) {
    bytes += plan.FeedPrefix("t").size() + plan.bodies[c].size();
  }
  result->props["wire_bytes_per_pt"] =
      static_cast<double>(bytes) / static_cast<double>(n);
  result->props["paced_pts_per_s"] = plan.paced_pts_per_s;
  result->props["ack_limit_ms"] = plan.ack_limit_ms;
  if (plan.late) {
    // Disorder depth: how far behind the highest stamp seen an arrival is.
    int64_t max_seen = std::numeric_limits<int64_t>::min();
    int64_t depth = 0;
    for (const int64_t st : s.stamps) {
      max_seen = std::max(max_seen, st);
      depth = std::max(depth, max_seen - st);
    }
    result->props["disorder_depth"] = static_cast<double>(depth);
    result->props["lateness"] = static_cast<double>(plan.params.lateness);
  }
}

// ---------------------------------------------------------------- the peel

struct PeelSpans {
  double rt_ns = 0;       // served FEED round trip per point, 1 in flight
  double decode_ns = 0;   // LineDecoder + ParseCommand
  double registry_ns = 0; // TenantRegistry::Feed* + final Flush
  double pool_ckpt_ns = 0;
  double pool_ns = 0;     // late: FeedStampedLate; seq: Feed
  double sorted_ns = 0;   // late: FeedStamped on the stamp-sorted stream
};

/// Feeds the first round's chunks through each lower entry point in turn.
void PeelServe(const ServePlan& plan, const std::string& sock,
               const std::string& run_dir, double traced_ns_per_pt,
               RunResult* result) {
  auto& layers = result->layers;
  const size_t chunks = plan.round_first[1];
  const size_t n = plan.chunk_end(chunks - 1);
  // The same points in stamp order (late tenant): what its lanes see.
  std::vector<Point> sorted_points(plan.stream.points.begin(),
                                   plan.stream.points.begin() + n);
  std::vector<int64_t> sorted_stamps;
  if (plan.late) {
    sorted_stamps.assign(plan.stream.stamps.begin(),
                         plan.stream.stamps.begin() + n);
    rl0::ReorderStage::SortCanonical(&sorted_points, &sorted_stamps);
  }
  const rl0::SamplerOptions opts = ToOptions(plan.params);
  PeelSpans sp;

  // server: PING round trip on an idle connection, then FEED one
  // command in flight on a fresh tenant with the workload's subscription.
  {
    LineClient ping;
    std::string status;
    std::vector<double> rtts;
    if (ping.Connect(sock)) {
      for (int i = 0; i < 2000; ++i) {
        const Clock::time_point t0 = Clock::now();
        if (!ping.Roundtrip("PING\n", nullptr, &status)) break;
        rtts.push_back(Seconds(t0, Clock::now()) * 1e6);
      }
    }
    layers["server.ping_rtt_us"] = Median(rtts);
    LineClient feeder;
    Subscriber sub;
    bool ok = feeder.Connect(sock) &&
              feeder.Roundtrip("CREATE peel " + plan.create_args + "\n",
                               nullptr, &status) &&
              status == "OK" && sub.Open(sock, "peel", plan.subscribe_args);
    const std::string prefix = plan.FeedPrefix("peel");
    uint64_t failed = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t c = 0; ok && c < chunks; ++c) {
      if (!feeder.Roundtrip(prefix + plan.bodies[c], nullptr, &status) ||
          status.rfind("OK", 0) != 0) {
        ++failed;
      }
    }
    sp.rt_ns = Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(n);
    feeder.Roundtrip("CLOSE peel\n", nullptr, &status);
    sub.Stop();
    result->Check("peel_served_feeds_ok", ok && failed == 0,
                  std::to_string(failed) + " failed");
  }

  // protocol: the same wire bytes through LineDecoder + ParseCommand.
  std::vector<std::vector<Point>> parsed_points(chunks);
  std::vector<std::vector<int64_t>> parsed_stamps(chunks);
  {
    std::vector<std::string> wire(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      wire[c] = plan.FeedPrefix("peel") + plan.bodies[c];
    }
    rl0::serve::LineDecoder decoder(1 << 20);
    std::string line;
    size_t parsed = 0;
    bool same = true;
    sp.decode_ns = NsPerPoint(n, [&] {
      for (size_t c = 0; c < chunks; ++c) {
        decoder.Append(wire[c].data(), wire[c].size());
        while (decoder.Next(&line) == rl0::serve::LineDecoder::Event::kLine) {
          auto cmd = rl0::serve::ParseCommand(line);
          if (!cmd.ok()) {
            same = false;
            continue;
          }
          parsed_points[parsed] = std::move(cmd.value().points);
          parsed_stamps[parsed] = std::move(cmd.value().stamps);
          ++parsed;
        }
      }
    });
    for (size_t c = 0; c < chunks && same; ++c) {
      for (size_t i = 0; i < parsed_points[c].size(); ++i) {
        same = same && parsed_points[c][i] ==
                           plan.stream.points[plan.chunk_begin(c) + i];
      }
    }
    result->Check("peel_decoded_points_round_trip", same && parsed == chunks,
                  std::to_string(parsed) + " commands parsed");
    layers["protocol.decode_ns_per_pt"] = sp.decode_ns;
    layers["protocol.wire_bytes_per_pt"] = result->props["wire_bytes_per_pt"];
  }

  // registry: TenantRegistry::Feed* on the decoded chunks, with the
  // workload's subscription, then one Flush (drains).
  {
    rl0::serve::TenantRegistry::Options ro;
    ro.fleet_threads = kLanes;
    ro.checkpoint_root = run_dir + "/peel-registry";
    rl0::serve::TenantRegistry registry(ro);
    rl0::serve::CreateParams params = plan.params;
    auto cmd = rl0::serve::ParseCommand("SUBSCRIBE r " + plan.subscribe_args);
    uint64_t events = 0;
    bool ok = registry.Create("r", params).ok() && cmd.ok() &&
              registry
                  .Subscribe("r", cmd.value(), 1,
                             [&events](const std::string&) {
                               ++events;
                               return true;
                             })
                  .ok();
    std::vector<std::vector<Point>> pts = parsed_points;
    std::vector<std::vector<int64_t>> sts = parsed_stamps;
    sp.registry_ns = NsPerPoint(n, [&] {
      for (size_t c = 0; c < chunks; ++c) {
        const rl0::Status st =
            plan.late ? registry.FeedStamped("r", std::move(pts[c]),
                                             std::move(sts[c]))
                      : registry.Feed("r", std::move(pts[c]));
        ok = ok && st.ok();
      }
      ok = ok && registry.Flush("r").ok();
    });
    std::vector<double> sample_us;
    std::vector<double> stats_us;
    for (int i = 0; i < 200; ++i) {
      Clock::time_point t0 = Clock::now();
      ok = ok && registry.Sample("r", 1, false, 0).ok();
      sample_us.push_back(Seconds(t0, Clock::now()) * 1e6);
      t0 = Clock::now();
      ok = ok && registry.StatsLines("r").ok();
      stats_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    }
    layers["registry.sample_us"] = Median(sample_us);
    layers["registry.stats_us"] = Median(stats_us);
    layers["registry.events"] = static_cast<double>(events);
    result->Check("peel_registry_ok", ok, "");
  }

  // cvm: the registry's companion estimator on the same points.
  {
    rl0::serve::CvmEstimator cvm(4096, plan.params.seed);
    layers["cvm.add_ns_per_pt"] = NsPerPoint(n, [&] {
      for (size_t i = 0; i < n; ++i) cvm.AddPoint(plan.stream.points[i]);
    });
  }

  // pool: ShardedSwSamplerPool on a fleet of kLanes threads, the same
  // chunks, one final drain; late mode also with a checkpointer attached
  // and on the stamp-sorted stream.
  const auto feed_pool = [&](int variant, double* feed_ns, double* drain_ms,
                             rl0::ShardedSwSamplerPool** keep,
                             std::function<void(rl0::ShardedSwSamplerPool*,
                                                size_t)> after_chunk) {
    rl0::WorkerFleet fleet(kLanes);
    rl0::IngestPool::Options pipe;
    pipe.fleet = &fleet;
    auto pool = rl0::ShardedSwSamplerPool::Create(opts, plan.params.window,
                                                  kLanes, pipe)
                    .value();
    double in_feed = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t c = 0; c < chunks; ++c) {
      const size_t b = plan.chunk_begin(c);
      const size_t len = plan.chunk_end(c) - b;
      const Clock::time_point f0 = Clock::now();
      if (variant == 0) {
        pool.Feed(Span<const Point>(plan.stream.points.data() + b, len));
      } else if (variant == 1) {
        pool.FeedStampedLate(
            Span<const Point>(plan.stream.points.data() + b, len),
            Span<const int64_t>(plan.stream.stamps.data() + b, len));
      } else {
        pool.FeedStamped(Span<const Point>(sorted_points.data() + b, len),
                         Span<const int64_t>(sorted_stamps.data() + b, len));
      }
      in_feed += Seconds(f0, Clock::now());
      if (after_chunk) after_chunk(&pool, c);
    }
    const Clock::time_point d0 = Clock::now();
    if (variant == 1) pool.FlushLate();
    pool.Drain();
    const Clock::time_point d1 = Clock::now();
    if (feed_ns) *feed_ns = in_feed * 1e9 / static_cast<double>(n);
    if (drain_ms) *drain_ms = Millis(d0, d1);
    const double span = Seconds(t0, d1) * 1e9 / static_cast<double>(n);
    if (keep != nullptr) {
      // Per-lane balance and filter counters of this pool.
      double max_lane = 0;
      double sum_lane = 0;
      for (size_t s = 0; s < pool.num_shards(); ++s) {
        const double v = static_cast<double>(pool.shard(s).points_processed());
        max_lane = std::max(max_lane, v);
        sum_lane += v;
      }
      layers["pool.lane_skew"] =
          max_lane / (sum_lane / static_cast<double>(pool.num_shards()));
      const rl0::DupFilterStats fs = pool.FilterStats();
      layers["filter.hits"] = static_cast<double>(fs.hits);
      layers["filter.misses"] = static_cast<double>(fs.misses);
      layers["filter.hit_ratio"] =
          fs.hits + fs.misses == 0
              ? 0
              : static_cast<double>(fs.hits) /
                    static_cast<double>(fs.hits + fs.misses);
      std::vector<double> q_us;
      rl0::Xoshiro256pp rng(1);
      for (int i = 0; i < 200; ++i) {
        const Clock::time_point q0 = Clock::now();
        pool.SampleLatest(&rng);
        q_us.push_back(Seconds(q0, Clock::now()) * 1e6);
      }
      layers["pool.query_us"] = Median(q_us);
      if (variant == 1) {
        const rl0::ReorderStats rs = pool.late_stats();
        layers["reorder.late_dropped"] = static_cast<double>(rs.late_dropped);
        result->Check(
            "reorder_identity_in_process",
            rs.offered == rs.released + rs.late_dropped + rs.buffered &&
                rs.late_dropped == 0 && rs.offered == n,
            "offered=" + std::to_string(rs.offered) +
                " released=" + std::to_string(rs.released) +
                " late_dropped=" + std::to_string(rs.late_dropped) +
                " buffered=" + std::to_string(rs.buffered));
      }
    }
    return span;
  };

  double feed_ns = 0;
  double drain_ms = 0;
  rl0::ShardedSwSamplerPool* marker = nullptr;
  if (!plan.late) {
    sp.pool_ns = feed_pool(0, &feed_ns, &drain_ms, &marker, nullptr);
  } else {
    uint64_t buffered_max = 0;
    sp.pool_ns = feed_pool(
        1, &feed_ns, &drain_ms, &marker,
        [&](rl0::ShardedSwSamplerPool* pool, size_t) {
          buffered_max = std::max(buffered_max, pool->late_stats().buffered);
        });
    layers["reorder.buffered_max"] = static_cast<double>(buffered_max);
    sp.sorted_ns = feed_pool(2, nullptr, nullptr, nullptr, nullptr);
    layers["reorder.ns_per_pt"] = sp.pool_ns - sp.sorted_ns;

    // checkpointer: the late pool with PoolCheckpointer at the tenant's
    // cadence; each cut timed, bytes counted from the files it wrote.
    const std::string dir = run_dir + "/peel-ckpt";
    std::vector<double> cut_ms;
    uint64_t bytes_written = 0;
    size_t journal_bytes = 0;
    rl0::WorkerFleet fleet(kLanes);
    rl0::IngestPool::Options pipe;
    pipe.fleet = &fleet;
    {
      auto pool = rl0::ShardedSwSamplerPool::Create(opts, plan.params.window,
                                                    kLanes, pipe)
                      .value();
      rl0::serve::PoolCheckpointer ckpt(&pool, dir,
                                        plan.params.checkpoint_every,
                                        plan.params.dim);
      bool ok = true;
      const auto account_cut = [&](double ms) {
        cut_ms.push_back(ms);
        const size_t idx = ckpt.cuts() - 1;
        std::error_code ec;
        const auto f = std::filesystem::file_size(
            rl0::serve::CheckpointFileName(dir, idx, idx == 0), ec);
        const auto j = std::filesystem::file_size(dir + "/journal.log", ec);
        bytes_written += static_cast<uint64_t>(f) + static_cast<uint64_t>(j);
      };
      const Clock::time_point t0 = Clock::now();
      for (size_t c = 0; c < chunks; ++c) {
        const size_t b = plan.chunk_begin(c);
        const size_t len = plan.chunk_end(c) - b;
        pool.FeedStampedLate(
            Span<const Point>(plan.stream.points.data() + b, len),
            Span<const int64_t>(plan.stream.stamps.data() + b, len));
        const size_t before = ckpt.cuts();
        const Clock::time_point c0 = Clock::now();
        ok = ok && ckpt.MaybeCut().ok();
        if (ckpt.cuts() != before) account_cut(Millis(c0, Clock::now()));
      }
      pool.FlushLate();
      const Clock::time_point c0 = Clock::now();
      ok = ok && ckpt.Finish().ok();
      account_cut(Millis(c0, Clock::now()));
      sp.pool_ckpt_ns =
          Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(n);
      journal_bytes = ckpt.journal_bytes();
      layers["ckpt.cuts"] = static_cast<double>(ckpt.cuts());
      result->Check("peel_checkpointer_ok", ok, "");
    }
    layers["ckpt.cut_ms_p50"] = Median(cut_ms);
    layers["ckpt.cut_ms_max"] = *std::max_element(cut_ms.begin(), cut_ms.end());
    layers["ckpt.bytes_written"] = static_cast<double>(bytes_written);
    layers["ckpt.journal_bytes"] = static_cast<double>(journal_bytes);
    const Clock::time_point r0 = Clock::now();
    auto chain = rl0::serve::LoadCheckpointChain(dir);
    bool recovered = chain.ok();
    uint64_t restored = 0;
    if (recovered) {
      auto pool = rl0::RecoverPool(chain.value().checkpoint,
                                   chain.value().journal, pipe);
      recovered = pool.ok();
      if (recovered) restored = pool.value().points_fed();
    }
    const double recover_s = Seconds(r0, Clock::now());
    layers["ckpt.recover_ms"] = recover_s * 1e3;
    layers["ckpt.replay_pts_per_s"] = static_cast<double>(restored) / recover_s;
    result->Check("peel_recover_ok", recovered && restored == n,
                  std::to_string(restored) + " points restored");
  }
  layers["pool.feed_ns_per_pt"] = feed_ns;
  layers["pool.drain_ms"] = drain_ms;

  // sampler core and grid/hash on the points in the order the lanes'
  // samplers see them (stamp order for the late tenant).
  PeelSamplerAndGrid(Span<const Point>(sorted_points.data(), n),
                     plan.late ? sorted_stamps.data() : nullptr, opts,
                     plan.params.window, result);

  // Self times along the served path, and what they leave unexplained of
  // the traced per-point time.
  const double below_registry = plan.late ? sp.pool_ckpt_ns : sp.pool_ns;
  const double registry_self = sp.registry_ns - below_registry;
  const double server_self = sp.rt_ns - sp.decode_ns - sp.registry_ns;
  layers["registry.feed_self_ns_per_pt"] = registry_self;
  layers["server.self_ns_per_pt"] = server_self;
  double accounted = server_self + sp.decode_ns + registry_self;
  if (plan.late) {
    const double ckpt_self = sp.pool_ckpt_ns - sp.pool_ns;
    layers["ckpt.self_ns_per_pt"] = ckpt_self;
    accounted += ckpt_self + (sp.pool_ns - sp.sorted_ns) + sp.sorted_ns;
  } else {
    accounted += sp.pool_ns;
  }
  layers["peel.traced_ns_per_pt"] = traced_ns_per_pt;
  layers["peel.accounted_ns_per_pt"] = accounted;
  layers["peel.unaccounted_ns_per_pt"] = traced_ns_per_pt - accounted;
  layers["peel.served_rt_ns_per_pt"] = sp.rt_ns;
  layers["peel.pool_ns_per_pt"] = sp.pool_ns;
}

// ------------------------------------------------------------ the workload

void RunServe(ServePlan plan, const RunConfig& config, RunResult* result) {
  RecordInputProps(plan, result);
  const std::string run_dir = std::filesystem::current_path().string();
  const std::string ckpt_root = plan.late ? "ckpt" : "";
  const std::string tenant = "t";

  // References computed up front from the generated stream (not timed).
  const rl0::SamplerOptions opts = ToOptions(plan.params);
  const size_t n = plan.stream.points.size();
  // seq: expected digest events keyed by position; late: the release
  // frontier after each chunk, to find the chunk that crossed a trigger.
  std::map<int64_t, std::vector<std::string>> expected_digest;
  std::vector<int64_t> frontier;
  std::vector<std::string> expected_final;
  {
    rl0::WorkerFleet fleet(kLanes);
    rl0::IngestPool::Options pipe;
    pipe.fleet = &fleet;
    auto pool = rl0::ShardedSwSamplerPool::Create(opts, plan.params.window,
                                                  kLanes, pipe)
                    .value();
    if (!plan.late) {
      const int64_t every = kDigestEvery;
      rl0::Xoshiro256pp rng(
          rl0::SplitMix64(plan.params.seed ^ rl0::serve::kQuerySeedSalt));
      for (int64_t fed = 0; fed < static_cast<int64_t>(n);) {
        const int64_t next = std::min<int64_t>(n, (fed / every + 1) * every);
        pool.Feed(Span<const Point>(plan.stream.points.data() + fed,
                                    static_cast<size_t>(next - fed)));
        fed = next;
        if (fed % every == 0) {
          pool.Drain();
          const auto s = pool.SampleLatest(&rng);
          expected_digest[fed - 1] = {
              s ? "ITEM " + rl0::serve::FormatSampleLine(s->point,
                                                         s->stream_index)
                : "ITEM none"};
        }
      }
      expected_final = ReferenceDraws(&pool, plan.params.seed, kFinalDraws);
    } else {
      for (size_t c = 0; c < plan.total_chunks(); ++c) {
        const size_t b = plan.chunk_begin(c);
        const size_t len = plan.chunk_end(c) - b;
        pool.FeedStampedLate(
            Span<const Point>(plan.stream.points.data() + b, len),
            Span<const int64_t>(plan.stream.stamps.data() + b, len));
        frontier.push_back(pool.now());
      }
      pool.FlushLate();
      pool.Drain();
    }
  }
  if (plan.late) {
    // The stamp-sorted reference the served SAMPLE after FLUSH must equal.
    auto pool = rl0::ShardedSwSamplerPool::Create(opts, plan.params.window,
                                                  kLanes)
                    .value();
    pool.FeedStamped(plan.sorted_points, plan.sorted_stamps);
    expected_final = ReferenceDraws(&pool, plan.params.seed, kFinalDraws);
  }

  // Set-up, kSetups times; the last server carries the run.
  std::vector<double> setups;
  auto server = std::make_unique<ServerProcess>();
  auto feeder = std::make_unique<LineClient>();
  auto subscriber = std::make_unique<Subscriber>();
  std::string sock;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      subscriber->Stop();
      feeder->Close();
      server->Stop();
      subscriber = std::make_unique<Subscriber>();
      feeder = std::make_unique<LineClient>();
    }
    sock = "srv" + std::to_string(i) + ".sock";
    const std::string ckpt =
        ckpt_root.empty() ? "" : ckpt_root + std::to_string(i);
    double s = 0;
    const bool ok = SetUp(plan, config, sock, ckpt, server.get(),
                          feeder.get(), subscriber.get(), tenant, &s);
    result->Check("setup_" + std::to_string(i), ok, sock);
    if (!ok) return;
    setups.push_back(s);
  }
  result->scalars["setup_s"] = setups;

  // Trace runs first measure an untraced saturation pass on its own
  // tenant, for the tracing overhead.
  double untraced_cpu_rate = 0;
  if (config.trace) {
    LineClient f2;
    Subscriber s2;
    std::string status;
    Traffic warm;
    const bool ok =
        f2.Connect(sock) &&
        f2.Roundtrip("CREATE u " + plan.create_args + "\n", nullptr,
                     &status) &&
        status == "OK" && s2.Open(sock, "u", plan.subscribe_args) &&
        RunTraffic(plan, sock, "u", &f2, &s2, false, server->pid(), 0, &warm);
    f2.Roundtrip("CLOSE u\n", nullptr, &status);
    result->Check("untraced_pass_ok", ok, "");
    if (ok) {
      RunResult scratch;
      RecordTrafficSeries(
          plan, warm,
          std::vector<size_t>(warm.events.size(),
                              std::numeric_limits<size_t>::max()),
          &scratch);
      untraced_cpu_rate = Median(scratch.scalars["ingest_pts_per_cpu_s"]);
    }
  }

  Traffic tr;
  HostStealShareSinceLastCall();
  const bool ran = RunTraffic(plan, sock, tenant, feeder.get(),
                              subscriber.get(), true, server->pid(),
                              expected_digest.size(), &tr);
  result->props["host_steal_share"] = HostStealShareSinceLastCall();
  result->Check("traffic_ran", ran, "");
  if (!ran) return;
  const double rss_mb = VmHwmMb(server->pid());
  result->scalars["peak_rss_mb"] = {rss_mb};
  // Server CPU per SAMPLE, in blocks of 100 back to back after the
  // traffic (the window is full, nothing else runs).
  {
    LineClient q;
    std::string status;
    std::vector<double> per_query;
    uint64_t bad = 0;
    if (q.Connect(sock)) {
      for (int block = 0; block < 5; ++block) {
        const double cpu0 = ProcessCpuSeconds(server->pid());
        for (int i = 0; i < 100; ++i) {
          if (!q.Roundtrip("SAMPLE " + tenant + "\n", nullptr, &status) ||
              status != "OK") {
            ++bad;
          }
        }
        per_query.push_back((ProcessCpuSeconds(server->pid()) - cpu0) * 1e4);
      }
    }
    result->Count(500, bad + (per_query.empty() ? 500 : 0));
    result->scalars["query_cpu_us"] = per_query;
  }

  // Map each EVENT to the chunk whose feed crossed its trigger.
  std::vector<size_t> event_chunk;
  for (const EventRec& e : tr.events) {
    if (!plan.late) {
      event_chunk.push_back(plan.chunk_of(static_cast<size_t>(e.at)));
    } else {
      event_chunk.push_back(static_cast<size_t>(
          std::lower_bound(frontier.begin(), frontier.end(), e.at) -
          frontier.begin()));
    }
  }
  RecordTrafficSeries(plan, tr, event_chunk, result);
  CheckSampleItems(tr.queries,
                   plan.late ? plan.sorted_points : plan.stream.points,
                   result);

  if (!plan.late) {
    // Every digest EVENT equals the in-process reference at its position,
    // and one arrived per crossed trigger.
    uint64_t bad = 0;
    for (const EventRec& e : tr.events) {
      auto it = expected_digest.find(e.at);
      if (e.kind != "digest" || it == expected_digest.end() ||
          it->second != e.lines) {
        ++bad;
      }
    }
    result->Check("digest_events_match_reference",
                  bad == 0 && tr.events.size() == expected_digest.size(),
                  std::to_string(tr.events.size()) + " events, expected " +
                      std::to_string(expected_digest.size()) + ", " +
                      std::to_string(bad) + " mismatched");
  }

  std::string status;
  std::vector<std::string> lines;
  if (plan.late) {
    // FLUSH → STATS (reorder accounting) → SAMPLE vs the sorted reference.
    bool ok = feeder->Roundtrip("FLUSH t\n", nullptr, &status) && status == "OK";
    result->Check("flush_ok", ok, status);
    ok = feeder->Roundtrip("STATS t\n", &lines, &status) && status == "OK" &&
         !lines.empty();
    unsigned long long offered = 0, released = 0, dropped = 0;
    const size_t at = ok ? lines[0].find("late_offered=") : std::string::npos;
    const bool parsed =
        at != std::string::npos &&
        std::sscanf(lines[0].c_str() + at,
                    "late_offered=%llu late_released=%llu late_dropped=%llu",
                    &offered, &released, &dropped) == 3;
    const unsigned long long buffered = offered - released - dropped;
    result->Check("reorder_identity_served",
                  parsed && offered == n && buffered == 0 && dropped == 0 &&
                      offered == released + dropped + buffered,
                  ok ? lines[0] : status);
  }
  const bool got_final =
      feeder->Roundtrip(SampleCommand(tenant), &lines, &status) &&
      status == "OK";
  result->Check("final_sample_matches_reference",
                got_final && lines == expected_final,
                got_final ? (lines.empty() ? "" : lines[0]) : status);
  const std::vector<std::string> before_close = lines;

  // Restart, in wall seconds and server CPU. The late tenant recovers
  // from its checkpoint chain; the plain tenant has no durable state, so
  // its restart is a fresh server back to an accepting tenant.
  std::vector<double> recoveries;
  std::vector<double> recover_cpu_ms;
  if (plan.late) {
    bool ok = feeder->Roundtrip("CLOSE t\n", nullptr, &status) && status == "OK";
    result->Check("close_ok", ok, status);
    for (int r = 0; r < kRestarts && ok; ++r) {
      const double cpu0 = ProcessCpuSeconds(server->pid());
      const Clock::time_point t0 = Clock::now();
      ok = feeder->Roundtrip("CREATE t " + plan.create_args + " recover=1\n",
                             nullptr, &status) &&
           status == "OK";
      recoveries.push_back(Seconds(t0, Clock::now()));
      recover_cpu_ms.push_back((ProcessCpuSeconds(server->pid()) - cpu0) * 1e3);
      const bool same = ok &&
                        feeder->Roundtrip(SampleCommand(tenant), &lines,
                                          &status) &&
                        status == "OK" && lines == before_close;
      result->Check("recovered_sample_equals_pre_close_" + std::to_string(r),
                    same, ok ? (lines.empty() ? status : lines[0]) : status);
      ok = ok && feeder->Roundtrip("CLOSE t\n", nullptr, &status) &&
           status == "OK";
    }
  } else {
    for (int r = 0; r < kRestarts; ++r) {
      // The old server's exit is not timed: rl0_serve polls for its stop
      // signal every 100 ms, which would swamp the restart itself.
      feeder->Close();
      std::string how;
      const bool stopped = server->Stop(&how);
      // The first stop ends the server that carried the traffic; the
      // later ones end servers started a moment before, which rl0_serve
      // may not survive: it announces "listening" before it installs its
      // SIGTERM handler, so an early SIGTERM kills it outright.
      if (r == 0) result->Check("server_clean_exit", stopped, how);
      const Clock::time_point t0 = Clock::now();
      const bool started = server->Start(config.serve_bin,
                                         {"--unix", sock, "--threads",
                                          std::to_string(kLanes)});
      const bool ok = started && feeder->Connect(sock) &&
                      feeder->Roundtrip("CREATE t " + plan.create_args + "\n",
                                        nullptr, &status) &&
                      status == "OK";
      recoveries.push_back(Seconds(t0, Clock::now()));
      recover_cpu_ms.push_back(ProcessCpuSeconds(server->pid()) * 1e3);
      result->Check("restart_" + std::to_string(r), ok,
                    started ? status : "start failed");
      if (!ok) break;
    }
  }
  result->scalars["recover_s"] = recoveries;
  result->scalars["recover_cpu_ms"] = recover_cpu_ms;

  if (config.trace) {
    // Both passes by their median burst rate per server CPU second, so
    // neither pays for being first (cold allocator and caches) or for
    // time the host stole.
    result->layers["trace.overhead_frac"] =
        untraced_cpu_rate /
            Median(result->scalars["ingest_pts_per_cpu_s"]) -
        1.0;
    const double traced_ns =
        1e9 / Median(result->scalars["ingest_segments_pts_per_s"]);
    std::vector<double> lag = result->series["loadgen_lag_ms"].ms;
    result->layers["loadgen.lag_p99_ms"] = Quantile(lag, 0.99);
    PeelServe(plan, sock, run_dir, traced_ns, result);
  }
  feeder->Close();
  subscriber->Stop();
  std::string how;
  const bool clean = server->Stop(&how);
  if (plan.late) result->Check("server_clean_exit", clean, how);
}

}  // namespace

void RunServeSeq(const RunConfig& config, RunResult* result) {
  RunServe(SeqPlan(config), config, result);
}

void RunServeLateCkpt(const RunConfig& config, RunResult* result) {
  RunServe(LatePlan(config), config, result);
}

}  // namespace pb
