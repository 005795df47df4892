// rl0_serve — standing-query streaming server for robust distinct
// sampling.
//
// Hosts a multi-tenant sampler registry behind a line protocol (see
// rl0/serve/protocol.h for the command set) on a unix socket and/or a
// loopback TCP port. Clients CREATE named tenants, FEED them point
// streams, SAMPLE their sliding windows, and SUBSCRIBE to standing
// queries that push periodic digests, F0 watermarks and churn alerts.
//
// Usage:
//   rl0_serve (--unix PATH | --port N | --port 0) [options]
//     --unix PATH          listen on a unix-domain socket
//     --port N             listen on loopback TCP port N (0 = pick an
//                          ephemeral port and print it)
//     --threads N          worker-fleet threads shared by all tenants
//                          (default 4)
//     --checkpoint-dir D   root for per-tenant checkpoints (enables
//                          CREATE ... ckpt=1 / recover=1)
//     --queue-depth N      per-connection output queue capacity, in
//                          protocol units (default 64)
//     --max-line BYTES     longest accepted protocol line (default 1MiB)
//
// On startup the server prints one "listening ..." line per bound
// endpoint to stdout and flushes — scripts wait for that line before
// connecting. SIGINT/SIGTERM shut down in order: stop accepting, flush
// and close every tenant (final checkpoint cuts, standing queries
// fire), close sessions.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "rl0/serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Fail(const std::string& message) {
  std::fprintf(stderr, "rl0_serve: %s\n", message.c_str());
  return 1;
}

bool ParseSize(const char* text, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  rl0::serve::Server::Options options;
  bool port_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    long long value = 0;
    if (arg == "--unix" && has_value) {
      options.unix_path = argv[++i];
    } else if (arg == "--port" && has_value) {
      if (!ParseSize(argv[++i], &value) || value > 65535) {
        return Fail("bad --port");
      }
      // Protocol: 0 asks the kernel for an ephemeral port (the Server
      // API spells that -1; its 0 means "no TCP").
      options.tcp_port = value == 0 ? -1 : static_cast<int>(value);
      port_set = true;
    } else if (arg == "--threads" && has_value) {
      if (!ParseSize(argv[++i], &value) || value < 1 || value > 256) {
        return Fail("bad --threads");
      }
      options.fleet_threads = static_cast<size_t>(value);
    } else if (arg == "--checkpoint-dir" && has_value) {
      options.checkpoint_root = argv[++i];
    } else if (arg == "--queue-depth" && has_value) {
      if (!ParseSize(argv[++i], &value) || value < 1) {
        return Fail("bad --queue-depth");
      }
      options.event_queue_depth = static_cast<size_t>(value);
    } else if (arg == "--max-line" && has_value) {
      if (!ParseSize(argv[++i], &value) || value < 16) {
        return Fail("bad --max-line");
      }
      options.max_line_bytes = static_cast<size_t>(value);
    } else {
      return Fail("unknown or incomplete option '" + arg +
                  "' (want --unix PATH, --port N, --threads N, "
                  "--checkpoint-dir D, --queue-depth N, --max-line BYTES)");
    }
  }
  if (options.unix_path.empty() && !port_set) {
    return Fail("need --unix PATH and/or --port N");
  }

  // Handlers go in before the server starts: a SIGTERM that arrives right
  // after the "listening" line must still shut down in order.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);
  auto server = rl0::serve::Server::Start(options);
  if (!server.ok()) return Fail(server.status().ToString());

  if (!options.unix_path.empty()) {
    std::printf("listening unix %s\n", options.unix_path.c_str());
  }
  if (server.value()->tcp_port() != 0) {
    std::printf("listening tcp 127.0.0.1:%d\n", server.value()->tcp_port());
  }
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  std::fflush(stdout);
  server.value()->Shutdown();
  return 0;
}
