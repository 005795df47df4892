// rl0_perfbench — the load generator behind perfbench/run.py.
//
//   rl0_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --serve-bin PATH --run-dir DIR
//
// Generates the workload's inputs from the seed, runs it (see
// workloads.h), and prints one JSON line: the run facts and the raw
// result (latency samples, rates, gate outcomes, per-layer figures) that
// run.py turns into metrics. Works inside --run-dir, which it creates;
// server sockets and checkpoints live there.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "rl0_perfbench: %s\nusage: rl0_perfbench --workload "
               "serve_seq|serve_late_ckpt|direct_window|direct_iw --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH --run-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig config;
  std::string run_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value);
    } else if (key == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (key == "--serve-bin") {
      config.serve_bin = std::filesystem::absolute(value).string();
    } else if (key == "--run-dir") {
      run_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (config.seconds <= 0 || config.seconds > 60) return Usage("bad --seconds");
  if (run_dir.empty()) return Usage("need --run-dir");
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  // Relative socket paths stay short whatever the checkout's path.
  if (ec || ::chdir(run_dir.c_str()) != 0) return Usage("bad --run-dir");

  pb::RunResult result;
  if (config.workload == "serve_seq") {
    pb::RunServeSeq(config, &result);
  } else if (config.workload == "serve_late_ckpt") {
    pb::RunServeLateCkpt(config, &result);
  } else if (config.workload == "direct_window") {
    pb::RunDirectWindow(config, &result);
  } else if (config.workload == "direct_iw") {
    pb::RunDirectIw(config, &result);
  } else {
    return Usage("unknown --workload");
  }
  std::printf("{\"facts\": %s, \"result\": %s}\n", pb::BuildFactsJson().c_str(),
              result.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
