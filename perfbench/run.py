#!/usr/bin/env python3
"""The rl0 benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds rl0_serve and the load
generator (perfbench/src) with CMake into $CARGO_TARGET_DIR (default
.bench_build), runs the workload from its seed, checks its outputs
against in-process references, and prints the metrics: a readable report
first, then one JSON line with `correct`, `attempted`, `failed` and
`metrics` — the end-to-end metrics with --trace 0, the per-layer metrics
of the traced run with --trace 1. Exits non-zero when an output check
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("serve_seq", "serve_late_ckpt", "direct_window", "direct_iw")
RUN_TIMEOUT_S = 170

# The end-to-end metrics of the result line (BENCHMARK.json bounds them).
# Ingest is measured per CPU second of the system under test: the host
# steals up to a tenth of the virtual CPUs' time, in spells of minutes,
# and the kernel leaves stolen time out of CPU time, so these stay steady
# where their wall-clock counterparts swing with the host.
END_TO_END = [
    ("ingest_pts_per_cpu_s", "1/s"),
    ("paced_cpu_us_per_pt", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# Reported beside them, unbounded: wall-clock figures move with the host's
# steal share (printed with them), and the sub-millisecond CPU costs of a
# query or a restore swing with the host's cache and memory contention.
OTHER = [
    ("query_cpu_us", "us"),
    ("recover_cpu_ms", "ms"),
    ("ingest_pts_per_s", "1/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("event_lag_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("recover_s", "s"),
]


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_identity(root):
    """git SHA and dirty flag when the checkout is a git work tree, and a
    digest of the source files either way."""
    facts = {"git_sha": "unknown", "git_dirty": None}
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                   capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                facts["git_sha"] = sha.stdout.strip()
                facts["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


def build(root, build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if step.returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "rl0_serve",
         "rl0_perfbench", "-j", jobs], stdout=log, stderr=log)
    if step.returncode != 0:
        fail("build failed", 3)
    return (os.path.join(build_dir, "rl0_perfbench"),
            os.path.join(build_dir, "rl0", "rl0_serve"))


def run_loadgen(binary, serve_bin, args, run_dir):
    shutil.rmtree(run_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve-bin", serve_bin, "--run-dir", run_dir]
    # Its own process group, so that rl0_serve processes it started die
    # with it if it times out or crashes (it stops them itself otherwise).
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", "load generator timed out\n"
    finally:
        if proc.returncode != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        fail("load generator failed (exit %d)" % proc.returncode, 5)
    return json.loads(out.strip().splitlines()[-1])


def percentile_of(series, pct, name):
    values = stats.latency_series(series["ms"])
    value = stats.windowed_percentile(values, pct)
    if value is None:
        fail("%s: p%g needs %d samples beyond it in each of %d slices, "
             "have %d samples" % (name, pct, stats.MIN_BEYOND, stats.WINDOWS,
                                  len(values)), 4)
    # A failed operation missed every limit; JSON has no infinity.
    return 1e9 if math.isinf(value) else value


def all_metrics(raw):
    """Every end-to-end figure, bounded or not, from the raw result."""
    series = raw["series"]
    scalars = raw["scalars"]
    return {
        "ingest_pts_per_cpu_s": stats.median(scalars["ingest_pts_per_cpu_s"]),
        "paced_cpu_us_per_pt": stats.median(scalars["paced_cpu_us_per_pt"]),
        "query_cpu_us": stats.median(scalars["query_cpu_us"]),
        "recover_cpu_ms": stats.median(scalars["recover_cpu_ms"]),
        "ingest_pts_per_s": stats.median(scalars["ingest_segments_pts_per_s"]),
        "ack_p50_ms": percentile_of(series["ack_ms"], 50, "ack"),
        "ack_p99_ms": percentile_of(series["ack_ms"], 99, "ack"),
        "event_lag_p90_ms": percentile_of(series["event_lag_ms"], 90,
                                          "event lag"),
        "query_p50_ms": percentile_of(series["query_ms"], 50, "query"),
        "query_p90_ms": percentile_of(series["query_ms"], 90, "query"),
        "recover_s": stats.median(scalars["recover_s"]),
        "setup_s": stats.median(scalars["setup_s"]),
        "peak_rss_mb": scalars["peak_rss_mb"][0],
    }


def per_layer(raw, layer_specs):
    layers = dict(raw["layers"])
    traced = layers.get("peel.traced_ns_per_pt", 0.0)
    if traced:
        layers["peel.unaccounted_frac"] = (
            layers["peel.unaccounted_ns_per_pt"] / traced)
    out = {}
    for spec in layer_specs:
        out[spec["name"]] = layers.get(spec["name"], 0.0)
    return out, layers


def report(args, facts, raw, e2e, layers_all, layer_specs):
    props = raw["props"]
    print("rl0 benchmark  workload=%s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("facts " + json.dumps(facts, sort_keys=True))
    print("inputs " + json.dumps(dict(sorted(props.items()))))
    print("end-to-end (bounded in BENCHMARK.json):")
    series_of = {"ack_p50_ms": "ack_ms", "ack_p99_ms": "ack_ms",
                 "event_lag_p90_ms": "event_lag_ms",
                 "query_p50_ms": "query_ms", "query_p90_ms": "query_ms"}
    scalars_of = {"ingest_pts_per_s": "ingest_segments_pts_per_s"}

    def show(name, unit):
        note = ""
        if name in series_of:
            s = raw["series"][series_of[name]]
            n = len(s["ms"])
            note = ("  (n=%d in %d slices, failed=%d, highest supported "
                    "p%s per slice)" % (n, stats.WINDOWS, s["failed"],
                                        stats.highest_supported(
                                            n // stats.WINDOWS)))
        else:
            values = raw["scalars"][scalars_of.get(name, name)]
            if len(values) > 1:
                note = "  (median of %d)" % len(values)
        print("  %-20s %14.6g %-4s%s" % (name, e2e[name], unit, note))

    for name, unit in END_TO_END:
        show(name, unit)
    print("end-to-end, unbounded (host steal share %.3f during the run):" %
          props.get("host_steal_share", 0.0))
    for name, unit in OTHER:
        show(name, unit)
    print("  %-20s %14.6g      (%d of %d operations failed)" % (
        "failed_frac", stats.failed_fraction(raw["attempted"], raw["failed"]),
        raw["failed"], raw["attempted"]))
    bad = [g for g in raw["gates"] if not g["ok"]]
    print("output checks: %d passed, %d failed" %
          (len(raw["gates"]) - len(bad), len(bad)))
    for gate in raw["gates"]:
        if not gate["ok"] or not gate["name"].startswith(("setup_", "restart_")):
            print("  %-4s %s  %s" % ("ok" if gate["ok"] else "FAIL",
                                    gate["name"], gate["detail"]))
    if not args.trace:
        return
    print("per-layer (traced run):")
    for spec in layer_specs:
        value = layers_all.get(spec["name"])
        shown = "absent" if value is None else "%.6g" % value
        print("  %-30s %14s %-6s %s -> %s (on %s)" % (
            spec["name"], shown, spec["unit"], spec["layer"],
            ",".join(spec["moves"]), spec["where"]))
    traced = layers_all.get("peel.traced_ns_per_pt")
    if traced:
        print("layer peel: traced %.1f ns/pt, self times account for %.1f, "
              "unaccounted %.1f ns/pt (%.1f%%)" % (
                  traced, layers_all["peel.accounted_ns_per_pt"],
                  layers_all["peel.unaccounted_ns_per_pt"],
                  100 * layers_all["peel.unaccounted_frac"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must lie in (0, 60]", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/rl0", "tools/rl0_serve.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of an rl0 source checkout (missing %s)"
                 % needed, 2)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary, serve_bin = build(root, build_dir)
    with open(os.path.join(HERE, "layers.json")) as handle:
        layer_specs = json.load(handle)["metrics"]

    run_dir = os.path.join(build_dir, "run",
                           "%s-%d" % (args.workload, os.getpid()))
    out = run_loadgen(binary, serve_bin, args, run_dir)
    raw = out["result"]
    facts = dict(out["facts"])
    facts.update(source_identity(root))
    facts["seed"] = args.seed

    e2e = all_metrics(raw)
    layer_metrics, layers_all = per_layer(raw, layer_specs)
    report(args, facts, raw, e2e, layers_all, layer_specs)

    correct = raw["failed"] == 0 and all(g["ok"] for g in raw["gates"])
    if args.trace:
        units = {s["name"]: s["unit"] for s in layer_specs}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in layer_metrics.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
