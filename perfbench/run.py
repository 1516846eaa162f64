#!/usr/bin/env python3
"""Host-time benchmark of the FRIEDA simulator.

    python3 perfbench/run.py --workload batch-local --seed 1 --seconds 30 --trace 0

Builds the simulator and the benchmark program (bench.cpp) from source into
.bench_build/perfbench, then runs the workload in a fresh process per
repetition until --seconds are used (at least three repetitions) and prints
medians.  --trace 0 prints the end-to-end metrics of BENCHMARK.json;
--trace 1 also runs the workload once with the tracer attached and prints
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; progress goes to stderr.

A repetition is correct when every unit is terminal exactly once, every unit
completed, its digest of the simulated results equals that of the first
repetition (the simulator is deterministic), and, for the seeds recorded in
baseline.json, equals the recorded digest.  A repetition that fails a check
counts all its units as failed.  See README.md for the workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "frieda_perfbench")
WORKLOADS = ("batch-local", "batch-realtime", "service-elastic", "paper-sweep")
MIN_REPS = 3
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the program; exit 1 when either fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "frieda_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def measured_env():
    """The environment of every measured process: no FRIEDA_* knob is set,
    so sweeps use the thread backend with the fixed thread count of bench.cpp,
    templates are on without audit, and no result cache, calibration file or
    progress reporter is attached; each process starts with empty caches."""
    return {k: v for k, v in os.environ.items() if not k.startswith("FRIEDA_")}


def run_rep(workload, seed, scale, trace_path=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    if trace_path:
        cmd += ["--trace", trace_path]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=measured_env(), capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out", time.monotonic() - start
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "exit %d, no result: %s" % (proc.returncode, proc.stderr.strip()[-300:]), wall
    if proc.returncode != 0 or rep["error"]:
        return rep, "exit %d: %s" % (proc.returncode, rep["error"]), wall
    return rep, "", wall


class Checker:
    """Accounts units attempted/failed across repetitions."""

    def __init__(self, expected_digest):
        self.expected = expected_digest
        self.digest = None
        self.units = 1  # of the last repetition that reported; for one that did not
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def account(self, rep, error):
        """True when the repetition passed every check."""
        if rep:
            self.units = max(rep["units"], 1)
        units = self.units
        self.attempted += units
        if not error and rep["completed"] != rep["units"]:
            error = "%d of %d units did not complete" % (rep["units"] - rep["completed"],
                                                         rep["units"])
        if not error:
            if self.digest is None:
                self.digest = rep["digest"]
            if rep["digest"] != self.digest:
                error = "digest %s differs from the first repetition's %s" % (
                    rep["digest"], self.digest)
            elif self.expected is not None and rep["digest"] != self.expected:
                error = "digest %s differs from the expected %s" % (rep["digest"],
                                                                    self.expected)
        if error:
            self.failed += units
            self.errors.append(error)
            log("perfbench: FAILED: " + error)
        return not error


def median(reps, key):
    return statistics.median(r["m"][key] for r in reps)


def end_to_end(reps):
    return {
        "units_per_s": statistics.median(r["units"] / r["m"]["run_s"] for r in reps),
        "setup_s": median(reps, "setup_s"),
        "peak_rss_mb": median(reps, "peak_rss_mb"),
    }


def per_layer(plain, traced):
    """Counters come from the traced run (they are deterministic, so equal in
    every run).  Host times come from the plain runs' medians where those
    measure them, since tracing inflates the run phase; the cell-by-cell
    passes of paper-sweep exist only in the traced run."""
    c = traced["m"]

    def host(key):
        if key in plain[0]["m"]:
            return median(plain, key)
        return c.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    units = c["frieda.units"]
    run_s = host("frieda.run_s")
    sweep_s = host("exp.sweep_s")
    threads = c.get("exp.threads", 0.0)
    return {
        "sim.events_per_unit": ratio(c["sim.events"], units),
        "sim.ns_per_event": ratio(run_s * 1e9, c["sim.events"]),
        "sim.cancel_ratio": ratio(c["sim.cancelled"], c["sim.scheduled"]),
        "sim.slot_reuse_ratio": ratio(c["sim.slots_reused"], c["sim.scheduled"]),
        "net.solves_per_unit": ratio(c["net.solves"], units),
        "net.full_solves": c["net.full_solves"],
        "net.dirty_classes_per_solve": ratio(c["net.dirty_classes"], c["net.solves"]),
        "net.transfers": c["net.transfers"],
        "storage.pre_place_s": host("storage.pre_place_s"),
        "cluster.provision_s": host("cluster.provision_s"),
        "workload.model_s": host("workload.model_s"),
        "workload.arrivals_s": host("workload.arrivals_s"),
        "frieda.partition_s": host("frieda.partition_s"),
        "frieda.construct_s": host("frieda.construct_s"),
        "frieda.run_s": run_s,
        "frieda.us_per_unit": ratio(run_s * 1e6, units),
        "frieda.attempts_per_unit": ratio(c["frieda.attempts"], units),
        "frieda.run_rss_mb": host("frieda.run_rss_mb"),
        "exp.grid_s": host("exp.grid_s"),
        "exp.sweep_s": sweep_s,
        "exp.memo_hit_ratio": ratio(c.get("exp.cache_hits", 0.0), c.get("exp.jobs", 0.0)),
        "exp.threads": threads,
        "exp.parallel_efficiency": ratio(c["frieda.run_s"], threads * sweep_s)
                                   if sweep_s else 0.0,
        "obs.trace_overhead_ratio": ratio(c["trace.run_s"], run_s),
        "obs.trace_events": c["obs.trace_events"],
        "obs.trace_dropped": c["obs.trace_dropped"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every workload (digests are recorded for 1.0 only)")
    ap.add_argument("--expect-digest", default=None,
                    help="check against this digest instead of the recorded one")
    args = ap.parse_args()
    if args.seed < 0 or not 0.0 < args.scale <= 1.0:
        ap.error("--seed must be >= 0 and --scale in (0, 1]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)

    build()

    expected = args.expect_digest
    if expected is None and args.scale == 1.0:
        expected = baseline["digests"].get(args.workload, {}).get(str(args.seed))
    checker = Checker(expected)

    # Measured repetitions: fresh processes until the budget is used.  In a
    # traced run they fill half of it and the traced repetition follows.
    budget = args.seconds / 2 if args.trace else args.seconds
    min_reps = 1 if args.trace else MIN_REPS
    plain, walls = [], []
    start = time.monotonic()
    while True:
        rep, error, wall = run_rep(args.workload, args.seed, args.scale)
        walls.append(wall)
        if not checker.account(rep, error):
            break  # the run is incorrect already; stop spending time on it
        plain.append(rep)
        log("perfbench: repetition %d: run %.4f s, setup %.4f s, wall %.2f s" % (
            len(walls), rep["m"]["run_s"], rep["m"]["setup_s"], wall))
        elapsed = time.monotonic() - start
        if len(walls) >= min_reps and elapsed + statistics.median(walls) > budget:
            break
    log("perfbench: %s seed %d: %d repetitions in %.1f s, digest %s" % (
        args.workload, args.seed, len(walls), time.monotonic() - start, checker.digest))

    metrics = {}
    if args.trace and not checker.errors:
        trace_path = os.path.join(BUILD, "traces", args.workload + ".json")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        rep, error, _ = run_rep(args.workload, args.seed, args.scale, trace_path)
        if checker.account(rep, error):
            metrics = per_layer(plain, rep)
            log("perfbench: trace written to " + os.path.relpath(trace_path, ROOT))
    elif not args.trace and not checker.errors:
        metrics = end_to_end(plain)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = not checker.errors
    result = {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {}}
    if metrics:
        for m in names:
            result["metrics"][m["name"]] = {"value": float(metrics[m["name"]]),
                                           "unit": m["unit"]}
            log("  %-28s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    log("  failed_units_ratio           %14.6g (%d of %d units)" % (
        checker.failed / checker.attempted, checker.failed, checker.attempted))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
