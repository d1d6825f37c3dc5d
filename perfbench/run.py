#!/usr/bin/env python3
"""Benchmark of the RAPID reproduction: one command, every metric.

Builds the library and the benchmark program from source, runs one workload
for about --seconds seconds (one process per repetition), checks the
outputs, prints a table of every metric with its unit and, as the last line,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
repetitions); --trace 1 runs the workload once traced and once untraced and
reports the per-layer metrics. See perfbench/README.md.

Usage:
    python3 perfbench/run.py --workload fleet-2k|figure-sweep|service-live
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 perfbench/run.py --self-test
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "rapid_perfbench")

# Every run must end within 180 s; repetitions stop being started well
# before that, and a stuck one is killed at the deadline.
DEADLINE_S = 170.0

# glibc moves its mmap threshold up as large blocks are freed, which makes
# peak RSS depend on allocation history more than on live memory (~10%
# spread across five seeds of figure-sweep, ~2% pinned over ten). Pinning it
# keeps large blocks mmapped, so they return to the system when freed and
# peak RSS tracks live memory.
CHILD_ENV = dict(os.environ)
CHILD_ENV.setdefault("MALLOC_MMAP_THRESHOLD_", "131072")

# min_reps: repetitions measured even when one already outlasts --seconds
# (a fleet-2k run is ~15 s). min_setup: set-up samples per run; set-up-only
# repetitions top up the count cheaply.
WORKLOADS = {
    "fleet-2k": {"min_reps": 3, "min_setup": 5},
    "figure-sweep": {"min_reps": 3, "min_setup": 5},
    "service-live": {"min_reps": 3, "min_setup": 5},
}

# End-to-end metrics that exist only on service-live; printed in the table
# (BENCHMARK.json gates the metrics every workload reports).
SERVICE_ONLY = [
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("ingest_lag_p99_ms", "ms"),
    ("ingest_capacity_cps", "contacts/s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        log("perfbench: library sources (CMakeLists.txt, src/) not found next to perfbench/")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + targets)
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)


class Bench:
    """Runs repetitions and keeps the tally of attempted and failed operations."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def elapsed(self):
        return time.monotonic() - self.start

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def rep(self, mode, index):
        """One repetition in its own process; None when it did not finish."""
        cmd = [BINARY, "--workload", self.args.workload, "--rep", str(index), "--mode", mode,
               "--scratch", SCRATCH_DIR]
        if self.args.seed is not None:
            cmd += ["--seed", str(self.args.seed)]
        if self.args.smoke:
            cmd.append("--smoke")
        if mode == "traced":
            cmd += ["--spans", os.path.join(SPANS_DIR, self.args.workload + ".tsv")]
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout, env=CHILD_ENV)
        except subprocess.TimeoutExpired:
            self.check(False, f"{mode} repetition {index} timed out")
            return None
        if proc.returncode != 0:
            self.check(False, f"{mode} repetition {index} exited {proc.returncode}: "
                       + proc.stderr.strip()[-500:])
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.check(False, f"{mode} repetition {index} printed no result")
            return None
        self.attempted += result["attempted"]
        self.failed += len(result["failures"])
        self.failures += result["failures"]
        return result


def median(values):
    return statistics.median(values) if values else float("nan")


def run_untraced(bench, spec):
    conf = WORKLOADS[bench.args.workload]
    reps = []
    # Stop starting repetitions early enough that the last one cannot run
    # into the deadline.
    while (len(reps) < conf["min_reps"] or bench.elapsed() < bench.args.seconds) \
            and bench.elapsed() < DEADLINE_S / 2:
        result = bench.rep("run", len(reps))
        if result is None:
            break
        reps.append(result)
    setup = [r["values"]["setup_s"] for r in reps]
    while reps and len(setup) < conf["min_setup"] and bench.elapsed() < DEADLINE_S / 2:
        result = bench.rep("setup", len(reps) + len(setup))
        if result is None:
            break
        setup.append(result["values"]["setup_s"])

    digests = {r["digest"] for r in reps}
    bench.check(len(digests) <= 1,
                  f"repetitions of one seed disagree: digests {sorted(digests)}")

    metrics = {}
    for m in spec["end_to_end"]:
        values = setup if m["name"] == "setup_s" else [
            r["values"].get(m["name"]) for r in reps]
        values = [v for v in values if v is not None]
        value = median(values)
        bench.check(len(values) > 0 and math.isfinite(value) and value > 0,
                      f"{m['name']} was not measured")
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None,
                              "unit": m["unit"]}
    extra = {}
    for name, unit in SERVICE_ONLY:
        values = [r["values"][name] for r in reps if name in r["values"]]
        if values:
            extra[name] = (median(values), unit)
    return reps, metrics, extra, len(setup)


def run_traced(bench, spec):
    traced = bench.rep("traced", 0)
    plain = bench.rep("run", 1)
    metrics = {}
    if traced is None or plain is None:
        return traced, metrics
    bench.check(traced["digest"] == plain["digest"],
                  "traced run computed something else than the untraced run")
    values = traced["values"]
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "obs.trace_overhead_pct":
            # Base: the untraced repetition's contacts_per_s.
            value = 100.0 * (plain["values"]["contacts_per_s"] /
                             values["contacts_per_s"] - 1.0)
        elif name in values:
            value = values[name]  # None: stripped from this build (RAPID_OBS=OFF)
        else:
            value = 0.0  # the layer is not on this workload's path
        metrics[name] = {"value": value, "unit": m["unit"]}
    return traced, metrics


def fmt(value):
    return "unavailable" if value is None else f"{value:.6g}"


def self_test():
    build(["rapid_perfbench", "perfbench_tests"])
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    tests = os.path.join(BUILD_DIR, "perfbench_tests")
    return subprocess.run([tests], env=dict(os.environ, TEST_TMPDIR=SCRATCH_DIR)).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the scenario's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs that finish in seconds")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    build(["rapid_perfbench"])
    for d in (SCRATCH_DIR, SPANS_DIR):
        os.makedirs(d, exist_ok=True)
    bench = Bench(args)

    seed = "default" if args.seed is None else args.seed
    if args.trace:
        first, metrics = run_traced(bench, spec)
        title = "per-layer metrics (traced run)"
    else:
        reps, metrics, extra, setup_n = run_untraced(bench, spec)
        first = reps[0] if reps else None
        title = f"end-to-end metrics (median of {len(reps)} runs, set-up of {setup_n})"

    context = first["context"] if first else {}
    print(f"perfbench {args.workload} seed={seed} smoke={int(args.smoke)} "
          f"build={json.dumps(context, sort_keys=True)}")
    print(title + ":")
    for name, m in metrics.items():
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in extra.items():
            print(f"  {name:34s} {fmt(value):>14s} {unit}")
    share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'failed_ops':34s} {share:>14.6g} share ({bench.failed}/{bench.attempted})")
    for f in bench.failures:
        print("  FAILED: " + f)

    attempted = max(1, bench.attempted)
    if bench.attempted == 0:
        bench.failed = 1
    print(json.dumps({"correct": bench.failed == 0, "attempted": attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
