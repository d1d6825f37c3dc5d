#!/usr/bin/env python3
"""Compare a `bench_record prN` JSON record against its committed baseline.

Usage:
    tools/bench_compare.py CURRENT.json [BASELINE.json] [--tolerance 0.10]

Exits non-zero when any tracked metric regressed by more than the tolerance
(default 10%), when an exact-match determinism guard diverges, or when the
candidate record lacks any key the baseline has (report-only keys included,
so a probe that silently stops emitting a key fails). Every record is gated
on the standard keys below; a baseline adds probe-specific ones through its
"tracked_extra" and "exact_extra" lists. Lower is better for every tracked
metric:

    wall_clock_ms   best-of-N wall time of the probe's headline run
    peak_rss_kb     getrusage peak resident set
    allocations     operator-new count during the measured run
    packets, meetings, delivered
                    exact determinism trio

Improvements are reported but never fail the job; update the committed
BENCH_prN.json when a change moves the trajectory, so the next regression is
caught from the new level. BASELINE.json defaults to the repo's
BENCH_pr4.json.
"""

import argparse
import json
import os
import sys

TRACKED = ("wall_clock_ms", "peak_rss_kb", "allocations")
EXACT = ("packets", "meetings", "delivered")
DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_pr4.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="bench_record output JSON to check")
    parser.add_argument("baseline", nargs="?", default=DEFAULT_BASELINE,
                        help="committed baseline (default: repo BENCH_pr4.json)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--wall-tolerance", type=float, default=None,
                        help="override tolerance for wall_clock_ms and peak_rss_kb "
                             "(hardware-dependent metrics; CI runners differ from the "
                             "machine that produced the committed baseline)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    # A baseline may declare PR-specific metrics on top of the standard trio:
    # "tracked_extra" lists extra lower-is-better metrics, "exact_extra" lists
    # extra exact-match determinism guards (e.g. pr7's snapshot_bytes).
    tracked = list(TRACKED) + [k for k in baseline.get("tracked_extra", ())
                               if k not in TRACKED]
    exact = list(EXACT) + [k for k in baseline.get("exact_extra", ())
                           if k not in EXACT]

    # Every failing key is collected and reported (expected vs actual) before
    # the nonzero exit — one run of the script shows the whole damage, not
    # just the first mismatch.
    failures = []
    for key in exact:
        if key not in current:
            failures.append(
                f"{key}: missing from the candidate record {args.current} "
                f"(baseline expects {baseline.get(key)!r}); truncated output or a "
                "bench binary older than the baseline?")
            continue
        if key not in baseline:
            failures.append(
                f"{key}: missing from the baseline record {args.baseline} "
                f"(candidate has {current[key]!r}); regenerate the committed baseline")
            continue
        if current[key] != baseline[key]:
            failures.append(
                f"{key}: expected {baseline[key]!r}, actual {current[key]!r} "
                "(determinism guard; the workload or protocol behaviour changed)")

    # Wall-clock and RSS-style metrics vary with the machine; any *_ms or
    # *_kb metric gets the wide --wall-tolerance when one is given.
    def is_hardware_dependent(key):
        return key.endswith("_ms") or key.endswith("_kb")

    for key in tracked:
        if key not in current:
            failures.append(f"{key}: missing from the candidate record "
                            f"{args.current} (baseline has {baseline.get(key)!r})")
            continue
        if key not in baseline:
            failures.append(f"{key}: missing from the baseline record "
                            f"{args.baseline} (candidate has {current[key]!r})")
            continue
        cur = float(current[key])
        base = float(baseline[key])
        if base <= 0:
            continue
        tolerance = args.tolerance
        if is_hardware_dependent(key) and args.wall_tolerance is not None:
            tolerance = args.wall_tolerance
        delta = (cur - base) / base
        marker = "REGRESSION" if delta > tolerance else "ok"
        print(f"{key}: current={cur:.1f} baseline={base:.1f} delta={delta:+.1%} [{marker}]")
        if delta > tolerance:
            failures.append(f"{key} regressed {delta:+.1%} (> {tolerance:.0%})")

    # Report-only keys (a phase table, speedups, notes) carry no tolerance,
    # but a candidate that stopped emitting one is not the same record.
    for key in baseline:
        if key not in current and key not in exact and key not in tracked:
            failures.append(f"{key}: missing from the candidate record "
                            f"{args.current} (baseline has {baseline[key]!r})")

    if failures:
        print(f"\nbench_compare: FAIL ({len(failures)} check(s))", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
