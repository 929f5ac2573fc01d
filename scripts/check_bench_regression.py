#!/usr/bin/env python
"""Fail when benchmarks regress past a threshold against a committed baseline.

Compares two ``pytest-benchmark`` JSON files (``--benchmark-json`` output) by
test fullname, using each benchmark's *min* time (the least noise-sensitive
statistic for CI runners).  A benchmark regresses when::

    current_min > baseline_min * (1 + threshold)

A benchmark with no baseline entry is reported as new and never fails the
check.  A baseline entry with no current result always fails it (exit 1,
naming the entry), whatever the CPU counts: either that benchmark stopped
producing results, or it was deleted and its entry outlived it, so the
baseline no longer describes what runs.  The baseline is refreshed through the ``workflow_dispatch`` path of the CI
workflow (``refresh-baseline`` input), which uploads a fresh
``BENCH_baseline.json`` artifact to commit as ``benchmarks/baseline.json``.

Absolute wall-clock times only compare meaningfully on similar hardware, so
when the two files were produced on machines with different CPU counts (e.g.
a 1-core dev container vs. a 4-vCPU CI runner) the comparison is reported but
never fails: the right fix is refreshing the baseline on the CI runner class,
not chasing a cross-machine ratio.  The skipped gate is not silent: the
script also prints a GitHub Actions ``::warning::`` annotation, which shows
on the run's and the pull request's pages.

Usage::

    python scripts/check_bench_regression.py baseline.json current.json \
        [--threshold 0.25]
"""

import argparse
import json
import sys


def load_benchmarks(path):
    with open(path) as handle:
        data = json.load(handle)
    benches = {bench["fullname"]: bench["stats"] for bench in data.get("benchmarks", [])}
    return benches, data.get("machine_info", {})


def escape_annotation(message):
    """Escape ``message`` as the data of a GitHub Actions workflow command."""
    return message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    args = parser.parse_args(argv)

    baseline, baseline_machine = load_benchmarks(args.baseline)
    current, current_machine = load_benchmarks(args.current)
    comparable = baseline_machine.get("cpu", {}).get("count") == current_machine.get(
        "cpu", {}
    ).get("count")

    regressions = []
    width = max((len(name) for name in current), default=10)
    print("%-*s  %10s  %10s  %7s" % (width, "benchmark", "base min", "now min", "ratio"))
    for name in sorted(current):
        stats = current[name]
        base = baseline.get(name)
        if base is None:
            print("%-*s  %10s  %10.4f  %7s" % (width, name, "-", stats["min"], "new"))
            continue
        ratio = stats["min"] / base["min"] if base["min"] else float("inf")
        flag = "SLOW" if ratio > 1.0 + args.threshold else "ok"
        print(
            "%-*s  %10.4f  %10.4f  %6.2fx %s"
            % (width, name, base["min"], stats["min"], ratio, flag)
        )
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
    missing = sorted(set(baseline) - set(current))
    for name in missing:
        print("%-*s  %10.4f  %10s  %7s" % (width, name, baseline[name]["min"], "-", "gone"))

    print()
    if missing:
        print(
            "FAIL: %d baseline benchmark(s) with no current result (it stopped "
            "running, or its entry outlived it):" % len(missing)
        )
        for name in missing:
            print("  %s" % name)
    if regressions and not comparable:
        message = (
            "%d benchmark(s) beyond the %.0f%% threshold, but the "
            "baseline was produced on a machine with a different CPU count "
            "(%r vs %r) -- not failing.  Refresh benchmarks/baseline.json on "
            "this runner class (workflow_dispatch with refresh-baseline)."
            % (
                len(regressions),
                args.threshold * 100,
                baseline_machine.get("cpu", {}).get("count"),
                current_machine.get("cpu", {}).get("count"),
            )
        )
        print("WARNING: " + message)
        print("::warning title=Benchmark gate skipped::" + escape_annotation(message))
        return 1 if missing else 0
    if regressions:
        print(
            "FAIL: %d benchmark(s) regressed more than %.0f%%:"
            % (len(regressions), args.threshold * 100)
        )
        for name, ratio in regressions:
            print("  %s: %.2fx" % (name, ratio))
        return 1
    if missing:
        return 1
    print("OK: no benchmark regressed more than %.0f%%" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
