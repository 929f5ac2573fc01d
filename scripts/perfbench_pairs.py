#!/usr/bin/env python
"""Compare two checkouts with alternating perfbench pairs.

Usage::

    python scripts/perfbench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload crowd --pairs 10 --seconds 5

Each directory is the root of a checkout holding ``perfbench/run.py``.  Pair
``i`` (counted from 1) runs ``perfbench/run.py --workload W --seed i
--seconds S --trace 0`` once in each checkout, one after the other: the
parent first in odd pairs and the change first in even ones, so neither side
always runs on a warmer or a cooler machine.  Only runs made this way, in one
session on one machine, compare.

For every end-to-end metric the script prints the parent's median and
interquartile spread (third quartile minus first), the change's median and
its move against the parent's median in percent, and in how many pairs the
change read lower than the parent.  It exits 1 if any run was not
``correct`` or printed no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_result(stdout):
    """The JSON object on the last line of a perfbench run's output, or
    ``None`` when there is none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def _spread(values):
    """Third quartile minus first (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def summarize(pairs):
    """One row per metric of ``pairs``, a list of ``(parent, change)``
    results as :func:`parse_result` returns them.

    Each row is a dict: ``metric``, ``unit``, ``parent_median``,
    ``parent_spread``, ``change_median``, ``move_percent`` and ``lower``,
    the number of pairs in which the change read lower.  Metrics are in
    the order of the first parent result.
    """
    rows = []
    for name, first in pairs[0][0]["metrics"].items():
        parent = [result["metrics"][name]["value"] for result, _ in pairs]
        change = [result["metrics"][name]["value"] for _, result in pairs]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        rows.append({
            "metric": name,
            "unit": first["unit"],
            "parent_median": parent_median,
            "parent_spread": _spread(parent),
            "change_median": change_median,
            "move_percent": (change_median / parent_median - 1) * 100 if parent_median else 0.0,
            "lower": sum(1 for old, new in zip(parent, change) if new < old),
        })
    return rows


def format_rows(rows, pairs):
    """The printed table of :func:`summarize`'s rows over ``pairs`` pairs."""
    lines = ["%-18s %12s %10s %12s %8s %7s" % (
        "metric", "parent", "IQR", "change", "move", "lower")]
    for row in rows:
        lines.append("%-18s %12.4g %10.3g %12.4g %+7.1f%% %3d/%-3d %s" % (
            row["metric"], row["parent_median"], row["parent_spread"],
            row["change_median"], row["move_percent"], row["lower"], pairs, row["unit"]))
    return "\n".join(lines)


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in ``checkout``; its parsed result or
    ``None``."""
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        return None
    return parse_result(completed.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    pairs = []
    failed = False
    for seed in range(1, args.pairs + 1):
        order = [(0, args.parent), (1, args.change)]
        if seed % 2 == 0:
            order.reverse()
        results = [None, None]
        for side, checkout in order:
            results[side] = run_once(checkout, args.workload, seed, args.seconds)
        parent, change = results
        for label, result in (("parent", parent), ("change", change)):
            if result is None or not result.get("correct"):
                print("pair %d: the %s run printed no correct result" % (seed, label),
                      file=sys.stderr)
                failed = True
        if parent is not None and change is not None:
            pairs.append((parent, change))
    if pairs:
        print(format_rows(summarize(pairs), len(pairs)))
    return 1 if failed or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
