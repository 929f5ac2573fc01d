#!/usr/bin/env python
"""Compare two checkouts with alternating perfbench pairs.

Usage::

    python scripts/perfbench_pairs.py PARENT_DIR CHANGE_DIR \
        --workload crowd --pairs 10 --seconds 5 --first-seed 1

Each directory is the root of a checkout holding ``perfbench/run.py``.  Pair
``i`` (counted from 1) runs ``perfbench/run.py --workload W --seed
FIRST+i-1 --seconds S --trace 0`` once in each checkout, one after the
other: the parent first in odd pairs and the change first in even ones, so
neither side always runs on a warmer or a cooler machine.  Only runs made
this way, in one session on one machine, compare.  ``--first-seed`` lets a
claim be checked again on seeds that were not used while making it.

For every end-to-end metric the script prints the parent's median and
interquartile spread (third quartile minus first), the change's median and
spread, the change's move against the parent's median in percent, in how
many pairs the change read lower than the parent, and whether that is a
gain: lower in at least 9 of every 10 pairs, with the median lower by more
than the parent's spread.  It exits 1 if any run was not ``correct`` or
printed no result.
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


def is_gain(lower, pairs, parent_median, change_median, parent_spread):
    """Whether a lower-is-better metric improved: the change read lower in
    at least 9 of every 10 of the ``pairs`` pairs (``lower`` of them), and
    its median is below the parent's by more than the parent's spread."""
    return 10 * lower >= 9 * pairs and parent_median - change_median > parent_spread


def summarize(pairs):
    """One row per metric of ``pairs``, a list of ``(parent, change)``
    results as :func:`parse_result` returns them.

    Each row is a dict: ``metric``, ``unit``, ``parent_median``,
    ``parent_spread``, ``change_median``, ``change_spread``,
    ``move_percent``, ``lower``, the number of pairs in which the change
    read lower, and ``gain``, what :func:`is_gain` says of them.  Metrics
    are in the order of the first parent result.
    """
    rows = []
    for name, first in pairs[0][0]["metrics"].items():
        parent = [result["metrics"][name]["value"] for result, _ in pairs]
        change = [result["metrics"][name]["value"] for _, result in pairs]
        parent_median = statistics.median(parent)
        parent_spread = _spread(parent)
        change_median = statistics.median(change)
        lower = sum(1 for old, new in zip(parent, change) if new < old)
        rows.append({
            "metric": name,
            "unit": first["unit"],
            "parent_median": parent_median,
            "parent_spread": parent_spread,
            "change_median": change_median,
            "change_spread": _spread(change),
            "move_percent": (change_median / parent_median - 1) * 100 if parent_median else 0.0,
            "lower": lower,
            "gain": is_gain(lower, len(pairs), parent_median, change_median, parent_spread),
        })
    return rows


def format_rows(rows, pairs):
    """The printed table of :func:`summarize`'s rows over ``pairs`` pairs."""
    lines = ["%-18s %12s %10s %12s %10s %8s %7s %4s" % (
        "metric", "parent", "IQR", "change", "IQR", "move", "lower", "gain")]
    for row in rows:
        lines.append("%-18s %12.4g %10.3g %12.4g %10.3g %+7.1f%% %3d/%-3d %4s %s" % (
            row["metric"], row["parent_median"], row["parent_spread"],
            row["change_median"], row["change_spread"], row["move_percent"], row["lower"],
            pairs, "yes" if row["gain"] else "no", row["unit"]))
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
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed FIRST+i-1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    pairs = []
    failed = False
    for index in range(1, args.pairs + 1):
        seed = args.first_seed + index - 1
        order = [(0, args.parent), (1, args.change)]
        if index % 2 == 0:
            order.reverse()
        results = [None, None]
        for side, checkout in order:
            results[side] = run_once(checkout, args.workload, seed, args.seconds)
        parent, change = results
        for label, result in (("parent", parent), ("change", change)):
            if result is None or not result.get("correct"):
                print("pair %d: the %s run printed no correct result (seed %d)"
                      % (index, label, seed), file=sys.stderr)
                failed = True
        if parent is not None and change is not None:
            pairs.append((parent, change))
    if pairs:
        print(format_rows(summarize(pairs), len(pairs)))
    return 1 if failed or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
