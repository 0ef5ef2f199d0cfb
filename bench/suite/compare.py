#!/usr/bin/env python3
"""Compare two sets of qopt_bench results.

    python3 bench/suite/compare.py A_DIR B_DIR

A_DIR and B_DIR hold result files written by `run.py --out DIR`: A is the
parent commit, B the change, measured with the same benchmark and
settings. Runs are paired in seed order. For every workload and metric
the table gives each side's median and quartiles, the pairs B won, and a
verdict:

  better      B wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than A's interquartile range.
  worse       B's median is worse than A's by more than the metric's bound
              in BENCHMARK.json (per-layer metrics have no bound: the
              pair rule above, mirrored).
  unresolved  A's own spread (interquartile range over median) is wider
              than the bound, so "no worse than the bound" cannot be shown;
              or, without a bound, neither side wins the pair rule.
  same        none of the above.

Exit status 1 when any verdict is "worse".
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_runs(directory):
    """{(workload, trace): [result, ...]} in seed order."""
    runs = {}
    records = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path) as f:
            records.append(json.load(f))
    for r in sorted(records, key=lambda r: r["seed"]):
        runs.setdefault((r["workload"], r["trace"]), []).append(r["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, sign, bound):
    """a, b: values in seed order; sign +1 when higher is better."""
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y - x) * sign > 0)
    losses = sum(1 for x, y in pairs if (y - x) * sign < 0)
    gain = (qb[1] - qa[1]) * sign  # > 0: B's median is better
    iqr_a = qa[2] - qa[0]
    if wins >= 0.9 * len(pairs) and gain > iqr_a:
        return "better", wins
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > iqr_a:
            return "worse", wins
        return ("same" if qa[1] == qb[1] else "unresolved"), wins
    scale = abs(qa[1])
    if scale and iqr_a / scale > bound:
        if all((y - x) * sign > 0 for x in a for y in b):
            return "better", wins
        return "unresolved", wins
    if -gain > bound * scale:
        return "worse", wins
    return "same", wins


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    side_a, side_b = load_runs(argv[1]), load_runs(argv[2])
    worse = 0
    fmt = "%-13s %-32s %-10s %34s %34s %6s  %s"
    print(fmt % ("workload", "metric", "unit", "A median [q1, q3]",
                 "B median [q1, q3]", "B wins", "verdict"))
    for key in sorted(set(side_a) & set(side_b)):
        a_runs, b_runs = side_a[key], side_b[key]
        for name in a_runs[0]["metrics"]:
            spec = specs.get(name)
            if spec is None:
                continue
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            sign = 1 if spec["better"] == "higher" else -1
            result, wins = verdict(a, b, sign, spec.get("bound"))
            worse += result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(fmt % (key[0], name, spec["unit"],
                         "%.6g [%.6g, %.6g]" % (qa[1], qa[0], qa[2]),
                         "%.6g [%.6g, %.6g]" % (qb[1], qb[0], qb[2]),
                         "%d/%d" % (wins, min(len(a), len(b))), result))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
