#!/usr/bin/env python3
"""Build qopt_bench from source and run the Q-OPT benchmark.

    python3 bench/suite/run.py [--workload NAME] [--seed N] [--seconds S]
                               [--trace 0|1] [--out DIR]
    python3 bench/suite/run.py --smoke [--binary PATH]

Run from the repository root. The driver is built into .bench_build/ from
bench/suite/CMakeLists.txt and the simulator sources under src/.

With --workload, one workload runs and the last line of output is its JSON
result {"correct", "attempted", "failed", "metrics"}. Without it, every
workload in BENCHMARK.json runs in turn. Every run prints one
"workload metric value unit" line per metric. The emitted metric names and
units must match BENCHMARK.json exactly: its end_to_end list for --trace 0,
its per_layer list for --trace 1. A name mismatch, a failed correctness
gate or a failed build exits non-zero.

--out DIR also saves each result as DIR/<workload>.seed<N>.trace<T>.json,
the input of compare.py. --smoke runs every workload at smoke size, traced
and untraced, and checks only the metric names and the gates.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "qopt_bench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds qopt_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under src/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "qopt_bench", "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "qopt_bench")


def check_names(result, declared):
    """Errors for a malformed result or metric names/units that differ
    from the declared set."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result line is not a JSON object with keys "
                + ", ".join(sorted(RESULT_KEYS))]
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    errors = ["missing metric " + n for n in declared if n not in emitted]
    errors += ["undeclared metric " + n for n in emitted if n not in declared]
    errors += ["metric %s has unit %s, declared %s" % (n, emitted[n], u)
               for n, u in declared.items()
               if n in emitted and emitted[n] != u]
    return errors


def run_one(binary, bench, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (result, lines before it, name errors,
    gate errors)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("%s exited %d without a result line"
                         % (workload, proc.returncode))
    group = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[group]}
    name_errors = ["%s: %s" % (workload, e)
                   for e in check_names(result, declared)]
    gate_errors = []
    if not name_errors and (proc.returncode != 0
                            or result["correct"] is not True):
        gate_errors.append("%s: correctness gate failed (exit %d)"
                           % (workload, proc.returncode))
    return result, lines[:-1], name_errors, gate_errors


def main():
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for per-run JSON results")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this qopt_bench, skip the build")
    args = parser.parse_args()

    try:
        binary = args.binary or build()
        if args.smoke:
            runs = [(w, t) for w in workloads for t in (0, 1)]
        else:
            chosen = [args.workload] if args.workload else workloads
            runs = [(w, args.trace) for w in chosen]
        errors = []
        for workload, trace in runs:
            result, lines, name_errors, gate_errors = run_one(
                binary, bench, workload, args.seed, args.seconds, trace,
                args.smoke)
            errors += name_errors + gate_errors
            for line in lines:
                print(line)
            if args.out and not args.smoke:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, "%s.seed%d.trace%d.json"
                                    % (workload, args.seed, trace))
                with open(path, "w") as f:
                    json.dump({"workload": workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": trace,
                               "result": result}, f)
            # A result with undeclared or missing metrics is not printed; a
            # failed gate is, with "correct": false and a non-zero exit.
            if len(runs) == 1 and not name_errors:
                print(json.dumps(result))
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    for e in errors:
        print("run.py: %s" % e, file=sys.stderr)
    if args.smoke and not errors:
        print("bench_suite_smoke: %d runs ok" % len(runs))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
