#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload grid_ilp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (the model library from src/ plus the driver in main.cc)
into .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr, so the last line on stdout is the
driver's JSON result. The exit status is the driver's: non-zero when
the build fails or any output check fails.

--self-test runs every workload briefly and checks that each prints
exactly the metrics BENCHMARK.json names, with their units, and that
the deterministic outputs (grid results, ILP node counts,
sched_gap_mean, serve responses) repeat exactly across two runs and
across widths 1 and 4.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def default_width():
    """Evaluation workers: all CPUs but two, at most 3. The thread that
    calls runBatch (main or the serve dispatcher) works alongside them,
    and one CPU stays free for the serve generator and the host."""
    return max(1, min(3, cpus() - 2))


def build():
    jobs = str(max(1, min(4, cpus())))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_driver(workload, seed, seconds, trace, width, capture=False):
    """Run the driver once; returns (exit code, stdout or None)."""
    trace_out = os.path.join(BUILD, "trace-%s-%s.json" % (workload, seed))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-out", trace_out]
    env = dict(os.environ, SMART_THREADS=str(width))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1, None
    out = proc.stdout.decode() if capture else None
    return proc.returncode, out


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    all_ok = True
    for w in spec["workloads"]:
        workload = w["name"]
        digests = {}
        ok = True
        for trace, width in [(0, 4), (0, 4), (0, 1), (1, 4), (1, 1)]:
            code, out = run_driver(workload, 7, 1, trace, width, capture=True)
            lines = out.strip().splitlines() if out else []
            if code != 0 or not lines:
                print("FAIL %s trace=%d width=%d: exit %d"
                      % (workload, trace, width, code))
                ok = False
                continue
            result = json.loads(lines[-1])
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != units[trace] or not result["correct"]:
                print("FAIL %s trace=%d: correct=%s, metrics differ from "
                      "BENCHMARK.json: %s"
                      % (workload, trace, result["correct"],
                         sorted(set(printed.items()) ^
                                set(units[trace].items()))))
                ok = False
            for line in lines:
                if line.startswith("digest "):
                    _, key, value = line.split()
                    digests.setdefault(key, set()).add(value)
        for key, values in sorted(digests.items()):
            if len(values) != 1:
                print("FAIL %s: digest %s differs across runs: %s"
                      % (workload, key, sorted(values)))
                ok = False
        print("%s %s: digests %s" % ("ok  " if ok else "FAIL", workload,
                                       sorted(digests)))
        all_ok = all_ok and ok
    return all_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    code, _ = run_driver(args.workload, args.seed, args.seconds, args.trace,
                         default_width())
    return code


if __name__ == "__main__":
    sys.exit(main())
