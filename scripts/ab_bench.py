#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: a base ref vs this tree.

    scripts/ab_bench.py --base HEAD~1 --workload grid_ilp --pairs 10 \\
        --seconds 30 --out ab_lines.jsonl
    scripts/ab_bench.py --summarize ab_lines.jsonl

Run from anywhere inside the repository. The first form checks the base
ref out with `git worktree add` into a temporary directory (or uses an
existing checkout given with --base-dir), then runs

    python3 perfbench/run.py --workload W --seed S --seconds T

in the base tree and in this tree for each of N pairs. Pair k uses seed
S + k on both sides, and the side that runs first alternates from pair
to pair, so drift on a shared host lands on both sides alike. Each run
builds its own tree's perfbench (into that tree's .bench_build) and
prints one JSON result line; each is saved, with the run's digest
lines, as one line of --out.

The summary covers each end-to-end metric BENCHMARK.json names: the
median and quartiles of each side, the change/base ratio of the
medians with a seeded bootstrap 95% confidence interval (pairs are
resampled together), the share of pairs the change won in the metric's
better direction (and how many tied), and whether the median gained by
more than the base's interquartile range; and whether the benchmark's
determinism digests matched between the sides of every pair.
--summarize prints the same summary from saved lines without building
or running anything.

Standard library only. Nothing under perfbench/ and no BENCHMARK.json
is changed.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BOOTSTRAP_SAMPLES = 2000
BOOTSTRAP_SEED = 20211018
RUN_TIMEOUT_S = 900


def end_to_end_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(tree, workload, seed, seconds):
    """One benchmark run in @p tree; returns the parsed result line and
    the run's determinism digests."""
    env = dict(os.environ)
    # run.py puts its build under CARGO_TARGET_DIR when set; an absolute
    # path there would make both trees share one build.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: %s exited %d" % (tree, " ".join(cmd),
                                                 proc.returncode))
    digests = dict(l.split()[1:3] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digests


def run_pairs(args, base_tree, out):
    lines = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
        for side in order:
            tree = base_tree if side == "base" else ROOT
            result, digests = run_once(tree, args.workload, seed,
                                       args.seconds)
            line = {"workload": args.workload, "pair": k, "side": side,
                    "seed": seed, "first": side == order[0],
                    "correct": result.get("correct", False),
                    "digests": digests,
                    "metrics": {n: m["value"]
                                for n, m in result["metrics"].items()}}
            lines.append(line)
            if out:
                out.write(json.dumps(line) + "\n")
                out.flush()
            print("pair %d/%d %-6s seed %d done" % (k + 1, args.pairs, side,
                                                    seed), file=sys.stderr)
    return lines


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bootstrap_ratio_ci(pairs, rng):
    """95% percentile interval of median(change) / median(base) over
    pair resamples; None when a resampled base median is zero."""
    ratios = []
    n = len(pairs)
    for _ in range(BOOTSTRAP_SAMPLES):
        sample = [pairs[int(rng.random() * n)] for _ in range(n)]
        base = statistics.median(b for b, _ in sample)
        if base == 0:
            return None
        ratios.append(statistics.median(c for _, c in sample) / base)
    ratios.sort()
    return (ratios[int(0.025 * (BOOTSTRAP_SAMPLES - 1))],
            ratios[int(0.975 * (BOOTSTRAP_SAMPLES - 1))])


def summarize(lines, spec):
    """Print the per-workload summary of saved result lines."""
    rng = random.Random(BOOTSTRAP_SEED)
    for workload in sorted({l["workload"] for l in lines}):
        sides = {}
        for l in lines:
            if l["workload"] == workload:
                sides.setdefault(l["pair"], {})[l["side"]] = l
        pairs = [p for _, p in sorted(sides.items())
                 if "base" in p and "change" in p]
        incorrect = sum(not p[s]["correct"] for p in pairs for s in p)
        print("workload %s: %d pairs%s" % (
            workload, len(pairs),
            ", %d runs reported correct=false" % incorrect
            if incorrect else ""))
        # The benchmark's digests hash deterministic outputs (results, node
        # counts, responses): a change that claims identical outputs
        # must match the base's in every pair.
        differ = sorted({k for p in pairs
                         for k, v in p["base"].get("digests", {}).items()
                         if p["change"].get("digests", {}).get(k) != v})
        keys = sorted({k for p in pairs for k in p["base"].get("digests",
                                                               {})})
        if keys:
            print("  digests %s: %s" % (
                ", ".join(keys),
                "differ in " + ", ".join(differ) if differ
                else "equal in every pair"))
        print("  %-15s %-6s %-30s %-30s %-26s %s" % (
            "metric", "better", "base median [q1, q3]",
            "change median [q1, q3]", "change/base [95% CI]", "won"))
        for m in spec:
            name = m["name"]
            vals = [(p["base"]["metrics"][name],
                     p["change"]["metrics"][name])
                    for p in pairs
                    if name in p["base"]["metrics"]
                    and name in p["change"]["metrics"]]
            if not vals:
                continue
            higher = m["better"] == "higher"
            bq = quartiles([b for b, _ in vals])
            cq = quartiles([c for _, c in vals])
            won = sum((c > b) if higher else (c < b) for b, c in vals)
            tied = sum(c == b for b, c in vals)
            if bq[1] != 0:
                ratio = "%.3fx" % (cq[1] / bq[1])
                ci = bootstrap_ratio_ci(vals, rng)
                ratio += " [%.3f, %.3f]" % ci if ci else " [n/a]"
            else:
                ratio = "n/a"
            gain = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
            beyond_iqr = gain > bq[2] - bq[0]
            print("  %-15s %-6s %-30s %-30s %-26s %d/%d%s%s" % (
                name, m["better"],
                "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                "%.5g [%.5g, %.5g]" % (cq[1], cq[0], cq[2]),
                ratio, won, len(vals),
                " (%d tied)" % tied if tied else "",
                ", gain > base IQR" if beyond_iqr else ""))


def add_worktree(ref):
    path = os.path.join(tempfile.mkdtemp(prefix="ab_bench_"), "base")
    subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", path,
                    ref], check=True, stdout=sys.stderr)
    return path


def remove_worktree(path):
    subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                    path], stdout=sys.stderr)
    shutil.rmtree(os.path.dirname(path), ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref to compare against")
    parser.add_argument("--base-dir",
                        help="existing checkout of the base, instead of "
                             "a temporary worktree of --base")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="append each run's line here")
    parser.add_argument("--summarize", nargs="+", metavar="FILE",
                        help="summarize saved lines; runs nothing")
    args = parser.parse_args()
    spec = end_to_end_spec(ROOT)

    if args.summarize:
        lines = []
        for path in args.summarize:
            with open(path) as f:
                lines += [json.loads(l) for l in f if l.strip()]
        summarize(lines, spec)
        return 0

    if not args.workload or not (args.base or args.base_dir):
        parser.error("--workload and one of --base/--base-dir are required")
    base_tree = args.base_dir or add_worktree(args.base)
    out = open(args.out, "a") if args.out else None
    try:
        lines = run_pairs(args, base_tree, out)
    finally:
        if out:
            out.close()
        if not args.base_dir:
            remove_worktree(base_tree)
    summarize(lines, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
