#!/usr/bin/env python3
"""Compare two per-layer ILP dumps and flag objective drops.

    ./build/bench_ablation_ilp_vs_greedy --layers > base.tsv   # parent
    ./build/bench_ablation_ilp_vs_greedy --layers > change.tsv
    python3 scripts/layer_diff.py base.tsv change.tsv

Rows are matched on (model, layer). Every row whose status or
objective moved past SAME (1e-9 relative) is listed with both sides'
status, objective, nodes, prefetched fraction and batch-1 cycles. A
row is flagged when its objective (maximized) drops

  * past SAME, where the base proved the layer under its node cap
    (status "optimal"), or
  * past TOL (1e-3 relative), where the base stopped at the cap.

The summary gives row counts, status changes and total nodes and
pivots on each side. The exit status is 1 when a row is flagged or
the two dumps cover different layers, else 0.
"""

import argparse
import sys

# Relative objective change below which a row has not moved.
SAME = 1e-9
# Largest relative objective drop allowed on a layer the base stopped at
# its node cap.
TOL = 1e-3

FIELDS = ("model", "layer", "status", "objective", "nodes", "pivots",
          "gap_bound", "prefetched", "cycles_b1", "paper_batch",
          "cycles_paper")


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(FIELDS):
                sys.exit("%s: expected %d fields, got %d: %r"
                         % (path, len(FIELDS), len(parts), line))
            row = dict(zip(FIELDS, parts))
            row["objective"] = float.fromhex(row["objective"])
            for key in ("nodes", "pivots", "cycles_b1", "cycles_paper"):
                row[key] = int(row[key])
            for key in ("gap_bound", "prefetched"):
                row[key] = float(row[key])
            rows[(row["model"], row["layer"])] = row
    return rows


def rel(change, base):
    return (change - base) / max(abs(base), 1e-300)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()

    base = load(args.base)
    change = load(args.change)
    bad = False
    only = sorted(set(base) ^ set(change))
    for key in only:
        side = "base" if key in base else "change"
        print("only in %s: %s/%s" % (side, key[0], key[1]))
        bad = True

    print("%-12s %-22s %-10s %-10s %10s %6s %6s %7s %7s %9s %9s  %s"
          % ("model", "layer", "base", "change", "obj rel", "nodes",
             "nodes'", "pf", "pf'", "cycles", "cycles'", "flag"))
    moved = flagged = 0
    for key in sorted(set(base) & set(change)):
        b, c = base[key], change[key]
        d = rel(c["objective"], b["objective"])
        if abs(d) <= SAME and b["status"] == c["status"]:
            continue
        moved += 1
        flag = ""
        if b["status"] == "optimal" and d < -SAME:
            flag = "DROP (base proven)"
        elif d < -TOL:
            flag = "DROP > tol"
        if flag:
            flagged += 1
            bad = True
        print("%-12s %-22s %-10s %-10s %+10.3e %6d %6d %7.4f %7.4f "
              "%9d %9d  %s"
              % (key[0], key[1], b["status"], c["status"], d, b["nodes"],
                 c["nodes"], b["prefetched"], c["prefetched"],
                 b["cycles_b1"], c["cycles_b1"], flag))

    def total(rows, field):
        return sum(r[field] for r in rows.values())

    def count(rows, status):
        return sum(r["status"] == status for r in rows.values())

    print("rows %d vs %d; moved %d; flagged %d" % (len(base), len(change),
                                                  moved, flagged))
    for status in ("optimal", "node-limit"):
        print("%s: %d vs %d" % (status, count(base, status),
                                count(change, status)))
    for field in ("nodes", "pivots", "cycles_b1", "cycles_paper"):
        print("%s: %d vs %d" % (field, total(base, field),
                                total(change, field)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
