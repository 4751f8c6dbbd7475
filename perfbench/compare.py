#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on one perfbench workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload array_scan --pairs 10

Each pair runs both checkouts on the same seed (pair i uses seed i), the
side that goes first alternating between pairs. For every metric it prints
each side's median and quartiles, how many pairs the change won, and the
verdict of the ledger's rule: a gain needs the change to win at least nine
tenths of the pairs and the medians to differ by more than the parent's
own quartile spread. No metric counts as a gain when any run of the
change failed (non-zero exit, correct=false, or no result line) or its
runs failed more ops in total than the parent's. Pass --trace 1 to
compare the per-layer metrics. An end-to-end metric whose median got
worse by more than its bound in BENCHMARK.json reads REGRESSION; one
whose parent runs spread (interquartile range over median) wider than
the bound reads "unresolved" instead of "-", unless every run of the
change beat every run of the parent.
Both directories must be checkouts holding perfbench/ (each builds its own
copy on its first run).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(checkout, workload, seed, seconds, trace):
    """One run: {"ok", "failed", "metrics"}; a run without a result line has no metrics."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        print("warning: %s seed %d printed no result (exit %d)" % (checkout, seed, proc.returncode),
              file=sys.stderr)
        return {"ok": False, "failed": 0, "metrics": None}
    ok = proc.returncode == 0 and result.get("correct") is True
    if not ok:
        print("warning: %s seed %d exited %d, correct=%s" %
              (checkout, seed, proc.returncode, result.get("correct")), file=sys.stderr)
    return {"ok": ok, "failed": int(result.get("failed", 0)), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run(checkout, args.workload, i + 1, args.seconds, args.trace))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    broken = {side: sum(1 for r in runs[side] if not r["ok"]) for side in runs}
    withheld = broken["change"] > 0 or failed["change"] > failed["parent"]
    print("failed ops: parent %d, change %d; failed runs: parent %d, change %d%s" %
          (failed["parent"], failed["change"], broken["parent"], broken["change"],
           " -- no gain is counted" if withheld else ""))
    # Pairs where both sides printed a result.
    pairs = [(a["metrics"], b["metrics"]) for a, b in zip(runs["parent"], runs["change"])
             if a["metrics"] is not None and b["metrics"] is not None]
    if not pairs:
        sys.exit("no pair of runs printed results")

    print("%-40s %14s %14s %8s  %s" % ("metric", "parent p50", "change p50", "wins", "verdict"))
    for name in pairs[0][0]:
        a = [p[name] for p, _ in pairs]
        b = [c[name] for _, c in pairs]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        qa = statistics.quantiles(a, n=4) if len(a) > 1 else [a[0]] * 3
        ma, mb = statistics.median(a), statistics.median(b)
        gained = (not withheld and wins >= 0.9 * args.pairs and
                  sign * (mb - ma) > qa[2] - qa[0])
        verdict = "GAIN" if gained else "-"
        bound = bounds.get(name)
        if not gained and bound is not None:
            all_better = all(sign * (y - x) > 0 for x in a for y in b)
            if ma and (qa[2] - qa[0]) / abs(ma) > bound and not all_better:
                verdict = "unresolved"
            elif sign * (mb - ma) < -bound * abs(ma):
                verdict = "REGRESSION"
        print("%-40s %14.4f %14.4f %5d/%-2d  %s  (parent q1-q3 %.4f-%.4f)" %
              (name, ma, mb, wins, len(a), verdict, qa[0], qa[2]))


if __name__ == "__main__":
    main()
