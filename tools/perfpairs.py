#!/usr/bin/env python3
"""Compare two source trees on one perfbench workload in alternating pairs.

    python3 tools/perfpairs.py --against DIR --workload W --seeds 1-10 \
        [--trace 0|1]

DIR is the tree to compare against (the parent, say a `git archive` of
it); the other tree is the checkout holding this script. For each seed,
`perfbench/run.py` runs once in each tree, which builds the tree on its
first run, the parent first on odd seeds and second on even ones, so
drift of the host over the session falls on both sides alike. Every run
lasts BENCHMARK.json's `run_seconds`.

For each metric the report gives both medians, the parent's quartiles,
the pairs the change won (ties count for neither side) and the exact
two-sided sign-test p over the pairs that were not ties. For each
end-to-end metric it says whether the change's median stayed inside the
metric's bound in BENCHMARK.json. The last line of stdout is one JSON
object with all of it. The script reads perfbench/ and BENCHMARK.json
only, and needs nothing beyond the Python standard library.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def fail(msg):
    print(f"perfpairs: {msg}", file=sys.stderr)
    sys.exit(1)


def seed_list(spec):
    """'1-10' or '1,3,5' or a mix: the seeds in the order given."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        try:
            lo = int(lo)
            hi = int(hi) if hi else lo
        except ValueError:
            fail(f"bad --seeds {spec!r}")
        if hi < lo:
            fail(f"bad --seeds {spec!r}")
        seeds.extend(range(lo, hi + 1))
    return seeds


def run(tree, args, seconds, seed):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(args.trace)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"perfbench failed in {tree} on seed {seed}")
    return json.loads(lines[-1])


def sign_test(wins, losses):
    """Exact two-sided sign-test p for [wins] against [losses]."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return (q[0], q[2])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", required=True, type=Path,
                    help="the tree to compare against (the parent)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    parent = args.against.resolve()
    for tree in (parent, HERE):
        if not (tree / "perfbench" / "run.py").is_file():
            fail(f"{tree} has no perfbench/run.py")
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[key]}
    seeds = seed_list(args.seeds)

    results = {"parent": [], "change": []}
    for seed in seeds:
        order = [("parent", parent), ("change", HERE)]
        if seed % 2 == 0:
            order.reverse()
        for side, tree in order:
            r = run(tree, args, seconds, seed)
            results[side].append(r)
            print(f"seed {seed} {side}: "
                  + " ".join(f"{k}={v['value']:g}"
                             for k, v in r["metrics"].items()),
                  file=sys.stderr, flush=True)

    report = {"workload": args.workload, "seeds": seeds,
              "seconds": seconds, "metrics": {}, "failed_share": {},
              "correct": {}}
    for side in ("parent", "change"):
        report["correct"][side] = all(r["correct"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        failed = sum(r["failed"] for r in results[side])
        report["failed_share"][side] = failed / attempted if attempted else 0.0

    header = (f"{'metric':<32} {'parent':>10} {'change':>10} {'delta':>8} "
              f"{'parent q1-q3':>21} {'won':>6} {'p':>7}  bound")
    print(f"{args.workload}: {len(seeds)} pairs, {seconds} s per run")
    print(header)
    for name, m in metrics.items():
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        lower = m["better"] == "lower"
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        losses = sum(1 for a, b in zip(p, c) if (b > a if lower else b < a))
        mp, mc = statistics.median(p), statistics.median(c)
        delta = (mc - mp) / mp if mp else 0.0
        q1, q3 = quartiles(p)
        row = {"parent_median": mp, "change_median": mc, "delta": delta,
               "parent_q1": q1, "parent_q3": q3, "won": wins,
               "lost": losses, "pairs": len(seeds),
               "sign_p": sign_test(wins, losses)}
        verdict = ""
        if "bound" in m:
            worse = delta if lower else -delta
            row["bound"] = m["bound"]
            row["inside_bound"] = worse <= m["bound"]
            verdict = ("inside" if row["inside_bound"] else "OUTSIDE") \
                + f" {m['bound']:.0%}"
        report["metrics"][name] = row
        print(f"{name:<32} {mp:>10.4g} {mc:>10.4g} {delta:>+8.1%} "
              f"{q1:>10.4g}-{q3:<10.4g} {wins:>2}/{len(seeds):<3} "
              f"{row['sign_p']:>7.4f}  {verdict}")
    print("failed share: parent {parent:.4f}, change {change:.4f}"
          .format(**report["failed_share"]))
    print("all runs correct: parent {parent}, change {change}"
          .format(**report["correct"]))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
