#!/usr/bin/env python3
"""Repeat and compare modes of the performance ledger (see README.md).

  ledger.py repeat --bin PATH --runs N [--seed S] [--seconds T]
                   [--workload NAME|all] [--work-dir DIR] --out FILE
      Runs every selected workload N times, alternating the workload order
      from run to run; run i uses seed S + i. Prints the median and quartiles
      of every end-to-end metric and writes all values to FILE.

  ledger.py compare A.json B.json --benchmark BENCHMARK.json
      Reads two repeat files (A = parent, B = change) and prints a verdict
      per workload x end-to-end metric: better, same, worse, or unresolved
      when the run-to-run spread is wider than the metric's bound. Exits 1
      when any verdict is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["serve_open_small", "serve_closed_large", "train_missl"]


def summary(values):
    """Median, first and third quartile as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def repeat(args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: {"metrics": {}, "correct": [], "failed": []}
               for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = [args.bin, "--workload", w, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--work-dir", args.work_dir]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"run {i} {w}: no result line (exit {proc.returncode})",
                      file=sys.stderr)
                ok = False
                continue
            entry = results[w]
            entry["correct"].append(result["correct"])
            entry["failed"].append(result["failed"])
            ok = ok and result["correct"] and proc.returncode == 0
            for name, m in result["metrics"].items():
                slot = entry["metrics"].setdefault(
                    name, {"unit": m["unit"], "values": []})
                slot["values"].append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed={args.seed + i} "
                  f"correct={result['correct']} failed={result['failed']}",
                  flush=True)
    print(f"\n{'workload':20} {'metric':18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} unit")
    for w, entry in results.items():
        for name, slot in entry["metrics"].items():
            med, q1, q3 = summary(slot["values"])
            slot.update(median=med, q1=q1, q3=q3)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{w:20} {name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {slot['unit']}")
    with open(args.out, "w") as f:
        json.dump({"runs": args.runs, "seed": args.seed,
                   "seconds": args.seconds, "workloads": results}, f,
                  indent=1)
    print(f"\nwritten to {args.out}")
    return 0 if ok else 1


def verdict(a, b, better, bound):
    """Verdict for change B against parent A on one metric."""
    ma, q1a, q3a = summary(a)
    mb, q1b, q3b = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / ma          # > 0: B is worse
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    is_better = (lambda x, y: x < y) if better == "lower" else \
        (lambda x, y: x > y)
    every_run_better = all(is_better(x, y) for x in b for y in a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if is_better(y, x))
    if spread > bound and not every_run_better:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if (every_run_better or
            (-worse_by > (q3a - q1a) / ma and wins >= 0.9 * len(pairs))):
        return "better", worse_by, spread
    return "same", worse_by, spread


def compare(args):
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.a) as f:
        runs_a = json.load(f)["workloads"]
    with open(args.b) as f:
        runs_b = json.load(f)["workloads"]
    print(f"{'workload':20} {'metric':18} {'verdict':11} {'change':>8} "
          f"{'spread':>8} {'bound':>7}")
    worse = False
    for w in runs_a:
        if w not in runs_b:
            continue
        for m in metrics:
            a = runs_a[w]["metrics"].get(m["name"], {}).get("values")
            b = runs_b[w]["metrics"].get(m["name"], {}).get("values")
            if not a or not b:
                continue
            v, worse_by, spread = verdict(a, b, m["better"], m["bound"])
            worse = worse or v == "worse"
            print(f"{w:20} {m['name']:18} {v:11} {-worse_by:+8.2%} "
                  f"{spread:8.2%} {m['bound']:7.2%}")
    print("(change: positive = better; spread: widest relative quartile "
          "distance of the two sides)")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("repeat")
    r.add_argument("--bin", required=True)
    r.add_argument("--runs", type=int, required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=20)
    r.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    r.add_argument("--work-dir", default=".bench_build/ledger-work")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--benchmark", required=True)
    args = parser.parse_args()
    if args.mode == "repeat" and args.runs < 1:
        parser.error("--runs must be >= 1")
    return repeat(args) if args.mode == "repeat" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
