#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and records it.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--runs 10] [--first-seed 1] [--seconds 10] [--trace 0]
        [--record perfbench/spread.json]

Runs `run.py` once per seed (first-seed, first-seed + 1, ...), then prints
for each metric the median, the quartiles as statistics.quantiles(n=4)
gives them, and the spread (q3 - q1) / median next to a third of the
metric's bound in BENCHMARK.json. With --record, the figures are merged
into that JSON file under the workload's name.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    recorded = {}
    if args.record and os.path.exists(args.record):
        with open(args.record) as f:
            recorded = json.load(f)

    ok = True
    for workload in args.workload:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if res.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        summary = {}
        for name, vals in values.items():
            med, q1, q3, spread = layers.quartile_spread(vals)
            limit = bounds.get(name)
            steady = limit is None or name == "setup_s" or spread <= limit / 3
            ok = ok and steady
            print(f"  {name:34s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:8.4f}"
                  + ("" if limit is None else f"  (bound/3 {limit / 3:.4f})")
                  + ("" if steady else "  NOT STEADY"))
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "runs": len(vals)}
        recorded[workload + ("/trace" if args.trace else "")] = {"seeds": [args.first_seed,
                                        args.first_seed + args.runs - 1],
                              "seconds": args.seconds,
                              "trace": args.trace, "metrics": summary}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(recorded, f, indent=2)
            f.write("\n")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
