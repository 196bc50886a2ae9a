#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly and prints, for each
metric, the median, the quartiles, the interquartile range and the full
range as shares of the median.

    python3 perfbench/steadiness.py --workload attack_grid --runs 10

Run i uses seed --seed0 + i. The quartiles are statistics.quantiles(n=4),
the rule the acceptance check uses; a metric whose IQR/median exceeds a
third of its bound is flagged WIDE. Values are also saved under
$CARGO_TARGET_DIR/steadiness/ (default .bench_build) for later study.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = lambda x: x / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": share(q3 - q1),
            "range_share": share(max(values) - min(values))}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True,
                   choices=run.WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in
            bench["per_layer" if args.trace else "end_to_end"]}
    out_dir = run.build_dir() / "steadiness"
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = False
    for workload in args.workload:
        values = {name: [] for name in spec}
        for i in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed0 + i), "--trace", str(args.trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s run %d failed (exit %d):\n%s" % (
                    workload, i, proc.returncode, proc.stderr[-2000:]))
                failed = True
                continue
            result = json.loads(lines[-1])
            for name in spec:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, args.seed0 + i, ", ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items()
                if not args.trace)), flush=True)
        with open(out_dir / ("%s-trace%d.json" % (workload, args.trace)), "w",
                  encoding="utf-8") as f:
            json.dump({"seed0": args.seed0, "values": values}, f, indent=1)
        print("\n%s: %d run(s)" % (workload, len(next(iter(values.values())))))
        print("  %-34s %14s %14s %14s %9s %9s %7s" % (
            "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"))
        for name, v in values.items():
            if len(v) < 2:
                continue
            s = summarize(v)
            bound = spec[name].get("bound")
            wide = bound is not None and s["iqr_share"] > bound / 3
            print("  %-34s %14.6g %14.6g %14.6g %9.4f %9.4f %7s%s" % (
                name, s["median"], s["q1"], s["q3"], s["iqr_share"],
                s["range_share"], "-" if bound is None else bound,
                "  WIDE" if wide else ""))
        print(flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
