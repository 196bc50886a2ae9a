#!/usr/bin/env python3
"""Compares two saved benchmark results and flags unlike environments.

    python3 perfbench/compare.py OLD.json NEW.json

run.py saves every result under $CARGO_TARGET_DIR/results/ (default
.bench_build) with its environment stamp. A comparison is only meaningful
between results taken on the same machine setup: when any environment field
of the stamps differs (nproc, CPU affinity, crypto backend and datapaths,
compiler, build type), the comparison is flagged and the exit code is 1.
The code identity (commit, source digest) is expected to differ. One pair
of runs is not a verdict: the acceptance rule works on medians of many runs.
"""

import json
import sys

ENVIRONMENT = ("nproc", "affinity", "hw_threads", "backend", "aes_impl",
               "sha_impl", "compiler", "build_type")


def stamp_differences(old, new):
    return [(k, old["stamp"].get(k), new["stamp"].get(k)) for k in ENVIRONMENT
            if old["stamp"].get(k) != new["stamp"].get(k)]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1], encoding="utf-8") as f:
        old = json.load(f)
    with open(argv[2], encoding="utf-8") as f:
        new = json.load(f)
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        sys.exit("not comparable: %s/trace%d vs %s/trace%d" % (
            old["workload"], old["trace"], new["workload"], new["trace"]))
    diffs = stamp_differences(old, new)
    for key, a, b in diffs:
        print("FLAG: stamps differ in %s: %r vs %r" % (key, a, b))
    for key in ("commit", "source"):
        print("%s: %s -> %s" % (key, old["stamp"].get(key), new["stamp"].get(key)))
    print("%-34s %14s %14s %9s" % ("metric", "old", "new", "change"))
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        print("%-34s %14.6g %14.6g %+8.2f%% %s" % (name, a, b, 100 * change,
                                                   m["unit"]))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
