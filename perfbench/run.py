#!/usr/bin/env python3
"""The secbus benchmark: one command per workload run.

    python3 perfbench/run.py --workload attack_grid --seed 7 --seconds 20 --trace 0

Builds the measuring binary from the sources of this checkout (into
$CARGO_TARGET_DIR, default .bench_build), generates the workload's campaign
from --seed, measures for --seconds, checks the outputs, prints every metric
with its unit and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
Exits 0 only when every check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402
import campaigns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attack_grid", "datapath_busy", "fleet_loopback")
# The first run of a checkout builds; later runs must finish in 180 s.
BINARY_TIMEOUT_S = 150


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out_dir):
    """Configures once, then (re)builds the binary; returns its path."""
    for needed in ("CMakeLists.txt", "src", str(campaigns.ATTACK_GRID_FILE)):
        if not (ROOT / needed).exists():
            die("%s is missing: run from a full checkout of the repository"
                % (ROOT / needed))
    tree = out_dir / "perfbench"
    jobs = str(max(1, os.cpu_count() or 1))
    if not (tree / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(tree, ignore_errors=True)
            die("cmake configure failed", 1)
    cmd = ["cmake", "--build", str(tree), "--target", "secbus_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed", 1)
    return tree / "secbus_perfbench"


def source_digest():
    """Identifies the code under test when the checkout is not a git tree."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(HERE.glob("*.cpp")) + [HERE / "CMakeLists.txt"]
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def environment_stamp(binary_stamp):
    stamp = {"nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0))}
    stamp.update(binary_stamp)
    stamp["commit"] = git_commit()
    stamp["source"] = source_digest()
    return stamp


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as f:
        return json.load(f)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=campaigns.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this run's outputs "
                        "(default seed only; for intended output changes)")
    args = p.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not 0 <= args.seed < 2 ** 64:
        die("--seed must fit in 64 unsigned bits")

    out = build_dir()
    binary = build(out)

    work = out / "runs" / ("%s-seed%d-trace%d-%d" % (args.workload, args.seed,
                                                     args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        campaign_path = work / "campaign.json"
        campaigns.write(campaigns.for_workload(args.workload, ROOT, args.seed),
                        campaign_path)
        raw_path = work / "raw.json"
        cmd = [str(binary), "--workload", args.workload,
               "--campaign", str(campaign_path), "--seconds", str(seconds),
               "--trace", str(args.trace), "--workdir", str(work / "w"),
               "--out", str(raw_path)]
        try:
            proc = subprocess.run(cmd, timeout=BINARY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("measurement exceeded %d s" % BINARY_TIMEOUT_S, 1)
        if proc.returncode != 0:
            die("measuring binary exited with %d" % proc.returncode, 1)
        with open(raw_path, encoding="utf-8") as f:
            doc = json.load(f)
        report(args, bench, doc)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, bench, doc):
    name = doc["name"]
    jobs = doc["jobs"]
    audits = [analysis.lease_stats(analysis.read_audit(r["audit_log"]))
              if Path(r.get("audit_log", "")).is_file() else
              {"holds": [], "gaps": [], "refusals": 0, "regrants": 0}
              for r in doc["reps"]] if args.workload == "fleet_loopback" else []

    # Reference digest: the default seed's outputs are committed.
    reference = load_reference()
    baseline = doc["baseline_dir"]
    reference_bad = 0
    reference_note = "no committed digest for seed %d" % args.seed
    if args.record_reference:
        if args.seed != reference["seed"]:
            die("--record-reference needs the default seed %d"
                % reference["seed"])
        reference["artifacts"][name] = analysis.artifact_digests(baseline, name)
        with open(HERE / "reference.json", "w", encoding="utf-8") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.seed == reference["seed"] and name in reference["artifacts"]:
        identical, reference_bad = analysis.check_reference(
            baseline, name, reference["artifacts"][name], jobs)
        reference_note = ("seed %d outputs match the committed digest" % args.seed
                          if identical else
                          "seed %d outputs DIFFER from the committed digest "
                          "(%d job row(s))" % (args.seed, reference_bad))
    attempted, failed = analysis.correctness(doc, reference_bad)
    correct = failed == 0

    if args.trace:
        values = analysis.per_layer(doc, audits)
        spec = bench["per_layer"]
        samples_note = "%d traced job spans" % sum(
            len(g) for g in analysis.job_groups(doc["spans"]))
    else:
        values, samples = analysis.end_to_end(doc)
        spec = bench["end_to_end"]
        samples_note = ("job_ms over %d jobs, each its median over the timed "
                        "reps (%s)" % (
            samples, "shard grant->result time / jobs in the shard"
            if args.workload == "fleet_loopback" else "per-job host wall"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}

    stamp = environment_stamp(doc["stamp"])
    reps = doc["reps"]
    identical = sum(1 for r in reps if r.get("artifacts_identical"))
    print("perfbench %s seed=%d trace=%d: %d rep(s) x %d job(s), %s"
          % (args.workload, args.seed, args.trace, len(reps), jobs, samples_note))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    width = max(len(n) for n in metrics)
    for n, m in metrics.items():
        print("  %-*s %16.6g %s" % (width, n, m["value"], m["unit"]))
    print("  %-*s %16.6g ratio (%d failed or lost of %d attempted)"
          % (width, "jobs_failed_frac", analysis.ratio(failed, attempted),
             failed, attempted))
    print("check: %d/%d rep(s) byte-identical to the %s; %s"
          % (identical, len(reps),
             "in-process reference run" if args.workload == "fleet_loopback"
             else "first rep", reference_note))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    saved = build_dir() / "results"
    saved.mkdir(parents=True, exist_ok=True)
    with open(saved / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                  args.trace)),
              "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "stamp": stamp, "time": time.time(),
                   **result}, f, indent=1, sort_keys=True)
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
