"""Turns the measuring binary's raw document into the benchmark's metrics.

Pure functions only (no processes, no clocks), so the tests can drive them
on fixtures. Host times are medians over reps; counts are exact.
"""

import hashlib
import json
import math
import re
from pathlib import Path

ARTIFACT_SUFFIXES = (".cells.csv", ".campaign.json", ".jobs.csv")
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def median(values):
    v = sorted(values)
    if not v:
        return 0.0
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def percentile(values, p):
    """Nearest-rank percentile (the simulator's LatencyHistogram rule)."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(v)))
    return v[rank - 1]


def ratio(num, den):
    return num / den if den else 0.0


# --- artifacts and the reference digest -----------------------------------

def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def row_digests(jobs_csv_path):
    """16-hex digest of each job row of a jobs CSV (header excluded)."""
    with open(jobs_csv_path, "rb") as f:
        rows = f.read().split(b"\n")[1:]
    return [hashlib.sha256(r).hexdigest()[:16] for r in rows if r]


def artifact_digests(directory, campaign):
    out = {}
    for suffix in ARTIFACT_SUFFIXES:
        out[suffix.lstrip(".")] = sha256_file(Path(directory) / (campaign + suffix))
    out["job_rows"] = row_digests(Path(directory) / (campaign + ".jobs.csv"))
    return out


def check_reference(directory, campaign, reference, jobs):
    """Compares one artifact set with its committed reference entry.

    Returns (identical, bad_jobs): bad_jobs counts job rows that differ; when
    only the cells CSV or campaign JSON differ, every job counts as bad (the
    difference cannot be pinned on a job)."""
    try:
        got = artifact_digests(directory, campaign)
    except OSError:
        return False, jobs
    identical = got == reference
    want_rows = reference.get("job_rows", [])
    bad = sum(1 for i in range(jobs)
              if i >= len(got["job_rows"]) or i >= len(want_rows)
              or got["job_rows"][i] != want_rows[i])
    if not identical and bad == 0:
        bad = jobs
    return identical, bad


# --- fleet audit log --------------------------------------------------------

def read_audit(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                break  # torn tail: keep the complete prefix
    return records


def lease_stats(records):
    """Lease spans rebuilt from audit records.

    A lease opens at its grant (or reassignment) and is keyed by (epoch,
    shard, generation). A commit closes it as a hold; an expiry or release
    closes it without one. A worker's grant gap is the time from one of its
    commits to its next grant."""
    open_leases = {}
    holds = []
    refusals = 0
    regrants = 0
    for r in records:
        event = r.get("event")
        key = (r.get("epoch", 0), r.get("shard"), r.get("generation"))
        if event in ("grant", "reassigned"):
            open_leases[key] = (r.get("worker", ""), r["t_ms"])
            regrants += event == "reassigned"
        elif event == "commit" and key in open_leases:
            worker, start = open_leases.pop(key)
            holds.append({"worker": worker, "shard": r.get("shard"),
                          "grant_ms": start, "commit_ms": r["t_ms"],
                          "hold_ms": r["t_ms"] - start})
        elif event in ("expire", "release"):
            open_leases.pop(key, None)
        elif event == "refuse":
            refusals += 1
    gaps = []
    grants_by_worker = {}
    for r in records:
        if r.get("event") in ("grant", "reassigned"):
            grants_by_worker.setdefault(r.get("worker", ""), []).append(r["t_ms"])
    for worker, grants in grants_by_worker.items():
        commits = sorted(h["commit_ms"] for h in holds if h["worker"] == worker)
        for c in commits:
            later = [g for g in grants if g >= c]
            if later:
                gaps.append(min(later) - c)
    return {"holds": holds, "gaps": gaps, "refusals": refusals,
            "regrants": regrants}


# --- correctness ------------------------------------------------------------

def rep_failures(rep):
    """Failed or lost jobs of one rep, by the binary's own comparison."""
    jobs = rep["jobs"]
    if not rep.get("emitted", False):
        return jobs
    bad = rep.get("mismatched_jobs", 0) + rep.get("lost_jobs", 0)
    if not rep.get("artifacts_identical", False) and bad == 0:
        bad = jobs
    return min(bad, jobs)


def correctness(doc, reference_bad):
    """(attempted, failed) over every rep of the run. `reference_bad` is the
    number of baseline jobs that mismatch the committed reference (0 when no
    reference applies); every rep inherits them, since each rep is checked
    against the baseline."""
    attempted = sum(r["jobs"] for r in doc["reps"])
    failed = sum(min(r["jobs"], rep_failures(r) + reference_bad)
                 for r in doc["reps"])
    if doc.get("reference") is not None and not doc["reference"].get("emitted"):
        failed = attempted
    return attempted, failed


# --- end-to-end metrics -----------------------------------------------------

def timed(reps):
    """Reps that count in timing statistics: all but the warm-up rep."""
    return [r for r in reps if not r.get("warmup")]


def job_walls(reps):
    """Each job's host wall in ms, as the median over reps.

    In-process, a job's wall runs from the previous job's completion to its
    own on the single runner thread. In the fleet, each shard's grant->result
    time at the server is spread evenly over the shard's jobs. Taking each
    job's median first keeps the percentiles of a multi-modal job mix (fast
    centralized and slow distributed jobs in datapath_busy) from jumping
    between modes with run-to-run noise."""
    per_job = {}
    for rep in reps:
        if "lease_holds" in rep:
            shards = rep["shards"]
            for shard, hold_ms in rep["lease_holds"]:
                jobs = range(shard, rep["jobs"], shards)
                for j in jobs:
                    per_job.setdefault(j, []).append(hold_ms / len(jobs))
        else:
            for j, ms in enumerate(rep["job_ms"]):
                per_job.setdefault(j, []).append(ms)
    return [median(v) for _, v in sorted(per_job.items())]


def end_to_end(doc):
    reps = timed(r for r in doc["reps"] if not r.get("traced"))
    per_s = lambda key: median(ratio(r.get(key, 0), r["dispatch_s"]) for r in reps)
    walls = job_walls(reps)
    return {
        "jobs_per_s": per_s("jobs"),
        "sim_accesses_per_s": per_s("accesses"),
        "sim_cycles_per_s": per_s("cycles"),
        "job_ms_p50": percentile(walls, 50),
        "job_ms_p95": percentile(walls, 95),
        "setup_s": median(r["setup_s"] for r in reps),
        "peak_rss_mb": doc["peak_rss_mb"],
    }, len(walls)


# --- per-layer metrics (traced run) ----------------------------------------

def job_groups(spans):
    """Job spans grouped by their parent (one group per traced batch), each
    job paired with its idle-probe duration."""
    idle = {}
    for s in spans:
        if s["name"] == "sim.idle_probe":
            idle[s["parent"]] = s["end_ns"] - s["start_ns"]
    groups = {}
    for s in spans:
        if s["name"] == "job":
            groups.setdefault(s["parent"], []).append(
                (s, idle.get(s["id"], 0)))
    return [groups[k] for k in sorted(groups)]


def net_wall_ns(job, idle_ns):
    return job["end_ns"] - job["start_ns"] - idle_ns


def build_cost_us(job, builds):
    b = builds[job["attrs"]["build_class"]]
    return b["miss_us"] if job["attrs"]["cache_misses"] > 0 else b["hit_us"]


def explained_ns(job, idle_ns, probes):
    """Sum of unit cost x op count for one job: its SoC build, every cycle
    at the idle-cycle price, every CTR line, every SHA-256 invocation and
    every security-policy check."""
    a = job["attrs"]
    crypto = probes["crypto"]
    idle_per_cycle = idle_ns / a["idle_probe_cycles"]
    return (build_cost_us(job, probes["soc_builds"]) * 1e3
            + a["cycles"] * idle_per_cycle
            + a["cc_operations"] * crypto["ctr_line_ns"]
            + a["hash_invocations"] * crypto["sha256_ns"]
            + a["secpol_reqs"] * probes["check_ns"])


def per_layer(doc, audits):
    probes = doc["probes"]
    builds = probes["soc_builds"]
    groups = job_groups(doc["spans"])
    first = groups[0]
    total = lambda key: sum(j["attrs"][key] for j, _ in first)
    walls = [sum(net_wall_ns(j, i) for j, i in g) for g in groups]
    cycles = total("cycles")
    idle, busy = total("idle_cycles"), total("busy_cycles")
    builds_us = [sum(build_cost_us(j, builds) for j, _ in g) for g in groups]
    explained = [sum(explained_ns(j, i, probes) for j, i in g) for g in groups]

    reps = timed(doc["reps"])
    untraced = [r for r in reps if not r.get("traced")]
    traced = [r for r in reps if r.get("traced")]
    jps = lambda rs: median(ratio(r["jobs"], r["dispatch_s"]) for r in rs)
    fleet = doc["workload"] == "fleet_loopback"
    # The in-process caches are deterministic with one runner thread; the
    # fleet's three workers race for first formats, so take the median.
    cache_reps = reps if fleet else doc["reps"][:1]
    hits = median(r["cache_hits"] for r in cache_reps)
    misses = median(r["cache_misses"] for r in cache_reps)

    full = [b for b in builds if b["security"] == "distributed"
            and b["protection"] == "cipher+integrity"]
    formats = full or [b for b in builds if b["security"] == "distributed"]

    m = {
        "sim.cycles": cycles,
        "sim.component_ticks": total("ticks"),
        "sim.idle_cycle_ns": median(i / j["attrs"]["idle_probe_cycles"]
                                    for g in groups for j, i in g),
        "sim.host_ns_per_cycle": median(ratio(w, cycles) for w in walls),
        "bus.idle_frac": ratio(idle, idle + busy),
        "bus.transactions": total("bus_transactions"),
        "bus.wait_cycles_mean": ratio(total("wait_cycles_sum"),
                                      total("wait_cycles_n")),
        "core.secpol_reqs": total("secpol_reqs"),
        "core.check_ns": probes["check_ns"],
        "core.manager.checks_served": total("manager_checks"),
        "core.lcf.lines_decrypted": total("lines_decrypted"),
        "core.lcf.lines_encrypted": total("lines_encrypted"),
        "core.lcf.read_modify_writes": total("read_modify_writes"),
        "core.format_cache.hits": hits,
        "core.format_cache.misses": misses,
        "core.format_cache.hit_rate": ratio(hits, hits + misses),
        "crypto.ctr_line_ns": probes["crypto"]["ctr_line_ns"],
        "crypto.sha256_ns": probes["crypto"]["sha256_ns"],
        "crypto.tree_verify_ns": probes["crypto"]["tree_verify_ns"],
        "crypto.tree_update_ns": probes["crypto"]["tree_update_ns"],
        "crypto.cc_operations": total("cc_operations"),
        "crypto.hash_invocations": total("hash_invocations"),
        "crypto.format_ms": median((b["miss_us"] - b["hit_us"]) / 1e3
                                   for b in formats),
        "soc.build_us_hit": ratio(sum(builds[j["attrs"]["build_class"]]["hit_us"]
                                      for j, _ in first), len(first)),
        "soc.build_us_miss": ratio(sum(builds[j["attrs"]["build_class"]]["miss_us"]
                                       for j, _ in first), len(first)),
        "scenario.build_frac": median(ratio(b * 1e3, w)
                                      for b, w in zip(builds_us, walls)),
        "scenario.simulate_frac": median(1 - ratio(b * 1e3, w)
                                         for b, w in zip(builds_us, walls)),
        "campaign.expand_ms": median(r["expand_s"] * 1e3 for r in reps),
        "campaign.report_ms": median(r["report_s"] * 1e3 for r in reps),
        "campaign.emit_ms": median(r["emit_s"] * 1e3 for r in reps),
        "campaign.merge_ms": 0.0,
        "campaign.fleet.lease_hold_ms_p50": 0.0,
        "campaign.fleet.lease_hold_ms_p95": 0.0,
        "campaign.fleet.grant_gap_ms_p50": 0.0,
        "campaign.fleet.overhead_frac": 0.0,
        "campaign.fleet.regrants": 0,
        "campaign.fleet.refusals": 0,
        "net.frames": 0,
        "net.bytes": 0,
        "net.frame_roundtrip_us": probes["frame_roundtrip_us"],
        "trace.overhead_frac": 1 - ratio(jps(traced), jps(untraced)),
        "trace.explained_frac": median(ratio(e, w)
                                       for e, w in zip(explained, walls)),
    }
    if fleet:
        # The traced reference run is the in-process run of the same jobs:
        # its per-job walls are the compute inside each lease. Times come
        # from the timed reps; failure counts from every rep.
        compute_ms = walls[0] / 1e6
        timed_audits = [a for a, r in zip(audits, doc["reps"])
                        if not r.get("warmup")]
        holds = [h["hold_ms"] for a in timed_audits for h in a["holds"]]
        compute_share = [ratio(compute_ms, sum(h["hold_ms"] for h in a["holds"]))
                         for a in timed_audits]
        m.update({
            "campaign.merge_ms": median(r["merge_s"] * 1e3 for r in traced),
            "campaign.fleet.lease_hold_ms_p50": percentile(holds, 50),
            "campaign.fleet.lease_hold_ms_p95": percentile(holds, 95),
            "campaign.fleet.grant_gap_ms_p50":
                percentile([g for a in timed_audits for g in a["gaps"]], 50),
            "campaign.fleet.overhead_frac": 1 - median(compute_share),
            "campaign.fleet.regrants": sum(a["regrants"] for a in audits),
            "campaign.fleet.refusals": sum(a["refusals"] for a in audits),
            "net.frames": median(r["net_frames"] for r in reps),
            "net.bytes": median(r["net_bytes"] for r in reps),
            "trace.explained_frac": median(compute_share),
        })
    return m
