"""Tests of the benchmark's own logic (no build, no measurement):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import analysis  # noqa: E402
import campaigns  # noqa: E402

WORKLOADS = ("attack_grid", "datapath_busy", "fleet_loopback")


class CampaignGeneration(unittest.TestCase):
    def test_same_seed_same_campaign(self):
        for w in WORKLOADS:
            a = campaigns.for_workload(w, ROOT, 42)
            b = campaigns.for_workload(w, ROOT, 42)
            self.assertEqual(json.dumps(a, sort_keys=True),
                             json.dumps(b, sort_keys=True), w)

    def test_different_seeds_different_campaigns(self):
        for w in WORKLOADS:
            a = campaigns.for_workload(w, ROOT, 1)
            b = campaigns.for_workload(w, ROOT, 2)
            self.assertNotEqual(json.dumps(a, sort_keys=True),
                                json.dumps(b, sort_keys=True), w)

    def test_fleet_serves_the_attack_grid_campaign(self):
        self.assertEqual(campaigns.for_workload("fleet_loopback", ROOT, 9),
                         campaigns.for_workload("attack_grid", ROOT, 9))

    def test_default_seed_keeps_the_example_campaign(self):
        with open(ROOT / campaigns.ATTACK_GRID_FILE, encoding="utf-8") as f:
            example = json.load(f)
        self.assertEqual(
            campaigns.attack_grid(ROOT, campaigns.DEFAULT_SEED), example)

    def test_datapath_seeds_fit_the_format_cache(self):
        # FormatCache::kMaxEntries is 64.
        self.assertLess(campaigns.DATAPATH_SEEDS, 64)


def audit(t, event, shard, worker, generation=1, epoch=0):
    return {"t_ms": t, "event": event, "shard": shard,
            "generation": generation, "epoch": epoch, "worker": worker}


class LeaseParser(unittest.TestCase):
    FIXTURE = [
        audit(0, "server_start", 0, ""),
        audit(10, "grant", 0, "w0"),
        audit(12, "grant", 1, "w1"),
        audit(30, "extend", 0, "w0"),
        audit(61, "commit", 0, "w0"),
        audit(63, "grant", 2, "w0"),
        audit(70, "release", 1, "w1"),
        audit(75, "reassigned", 1, "w0", generation=2),
        audit(80, "refuse", 1, "w1"),
        audit(110, "commit", 2, "w0"),
        audit(150, "commit", 1, "w0", generation=2),
    ]

    def test_holds_and_gaps(self):
        s = analysis.lease_stats(self.FIXTURE)
        holds = sorted((h["shard"], h["hold_ms"]) for h in s["holds"])
        self.assertEqual(holds, [(0, 51), (1, 75), (2, 47)])
        # w0: commit 61 -> next grant 63 is the only gap; its commits at
        # 110 and 150 are followed by no grant, and w1 never commits.
        self.assertEqual(sorted(s["gaps"]), [2])
        self.assertEqual(s["refusals"], 1)
        self.assertEqual(s["regrants"], 1)

    def test_released_lease_is_not_a_hold(self):
        s = analysis.lease_stats(self.FIXTURE)
        self.assertNotIn(12, [h["grant_ms"] for h in s["holds"]])

    def test_torn_tail_is_ignored(self):
        d = tempfile.mkdtemp()
        try:
            path = Path(d) / "audit.jsonl"
            text = "".join(json.dumps(r) + "\n" for r in self.FIXTURE[:5])
            path.write_text(text + '{"t_ms": 70, "ev')
            self.assertEqual(analysis.read_audit(path), self.FIXTURE[:5])
        finally:
            shutil.rmtree(d)

    def test_fleet_job_walls_spread_holds_over_shard_jobs(self):
        # 5 jobs in 2 shards: shard 0 = jobs 0, 2, 4; shard 1 = jobs 1, 3.
        rep = {"jobs": 5, "shards": 2, "lease_holds": [[0, 30.0], [1, 8.0]]}
        self.assertEqual(analysis.job_walls([rep]), [10.0, 4.0, 10.0, 4.0, 10.0])


class JobWalls(unittest.TestCase):
    def test_each_job_takes_its_median_over_reps(self):
        reps = [{"job_ms": [1.0, 9.0]}, {"job_ms": [3.0, 5.0]},
                {"job_ms": [2.0, 7.0]}]
        self.assertEqual(analysis.job_walls(reps), [2.0, 7.0])

    def test_warmup_rep_is_not_timed(self):
        doc = synthetic_doc()
        doc["reps"].insert(0, dict(doc["reps"][0], warmup=True,
                                   dispatch_s=100.0, job_ms=[1e6]))
        e2e, jobs = analysis.end_to_end(doc)
        self.assertEqual(e2e["jobs_per_s"], 100.0)
        self.assertEqual(e2e["job_ms_p50"], 10.0)
        self.assertEqual(jobs, 1)


class DigestCheck(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        (self.dir / "c.cells.csv").write_bytes(b"cell,rate\na,1\n")
        (self.dir / "c.campaign.json").write_bytes(b'{"campaign": "c"}')
        (self.dir / "c.jobs.csv").write_bytes(b"h\njob0,1\njob1,2\njob2,3\n")
        self.reference = analysis.artifact_digests(self.dir, "c")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def flip(self, name, offset):
        p = self.dir / name
        data = bytearray(p.read_bytes())
        data[offset] ^= 0x01
        p.write_bytes(bytes(data))

    def test_identical_artifacts_pass(self):
        self.assertEqual(
            analysis.check_reference(self.dir, "c", self.reference, 3),
            (True, 0))

    def test_one_byte_in_a_job_row_fails_that_job(self):
        self.flip("c.jobs.csv", len(b"h\njob0,1\njob1,"))
        self.assertEqual(
            analysis.check_reference(self.dir, "c", self.reference, 3),
            (False, 1))

    def test_one_byte_in_the_cells_csv_fails_every_job(self):
        self.flip("c.cells.csv", 3)
        self.assertEqual(
            analysis.check_reference(self.dir, "c", self.reference, 3),
            (False, 3))

    def test_missing_artifact_fails_every_job(self):
        (self.dir / "c.campaign.json").unlink()
        self.assertEqual(
            analysis.check_reference(self.dir, "c", self.reference, 3),
            (False, 3))

    def test_reference_failures_count_in_every_rep(self):
        rep = {"jobs": 3, "emitted": True, "artifacts_identical": True,
               "mismatched_jobs": 0}
        doc = {"reps": [rep, rep]}
        self.assertEqual(analysis.correctness(doc, 0), (6, 0))
        self.assertEqual(analysis.correctness(doc, 1), (6, 2))

    def test_committed_reference_covers_every_workload_campaign(self):
        with open(BENCH / "reference.json", encoding="utf-8") as f:
            ref = json.load(f)
        self.assertEqual(ref["seed"], campaigns.DEFAULT_SEED)
        for w in WORKLOADS:
            name = campaigns.for_workload(w, ROOT, ref["seed"])["name"]
            self.assertIn(name, ref["artifacts"], w)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            self.bench = json.load(f)

    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.bench[key]]
        names += [w["name"] for w in self.bench["workloads"]]
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(analysis.METRIC_NAME.match(n), n)
        self.assertEqual(len(names), len(set(names)))

    def test_units_are_well_formed(self):
        for key in ("end_to_end", "per_layer"):
            for m in self.bench[key]:
                self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_analysis_reports_exactly_the_declared_metrics(self):
        doc = synthetic_doc()
        e2e, _ = analysis.end_to_end(doc)
        self.assertEqual(set(e2e), {m["name"] for m in self.bench["end_to_end"]})
        layers = analysis.per_layer(doc, [])
        self.assertEqual(set(layers),
                         {m["name"] for m in self.bench["per_layer"]})

    def test_workloads_are_the_three_named(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(WORKLOADS))
        self.assertTrue(all(re.match(r"^[^\n]{1,200}$", w["why"])
                            for w in self.bench["workloads"]))


def synthetic_doc():
    """A minimal raw document in the shape the measuring binary writes."""
    attrs = {"idle_cycles": 90, "busy_cycles": 10, "bus_transactions": 4,
             "wait_cycles_sum": 8, "wait_cycles_n": 4, "secpol_reqs": 8,
             "manager_checks": 0, "lines_decrypted": 1, "lines_encrypted": 1,
             "read_modify_writes": 0, "cc_operations": 2,
             "hash_invocations": 6, "cycles": 100, "accesses": 4,
             "ticks": 500, "cache_hits": 0, "cache_misses": 1,
             "build_class": 0, "idle_probe_cycles": 2000}
    spans = [{"id": 1, "parent": 0, "name": "dispatch", "start_ns": 0,
              "end_ns": 10_000, "attrs": {}},
             {"id": 2, "parent": 1, "name": "job", "start_ns": 0,
              "end_ns": 10_000, "attrs": attrs},
             {"id": 3, "parent": 2, "name": "sim.idle_probe", "start_ns": 8000,
              "end_ns": 9000, "attrs": {}}]
    rep = {"traced": False, "jobs": 1, "setup_s": 0.001, "expand_s": 0.0005,
           "dispatch_s": 0.01, "report_s": 0.001, "emit_s": 0.002,
           "accesses": 4, "cycles": 100, "job_ms": [10.0], "cache_hits": 0,
           "cache_misses": 1, "emitted": True, "artifacts_identical": True,
           "mismatched_jobs": 0}
    return {"workload": "attack_grid", "jobs": 1, "peak_rss_mb": 20.0,
            "reps": [rep, dict(rep, traced=True)], "spans": spans,
            "probes": {"check_ns": 10.0, "frame_roundtrip_us": 100.0,
                       "crypto": {"ctr_line_ns": 40.0, "sha256_ns": 200.0,
                                  "tree_verify_ns": 2000.0,
                                  "tree_update_ns": 2000.0},
                       "soc_builds": [{"class": "x", "security": "distributed",
                                       "protection": "cipher+integrity",
                                       "hit_us": 1.0, "miss_us": 3.0}]}}


if __name__ == "__main__":
    unittest.main()
