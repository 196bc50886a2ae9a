// Shard determinism + checkpoint resume: the tentpole guarantees.
//
// For every example campaign, the merged union of N shard runs — executed
// through the real shard files on disk — must be byte-identical (cells CSV,
// jobs CSV and campaign JSON) to the unsharded run, for N in {1, 2, 4, 7}
// (one shard is the path every plain `campaign run` takes); and an
// interrupted shard must resume from its checkpoint without re-running or
// duplicating jobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "campaign/shard.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "util/csv.hpp"
#include "util/jsonl.hpp"

namespace secbus::campaign {
namespace {

std::string example_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/examples/campaigns/" + name;
}

std::vector<scenario::ScenarioSpec> load_and_expand(const std::string& file) {
  CampaignSpec spec;
  std::string error;
  EXPECT_TRUE(load_campaign_file(file, spec, &error)) << error;
  return expand_campaign(spec);
}

std::string campaign_name_of(const std::string& file) {
  CampaignSpec spec;
  std::string error;
  EXPECT_TRUE(load_campaign_file(file, spec, &error)) << error;
  return spec.name;
}

// A CSV rendered to a string (CsvWriter wants a path; go through tmp).
template <typename Write>
std::string csv_text(const std::string& tag, Write write) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("secbus_csv_" + std::to_string(::getpid()) + "_" + tag + ".csv"))
          .string();
  {
    util::CsvWriter csv(path);
    write(csv);
    csv.flush();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  return text;
}

std::string cells_csv_text(const CampaignReport& report) {
  return csv_text(report.name + "_cells",
                  [&](util::CsvWriter& csv) { write_cells_csv(csv, report); });
}

std::string jobs_csv_text(const std::string& name,
                          const std::vector<scenario::JobResult>& results) {
  return csv_text(name + "_jobs", [&](util::CsvWriter& csv) {
    scenario::write_batch_csv(csv, results);
  });
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_shard_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

unsigned pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void expect_sharded_equals_unsharded(const std::string& campaign_file,
                                     std::size_t shards) {
  const std::vector<scenario::ScenarioSpec> specs =
      load_and_expand(campaign_file);
  const std::string name = campaign_name_of(campaign_file);

  scenario::BatchOptions direct_opts;
  direct_opts.threads = pool_threads();
  const std::vector<scenario::JobResult> direct =
      scenario::run_batch(specs, direct_opts);
  const CampaignReport direct_report = CampaignReport::from(name, direct);
  const std::string direct_json = campaign_json(direct_report);
  const std::string direct_cells = cells_csv_text(direct_report);
  const std::string direct_jobs = jobs_csv_text(name, direct);

  // Run every shard independently, persist through real shard files, merge.
  TempDir dir(name + "-" + std::to_string(shards));
  const std::uint64_t grid_fp = grid_fingerprint(specs);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards; ++s) {
    ShardRunOptions run;
    run.shard = s;
    run.shards = shards;
    run.threads = pool_threads();
    const ShardRunOutcome outcome = run_shard(specs, run);
    const std::string path = dir.file(shard_file_name(name, s, shards));
    std::string error;
    ASSERT_TRUE(write_shard_file(
        path, to_shard_file(name, outcome, s, shards, grid_fp), &error))
        << error;
    paths.push_back(path);
  }

  std::string merged_name;
  std::vector<scenario::JobResult> merged;
  std::string error;
  ASSERT_TRUE(merge_shard_files(paths, &merged_name, &merged, &error))
      << error;
  EXPECT_EQ(merged_name, name);
  ASSERT_EQ(merged.size(), direct.size());

  const CampaignReport merged_report = CampaignReport::from(name, merged);
  EXPECT_EQ(campaign_json(merged_report), direct_json)
      << campaign_file << " with " << shards << " shards";
  EXPECT_EQ(cells_csv_text(merged_report), direct_cells)
      << campaign_file << " with " << shards << " shards";
  EXPECT_EQ(jobs_csv_text(name, merged), direct_jobs)
      << campaign_file << " with " << shards << " shards";
}

TEST(ShardDeterminism, CiSmokeMergesByteIdentical) {
  for (const std::size_t shards : {1, 2, 4, 7}) {
    expect_sharded_equals_unsharded(example_path("ci_smoke.json"), shards);
  }
}

TEST(ShardDeterminism, AttackGridMergesByteIdentical) {
  for (const std::size_t shards : {1, 2, 4, 7}) {
    expect_sharded_equals_unsharded(example_path("attack_grid.json"), shards);
  }
}

TEST(ShardDeterminism, PlacementMeshMergesByteIdentical) {
  for (const std::size_t shards : {1, 2, 4, 7}) {
    expect_sharded_equals_unsharded(example_path("placement_mesh.json"),
                                    shards);
  }
}

TEST(ShardPlan, RoundRobinCoversEveryJobExactlyOnce) {
  const std::size_t jobs = 23;
  const std::size_t shards = 4;
  std::vector<int> seen(jobs, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    for (const std::size_t i : shard_indices(jobs, s, shards)) {
      ASSERT_LT(i, jobs);
      EXPECT_EQ(shard_of(i, shards), s);
      ++seen[i];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardPlan, FingerprintsSeeEveryFieldOfTheSpec) {
  const std::vector<scenario::ScenarioSpec> specs =
      load_and_expand(example_path("ci_smoke.json"));
  scenario::ScenarioSpec tweaked = specs[0];
  tweaked.max_cycles += 1;
  EXPECT_NE(spec_fingerprint(specs[0]), spec_fingerprint(tweaked));
  scenario::ScenarioSpec tweaked_seed = specs[0];
  tweaked_seed.soc.seed ^= 1;
  EXPECT_NE(spec_fingerprint(specs[0]), spec_fingerprint(tweaked_seed));
  EXPECT_EQ(spec_fingerprint(specs[0]), spec_fingerprint(specs[0]));
}

// Checkpoints, shard files and fleet logs written by earlier builds carry
// these fingerprints; a build that hashes differently would silently re-run
// every checkpointed job and refuse every logged shard on resume. The
// values were recorded with the printf-based JSON writer.
TEST(ShardPlan, AttackGridFingerprintsMatchRecordedValues) {
  const std::vector<scenario::ScenarioSpec> specs =
      load_and_expand(example_path("attack_grid.json"));
  ASSERT_EQ(specs.size(), 576u);
  const std::vector<std::uint64_t> fps = spec_fingerprints(specs);
  ASSERT_EQ(fps.size(), specs.size());
  EXPECT_EQ(fps[0], 3044167012942689375ULL);
  EXPECT_EQ(grid_fingerprint(fps), 13876320070343341134ULL);
  EXPECT_EQ(grid_fingerprint(specs), grid_fingerprint(fps));
  for (std::size_t i = 0; i < specs.size(); i += 97) {
    EXPECT_EQ(fps[i], spec_fingerprint(specs[i])) << "job " << i;
  }
}

TEST(ShardMerge, RejectsIncompleteAndForeignShardSets) {
  const std::vector<scenario::ScenarioSpec> specs =
      load_and_expand(example_path("ci_smoke.json"));
  const std::string name = campaign_name_of(example_path("ci_smoke.json"));
  TempDir dir("merge-guards");
  const std::uint64_t grid_fp = grid_fingerprint(specs);

  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 2; ++s) {
    ShardRunOptions run;
    run.shard = s;
    run.shards = 2;
    run.threads = pool_threads();
    const ShardRunOutcome outcome = run_shard(specs, run);
    const std::string path = dir.file(shard_file_name(name, s, 2));
    std::string error;
    ASSERT_TRUE(write_shard_file(
        path, to_shard_file(name, outcome, s, 2, grid_fp), &error))
        << error;
    paths.push_back(path);
  }

  std::string error;
  // Missing shard 1: must refuse, not emit a partial campaign.
  EXPECT_FALSE(merge_shard_files({paths[0]}, nullptr, nullptr, &error));
  // Duplicate shard 0: must refuse.
  error.clear();
  EXPECT_FALSE(
      merge_shard_files({paths[0], paths[0]}, nullptr, nullptr, &error));
  // A shard whose grid fingerprint disagrees: must refuse.
  ShardRunOptions run;
  run.shard = 1;
  run.shards = 2;
  run.threads = pool_threads();
  const ShardRunOutcome outcome = run_shard(specs, run);
  const std::string foreign = dir.file("foreign.json");
  error.clear();
  ASSERT_TRUE(write_shard_file(
      foreign, to_shard_file(name, outcome, 1, 2, grid_fp ^ 1), &error))
      << error;
  error.clear();
  EXPECT_FALSE(
      merge_shard_files({paths[0], foreign}, nullptr, nullptr, &error));
  EXPECT_NE(error.find("disagrees"), std::string::npos);

  // The intact pair still merges.
  error.clear();
  EXPECT_TRUE(merge_shard_files(paths, nullptr, nullptr, &error)) << error;
}

TEST(ShardMerge, MoreShardsThanJobsStillMergesCleanly) {
  // 30-job campaign sliced 33 ways: the last shards own no jobs but must
  // still stamp their own index (regression: empty slices once claimed
  // shard 0, tripping the duplicate-shard guard on merge).
  const std::string file = example_path("placement_mesh.json");
  const std::vector<scenario::ScenarioSpec> specs = load_and_expand(file);
  const std::string name = campaign_name_of(file);
  const std::size_t shards = specs.size() + 3;
  TempDir dir("empty-slices");
  const std::uint64_t grid_fp = grid_fingerprint(specs);

  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards; ++s) {
    ShardRunOptions run;
    run.shard = s;
    run.shards = shards;
    run.threads = pool_threads();
    const ShardRunOutcome outcome = run_shard(specs, run);
    if (s >= specs.size()) EXPECT_TRUE(outcome.indices.empty());
    const std::string path = dir.file(shard_file_name(name, s, shards));
    std::string error;
    ASSERT_TRUE(write_shard_file(
        path, to_shard_file(name, outcome, s, shards, grid_fp), &error))
        << error;
    paths.push_back(path);
  }
  std::string merged_name;
  std::vector<scenario::JobResult> merged;
  std::string error;
  ASSERT_TRUE(merge_shard_files(paths, &merged_name, &merged, &error))
      << error;
  EXPECT_EQ(merged.size(), specs.size());
}

TEST(Checkpoint, ResumeSkipsCompletedJobsWithoutDuplication) {
  const std::vector<scenario::ScenarioSpec> specs =
      load_and_expand(example_path("ci_smoke.json"));
  TempDir dir("checkpoint");
  const std::string ckpt = dir.file("shard0.ckpt.jsonl");

  // Phase 1: "crash" after the first 10 jobs of shard 0/2 — simulated by
  // running only a prefix of the shard slice with checkpointing on.
  const std::vector<std::size_t> slice = shard_indices(specs.size(), 0, 2);
  ASSERT_GT(slice.size(), 10u);
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(ckpt));
    scenario::BatchOptions opts;
    opts.threads = pool_threads();
    opts.indices =
        std::vector<std::size_t>(slice.begin(), slice.begin() + 10);
    // No gtest assertions inside the callback: it runs on worker threads.
    opts.on_job_done = [&](const scenario::JobResult& r, std::size_t,
                           std::size_t) {
      (void)writer.append(r, spec_fingerprint(specs[r.index]));
    };
    (void)scenario::run_batch(specs, opts);
    ASSERT_TRUE(writer.ok());
  }

  // Phase 2: resume the full shard against the same checkpoint. Completion
  // callbacks run concurrently (the runner no longer serializes them), so
  // the counter is atomic.
  std::atomic<std::size_t> executed_jobs{0};
  ShardRunOptions run;
  run.shard = 0;
  run.shards = 2;
  run.threads = pool_threads();
  run.checkpoint_path = ckpt;
  const std::vector<std::uint64_t> spec_fps = spec_fingerprints(specs);
  run.spec_fps = spec_fps;
  run.on_job_done = [&](const scenario::JobResult&, std::size_t,
                        std::size_t) { ++executed_jobs; };
  const ShardRunOutcome outcome = run_shard(specs, run);
  EXPECT_EQ(outcome.resumed, 10u);
  EXPECT_EQ(outcome.executed, slice.size() - 10);
  EXPECT_EQ(executed_jobs, slice.size() - 10);  // resumed jobs never re-ran

  // The checkpoint holds each shard job exactly once (resume appended only
  // the remainder), and a third run resumes everything.
  std::vector<util::Json> records;
  ASSERT_TRUE(util::read_jsonl(ckpt, records));
  EXPECT_EQ(records.size(), slice.size());
  const ShardRunOutcome replay = run_shard(specs, run);
  EXPECT_EQ(replay.resumed, slice.size());
  EXPECT_EQ(replay.executed, 0u);

  // Resumed results equal directly-computed results bit-for-bit (probe the
  // campaign JSON, which folds every field the reports use).
  scenario::BatchOptions direct_opts;
  direct_opts.threads = pool_threads();
  direct_opts.indices = slice;
  const std::vector<scenario::JobResult> direct =
      scenario::run_batch(specs, direct_opts);
  std::vector<scenario::JobResult> direct_slice;
  std::vector<scenario::JobResult> resumed_slice;
  for (const std::size_t i : slice) {
    direct_slice.push_back(direct[i]);
    resumed_slice.push_back(replay.results[i]);
  }
  EXPECT_EQ(campaign_json(CampaignReport::from("ck", direct_slice)),
            campaign_json(CampaignReport::from("ck", resumed_slice)));
}

TEST(Checkpoint, StaleFingerprintsAreIgnored) {
  const std::vector<scenario::ScenarioSpec> specs =
      load_and_expand(example_path("ci_smoke.json"));
  TempDir dir("stale");
  const std::string ckpt = dir.file("stale.ckpt.jsonl");

  // Checkpoint one job, then "edit the campaign": bump every cycle cap.
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(ckpt));
    scenario::BatchOptions opts;
    opts.indices = std::vector<std::size_t>{0};
    opts.on_job_done = [&](const scenario::JobResult& r, std::size_t,
                           std::size_t) {
      (void)writer.append(r, spec_fingerprint(specs[r.index]));
    };
    (void)scenario::run_batch(specs, opts);
    ASSERT_TRUE(writer.ok());
  }
  std::vector<scenario::ScenarioSpec> edited = specs;
  for (scenario::ScenarioSpec& spec : edited) spec.max_cycles += 1;

  std::vector<scenario::JobResult> results(edited.size());
  std::vector<char> done(edited.size(), 0);
  EXPECT_EQ(load_checkpoint(ckpt, spec_fingerprints(edited), results, done),
            0u);
  // Unedited specs still restore.
  std::vector<scenario::JobResult> results2(specs.size());
  std::vector<char> done2(specs.size(), 0);
  EXPECT_EQ(load_checkpoint(ckpt, spec_fingerprints(specs), results2, done2),
            1u);
}

}  // namespace
}  // namespace secbus::campaign
