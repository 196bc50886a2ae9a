// Exhaustive torn-tail tolerance for the crash-safe JSONL sidecars.
//
// A chaos-killed (or power-cut) worker can leave its checkpoint or
// progress file truncated at *any* byte. These tests take real files
// written by the real writers and replay a copy truncated at every byte
// offset of the final records: replay must never crash, must restore
// exactly the records whose content bytes survived in full, and must
// never surface a partial record. This is the property that makes lease
// reassignment a resume instead of a gamble.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {
namespace {

std::string example_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/examples/campaigns/" + name;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_torn_" + std::to_string(::getpid()) + "_" + tag);
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

// First `count` specs of the ci-smoke campaign: enough records to make the
// truncation sweep meaningful, small enough to keep it exhaustive.
std::vector<scenario::ScenarioSpec> small_grid(std::size_t count) {
  CampaignSpec spec;
  std::string error;
  EXPECT_TRUE(
      load_campaign_file(example_path("ci_smoke.json"), spec, &error))
      << error;
  std::vector<scenario::ScenarioSpec> specs = expand_campaign(spec);
  EXPECT_GE(specs.size(), count);
  specs.resize(count);
  return specs;
}

// Records in a JSONL prefix of length `keep`: a record survives iff every
// byte of its line content (everything before its newline) survived. The
// trailing newline itself is not required — a complete final line whose
// newline never hit the disk still parses.
std::size_t complete_lines_within(const std::string& text, std::size_t keep) {
  std::size_t complete = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t newline = text.find('\n', start);
    if (newline == std::string::npos) newline = text.size();
    if (newline <= keep) ++complete;
    start = newline + 1;
  }
  return complete;
}

void write_truncated(const std::string& path, const std::string& text,
                     std::size_t keep) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (keep > 0) {
    ASSERT_EQ(std::fwrite(text.data(), 1, keep, f), keep);
  }
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(TornTail, CheckpointReplayAtEveryTruncationOffset) {
  const std::vector<scenario::ScenarioSpec> specs = small_grid(4);
  TempDir dir("ckpt");
  const std::string ckpt = dir.file("torn.ckpt.jsonl");

  ShardRunOptions run;
  run.shard = 0;
  run.shards = 1;
  run.threads = 1;  // deterministic record order for the offset math
  run.checkpoint_path = ckpt;
  const std::vector<std::uint64_t> spec_fps = spec_fingerprints(specs);
  run.spec_fps = spec_fps;
  const ShardRunOutcome outcome = run_shard(specs, run);
  ASSERT_TRUE(outcome.checkpoint_ok);
  ASSERT_EQ(outcome.executed, specs.size());

  std::string text;
  std::string error;
  ASSERT_TRUE(util::read_file(ckpt, text, &error)) << error;
  ASSERT_FALSE(text.empty());

  // Sanity: the intact file restores everything.
  {
    std::vector<scenario::JobResult> results(specs.size());
    std::vector<char> done(specs.size(), 0);
    EXPECT_EQ(load_checkpoint(ckpt, spec_fps, results, done), specs.size());
  }

  const std::string torn = dir.file("torn-copy.ckpt.jsonl");
  for (std::size_t keep = 0; keep <= text.size(); ++keep) {
    write_truncated(torn, text, keep);
    std::vector<scenario::JobResult> results(specs.size());
    std::vector<char> done(specs.size(), 0);
    const std::size_t restored =
        load_checkpoint(torn, spec_fps, results, done);
    const std::size_t expected = complete_lines_within(text, keep);
    ASSERT_EQ(restored, expected) << "truncated at byte " << keep << " of "
                                  << text.size();
    // Exactly the restored jobs are marked done — no partial record ever
    // leaks into the results.
    std::size_t marked = 0;
    for (const char d : done) marked += d != 0;
    ASSERT_EQ(marked, restored) << "truncated at byte " << keep;
  }
}

TEST(TornTail, CheckpointResumeAfterTruncationRerunsOnlyTheLostTail) {
  const std::vector<scenario::ScenarioSpec> specs = small_grid(4);
  TempDir dir("resume");
  const std::string ckpt = dir.file("resume.ckpt.jsonl");

  ShardRunOptions run;
  run.shard = 0;
  run.shards = 1;
  run.threads = 1;
  run.checkpoint_path = ckpt;
  const std::vector<std::uint64_t> spec_fps = spec_fingerprints(specs);
  run.spec_fps = spec_fps;
  const ShardRunOutcome first = run_shard(specs, run);
  ASSERT_TRUE(first.checkpoint_ok);

  std::string text;
  ASSERT_TRUE(util::read_file(ckpt, text, nullptr));
  // Tear mid-way through the final record.
  const std::size_t last_newline = text.rfind('\n', text.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  const std::size_t keep = last_newline + 1 + (text.size() - last_newline) / 2;
  write_truncated(ckpt, text, keep);

  // The re-run resumes the intact records and recomputes only the torn one
  // — and the recomputed results are identical to the originals.
  const ShardRunOutcome second = run_shard(specs, run);
  EXPECT_EQ(second.resumed, specs.size() - 1);
  EXPECT_EQ(second.executed, 1u);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(second.results[i].soc.cycles, first.results[i].soc.cycles)
        << "job " << i;
  }
}

TEST(TornTail, ProgressReplayAtEveryTruncationOffset) {
  TempDir dir("progress");
  const std::string path = dir.file("torn.progress.jsonl");
  {
    ProgressWriter writer;
    ASSERT_TRUE(writer.open(path, "torn-campaign", 2, 4,
                            /*min_interval_ms=*/0));
    for (std::size_t done = 1; done <= 5; ++done) writer.update(done, 5);
    writer.finish(5, 5);
  }

  std::string text;
  std::string error;
  ASSERT_TRUE(util::read_file(path, text, &error)) << error;
  ASSERT_FALSE(text.empty());

  const std::string torn = dir.file("torn-copy.progress.jsonl");
  for (std::size_t keep = 0; keep <= text.size(); ++keep) {
    write_truncated(torn, text, keep);
    std::vector<ProgressRecord> records;
    ASSERT_TRUE(read_progress_file(torn, records, &error)) << error;
    const std::size_t expected = complete_lines_within(text, keep);
    ASSERT_EQ(records.size(), expected)
        << "truncated at byte " << keep << " of " << text.size();
    // Whatever replayed is internally consistent, never a half-parsed row.
    for (const ProgressRecord& r : records) {
      EXPECT_EQ(r.campaign, "torn-campaign");
      EXPECT_EQ(r.shard, 2u);
      EXPECT_EQ(r.shards, 4u);
      EXPECT_LE(r.done, r.total);
    }
  }
}

TEST(TornTail, WriterReopenWeldsTornTailAndReplayStaysSane) {
  TempDir dir("weld");
  const std::string path = dir.file("weld.progress.jsonl");
  {
    ProgressWriter writer;
    ASSERT_TRUE(writer.open(path, "weld", 0, 1, 0));
    writer.update(1, 3);
    writer.update(2, 3);
  }
  // Tear the tail mid-record, then reopen: the new writer welds a newline
  // over the fragment so its own records start clean.
  std::string text;
  ASSERT_TRUE(util::read_file(path, text, nullptr));
  write_truncated(path, text, text.size() - 3);
  {
    ProgressWriter writer;
    ASSERT_TRUE(writer.open(path, "weld", 0, 1, 0));
    writer.finish(3, 3);
  }
  std::vector<ProgressRecord> records;
  ASSERT_TRUE(read_progress_file(path, records, nullptr));
  // First intact record + the post-weld final record survive; the torn
  // middle record is skipped.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].done, 1u);
  EXPECT_TRUE(records[1].finished);
  EXPECT_EQ(records[1].done, 3u);
}

}  // namespace
}  // namespace secbus::campaign
