// The fleet audit log as the server's crash-safe recovery journal:
// server_start records carry the campaign identity and commit records the
// shard-file path. Replay validates identity and epochs, and survives a
// tear at every byte offset, because a SIGKILL can land anywhere.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/audit.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {
namespace {

using util::Json;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_journal_" + std::to_string(::getpid()) + "_" + tag);
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

AuditRecord start_record(std::uint64_t epoch, const std::string& campaign,
                         std::size_t shards, std::size_t jobs,
                         std::uint64_t grid_fp) {
  AuditRecord record;
  record.event = AuditEvent::kServerStart;
  record.epoch = epoch;
  record.campaign = campaign;
  record.shards = shards;
  record.jobs = jobs;
  record.grid_fp = grid_fp;
  return record;
}

AuditRecord commit_record(std::uint64_t epoch, std::size_t shard,
                          std::uint64_t generation, const std::string& worker,
                          const std::string& file) {
  AuditRecord record;
  record.event = AuditEvent::kCommit;
  record.epoch = epoch;
  record.shard = shard;
  record.generation = generation;
  record.worker = worker;
  record.file = file;
  return record;
}

void write_log(const std::string& path,
               const std::vector<AuditRecord>& records) {
  AuditLog log;
  ASSERT_TRUE(log.open(path));
  for (const AuditRecord& record : records) ASSERT_TRUE(log.append(record));
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(AuditRecordIo, IdentityAndFileRoundTrip) {
  const AuditRecord start = start_record(3, "camp", 4, 12, 0xfeedu);
  AuditRecord back;
  ASSERT_TRUE(audit_record_from_json(audit_record_to_json(start), back));
  EXPECT_EQ(back.campaign, "camp");
  EXPECT_EQ(back.shards, 4u);
  EXPECT_EQ(back.jobs, 12u);
  EXPECT_EQ(back.grid_fp, 0xfeedu);
  EXPECT_TRUE(back.file.empty());

  const AuditRecord commit = commit_record(3, 1, 2, "w1", "/tmp/shard1");
  ASSERT_TRUE(audit_record_from_json(audit_record_to_json(commit), back));
  EXPECT_EQ(back.file, "/tmp/shard1");
  EXPECT_TRUE(back.campaign.empty());
  // Records that carry neither keep the original compact shape.
  const Json plain = audit_record_to_json(AuditRecord{});
  EXPECT_EQ(plain.find("campaign"), nullptr);
  EXPECT_EQ(plain.find("file"), nullptr);
}

// --- recovery replay --------------------------------------------------------

TEST(AuditReplay, StartsAndCommitsRoundTrip) {
  TempDir dir("replay");
  const std::string path = dir.file("log.jsonl");
  write_log(path, {start_record(0, "camp", 3, 12, 0xfeedu),
                   commit_record(0, 1, 2, "w1", "/tmp/shard1"),
                   commit_record(0, 0, 1, "w2", "/tmp/shard0")});
  AuditReplay state;
  std::string error;
  ASSERT_TRUE(replay_audit_log(path, state, &error)) << error;
  EXPECT_TRUE(state.any_start);
  EXPECT_EQ(state.last_epoch, 0u);
  EXPECT_EQ(state.campaign, "camp");
  EXPECT_EQ(state.shards, 3u);
  EXPECT_EQ(state.jobs, 12u);
  EXPECT_EQ(state.grid_fp, 0xfeedu);
  ASSERT_EQ(state.committed.size(), 2u);
  EXPECT_EQ(state.committed.at(1).generation, 2u);
  EXPECT_EQ(state.committed.at(1).worker, "w1");
  EXPECT_EQ(state.committed.at(0).file, "/tmp/shard0");
  EXPECT_FALSE(state.complete());  // 2 of 3 shards committed

  write_log(path, {commit_record(0, 2, 1, "w1", "/tmp/shard2")});
  ASSERT_TRUE(replay_audit_log(path, state, &error)) << error;
  EXPECT_TRUE(state.complete());
}

TEST(AuditReplay, AppendsAcrossRestartsAndTracksLastEpoch) {
  TempDir dir("restart");
  const std::string path = dir.file("log.jsonl");
  write_log(path, {start_record(0, "camp", 2, 4, 7),
                   commit_record(0, 0, 1, "w1", "/tmp/s0")});
  // The restarted server opens the same file and appends its own start.
  write_log(path, {start_record(1, "camp", 2, 4, 7),
                   commit_record(1, 1, 1, "w2", "/tmp/s1")});
  AuditReplay state;
  std::string error;
  ASSERT_TRUE(replay_audit_log(path, state, &error)) << error;
  EXPECT_EQ(state.last_epoch, 1u);
  ASSERT_EQ(state.committed.size(), 2u);
  EXPECT_EQ(state.committed.at(0).epoch, 0u);
  EXPECT_EQ(state.committed.at(1).epoch, 1u);
  EXPECT_TRUE(state.complete());
}

TEST(AuditReplay, RecordsWithoutRecoveryFieldsAreSkipped) {
  // A server_start without identity and a commit without a file say
  // nothing a restart could act on.
  TempDir dir("legacy");
  const std::string path = dir.file("log.jsonl");
  AuditRecord bare_start;
  bare_start.event = AuditEvent::kServerStart;
  write_log(path, {bare_start, commit_record(0, 0, 1, "w1", "")});
  AuditReplay state;
  std::string error;
  ASSERT_TRUE(replay_audit_log(path, state, &error)) << error;
  EXPECT_FALSE(state.any_start);
  EXPECT_TRUE(state.committed.empty());
  EXPECT_FALSE(state.complete());
}

TEST(AuditReplay, RefusesMixedCampaigns) {
  TempDir dir("mixed");
  const std::string path = dir.file("log.jsonl");
  write_log(path, {start_record(0, "camp_a", 2, 4, 7),
                   start_record(1, "camp_b", 2, 4, 7)});
  AuditReplay state;
  std::string error;
  EXPECT_FALSE(replay_audit_log(path, state, &error));
  EXPECT_NE(error.find("mixes different campaigns"), std::string::npos);
}

TEST(AuditReplay, RefusesEpochGoingBackwards) {
  TempDir dir("backwards");
  const std::string path = dir.file("log.jsonl");
  write_log(path, {start_record(3, "camp", 2, 4, 7),
                   start_record(2, "camp", 2, 4, 7)});
  AuditReplay state;
  std::string error;
  EXPECT_FALSE(replay_audit_log(path, state, &error));
  EXPECT_NE(error.find("backwards"), std::string::npos);
}

TEST(AuditReplay, RefusesCommitForOutOfRangeShard) {
  TempDir dir("range");
  const std::string path = dir.file("log.jsonl");
  write_log(path, {start_record(0, "camp", 2, 4, 7),
                   commit_record(0, 5, 1, "w1", "/tmp/s5")});
  AuditReplay state;
  std::string error;
  EXPECT_FALSE(replay_audit_log(path, state, &error));
  EXPECT_NE(error.find("shard 5"), std::string::npos);
}

TEST(AuditReplay, MissingFileFailsToRead) {
  TempDir dir("missing");
  AuditReplay state;
  std::string error;
  EXPECT_FALSE(replay_audit_log(dir.file("nope.jsonl"), state, &error));
  EXPECT_FALSE(error.empty());
}

// The crash-safety property itself: for EVERY byte-length prefix of a
// valid two-incarnation log, replay succeeds and recovers exactly the
// records whose complete lines fit inside the prefix — no error, no
// phantom records, nothing lost before the tear.
TEST(AuditReplay, TornTailReplaysAtEveryByteOffset) {
  TempDir dir("torn");
  const std::string full_path = dir.file("full.jsonl");
  AuditRecord grant;
  grant.event = AuditEvent::kGrant;
  grant.generation = 1;
  grant.worker = "w1";
  write_log(full_path, {start_record(0, "camp", 3, 9, 0xabcdu), grant,
                        commit_record(0, 0, 1, "w1", "/tmp/s0"),
                        commit_record(0, 2, 1, "w2", "/tmp/s2"),
                        start_record(1, "camp", 3, 9, 0xabcdu),
                        commit_record(1, 1, 1, "w1", "/tmp/s1")});
  std::string text;
  std::string error;
  ASSERT_TRUE(util::read_file(full_path, text, &error)) << error;
  ASSERT_EQ(text.back(), '\n');

  // Per-line expectations, in file order: each entry is the state the
  // replay must reach once that line is complete.
  struct Expect {
    std::uint64_t last_epoch;
    std::size_t commits;
  };
  const std::vector<Expect> after_line = {
      {0, 0}, {0, 0}, {0, 1}, {0, 2}, {1, 2}, {1, 3},
  };

  const std::string torn_path = dir.file("torn.jsonl");
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string prefix = text.substr(0, cut);
    write_bytes(torn_path, prefix);
    // A record is recovered once its full JSON text is present — the
    // trailing newline is not required (a crash can land between the
    // record bytes and the '\n'; the record is still whole). So a cut
    // sitting exactly on a newline recovers that line too.
    std::size_t complete_lines = static_cast<std::size_t>(
        std::count(prefix.begin(), prefix.end(), '\n'));
    if (cut < text.size() && text[cut] == '\n') ++complete_lines;
    AuditReplay state;
    error.clear();
    ASSERT_TRUE(replay_audit_log(torn_path, state, &error))
        << "cut at byte " << cut << ": " << error;
    if (complete_lines == 0) {
      EXPECT_FALSE(state.any_start) << "cut at byte " << cut;
      EXPECT_TRUE(state.committed.empty()) << "cut at byte " << cut;
      continue;
    }
    const Expect& want = after_line[complete_lines - 1];
    EXPECT_TRUE(state.any_start) << "cut at byte " << cut;
    EXPECT_EQ(state.last_epoch, want.last_epoch) << "cut at byte " << cut;
    EXPECT_EQ(state.committed.size(), want.commits) << "cut at byte " << cut;
  }
}

}  // namespace
}  // namespace secbus::campaign
