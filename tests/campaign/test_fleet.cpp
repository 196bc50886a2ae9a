// Fleet control plane: lease state machine + server protocol over the
// in-process FakeTransport (manual clock, no sockets).
//
// The scenarios the fleet exists for are pinned here with deterministic
// timing: grant -> heartbeat -> expiry -> reassignment; double-grant
// prevention; a worker reconnecting after its lease was reassigned being
// refused and told to drop the shard; and a full campaign driven through
// scripted workers whose merged output is byte-identical to a direct run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "campaign/fleet.hpp"
#include "campaign/report.hpp"
#include "campaign/telemetry.hpp"
#include "net/fake_transport.hpp"
#include "scenario/result_io.hpp"
#include "scenario/runner.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {
namespace {

using net::ConnId;
using net::FakeTransport;
using util::Json;

std::string example_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/examples/campaigns/" + name;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_fleet_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

// --- grid expansion ---------------------------------------------------------

// A worker expands whatever grid the server announces, so a hostile or
// typo'd repeats count must come back as a typed error naming its path —
// checked before anything is allocated, and as a division so the job-count
// product cannot overflow — never as an abort.
TEST(GridExpansion, RepeatsOutsideTheJobCapIsATypedError) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(load_campaign_file(example_path("ci_smoke.json"), spec, &error))
      << error;
  const std::uint64_t jobs = spec.job_count();
  for (const std::uint64_t repeats :
       {std::uint64_t{0}, kMaxCampaignJobs / jobs + 1, std::uint64_t{1} << 40,
        std::numeric_limits<std::uint64_t>::max()}) {
    GridOptions announced;
    announced.repeats = repeats;
    Json wire;
    ASSERT_TRUE(Json::parse(fleet_grid_to_json(announced).dump(), wire));
    GridOptions grid;
    ASSERT_TRUE(fleet_grid_from_json(wire, grid, &error)) << error;
    ASSERT_EQ(grid.repeats, repeats);
    std::vector<scenario::ScenarioSpec> specs;
    error.clear();
    EXPECT_FALSE(expand_grid(spec, grid, specs, &error)) << repeats;
    EXPECT_EQ(error.rfind("grid.repeats: ", 0), 0u) << error;
    EXPECT_TRUE(specs.empty());
  }

  GridOptions three;
  three.repeats = 3;
  std::vector<scenario::ScenarioSpec> specs;
  ASSERT_TRUE(expand_grid(spec, three, specs, &error)) << error;
  EXPECT_EQ(specs.size(), 3 * jobs);
}

// --- LeaseManager -----------------------------------------------------------

TEST(LeaseManager, GrantsLowestPendingWithFreshGenerations) {
  LeaseManager leases;
  leases.reset(3, 1000);
  const auto g0 = leases.acquire("w1", 0);
  const auto g1 = leases.acquire("w1", 0);
  const auto g2 = leases.acquire("w2", 0);
  ASSERT_TRUE(g0 && g1 && g2);
  EXPECT_EQ(g0->shard, 0u);
  EXPECT_EQ(g1->shard, 1u);
  EXPECT_EQ(g2->shard, 2u);
  EXPECT_EQ(g0->generation, 1u);
  EXPECT_FALSE(g0->reassigned);
  // Every shard leased: no double grant, ever.
  EXPECT_FALSE(leases.acquire("w3", 0).has_value());
  EXPECT_EQ(leases.leased_count(), 3u);
  EXPECT_EQ(leases.regrants(), 0u);
}

TEST(LeaseManager, HeartbeatExtendsExpiryReassigns) {
  LeaseManager leases;
  leases.reset(1, 1000);
  const auto grant = leases.acquire("w1", 0);
  ASSERT_TRUE(grant.has_value());

  // Heartbeat at 800 pushes the deadline to 1800: nothing expires at 1500.
  EXPECT_TRUE(leases.heartbeat("w1", 0, grant->generation, 800));
  EXPECT_TRUE(leases.expire(1500).empty());
  EXPECT_EQ(leases.state(0), LeaseManager::ShardState::kLeased);

  // Silence past the deadline: the shard frees.
  const std::vector<std::size_t> freed = leases.expire(1800);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], 0u);
  EXPECT_EQ(leases.state(0), LeaseManager::ShardState::kPending);

  // Reassignment bumps the generation and counts as a regrant.
  const auto regrant = leases.acquire("w2", 2000);
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->shard, 0u);
  EXPECT_EQ(regrant->generation, grant->generation + 1);
  EXPECT_TRUE(regrant->reassigned);
  EXPECT_EQ(leases.regrants(), 1u);

  // The zombie's old generation is dead: heartbeat and completion refuse.
  EXPECT_FALSE(leases.heartbeat("w1", 0, grant->generation, 2100));
  EXPECT_EQ(leases.complete("w1", 0, grant->generation),
            LeaseManager::Completion::kStale);
  // The new holder is unaffected.
  EXPECT_TRUE(leases.heartbeat("w2", 0, regrant->generation, 2100));
  EXPECT_EQ(leases.complete("w2", 0, regrant->generation),
            LeaseManager::Completion::kAccepted);
  EXPECT_TRUE(leases.all_done());
}

TEST(LeaseManager, CompletionVerdicts) {
  LeaseManager leases;
  leases.reset(2, 1000);
  const auto grant = leases.acquire("w1", 0);
  ASSERT_TRUE(grant.has_value());
  // Wrong worker, wrong generation, unknown shard: all stale.
  EXPECT_EQ(leases.complete("w2", 0, grant->generation),
            LeaseManager::Completion::kStale);
  EXPECT_EQ(leases.complete("w1", 0, grant->generation + 1),
            LeaseManager::Completion::kStale);
  EXPECT_EQ(leases.complete("w1", 5, 1), LeaseManager::Completion::kStale);
  // Never-granted shard: stale too.
  EXPECT_EQ(leases.complete("w1", 1, 0), LeaseManager::Completion::kStale);

  EXPECT_EQ(leases.complete("w1", 0, grant->generation),
            LeaseManager::Completion::kAccepted);
  // A late duplicate of a finished shard is refused, distinctly.
  EXPECT_EQ(leases.complete("w1", 0, grant->generation),
            LeaseManager::Completion::kDuplicate);
}

TEST(LeaseManager, ReleaseWorkerFreesOnlyTheirs) {
  LeaseManager leases;
  leases.reset(3, 1000);
  (void)leases.acquire("w1", 0);
  (void)leases.acquire("w2", 0);
  (void)leases.acquire("w1", 0);
  const std::vector<std::size_t> freed = leases.release_worker("w1");
  EXPECT_EQ(freed, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(leases.state(1), LeaseManager::ShardState::kLeased);
  EXPECT_EQ(leases.pending_count(), 2u);
}

TEST(LeaseManager, NextDeadlineTracksEarliestLease) {
  LeaseManager leases;
  leases.reset(2, 1000);
  EXPECT_FALSE(leases.next_deadline_ms().has_value());
  (void)leases.acquire("w1", 100);
  (void)leases.acquire("w2", 300);
  ASSERT_TRUE(leases.next_deadline_ms().has_value());
  EXPECT_EQ(*leases.next_deadline_ms(), 1100u);
  EXPECT_TRUE(leases.heartbeat("w1", 0, 1, 500));
  EXPECT_EQ(*leases.next_deadline_ms(), 1300u);
}

// --- FleetServer over FakeTransport -----------------------------------------

class FleetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(load_campaign_file(example_path("ci_smoke.json"), spec_,
                                   &error))
        << error;
  }

  FleetServerOptions options(std::size_t shards, const TempDir& dir) {
    FleetServerOptions opt;
    opt.shards = shards;
    opt.lease_timeout_ms = 1000;
    opt.heartbeat_ms = 200;
    opt.out_dir = dir.path();
    opt.quiet = true;
    return opt;
  }

  // connect + hello + campaign handshake; returns the new connection and
  // asserts the campaign announcement arrived.
  ConnId handshake(FleetServer& server, const std::string& worker) {
    const ConnId conn = fake_.connect_client();
    fake_.client_send(conn, fleet_msg::hello(worker));
    step(server);
    const std::vector<Json> inbox = fake_.take_client_inbox(conn);
    EXPECT_EQ(inbox.size(), 1u) << "expected exactly the campaign message";
    if (!inbox.empty()) {
      EXPECT_EQ(fleet_msg::type_of(inbox[0]), "campaign");
      std::uint64_t fp = 0;
      EXPECT_TRUE(inbox[0].find("grid_fingerprint")->to_u64(fp));
      EXPECT_EQ(fp, server.grid_fp());
    }
    return conn;
  }

  void step(FleetServer& server) {
    std::string error;
    ASSERT_TRUE(server.step(0, &error)) << error;
  }

  // One message of `type` in the inbox; returns it.
  static Json expect_only(const std::vector<Json>& inbox,
                          const std::string& type) {
    EXPECT_EQ(inbox.size(), 1u);
    Json msg = inbox.empty() ? Json::object() : inbox[0];
    EXPECT_EQ(fleet_msg::type_of(msg), type);
    return msg;
  }

  static LeaseGrant grant_of(const Json& msg) {
    LeaseGrant grant;
    std::uint64_t shard = 0;
    EXPECT_TRUE(msg.find("shard")->to_u64(shard));
    EXPECT_TRUE(msg.find("generation")->to_u64(grant.generation));
    grant.shard = static_cast<std::size_t>(shard);
    return grant;
  }

  // Runs the granted shard for real, submits its result and returns the
  // submitted file.
  ShardResultFile run_and_submit(FleetServer& server, ConnId conn,
                                 const LeaseGrant& grant,
                                 bool collect_metrics = false) {
    ShardRunOptions run;
    run.shard = grant.shard;
    run.shards = server.leases().shard_count();
    run.threads = 2;
    run.collect_metrics = collect_metrics;
    const ShardRunOutcome outcome = run_shard(server.specs(), run);
    const ShardResultFile file =
        to_shard_file(spec_.name, outcome, grant.shard,
                      server.leases().shard_count(), server.grid_fp());
    ProgressSampler sampler;
    sampler.begin(spec_.name, grant.shard, server.leases().shard_count());
    const ProgressRecord record = sampler.sample(
        outcome.indices.size(), outcome.indices.size(), /*finished=*/true);
    fake_.client_send(conn, fleet_msg::shard_done(grant.shard,
                                                  grant.generation, record,
                                                  file));
    return file;
  }

  FakeTransport fake_;
  CampaignSpec spec_;
};

TEST_F(FleetServerTest, OverCapGridIsAnInitError) {
  TempDir dir("over-cap");
  FleetServerOptions opt = options(2, dir);
  opt.grid.repeats = kMaxCampaignJobs / spec_.job_count() + 1;
  FleetServer server(fake_, spec_, opt);
  EXPECT_EQ(server.init_error().rfind("grid.repeats: ", 0), 0u)
      << server.init_error();
  std::string error;
  EXPECT_FALSE(server.step(0, &error));
  EXPECT_EQ(error, server.init_error());
}

TEST_F(FleetServerTest, HelloRequiredBeforeAnythingElse) {
  TempDir dir("hello-required");
  FleetServer server(fake_, spec_, options(2, dir));
  const ConnId conn = fake_.connect_client();
  fake_.client_send(conn, fleet_msg::request());
  step(server);
  const Json reply = expect_only(fake_.take_client_inbox(conn), "error");
  EXPECT_NE(reply.find("message")->as_string().find("hello required"),
            std::string::npos);
  EXPECT_FALSE(fake_.client_open(conn));
}

TEST_F(FleetServerTest, ProtocolVersionMismatchIsRejected) {
  TempDir dir("proto-mismatch");
  FleetServer server(fake_, spec_, options(2, dir));
  const ConnId conn = fake_.connect_client();
  Json bad_hello = fleet_msg::hello("w-from-the-future");
  bad_hello.set("protocol", Json::number(std::uint64_t{99}));
  fake_.client_send(conn, bad_hello);
  step(server);
  const Json reply = expect_only(fake_.take_client_inbox(conn), "error");
  EXPECT_NE(reply.find("message")->as_string().find("protocol mismatch"),
            std::string::npos);
  EXPECT_FALSE(fake_.client_open(conn));
}

TEST_F(FleetServerTest, GrantHeartbeatExpiryReassignmentRefusal) {
  TempDir dir("expiry-reassign");
  FleetServer server(fake_, spec_, options(1, dir));

  const ConnId w1 = handshake(server, "w1");
  fake_.client_send(w1, fleet_msg::request());
  step(server);
  const LeaseGrant grant =
      grant_of(expect_only(fake_.take_client_inbox(w1), "grant"));
  EXPECT_EQ(grant.shard, 0u);
  EXPECT_EQ(grant.generation, 1u);

  // Heartbeats keep the lease alive across the nominal timeout.
  ProgressRecord running;
  running.campaign = spec_.name;
  running.total = 10;
  for (int i = 0; i < 3; ++i) {
    fake_.advance_ms(800);
    running.done = static_cast<std::size_t>(i);
    fake_.client_send(w1, fleet_msg::heartbeat(0, grant.generation, running));
    step(server);
    EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kLeased)
        << "heartbeat " << i << " should have extended the lease";
    EXPECT_TRUE(fake_.take_client_inbox(w1).empty());
  }
  // Heartbeats mirror into a progress sidecar the status command can read.
  std::vector<ShardProgress> progress;
  ASSERT_TRUE(scan_progress_dir(dir.path(), progress));
  ASSERT_EQ(progress.size(), 1u);
  EXPECT_TRUE(progress[0].parsed);
  EXPECT_EQ(progress[0].last.done, 2u);

  // w1 goes silent (SIGSTOP'd, hung, partitioned): the lease expires and
  // the shard goes to the next requester with a bumped generation.
  fake_.advance_ms(1500);
  step(server);
  EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kPending);

  const ConnId w2 = handshake(server, "w2");
  fake_.client_send(w2, fleet_msg::request());
  step(server);
  const LeaseGrant regrant =
      grant_of(expect_only(fake_.take_client_inbox(w2), "grant"));
  EXPECT_EQ(regrant.shard, 0u);
  EXPECT_EQ(regrant.generation, 2u);
  EXPECT_EQ(server.reassignments(), 1u);

  // The zombie wakes up and reconnects: its stale generation is refused
  // and it is told to drop the shard.
  const ConnId w1_again = handshake(server, "w1");
  fake_.client_send(w1_again,
                    fleet_msg::heartbeat(0, grant.generation, running));
  step(server);
  Json refuse = expect_only(fake_.take_client_inbox(w1_again), "refuse");
  EXPECT_TRUE(refuse.find("drop")->as_bool());

  // Its completed result is refused the same way...
  run_and_submit(server, w1_again, grant);
  step(server);
  refuse = expect_only(fake_.take_client_inbox(w1_again), "refuse");
  EXPECT_TRUE(refuse.find("drop")->as_bool());
  EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kLeased);

  // ...while the current holder's lands.
  run_and_submit(server, w2, regrant);
  step(server);
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.results().size(), server.specs().size());
}

TEST_F(FleetServerTest, FreedShardIsPushedToWaitingWorker) {
  TempDir dir("pushed-grant");
  FleetServer server(fake_, spec_, options(1, dir));

  const ConnId w1 = handshake(server, "w1");
  fake_.client_send(w1, fleet_msg::request());
  step(server);
  (void)grant_of(expect_only(fake_.take_client_inbox(w1), "grant"));

  // Everything is leased: w2 is parked with a wait.
  const ConnId w2 = handshake(server, "w2");
  fake_.client_send(w2, fleet_msg::request());
  step(server);
  expect_only(fake_.take_client_inbox(w2), "wait");

  // w1's lease expires; the freed shard goes straight to w2 — no second
  // request needed.
  fake_.advance_ms(1500);
  step(server);
  const LeaseGrant regrant =
      grant_of(expect_only(fake_.take_client_inbox(w2), "grant"));
  EXPECT_EQ(regrant.shard, 0u);
  EXPECT_TRUE(server.leases().state(0) == LeaseManager::ShardState::kLeased);
  EXPECT_EQ(server.leases().holder(0), "w2");
}

TEST_F(FleetServerTest, DisconnectReleasesLeaseImmediately) {
  TempDir dir("disconnect-release");
  FleetServer server(fake_, spec_, options(1, dir));
  const ConnId w1 = handshake(server, "w1");
  fake_.client_send(w1, fleet_msg::request());
  step(server);
  (void)fake_.take_client_inbox(w1);
  ASSERT_EQ(server.leases().state(0), LeaseManager::ShardState::kLeased);

  // A closed connection is a dead worker: no need to wait out the lease.
  fake_.client_close(w1);
  step(server);
  EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kPending);
}

TEST_F(FleetServerTest, ReconnectUnderSameIdentityKeepsLease) {
  TempDir dir("reconnect-same-id");
  FleetServer server(fake_, spec_, options(1, dir));
  const ConnId old_conn = handshake(server, "w1");
  fake_.client_send(old_conn, fleet_msg::request());
  step(server);
  const LeaseGrant grant =
      grant_of(expect_only(fake_.take_client_inbox(old_conn), "grant"));

  // Same worker id on a fresh connection (its old TCP session wedged):
  // the server retires the old connection but the lease continues.
  const ConnId new_conn = handshake(server, "w1");
  EXPECT_FALSE(fake_.client_open(old_conn));
  EXPECT_EQ(server.leases().holder(0), "w1");

  ProgressRecord record;
  fake_.client_send(new_conn, fleet_msg::heartbeat(0, grant.generation,
                                                   record));
  step(server);
  EXPECT_TRUE(fake_.take_client_inbox(new_conn).empty());  // no refuse
  EXPECT_EQ(server.leases().state(0), LeaseManager::ShardState::kLeased);
}

TEST_F(FleetServerTest, DuplicateResultIsRefusedDistinctly) {
  TempDir dir("duplicate-result");
  FleetServer server(fake_, spec_, options(2, dir));
  const ConnId w1 = handshake(server, "w1");
  fake_.client_send(w1, fleet_msg::request());
  step(server);
  const LeaseGrant grant =
      grant_of(expect_only(fake_.take_client_inbox(w1), "grant"));

  run_and_submit(server, w1, grant);
  step(server);
  EXPECT_EQ(server.leases().state(grant.shard),
            LeaseManager::ShardState::kDone);

  run_and_submit(server, w1, grant);  // duplicate delivery
  step(server);
  const Json refuse = expect_only(fake_.take_client_inbox(w1), "refuse");
  EXPECT_NE(refuse.find("reason")->as_string().find("already completed"),
            std::string::npos);
}

TEST_F(FleetServerTest, FullCampaignMatchesDirectRunByteForByte) {
  TempDir dir("byte-identity");
  FleetServer server(fake_, spec_, options(3, dir));

  const ConnId w1 = handshake(server, "w1");
  const ConnId w2 = handshake(server, "w2");
  ConnId turn[2] = {w1, w2};
  std::size_t submitted = 0;
  // Two scripted workers alternate until the campaign completes.
  for (int round = 0; round < 16 && !server.finished(); ++round) {
    const ConnId conn = turn[round % 2];
    fake_.client_send(conn, fleet_msg::request());
    step(server);
    const std::vector<Json> inbox = fake_.take_client_inbox(conn);
    ASSERT_EQ(inbox.size(), 1u);
    const std::string type = fleet_msg::type_of(inbox[0]);
    if (type == "done") continue;
    ASSERT_EQ(type, "grant");
    run_and_submit(server, conn, grant_of(inbox[0]));
    step(server);
    ++submitted;
  }
  ASSERT_TRUE(server.finished());
  EXPECT_EQ(submitted, 3u);
  EXPECT_EQ(server.reassignments(), 0u);

  // Fleet results == direct batch results, down to the report bytes.
  scenario::BatchOptions direct_opts;
  direct_opts.threads = 2;
  const std::vector<scenario::JobResult> direct =
      scenario::run_batch(server.specs(), direct_opts);
  const std::string direct_json =
      campaign_json(CampaignReport::from(spec_.name, direct));
  const std::string fleet_json =
      campaign_json(CampaignReport::from(spec_.name, server.results()));
  EXPECT_EQ(fleet_json, direct_json);

  // Every shard left a finished progress sidecar behind.
  std::vector<ShardProgress> progress;
  ASSERT_TRUE(scan_progress_dir(dir.path(), progress));
  ASSERT_EQ(progress.size(), 3u);
  for (const ShardProgress& shard : progress) {
    EXPECT_TRUE(shard.parsed);
    EXPECT_TRUE(shard.last.finished);
  }
}

// The server writes the shard_done payload it vetted instead of rebuilding
// it, and finalize merges the files it kept in memory instead of reading
// them back. Neither may show: every shard file must be byte-equal to what
// write_shard_file makes of the submitted results, and the merged results
// must equal a merge_shard_files over the files on disk. Per-job metric
// registries ride along, so their doubles cross the wire too.
TEST_F(FleetServerTest, ShardFilesAndInMemoryMergeMatchTheOnDiskPath) {
  TempDir dir("written-files");
  TempDir local("local-files");
  constexpr std::size_t kShards = 3;
  FleetServerOptions opt = options(kShards, dir);
  opt.grid.collect_metrics = true;
  FleetServer server(fake_, spec_, opt);
  const ConnId conn = handshake(server, "w1");
  std::vector<ShardResultFile> submitted(kShards);
  for (std::size_t round = 0; round < kShards && !server.finished(); ++round) {
    fake_.client_send(conn, fleet_msg::request());
    step(server);
    const LeaseGrant grant =
        grant_of(expect_only(fake_.take_client_inbox(conn), "grant"));
    ASSERT_LT(grant.shard, kShards);
    submitted[grant.shard] =
        run_and_submit(server, conn, grant, /*collect_metrics=*/true);
    step(server);
  }
  ASSERT_TRUE(server.finished());

  std::string error;
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_FALSE(submitted[s].results.empty()) << "shard " << s;
    const std::string local_path =
        (std::filesystem::path(local.path()) /
         shard_file_name(spec_.name, s, kShards))
            .string();
    ASSERT_TRUE(write_shard_file(local_path, submitted[s], &error)) << error;
    std::string served_text;
    std::string local_text;
    ASSERT_TRUE(util::read_file(server.shard_files()[s], served_text, &error))
        << error;
    ASSERT_TRUE(util::read_file(local_path, local_text, &error)) << error;
    EXPECT_EQ(served_text, local_text) << "shard " << s;
  }

  std::vector<scenario::JobResult> from_disk;
  ASSERT_TRUE(merge_shard_files(server.shard_files(), nullptr, &from_disk,
                                &error))
      << error;
  ASSERT_EQ(server.results().size(), from_disk.size());
  for (std::size_t i = 0; i < from_disk.size(); ++i) {
    EXPECT_EQ(scenario::job_result_to_json(server.results()[i]).dump(0),
              scenario::job_result_to_json(from_disk[i]).dump(0))
        << "job " << i;
  }
}

}  // namespace
}  // namespace secbus::campaign
