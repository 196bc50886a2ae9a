// A worker reports a finished shard at once: its heartbeat thread waits on
// the shard's completion, not on a sleep, so a lease is held for as long as
// the shard computes and no longer.
//
// One in-process worker thread runs a small plaintext campaign of
// single-job shards against a loopback FleetServer; the lease hold of each
// shard is read back from the fleet log (grant -> commit, server clock).
// A worker that stopped its beat thread only at the next fixed sleep step
// held every lease for at least that step (50 ms), whatever the shard cost.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/audit.hpp"
#include "campaign/fleet.hpp"
#include "net/transport.hpp"

namespace secbus::campaign {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_fleet_wake_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST(FleetWake, LeaseIsHeldOnlyWhileTheShardComputes) {
  // ci_smoke's SoC narrowed to one attack, one placement and plaintext
  // memory over 16 seeds: 16 jobs of well under a millisecond each.
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(load_campaign_file(std::string(SECBUS_REPO_DIR) +
                                     "/examples/campaigns/ci_smoke.json",
                                 spec, &error))
      << error;
  spec.name = "fleet-wake";
  spec.attacks.resize(1);
  spec.axes.security = {soc::SecurityMode::kDistributed};
  spec.axes.protection = {soc::ProtectionLevel::kPlaintext};
  spec.axes.seeds.clear();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    spec.axes.seeds.push_back(seed);
  }
  ASSERT_TRUE(validate_campaign(spec, &error)) << error;

  TempDir dir("hold");
  FleetServerOptions serve_opt;
  serve_opt.shards = spec.job_count();  // one job per shard
  // The worker's floor: a shard slowed past it by a sanitizer also takes
  // the beat path, so the beat/stop handoff runs under TSan too.
  serve_opt.heartbeat_ms = 100;
  serve_opt.lease_timeout_ms = 10'000;
  serve_opt.out_dir = dir.path();

  auto transport = std::make_unique<net::TcpServerTransport>();
  ASSERT_TRUE(transport->listen(0, /*loopback_only=*/true, &error)) << error;
  auto server = std::make_unique<FleetServer>(*transport, spec, serve_opt);
  ASSERT_TRUE(server->init_error().empty()) << server->init_error();
  ASSERT_EQ(server->specs().size(), serve_opt.shards);
  const std::string audit_path = server->audit_path();

  FleetWorkerOptions worker_opt;
  worker_opt.port = transport->bound_port();
  worker_opt.worker_id = "wake-w0";
  worker_opt.out_dir = dir.path();
  worker_opt.threads = 1;
  // A wedged server must end the worker quickly, not after seconds.
  worker_opt.max_reconnects = 2;
  worker_opt.backoff_ms = 50;
  worker_opt.backoff_max_ms = 100;
  bool worker_ok = false;
  std::string worker_error;
  std::thread worker([&] {
    worker_ok = run_fleet_worker(worker_opt, nullptr, &worker_error);
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  bool stepped = true;
  while (stepped && !server->finished() &&
         std::chrono::steady_clock::now() < deadline) {
    stepped = server->step(50, &error);
  }
  const bool finished = server->finished();
  if (finished) (void)server->run(&error);  // lets the worker read `done`
  // Closing the listener hangs up on a worker still attached, so the join
  // below is bounded by the worker's small reconnect budget.
  server.reset();
  transport.reset();
  worker.join();
  ASSERT_TRUE(stepped) << error;
  ASSERT_TRUE(finished) << "fleet did not finish in time";
  ASSERT_TRUE(worker_ok) << worker_error;

  std::vector<AuditRecord> log;
  ASSERT_TRUE(read_audit_log(audit_path, log, &error)) << error;
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> granted;
  std::vector<std::uint64_t> holds;
  for (const AuditRecord& record : log) {
    const auto lease = std::make_pair(record.shard, record.generation);
    if (record.event == AuditEvent::kGrant ||
        record.event == AuditEvent::kReassigned) {
      granted[lease] = record.t_ms;
    } else if (record.event == AuditEvent::kCommit) {
      ASSERT_EQ(granted.count(lease), 1u) << "commit without a grant";
      holds.push_back(record.t_ms - granted[lease]);
    }
  }
  ASSERT_EQ(holds.size(), serve_opt.shards);
  std::sort(holds.begin(), holds.end());
  const std::uint64_t median = holds[holds.size() / 2];
  EXPECT_LT(median, 40u) << "median grant->commit hold " << median
                         << " ms (min " << holds.front() << ", max "
                         << holds.back() << ")";
}

}  // namespace
}  // namespace secbus::campaign
