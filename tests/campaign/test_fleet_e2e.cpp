// Fleet end-to-end over real sockets: a TCP server plus three
// `secbus_cli campaign worker` processes on loopback, one of which
// chaos-kills itself mid-shard.
// The acceptance bar from the fleet design: the served campaign's merged
// artifacts must be byte-identical to a direct single-process run, killed
// and reassigned workers included — now with the observability plane on
// throughout (HTTP /metrics + /status scraped mid-run, the lease audit
// log reconciling to exactly the fleet's reassignment count, and --metrics
// registries surviving the wire byte-for-byte).
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/audit.hpp"
#include "campaign/chaos.hpp"
#include "campaign/fleet.hpp"
#include "campaign/report.hpp"
#include "net/http.hpp"
#include "net/transport.hpp"
#include "obs/exposition.hpp"
#include "obs/fleet_timeline.hpp"
#include "scenario/runner.hpp"
#include "util/csv.hpp"

namespace secbus::campaign {
namespace {

std::string example_path(const std::string& name) {
  return std::string(SECBUS_REPO_DIR) + "/examples/campaigns/" + name;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("secbus_fleet_e2e_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

std::string cells_csv_text(const CampaignReport& report,
                           const std::string& scratch) {
  {
    util::CsvWriter csv(scratch);
    write_cells_csv(csv, report);
    csv.flush();
  }
  std::FILE* f = std::fopen(scratch.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

// Mirrors the metrics sidecar document emit_campaign_outputs writes under
// --metrics, so the fleet-vs-direct comparison locks the exact bytes the
// CLI would put in <campaign>.metrics.json.
std::string metrics_doc(const std::string& name,
                        const std::vector<scenario::JobResult>& results) {
  util::Json doc = util::Json::object();
  doc.set("campaign", util::Json::string(name));
  util::Json jobs = util::Json::array();
  for (const auto& r : results) {
    if (r.metrics.empty()) continue;
    util::Json entry = util::Json::object();
    entry.set("index", util::Json::number(static_cast<std::uint64_t>(r.index)));
    entry.set("metrics", r.metrics.to_json());
    jobs.push(std::move(entry));
  }
  doc.set("jobs", std::move(jobs));
  return doc.dump();
}

using Clock = std::chrono::steady_clock;

// Starts `secbus_cli campaign worker` with posix_spawn, i.e. fork+exec with
// nothing run in between: the child never executes this test's code, so it
// cannot inherit a lock (malloc, sanitizer runtime, metrics registry) that
// another thread of the test held at the fork. The chaos worker gets
// SECBUS_CHAOS; every other worker runs with it unset. Returns -1 on
// failure.
pid_t spawn_worker(std::uint16_t port, int w, const std::string& out_dir,
                   const char* chaos) {
  std::vector<std::string> args = {SECBUS_CLI,
                                   "campaign",
                                   "worker",
                                   "127.0.0.1:" + std::to_string(port),
                                   "--out",
                                   out_dir,
                                   "--id",
                                   "e2e-w" + std::to_string(w),
                                   "--jobs",
                                   "2",
                                   "--backoff",
                                   "100",
                                   "--quiet"};
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SECBUS_CHAOS=", 13) != 0) env.emplace_back(*e);
  }
  if (chaos != nullptr) env.push_back(std::string("SECBUS_CHAOS=") + chaos);
  const auto c_strings = [](std::vector<std::string>& strings) {
    std::vector<char*> out;
    for (std::string& s : strings) out.push_back(s.data());
    out.push_back(nullptr);
    return out;
  };
  std::vector<char*> argv = c_strings(args);
  std::vector<char*> envp = c_strings(env);

  // The worker's summary line would interleave with gtest's output; its
  // stderr stays attached, which under --quiet carries only errors.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               envp.data());
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

// Reaps `pid` by polling until `deadline`. A worker still running then is
// killed and reaped, and the wait fails: a hung worker fails the test
// instead of stalling it.
::testing::AssertionResult reap_by(pid_t pid, Clock::time_point deadline,
                                   int& status) {
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return ::testing::AssertionSuccess();
    if (r == -1) {
      return ::testing::AssertionFailure()
             << "waitpid(" << pid << "): " << std::strerror(errno);
    }
    if (Clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      return ::testing::AssertionFailure()
             << "worker " << pid << " still running at its deadline; killed";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// Kills and reaps every worker still listed (the test sets a reaped
// worker's pid to -1), so a test that fails early leaves no process behind.
struct ReapOnExit {
  std::vector<pid_t>& pids;
  ~ReapOnExit() {
    for (const pid_t pid : pids) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, nullptr, 0);
    }
  }
};

// Stops and joins a helper thread on every exit from the test, so a failed
// ASSERT_* returns through a joined thread instead of std::terminate.
struct StopAndJoin {
  std::atomic<bool>& stop;
  std::thread& thread;
  ~StopAndJoin() { finish(); }
  void finish() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

TEST(FleetE2E, ChaosKilledWorkerIsReassignedAndOutputIsByteIdentical) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(
      load_campaign_file(example_path("ci_smoke.json"), spec, &error))
      << error;

  TempDir dir("chaos");
  FleetServerOptions serve_opt;
  serve_opt.shards = 5;
  serve_opt.lease_timeout_ms = 4000;
  serve_opt.heartbeat_ms = 200;
  serve_opt.out_dir = dir.path();
  serve_opt.quiet = true;
  // The plane under test: per-job metrics on (the registries must survive
  // the shard files byte-for-byte), next to the always-on lease audit.
  serve_opt.grid.collect_metrics = true;

  net::TcpServerTransport transport;
  ASSERT_TRUE(transport.listen(0, /*loopback_only=*/true, &error)) << error;
  const std::uint16_t port = transport.bound_port();
  ASSERT_NE(port, 0);
  FleetServer server(transport, spec, serve_opt);
  ASSERT_FALSE(server.audit_path().empty());

  // The HTTP observability endpoints, serviced from the same thread that
  // drives the fleet — exactly how `campaign serve --http-port` wires it.
  net::HttpServer http;
  ASSERT_TRUE(http.listen(0, /*loopback_only=*/true, &error)) << error;
  const net::HttpServer::Handler handler =
      [&server](const net::HttpRequest& request) {
        net::HttpResponse response;
        if (request.target == "/metrics") {
          response.body = obs::prometheus_text(server.fleet_registry());
        } else if (request.target == "/status") {
          response.content_type = "application/json";
          response.body = server.status_json().dump(0);
        } else {
          response.status = 404;
        }
        return response;
      };
  const auto service_http = [&] {
    std::string http_error;
    http.poll(0, handler, &http_error);
  };

  // Three workers; the second one dies after checkpointing two jobs of its
  // first shard. All share the server's out_dir, so the reassigned shard
  // resumes from the dead worker's checkpoint.
  std::vector<pid_t> workers;
  ReapOnExit reap_on_exit{workers};
  for (int w = 0; w < 3; ++w) {
    const pid_t pid =
        spawn_worker(port, w, dir.path(), w == 1 ? "kill_after:2" : nullptr);
    ASSERT_NE(pid, -1) << "cannot spawn " << SECBUS_CLI;
    workers.push_back(pid);
  }

  // A scraper races the fleet from another thread, like a Prometheus
  // poller would; it retries until it lands one good /metrics + /status
  // pair (usually mid-run, but a fast fleet may finish first — the main
  // thread keeps servicing HTTP until the scrape lands either way).
  std::atomic<bool> scraped{false};
  std::atomic<bool> stop_scraping{false};
  std::string scraped_metrics;
  std::string scraped_status;
  std::thread scraper([&] {
    const auto scrape_deadline = Clock::now() + std::chrono::minutes(2);
    while (!stop_scraping.load() && Clock::now() < scrape_deadline) {
      int status = 0;
      std::string metrics_body, status_body, get_error;
      if (net::http_get("127.0.0.1", http.bound_port(), "/metrics", &status,
                        &metrics_body, &get_error) &&
          status == 200 &&
          net::http_get("127.0.0.1", http.bound_port(), "/status", &status,
                        &status_body, &get_error) &&
          status == 200) {
        scraped_metrics = std::move(metrics_body);
        scraped_status = std::move(status_body);
        scraped.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  StopAndJoin join_scraper{stop_scraping, scraper};

  // Drive the server to completion (bounded: a wedged fleet must fail the
  // test, not hang it).
  const auto deadline = Clock::now() + std::chrono::minutes(3);
  while (!server.finished() && Clock::now() < deadline) {
    ASSERT_TRUE(server.step(200, &error)) << error;
    service_http();
  }
  ASSERT_TRUE(server.finished()) << "fleet did not finish in time";
  // Let the final `done` frames flush so live workers exit cleanly, and
  // keep the HTTP plane alive until the scraper lands its pair.
  for (int i = 0; i < 20; ++i) {
    std::vector<net::TransportEvent> events;
    std::string drain_error;
    if (!transport.poll(50, events, &drain_error)) break;
    service_http();
  }
  while (!scraped.load() && Clock::now() < deadline) {
    service_http();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  join_scraper.finish();
  http.close();

  // The fleet is done, so every worker has exited or is about to.
  const auto reap_deadline = Clock::now() + std::chrono::seconds(30);
  int chaos_status = 0;
  ASSERT_TRUE(reap_by(workers[1], reap_deadline, chaos_status));
  workers[1] = -1;
  ASSERT_TRUE(WIFEXITED(chaos_status));
  EXPECT_EQ(WEXITSTATUS(chaos_status), kChaosExitCode)
      << "the chaos worker should have died by _Exit(kChaosExitCode)";
  for (const std::size_t w : {0u, 2u}) {
    int status = 0;
    ASSERT_TRUE(reap_by(workers[w], reap_deadline, status)) << "worker " << w;
    workers[w] = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << w;
  }

  // The kill cost the fleet a lease; reassignment recovered it.
  EXPECT_GE(server.reassignments(), 1u);
  EXPECT_EQ(server.results().size(), server.specs().size());

  // The scrape landed, the exposition carries the fleet identity, and the
  // status document is the campaign the server is actually running.
  ASSERT_TRUE(scraped.load()) << "HTTP scrape never succeeded";
  EXPECT_NE(scraped_metrics.find("# TYPE secbus_fleet_jobs counter\n"),
            std::string::npos);
  EXPECT_NE(scraped_metrics.find("secbus_fleet_shards 5\n"),
            std::string::npos);
  util::Json status_doc;
  ASSERT_TRUE(util::Json::parse(scraped_status, status_doc, &error)) << error;
  EXPECT_EQ(status_doc.find("campaign")->as_string(), spec.name);
  EXPECT_EQ(status_doc.find("leases")->items().size(), 5u);

  // The audit log reconciles exactly: one commit per shard, as many
  // `reassigned` records as the server counted reassignments (>= 1, the
  // chaos kill), and a timeline with nothing unmatched.
  std::vector<AuditRecord> audit_log;
  ASSERT_TRUE(read_audit_log(server.audit_path(), audit_log, &error))
      << error;
  std::size_t commits = 0;
  std::size_t reassignments = 0;
  for (const AuditRecord& record : audit_log) {
    commits += record.event == AuditEvent::kCommit ? 1 : 0;
    reassignments += record.event == AuditEvent::kReassigned ? 1 : 0;
  }
  EXPECT_EQ(commits, serve_opt.shards);
  EXPECT_EQ(reassignments, server.reassignments());
  obs::FleetTimelineStats timeline_stats;
  (void)obs::fleet_timeline_json(audit_log, &timeline_stats);
  EXPECT_EQ(timeline_stats.lease_spans, commits + reassignments);
  EXPECT_EQ(timeline_stats.committed, serve_opt.shards);
  EXPECT_EQ(timeline_stats.unmatched, 0u);

  // Byte-identity against a direct in-process run of the same grid —
  // including the per-job --metrics registries, which crossed the wire
  // inside shard files and must re-emit the identical metrics sidecar.
  scenario::BatchOptions direct_opts;
  direct_opts.threads = 4;
  direct_opts.hooks.collect_metrics = true;
  const std::vector<scenario::JobResult> direct =
      scenario::run_batch(server.specs(), direct_opts);
  const CampaignReport direct_report = CampaignReport::from(spec.name, direct);
  const CampaignReport fleet_report =
      CampaignReport::from(spec.name, server.results());
  EXPECT_EQ(campaign_json(fleet_report), campaign_json(direct_report));
  EXPECT_EQ(cells_csv_text(fleet_report, dir.file("fleet.cells.csv")),
            cells_csv_text(direct_report, dir.file("direct.cells.csv")));
  const std::string fleet_metrics = metrics_doc(spec.name, server.results());
  EXPECT_EQ(fleet_metrics, metrics_doc(spec.name, direct));
  EXPECT_NE(fleet_metrics.find("\"metrics\""), std::string::npos)
      << "--metrics registries went missing from the fleet results";
}

}  // namespace
}  // namespace secbus::campaign

#endif  // __unix__ || __APPLE__
