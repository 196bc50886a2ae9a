// secbus_cli — command-line driver for the secured-MPSoC simulator.
//
// Scenario-engine subcommands:
//
//   secbus_cli list-scenarios
//       Prints the built-in scenario catalog (name, jobs, description).
//
//   secbus_cli crypto-info
//       Prints detected CPU crypto features, the selected crypto backend
//       (portable | scalar | accel) and the SECBUS_CRYPTO_BACKEND override
//       in effect, so a run's datapath is always on record.
//
//   secbus_cli run <scenario> [options]
//       Expands the named scenario over its default sweep axes and executes
//       the jobs on a worker pool. Emits a per-job table plus aggregate
//       stats, and mirrors the batch as CSV and JSON reports.
//     --jobs N          worker threads (default 1; 0 = all hardware threads)
//     --repeats N       run every job N times with derived seeds
//     --csv PATH        CSV report path   (default <scenario>.csv)
//     --json PATH       JSON report path  (default <scenario>.json)
//     --no-files        skip the CSV/JSON reports
//     --max-cycles N    override the scenario's cycle cap
//     --quiet           aggregate line only
//     --metrics         attach the per-job component-metric registry
//                       (obs::Registry) to the JSON reports
//     --trace PATH      run only the first expanded job, single-threaded,
//                       with a 1M-event trace ring, and export a Chrome
//                       trace-event JSON (load it in Perfetto / chrome://
//                       tracing) to PATH
//
//   secbus_cli sweep [base options] [axis options]
//       Builds a custom sweep over the Section-V system (or any registered
//       scenario via --scenario) and runs it like `run`.
//     --scenario NAME   base scenario (default section5)
//     --topology A,B    axis: interconnect fabrics (flat | star<leaves> |
//                       mesh<rows>x<cols>, e.g. star4, mesh2x2)
//     --cpus A,B,...    axis: processor counts
//     --security A,B    axis: none|distributed|centralized
//     --protection A,B  axis: plaintext|cipher|full
//     --seeds A,B,...   axis: workload seeds
//     --extra-rules A,B axis: dummy policy rules per firewall
//     --line-bytes A,B  axis: LCF protection line size
//     --external A,B    axis: external-traffic fraction
//       plus --jobs/--repeats/--csv/--json/--no-files/--max-cycles/--quiet.
//
//   secbus_cli campaign run <file.json> [options]
//       Loads a JSON campaign file (base ScenarioSpec + attack/protection/
//       topology/seed grid), expands it into jobs and runs them like `run`.
//       On top of the per-job reports it aggregates *security outcomes* per
//       grid cell — detection/containment/victim-intact rates and detection
//       latency p50/p95/p99 — and prints the weakest cells.
//     --out DIR         report directory (default bench/out)
//     --cells-csv PATH  per-cell CSV   (default <out>/<name>.cells.csv)
//     --json PATH       campaign JSON  (default <out>/<name>.campaign.json)
//     --csv PATH        per-job CSV    (default <out>/<name>.jobs.csv)
//     --shard i/N       run only shard i of N (stable round-robin over the
//                       job index), checkpointed to <out>/<name>.shard-i-
//                       of-N.ckpt.jsonl so a re-run resumes, and write
//                       <out>/<name>.shard-i-of-N.json for `campaign merge`
//                       instead of the reports. A plain run is shard 0 of 1
//                       without a checkpoint; --shard 0/1 plus a merge is
//                       the crash-safe single-process run
//       plus --jobs/--repeats/--metrics/--no-files/--max-cycles/--quiet
//       (--jobs is threads per process).
//
//   secbus_cli campaign merge <shard.json>... [--out DIR] [options]
//       Recombines shard result files (all N of them) into the identical
//       cells CSV + campaign JSON + weakest-cell ranking a single-process
//       run would emit. Validates campaign identity, grid fingerprints and
//       exactly-once job coverage before writing anything. The shard files
//       fix the grid: --jobs/--repeats/--max-cycles/--metrics are errors.
//
//   secbus_cli campaign validate <file.json>...
//       Parses + validates each file, printing the job/cell counts or the
//       offending JSON path. Exit 1 on the first invalid file.
//
//   secbus_cli campaign status [DIR]
//       Scans DIR (default bench/out) for shard progress sidecars
//       (*.progress.jsonl, written by --shard runs and fleet servers) and
//       renders each shard's latest record: done/total, throughput,
//       setup-cache hit rate, finished/running. Exit 1 when no sidecars are
//       found.
//
//   secbus_cli campaign export-builtin [--dir DIR]
//       Writes every builtin scenario as an equivalent campaign file
//       (default bench/out/builtin-campaigns/): the registry as data.
//
//   secbus_cli campaign serve <file.json> [options]
//       Fleet control plane: listens on TCP, hands out shard leases to
//       `campaign worker` processes, tracks them via heartbeats, reassigns
//       a shard whose worker stops heartbeating (the replacement resumes
//       from the shard checkpoint), and — once every shard's result has
//       landed — merges and emits the exact artifacts a single-process
//       `campaign run` would (byte-identical, killed workers included).
//     --port N            TCP port (default 0 = ephemeral; the bound port
//                         is printed on the "fleet: serving" line)
//     --shards N          lease granularity (default 4)
//     --out DIR           shard files, progress sidecars, reports
//     --lease-timeout MS  reassign after this long without a heartbeat
//                         (default 10000)
//     --heartbeat MS      heartbeat cadence announced to workers
//                         (default 2000)
//     --listen-any        bind 0.0.0.0 instead of loopback
//     --http-port N       also serve GET /metrics (Prometheus text) and
//                         GET /status (JSON lease table) on this port,
//                         polled from the same loop as the fleet socket
//                         (0 = ephemeral; printed on an "http:" line)
//     --resume            recover a killed server from its fleet log
//                         (<out>/<name>.fleet-audit.jsonl, always written):
//                         logged shard commits stay done, everything else
//                         returns to pending, and the server epoch bumps so
//                         results minted under the dead incarnation are
//                         refused (zombie fencing)
//       plus --repeats/--max-cycles/--metrics/--quiet etc. — they shape the
//       grid and are announced to workers, which verify the resulting grid
//       fingerprint; --jobs (each worker's own choice) is a usage error.
//       SECBUS_CHAOS=kill_server_after:<n> _Exit()s the server right after
//       the n-th logged commit (fault injection for --resume);
//       net:drop=..,delay_ms=a..b,... makes the server's side of every
//       connection lossy too.
//
//   secbus_cli campaign worker <host:port> [options]
//       Fleet worker: connects (bounded exponential backoff), verifies the
//       announced grid fingerprint against its own expansion, then runs
//       granted shards — always checkpointing under --out and heartbeating
//       progress — until the server says done. SECBUS_CHAOS=kill_after:<n>
//       makes the worker _Exit() after n checkpointed jobs (fault
//       injection for the reassignment path);
//       SECBUS_CHAOS="net:drop=0.05,delay_ms=0..20,reset=0.02,seed=7"
//       wraps the connection in a seeded lossy decorator (drops, delays,
//       duplicates, truncations, resets) — see campaign/chaos.hpp for the
//       full grammar; directives combine with ';'.
//     --jobs N        batch threads inside this worker (default 1;
//                     0 = all hardware threads)
//     --out DIR       checkpoint directory; share it across local workers
//                     (and the server) so reassignment resumes instead of
//                     recomputing
//     --id NAME       worker identity in leases/logs (default worker-<pid>)
//     --reconnect N   reconnect budget (default 5)
//     --backoff MS    initial backoff, doubles to 5000 (default 500)
//     --quiet         drop the per-event stderr lines (campaign received,
//                     retries, dropped and submitted shards); errors and
//                     the final summary still print
//
//   secbus_cli campaign top <host:port> [--interval MS] [--once]
//       Live fleet view: polls the serve --http-port /status endpoint and
//       repaints a single-screen summary — lease table (shard, state,
//       owner, generation, deadline) plus one row per worker. Exits 0 when
//       the campaign finishes, 1 when the server becomes unreachable.
//
//   secbus_cli campaign timeline <audit.jsonl> [--out PATH]
//       Converts a fleet lease audit log into a Chrome trace-event JSON
//       fleet timeline (one track per worker, one span per lease, instants
//       for expiries and refusals) for Perfetto / chrome://tracing.
//
// Legacy single-run mode (kept for scripts): secbus_cli [--cpus N]
//   [--security M] [--protection L] [--external F] [--transactions N]
//   [--compute N] [--extra-rules N] [--line-bytes N] [--seed N]
//   [--max-cycles N] [--reconfig] [--report] [--quiet]
//
// Exit status: 0 when every executed job completed, 1 on timeout or usage
// error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "campaign/audit.hpp"
#include "campaign/campaign.hpp"
#include "campaign/fleet.hpp"
#include "campaign/report.hpp"
#include "crypto/backend.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "net/http.hpp"
#include "obs/exposition.hpp"
#include "obs/fleet_timeline.hpp"
#include "obs/trace_export.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "soc/presets.hpp"
#include "soc/report.hpp"
#include "soc/soc.hpp"
#include "util/csv.hpp"
#include "util/fileio.hpp"
#include "util/table.hpp"

using namespace secbus;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s list-scenarios\n"
      "       %s crypto-info\n"
      "       %s run <scenario> [--jobs N] [--repeats N] [--csv PATH]\n"
      "              [--json PATH] [--no-files] [--max-cycles N] [--quiet]\n"
      "              [--metrics] [--trace PATH]\n"
      "       %s sweep [--scenario NAME] [--topology A,B] [--cpus A,B]\n"
      "              [--security A,B] [--protection A,B] [--seeds A,B]\n"
      "              [--extra-rules A,B] [--line-bytes A,B] [--external A,B]\n"
      "              [run options]\n"
      "       %s campaign run <file.json> [--out DIR] [--cells-csv PATH]\n"
      "              [--shard i/N] [run options]\n"
      "       %s campaign merge <shard.json>... [--out DIR] [--cells-csv PATH]\n"
      "              [--csv PATH] [--json PATH] [--no-files] [--quiet]\n"
      "       %s campaign validate <file.json>...\n"
      "       %s campaign status [DIR]\n"
      "       %s campaign export-builtin [--dir DIR]\n"
      "       %s campaign serve <file.json> [--port N] [--shards N]\n"
      "              [--out DIR] [--lease-timeout MS] [--heartbeat MS]\n"
      "              [--listen-any] [--cells-csv PATH] [--http-port N]\n"
      "              [--resume] [run options but --jobs]\n"
      "       %s campaign worker <host:port> [--jobs N] [--out DIR]\n"
      "              [--id NAME] [--reconnect N] [--backoff MS] [--quiet]\n"
      "       %s campaign top <host:port> [--interval MS] [--once]\n"
      "       %s campaign timeline <audit.jsonl> [--out PATH]\n"
      "       %s [--cpus N] [--topology flat|starN|meshRxC]\n"
      "          [--security none|distributed|centralized]\n"
      "          [--protection plaintext|cipher|full] [--external F]\n"
      "          [--transactions N] [--compute N] [--extra-rules N]\n"
      "          [--line-bytes N] [--seed N] [--max-cycles N]\n"
      "          [--reconfig] [--report] [--quiet]\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
      argv0, argv0, argv0, argv0);
  std::exit(1);
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != nullptr && end != text && *end == '\0';
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != nullptr && end != text && *end == '\0';
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// Enum/topology parsing lives next to the enums (soc::parse_security_mode,
// soc::parse_protection_level, soc::parse_topology) and is shared with the
// campaign-file reader.

// Options shared by the `run`, `sweep` and `campaign` subcommands.
struct BatchCliOptions {
  unsigned jobs = 1;
  campaign::GridOptions grid;  // --repeats, --max-cycles, --metrics
  std::string csv_path;   // empty = default from scenario name
  std::string json_path;  // empty = default from scenario name
  bool no_files = false;
  bool quiet = false;
  // Non-empty: run only the first expanded job, single-threaded, with a
  // large event-trace ring, and export a Chrome/Perfetto trace here.
  std::string trace_path;
};

// Tries to consume argv[i] as a shared batch option; advances i past any
// value it takes. Returns false when the flag is not a batch option.
bool parse_batch_option(int argc, char** argv, int& i, BatchCliOptions& opt) {
  const std::string arg = argv[i];
  auto next = [&]() -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  std::uint64_t u = 0;
  if (arg == "--jobs" && parse_u64(next(), u) && u <= 256) {
    opt.jobs = static_cast<unsigned>(u);
  } else if (arg == "--repeats" && parse_u64(next(), u) && u >= 1 &&
             u <= 10'000) {
    opt.grid.repeats = u;
  } else if (arg == "--csv") {
    opt.csv_path = next();
  } else if (arg == "--json") {
    opt.json_path = next();
  } else if (arg == "--no-files") {
    opt.no_files = true;
  } else if (arg == "--max-cycles" && parse_u64(next(), u) && u >= 1) {
    opt.grid.max_cycles = u;
  } else if (arg == "--quiet") {
    opt.quiet = true;
  } else if (arg == "--metrics") {
    opt.grid.collect_metrics = true;
  } else if (arg == "--trace") {
    opt.trace_path = next();
  } else {
    return false;
  }
  return true;
}

// A batch option a subcommand cannot honour is a usage error, never a
// silently ignored flag. True (after the message) when `arg` is one.
bool refused_option(const std::string& arg, const char* command,
                    std::initializer_list<const char*> refused) {
  for (const char* flag : refused) {
    if (arg == flag) {
      std::fprintf(stderr, "error: %s does not apply to `%s`\n", flag,
                   command);
      return true;
    }
  }
  return false;
}

// Strided progress for many-job campaigns: ~20 updates total. The batch
// runner may invoke completion callbacks concurrently; printf is atomic per
// call, so lines interleave whole.
std::function<void(const scenario::JobResult&, std::size_t, std::size_t)>
strided_progress(std::size_t jobs) {
  std::size_t stride = jobs / 20;
  if (stride == 0) stride = 1;
  return [stride](const scenario::JobResult&, std::size_t done,
                  std::size_t total) {
    if (done % stride == 0 || done == total) {
      std::printf("  [%zu/%zu]\n", done, total);
      std::fflush(stdout);
    }
  };
}

// Shared by `run` and `sweep`: expands the grid, runs it on the worker
// pool with one progress line per finished job, then prints and writes the
// batch reports.
int run_jobs(const std::string& name, const campaign::CampaignSpec& grid,
             const BatchCliOptions& options) {
  BatchCliOptions opt = options;
  std::vector<scenario::ScenarioSpec> specs;
  std::string error;
  if (!campaign::expand_grid(grid, opt.grid, specs, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", name.c_str(), error.c_str());
    return 1;
  }
  if (!opt.trace_path.empty() && !specs.empty()) {
    // Tracing runs one job, single-threaded: one deterministic SoC whose
    // exported spans match its counters (see the trace example/test).
    specs.resize(1);
    opt.jobs = 1;
  }

  scenario::BatchOptions batch;
  batch.threads = opt.jobs;
  batch.hooks.collect_metrics =
      opt.grid.collect_metrics || !opt.trace_path.empty();
  if (!opt.trace_path.empty()) {
    // Big enough that a whole scenario run fits in the ring — exported
    // spans then reconcile exactly with the SoC's counters.
    batch.hooks.trace_capacity = std::size_t{1} << 20;
    batch.hooks.inspect = [&opt](soc::Soc& sys,
                                 const scenario::JobResult& r) {
      obs::TraceExportStats st;
      std::string terr;
      if (!obs::write_chrome_trace(opt.trace_path, sys.trace(), &terr, &st)) {
        std::fprintf(stderr, "error: trace export failed: %s\n", terr.c_str());
        return;
      }
      std::printf(
          "trace: %s — job '%s', %llu track(s), %llu bus span(s), "
          "%llu check span(s), %llu lifecycle span(s), %llu instant(s) "
          "(%llu alerts)\n",
          opt.trace_path.c_str(),
          r.variant.empty() ? r.name.c_str() : r.variant.c_str(),
          static_cast<unsigned long long>(st.tracks),
          static_cast<unsigned long long>(st.bus_spans),
          static_cast<unsigned long long>(st.check_spans),
          static_cast<unsigned long long>(st.lifecycle_spans),
          static_cast<unsigned long long>(st.instants),
          static_cast<unsigned long long>(st.alert_instants));
      std::fflush(stdout);
    };
  }
  if (!opt.quiet) {
    std::printf("scenario %s: %zu job(s) on %u thread(s)\n", name.c_str(),
                specs.size(), opt.jobs);
    batch.on_job_done = [](const scenario::JobResult& r, std::size_t done,
                           std::size_t total) {
      std::printf("  [%zu/%zu] %s %s\n", done, total,
                  r.variant.empty() ? r.name.c_str() : r.variant.c_str(),
                  r.soc.completed ? "done" : "TIMED OUT");
      std::fflush(stdout);
    };
  }
  const std::vector<scenario::JobResult> results =
      scenario::run_batch(specs, batch);
  const scenario::BatchAggregate aggregate =
      scenario::BatchAggregate::from(results);

  if (opt.quiet) {
    std::printf(
        "%s: %zu/%zu completed, latency %.1f +/- %.1f cyc "
        "(p50 %.1f, p95 %.1f, p99 %.1f), alerts %.0f\n",
        name.c_str(), aggregate.jobs_completed, aggregate.jobs_total,
        aggregate.latency.mean(), aggregate.latency.stddev(),
        aggregate.latency_p50, aggregate.latency_p95, aggregate.latency_p99,
        aggregate.alerts.sum());
  } else {
    std::fputs(scenario::render_batch_table(name, results, aggregate).c_str(),
               stdout);
  }

  bool reports_ok = true;
  if (!opt.no_files) {
    const std::string csv_path =
        opt.csv_path.empty() ? name + ".csv" : opt.csv_path;
    const std::string json_path =
        opt.json_path.empty() ? name + ".json" : opt.json_path;
    util::CsvWriter csv(csv_path);
    scenario::write_batch_csv(csv, results);
    csv.flush();
    const bool json_ok = util::write_file(
        json_path, scenario::batch_json(name, results, aggregate));
    reports_ok = csv.ok() && json_ok;
    if (!opt.quiet) {
      std::printf("reports: %s%s, %s%s\n", csv_path.c_str(),
                  csv.ok() ? "" : " (write failed)", json_path.c_str(),
                  json_ok ? "" : " (write failed)");
    }
    if (!csv.ok()) {
      std::fprintf(stderr, "error: failed to write %s\n", csv_path.c_str());
    }
    if (!json_ok) {
      std::fprintf(stderr, "error: failed to write %s\n", json_path.c_str());
    }
  }

  return aggregate.jobs_completed == aggregate.jobs_total && reports_ok ? 0 : 1;
}

int cmd_list_scenarios() {
  util::TextTable table("Built-in scenarios (secbus_cli run <name>)");
  table.set_header({"name", "jobs", "attack", "description"});
  for (const auto& s : scenario::builtin_scenarios()) {
    table.add_row({s.spec.name, std::to_string(s.job_count()),
                   to_string(s.spec.attack.kind), s.spec.description});
  }
  table.print();
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  const std::string name = argv[2];
  const scenario::NamedScenario* entry = scenario::find_scenario(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; try list-scenarios\n",
                 name.c_str());
    return 1;
  }
  BatchCliOptions opt;
  for (int i = 3; i < argc; ++i) {
    if (!parse_batch_option(argc, argv, i, opt)) usage(argv[0]);
  }
  return run_jobs(name, campaign::campaign_from_builtin(*entry), opt);
}

int cmd_sweep(int argc, char** argv) {
  std::string base_name = "section5";
  scenario::SweepAxes axes;
  BatchCliOptions opt;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (parse_batch_option(argc, argv, i, opt)) continue;
    if (arg == "--scenario") {
      base_name = next();
    } else if (arg == "--topology") {
      for (const auto& tok : split_commas(next())) {
        soc::TopologySpec topo;
        if (!soc::parse_topology(tok, topo)) usage(argv[0]);
        axes.topology.push_back(topo);
      }
    } else if (arg == "--cpus") {
      for (const auto& tok : split_commas(next())) {
        std::uint64_t u = 0;
        if (!parse_u64(tok.c_str(), u) || u < 1 || u > 63) usage(argv[0]);
        axes.cpus.push_back(static_cast<std::size_t>(u));
      }
    } else if (arg == "--security") {
      for (const auto& tok : split_commas(next())) {
        soc::SecurityMode mode;
        if (!soc::parse_security_mode(tok, mode)) usage(argv[0]);
        axes.security.push_back(mode);
      }
    } else if (arg == "--protection") {
      for (const auto& tok : split_commas(next())) {
        soc::ProtectionLevel level;
        if (!soc::parse_protection_level(tok, level)) usage(argv[0]);
        axes.protection.push_back(level);
      }
    } else if (arg == "--seeds") {
      for (const auto& tok : split_commas(next())) {
        std::uint64_t u = 0;
        if (!parse_u64(tok.c_str(), u)) usage(argv[0]);
        axes.seeds.push_back(u);
      }
    } else if (arg == "--extra-rules") {
      for (const auto& tok : split_commas(next())) {
        std::uint64_t u = 0;
        if (!parse_u64(tok.c_str(), u) || u > 1024) usage(argv[0]);
        axes.extra_rules.push_back(static_cast<std::size_t>(u));
      }
    } else if (arg == "--line-bytes") {
      for (const auto& tok : split_commas(next())) {
        std::uint64_t u = 0;
        if (!parse_u64(tok.c_str(), u) ||
            (u != 16 && u != 32 && u != 64 && u != 128)) {
          usage(argv[0]);
        }
        axes.line_bytes.push_back(u);
      }
    } else if (arg == "--external") {
      for (const auto& tok : split_commas(next())) {
        double d = 0.0;
        if (!parse_double(tok.c_str(), d) || d < 0.0 || d > 1.0) usage(argv[0]);
        axes.external_fraction.push_back(d);
      }
    } else {
      usage(argv[0]);
    }
  }

  const scenario::NamedScenario* entry = scenario::find_scenario(base_name);
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; try list-scenarios\n",
                 base_name.c_str());
    return 1;
  }
  campaign::CampaignSpec grid = campaign::campaign_from_builtin(*entry);
  // A custom sweep replaces the scenario's default axes.
  if (!axes.empty()) grid.axes = axes;
  return run_jobs(base_name + "-sweep", grid, opt);
}

// Renders + writes the campaign outputs (table or quiet line; cells CSV,
// campaign JSON, per-job CSV) for a complete submission-order result
// vector. Shared by the plain run, `campaign merge` and `campaign serve` so
// all three emit byte-identical artifacts from identical results.
int emit_campaign_outputs(const std::string& name,
                          const std::vector<scenario::JobResult>& results,
                          const BatchCliOptions& opt,
                          const std::string& out_dir,
                          const std::string& cells_csv_path) {
  const campaign::CampaignReport report =
      campaign::CampaignReport::from(name, results);

  if (opt.quiet) {
    std::printf(
        "%s: %zu/%zu completed, %zu cell(s), detected %zu/%zu, "
        "contained %zu/%zu\n",
        name.c_str(), report.batch.jobs_completed, report.batch.jobs_total,
        report.cells.size(), report.batch.attacks_detected,
        report.batch.attacks_ran, report.batch.attacks_contained,
        report.batch.containment_checked);
  } else {
    std::fputs(campaign::render_campaign_table(report).c_str(), stdout);
  }

  bool reports_ok = true;
  if (!opt.no_files) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const auto in_out = [&out_dir](const std::string& file_name) {
      return (std::filesystem::path(out_dir) / file_name).string();
    };
    const std::string cells_path = cells_csv_path.empty()
                                       ? in_out(name + ".cells.csv")
                                       : cells_csv_path;
    const std::string json_path = opt.json_path.empty()
                                      ? in_out(name + ".campaign.json")
                                      : opt.json_path;
    const std::string jobs_path =
        opt.csv_path.empty() ? in_out(name + ".jobs.csv") : opt.csv_path;

    util::CsvWriter cells_csv(cells_path);
    campaign::write_cells_csv(cells_csv, report);
    cells_csv.flush();
    util::CsvWriter jobs_csv(jobs_path);
    scenario::write_batch_csv(jobs_csv, results);
    jobs_csv.flush();
    const bool json_ok =
        util::write_file(json_path, campaign::campaign_json(report));
    reports_ok = cells_csv.ok() && jobs_csv.ok() && json_ok;

    // Per-job component metrics ride in their own sidecar (present only
    // under --metrics) so the main campaign JSON keeps its historical
    // shape and size.
    std::string metrics_path;
    bool any_metrics = false;
    for (const auto& r : results) any_metrics |= !r.metrics.empty();
    if (any_metrics) {
      metrics_path = in_out(name + ".metrics.json");
      util::Json doc = util::Json::object();
      doc.set("campaign", util::Json::string(name));
      util::Json jobs = util::Json::array();
      for (const auto& r : results) {
        if (r.metrics.empty()) continue;
        util::Json entry = util::Json::object();
        entry.set("index",
                  util::Json::number(static_cast<std::uint64_t>(r.index)));
        entry.set("metrics", r.metrics.to_json());
        jobs.push(std::move(entry));
      }
      doc.set("jobs", std::move(jobs));
      if (!util::write_file(metrics_path, doc.dump())) reports_ok = false;
    }

    if (!opt.quiet) {
      std::printf("reports: %s, %s, %s%s%s\n", cells_path.c_str(),
                  json_path.c_str(), jobs_path.c_str(),
                  metrics_path.empty() ? "" : ", ", metrics_path.c_str());
    }
    if (!reports_ok) {
      std::fprintf(stderr, "error: failed to write campaign reports under %s\n",
                   out_dir.c_str());
    }
  }

  return report.batch.jobs_completed == report.batch.jobs_total && reports_ok
             ? 0
             : 1;
}

// "--shard i/N": 0 <= i < N <= 1024.
bool parse_shard_selector(const char* text, std::size_t& index,
                          std::size_t& total) {
  char* end = nullptr;
  const unsigned long long i = std::strtoull(text, &end, 10);
  if (end == text || *end != '/') return false;
  const char* rest = end + 1;
  const unsigned long long n = std::strtoull(rest, &end, 10);
  if (end == rest || *end != '\0') return false;
  if (n < 1 || n > 1024 || i >= n) return false;
  index = static_cast<std::size_t>(i);
  total = static_cast<std::size_t>(n);
  return true;
}

int cmd_campaign_run(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  const std::string file = argv[3];
  BatchCliOptions opt;
  std::string out_dir = "bench/out";
  std::string cells_csv_path;
  // A plain run is shard 0 of 1 that keeps its results in memory: no
  // checkpoint, no progress sidecar, no shard file, the aggregate reports.
  campaign::ShardRunOptions run;
  bool sharded = false;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (refused_option(arg, "campaign run", {"--trace"})) return 1;
    if (parse_batch_option(argc, argv, i, opt)) continue;
    if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--cells-csv") {
      cells_csv_path = next();
    } else if (arg == "--shard") {
      if (!parse_shard_selector(next(), run.shard, run.shards)) {
        usage(argv[0]);
      }
      sharded = true;
    } else {
      usage(argv[0]);
    }
  }

  campaign::CampaignSpec spec;
  std::vector<scenario::ScenarioSpec> specs;
  std::string error;
  if (!campaign::load_campaign_file(file, spec, &error) ||
      !campaign::expand_grid(spec, opt.grid, specs, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto in_out = [&out_dir](const std::string& file_name) {
    return (std::filesystem::path(out_dir) / file_name).string();
  };
  run.threads = opt.jobs;
  run.collect_metrics = opt.grid.collect_metrics;
  run.campaign = spec.name;
  // Checkpoint records and the shard file's grid fingerprint both fold the
  // per-spec fingerprints; hash every spec once.
  std::vector<std::uint64_t> spec_fps;
  if (sharded) {
    spec_fps = campaign::spec_fingerprints(specs);
    run.spec_fps = spec_fps;
    // Shard runs always checkpoint under --out, so re-running one after a
    // crash resumes instead of recomputing.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    run.progress_path =
        in_out(campaign::progress_file_name(spec.name, run.shard, run.shards));
    run.checkpoint_path = in_out(
        campaign::checkpoint_file_name(spec.name, run.shard, run.shards));
  }
  const std::size_t slice =
      campaign::shard_indices(specs.size(), run.shard, run.shards).size();
  if (!opt.quiet) {
    if (sharded) {
      std::printf("campaign %s: shard %zu/%zu — %zu of %zu job(s) on %u "
                  "thread(s)\n",
                  spec.name.c_str(), run.shard, run.shards, slice,
                  specs.size(), opt.jobs);
    } else {
      std::printf("campaign %s: %zu job(s) on %u thread(s)\n",
                  spec.name.c_str(), specs.size(), opt.jobs);
    }
    run.on_job_done = strided_progress(slice);
  }
  const campaign::ShardRunOutcome outcome = campaign::run_shard(specs, run);
  if (!sharded) {
    return emit_campaign_outputs(spec.name, outcome.results, opt, out_dir,
                                 cells_csv_path);
  }

  if (!outcome.checkpoint_ok) {
    std::fprintf(stderr, "error: checkpoint write failed (%s)\n",
                 run.checkpoint_path.c_str());
  }
  const std::string shard_path =
      in_out(campaign::shard_file_name(spec.name, run.shard, run.shards));
  if (!campaign::write_shard_file(
          shard_path,
          campaign::to_shard_file(spec.name, outcome, run.shard, run.shards,
                                  campaign::grid_fingerprint(spec_fps)),
          &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::size_t completed = 0;
  for (const std::size_t i : outcome.indices) {
    if (outcome.results[i].soc.completed) ++completed;
  }
  std::printf("%s shard %zu/%zu: %zu/%zu completed (%zu resumed from "
              "checkpoint, %zu executed) -> %s\n",
              spec.name.c_str(), run.shard, run.shards, completed,
              outcome.indices.size(), outcome.resumed, outcome.executed,
              shard_path.c_str());
  return completed == outcome.indices.size() && outcome.checkpoint_ok ? 0 : 1;
}

int cmd_campaign_merge(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  BatchCliOptions opt;
  std::string out_dir = "bench/out";
  std::string cells_csv_path;
  std::vector<std::string> shard_paths;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // The shard files already fix the grid and its results.
    if (refused_option(arg, "campaign merge",
                       {"--jobs", "--repeats", "--max-cycles", "--metrics",
                        "--trace"})) {
      return 1;
    }
    if (parse_batch_option(argc, argv, i, opt)) continue;
    if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--cells-csv") {
      cells_csv_path = next();
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else {
      shard_paths.push_back(arg);
    }
  }
  if (shard_paths.empty()) usage(argv[0]);

  std::string name;
  std::vector<scenario::JobResult> results;
  std::string error;
  if (!campaign::merge_shard_files(shard_paths, &name, &results, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!opt.quiet) {
    std::printf("merged %zu shard file(s): campaign %s, %zu job(s)\n",
                shard_paths.size(), name.c_str(), results.size());
  }
  return emit_campaign_outputs(name, results, opt, out_dir, cells_csv_path);
}

int cmd_campaign_validate(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  for (int i = 3; i < argc; ++i) {
    campaign::CampaignSpec spec;
    std::string error;
    if (!campaign::load_campaign_file(argv[i], spec, &error)) {
      std::fprintf(stderr, "%s: INVALID\n  %s\n", argv[i], error.c_str());
      return 1;
    }
    // Cells = grid points with the seed axis collapsed.
    const std::size_t seeds =
        spec.axes.seeds.empty() ? 1 : spec.axes.seeds.size();
    std::printf("%s: ok — campaign '%s', %zu job(s), %zu cell(s)\n", argv[i],
                spec.name.c_str(), spec.job_count(),
                spec.job_count() / seeds);
  }
  return 0;
}

int cmd_campaign_status(int argc, char** argv) {
  std::string dir = "bench/out";
  if (argc >= 4) {
    if (argv[3][0] == '-') usage(argv[0]);
    dir = argv[3];
  }
  std::vector<campaign::ShardProgress> shards;
  std::string error;
  if (!campaign::scan_progress_dir(dir, shards, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fputs(campaign::render_campaign_status(shards).c_str(), stdout);
  return shards.empty() ? 1 : 0;
}

int cmd_campaign_export(int argc, char** argv) {
  std::string dir = "bench/out/builtin-campaigns";
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  std::vector<std::string> paths;
  std::string error;
  if (!campaign::export_builtin_campaigns(dir, &paths, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& path : paths) {
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("%zu builtin scenario(s) exported as campaign files\n",
              paths.size());
  return 0;
}

// "host:port" with a non-empty host and a valid TCP port.
bool parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  std::uint64_t p = 0;
  if (!parse_u64(text.c_str() + colon + 1, p) || p == 0 || p > 65535) {
    return false;
  }
  host = text.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

int cmd_campaign_serve(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  const std::string file = argv[3];
  BatchCliOptions opt;
  campaign::FleetServerOptions serve_opt;
  std::string cells_csv_path;
  std::uint16_t port = 0;  // 0 = ephemeral (the bound port is printed)
  bool listen_any = false;
  bool http = false;
  std::uint16_t http_port = 0;  // 0 = ephemeral (the bound port is printed)
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Workers pick their own thread counts.
    if (refused_option(arg, "campaign serve", {"--jobs", "--trace"})) return 1;
    if (parse_batch_option(argc, argv, i, opt)) continue;
    std::uint64_t u = 0;
    if (arg == "--port" && parse_u64(next(), u) && u <= 65535) {
      port = static_cast<std::uint16_t>(u);
    } else if (arg == "--shards" && parse_u64(next(), u) && u >= 1 &&
               u <= 1024) {
      serve_opt.shards = static_cast<std::size_t>(u);
    } else if (arg == "--out") {
      serve_opt.out_dir = next();
    } else if (arg == "--cells-csv") {
      cells_csv_path = next();
    } else if (arg == "--lease-timeout" && parse_u64(next(), u) && u >= 1) {
      serve_opt.lease_timeout_ms = u;
    } else if (arg == "--heartbeat" && parse_u64(next(), u) && u >= 1) {
      serve_opt.heartbeat_ms = u;
    } else if (arg == "--listen-any") {
      listen_any = true;
    } else if (arg == "--http-port" && parse_u64(next(), u) && u <= 65535) {
      http = true;
      http_port = static_cast<std::uint16_t>(u);
    } else if (arg == "--resume") {
      serve_opt.resume = true;
    } else {
      usage(argv[0]);
    }
  }

  campaign::CampaignSpec spec;
  std::string error;
  if (!campaign::load_campaign_file(file, spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  serve_opt.quiet = opt.quiet;
  serve_opt.grid = opt.grid;
  // Server-side chaos (kill_server_after, for the restart-recovery CI
  // leg) rides the same SECBUS_CHAOS variable the workers use.
  if (!campaign::ChaosOptions::from_env(serve_opt.chaos, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  net::TcpServerTransport tcp_transport;
  if (!tcp_transport.listen(port, /*loopback_only=*/!listen_any, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // With a net: chaos directive the server's side of every connection is
  // lossy too — the decorator wraps the listening transport wholesale.
  net::ChaosTransport chaos_transport(serve_opt.chaos.net, &tcp_transport);
  net::Transport& transport = serve_opt.chaos.net.enabled
                                  ? static_cast<net::Transport&>(chaos_transport)
                                  : tcp_transport;
  campaign::FleetServer server(transport, spec, serve_opt);
  if (!server.init_error().empty()) {
    std::fprintf(stderr, "error: %s\n", server.init_error().c_str());
    return 1;
  }
  // Always printed (and flushed) so scripts can scrape the bound port —
  // essential with --port 0.
  std::printf("fleet: serving campaign %s on %s:%u — %zu job(s) across %zu "
              "shard(s), lease timeout %llu ms%s\n",
              spec.name.c_str(), listen_any ? "0.0.0.0" : "127.0.0.1",
              static_cast<unsigned>(tcp_transport.bound_port()),
              server.specs().size(), serve_opt.shards,
              static_cast<unsigned long long>(serve_opt.lease_timeout_ms),
              serve_opt.resume ? " (resumed)" : "");
  if (serve_opt.resume) {
    std::printf("fleet: epoch %llu, %zu shard(s) already committed in the "
                "fleet log\n",
                static_cast<unsigned long long>(server.epoch()),
                server.resumed_shards());
  }
  std::fflush(stdout);

  // Observability endpoints share the fleet loop: the server's run() calls
  // back between protocol steps and we sweep the HTTP socket non-blocking.
  // Scrapes read the same in-memory state the protocol mutates — no locks,
  // no second thread, no effect on the deterministic artifacts.
  net::HttpServer http_server;
  std::function<void()> between_steps;
  if (http) {
    if (!http_server.listen(http_port, /*loopback_only=*/!listen_any,
                            &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("http: /metrics and /status on %s:%u\n",
                listen_any ? "0.0.0.0" : "127.0.0.1",
                static_cast<unsigned>(http_server.bound_port()));
    std::fflush(stdout);
    between_steps = [&server, &http_server]() {
      const net::HttpServer::Handler handler =
          [&server](const net::HttpRequest& request) {
            net::HttpResponse response;
            if (request.target == "/metrics") {
              response.content_type = "text/plain; version=0.0.4";
              response.body = obs::prometheus_text(server.fleet_registry());
            } else if (request.target == "/status") {
              response.content_type = "application/json";
              response.body = server.status_json().dump(0);
              response.body += '\n';
            } else {
              response.status = 404;
              response.body = "not found\n";
            }
            return response;
          };
      std::string http_error;
      http_server.poll(0, handler, &http_error);
    };
  }
  if (!server.run(&error, between_steps)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  http_server.close();
  std::printf("fleet: lease audit log at %s\n", server.audit_path().c_str());
  if (server.reassignments() != 0) {
    std::fprintf(stderr, "fleet: %zu lease reassignment(s) during this run\n",
                 server.reassignments());
  }
  return emit_campaign_outputs(spec.name, server.results(), opt,
                               serve_opt.out_dir, cells_csv_path);
}

int cmd_campaign_worker(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  campaign::FleetWorkerOptions worker_opt;
  if (!parse_host_port(argv[3], worker_opt.host, worker_opt.port)) {
    std::fprintf(stderr, "error: campaign worker wants <host:port>, got "
                         "\"%s\"\n",
                 argv[3]);
    return 1;
  }
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    std::uint64_t u = 0;
    if (arg == "--jobs" && parse_u64(next(), u) && u <= 256) {
      worker_opt.threads = static_cast<unsigned>(u);
    } else if (arg == "--out") {
      worker_opt.out_dir = next();
    } else if (arg == "--id") {
      worker_opt.worker_id = next();
    } else if (arg == "--reconnect" && parse_u64(next(), u) && u <= 1000) {
      worker_opt.max_reconnects = static_cast<std::size_t>(u);
    } else if (arg == "--backoff" && parse_u64(next(), u) && u >= 1) {
      worker_opt.backoff_ms = u;
    } else if (arg == "--quiet") {
      worker_opt.quiet = true;
    } else {
      usage(argv[0]);
    }
  }
  std::string error;
  if (!campaign::ChaosOptions::from_env(worker_opt.chaos, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  campaign::FleetWorkerStats stats;
  if (!campaign::run_fleet_worker(worker_opt, &stats, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("fleet worker: %zu shard(s) submitted, %zu refused, %zu "
              "reconnect(s)\n",
              stats.shards_completed, stats.shards_refused, stats.reconnects);
  return 0;
}

int cmd_campaign_top(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  std::string host;
  std::uint16_t port = 0;
  if (!parse_host_port(argv[3], host, port)) {
    std::fprintf(stderr,
                 "error: campaign top wants <host:port>, got \"%s\"\n",
                 argv[3]);
    return 1;
  }
  std::uint64_t interval_ms = 1000;
  bool once = false;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    std::uint64_t u = 0;
    if (arg == "--interval" && parse_u64(next(), u) && u >= 1) {
      interval_ms = u;
    } else if (arg == "--once") {
      once = true;
    } else {
      usage(argv[0]);
    }
  }
  bool first = true;
  for (;;) {
    int status = 0;
    std::string body;
    std::string error;
    if (!net::http_get(host, port, "/status", &status, &body, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return first ? 1 : 0;  // a vanished server after a good poll = done
    }
    if (status != 200) {
      std::fprintf(stderr, "error: /status returned HTTP %d\n", status);
      return 1;
    }
    util::Json doc;
    if (!util::Json::parse(body, doc, &error)) {
      std::fprintf(stderr, "error: /status body: %s\n", error.c_str());
      return 1;
    }
    if (!once) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    std::fputs(campaign::render_fleet_top(doc).c_str(), stdout);
    std::fflush(stdout);
    first = false;
    const util::Json* finished = doc.find("finished");
    if (once || (finished != nullptr && finished->is_bool() &&
                 finished->as_bool())) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int cmd_campaign_timeline(int argc, char** argv) {
  if (argc < 4) usage(argv[0]);
  const std::string audit_path = argv[3];
  std::string out_path;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      usage(argv[0]);
    }
  }
  if (out_path.empty()) {
    // <campaign>.fleet-audit.jsonl -> <campaign>.fleet-timeline.json
    const std::string suffix = ".fleet-audit.jsonl";
    if (audit_path.size() > suffix.size() &&
        audit_path.compare(audit_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
      out_path = audit_path.substr(0, audit_path.size() - suffix.size()) +
                 ".fleet-timeline.json";
    } else {
      out_path = audit_path + ".timeline.json";
    }
  }
  std::vector<campaign::AuditRecord> records;
  std::string error;
  if (!campaign::read_audit_log(audit_path, records, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  obs::FleetTimelineStats stats;
  if (!obs::write_fleet_timeline(out_path, records, &error, &stats)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("fleet timeline: %zu audit record(s) -> %s\n", records.size(),
              out_path.c_str());
  std::printf("  %zu worker track(s), %zu lease span(s) (%zu committed, %zu "
              "expired, %zu released, %zu lost), %zu extend(s), %zu "
              "instant(s), %zu unmatched across %zu server epoch(s)\n",
              stats.tracks, stats.lease_spans, stats.committed, stats.expired,
              stats.released, stats.lost, stats.extends, stats.instants,
              stats.unmatched, stats.epochs);
  return stats.unmatched == 0 ? 0 : 1;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) usage(argv[0]);
  const std::string verb = argv[2];
  if (verb == "run") return cmd_campaign_run(argc, argv);
  if (verb == "merge") return cmd_campaign_merge(argc, argv);
  if (verb == "validate") return cmd_campaign_validate(argc, argv);
  if (verb == "status") return cmd_campaign_status(argc, argv);
  if (verb == "export-builtin") return cmd_campaign_export(argc, argv);
  if (verb == "serve") return cmd_campaign_serve(argc, argv);
  if (verb == "worker") return cmd_campaign_worker(argc, argv);
  if (verb == "top") return cmd_campaign_top(argc, argv);
  if (verb == "timeline") return cmd_campaign_timeline(argc, argv);
  usage(argv[0]);
}

int legacy_single_run(int argc, char** argv) {
  soc::SocConfig cfg = soc::section5_config();
  cfg.transactions_per_cpu = 300;
  sim::Cycle max_cycles = 50'000'000;
  bool full_report = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    std::uint64_t u = 0;
    double d = 0.0;
    if (arg == "--cpus" && parse_u64(next(), u) && u >= 1 && u <= 63) {
      cfg.processors = u;
    } else if (arg == "--topology") {
      if (!soc::parse_topology(next(), cfg.topology)) usage(argv[0]);
    } else if (arg == "--security") {
      if (!soc::parse_security_mode(next(), cfg.security)) usage(argv[0]);
    } else if (arg == "--protection") {
      if (!soc::parse_protection_level(next(), cfg.protection)) usage(argv[0]);
    } else if (arg == "--external" && parse_double(next(), d) && d >= 0.0 &&
               d <= 1.0) {
      cfg.external_fraction = d;
    } else if (arg == "--transactions" && parse_u64(next(), u) && u >= 1) {
      cfg.transactions_per_cpu = u;
    } else if (arg == "--compute" && parse_u64(next(), u)) {
      cfg.compute_min = u;
      cfg.compute_max = u + 8;
    } else if (arg == "--extra-rules" && parse_u64(next(), u) && u <= 1024) {
      cfg.extra_rules = u;
    } else if (arg == "--line-bytes" && parse_u64(next(), u) &&
               (u == 16 || u == 32 || u == 64 || u == 128)) {
      cfg.line_bytes = u;
    } else if (arg == "--seed" && parse_u64(next(), u)) {
      cfg.seed = u;
    } else if (arg == "--max-cycles" && parse_u64(next(), u) && u >= 1) {
      max_cycles = u;
    } else if (arg == "--reconfig") {
      cfg.enable_reconfig = true;
    } else if (arg == "--report") {
      full_report = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage(argv[0]);
    }
  }

  if (!quiet) {
    std::printf(
        "secbus: %zu CPU%s, security=%s, protection=%s, external=%.0f%%, "
        "%llu txn/cpu, seed=%llu\n",
        cfg.processors, cfg.processors == 1 ? "" : "s",
        to_string(cfg.security), to_string(cfg.protection),
        100.0 * cfg.external_fraction,
        static_cast<unsigned long long>(cfg.transactions_per_cpu),
        static_cast<unsigned long long>(cfg.seed));
  }

  soc::Soc system(cfg);
  const soc::SocResults results = system.run(max_cycles);

  std::printf(
      "%s in %llu cycles (%.3f ms @100MHz): %llu ok, %llu failed, "
      "latency %.1f cyc, bus %.1f%%, alerts %llu\n",
      results.completed ? "completed" : "TIMED OUT",
      static_cast<unsigned long long>(results.cycles),
      cfg.clock.cycles_to_us(results.cycles) / 1000.0,
      static_cast<unsigned long long>(results.transactions_ok),
      static_cast<unsigned long long>(results.transactions_failed),
      results.avg_access_latency, 100.0 * results.bus_occupancy,
      static_cast<unsigned long long>(results.alerts));

  if (full_report) {
    std::fputs(soc::render_full_report(system).c_str(), stdout);
  }
  return results.completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "list-scenarios") == 0) {
    return cmd_list_scenarios();
  }
  if (argc >= 2 && std::strcmp(argv[1], "crypto-info") == 0) {
    // Detected CPU features, selected backend and any env override — CI logs
    // this so every run records which crypto datapath it exercised.
    std::fputs(crypto::backend_report().c_str(), stdout);
    return 0;
  }
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
    return cmd_run(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "sweep") == 0) {
    return cmd_sweep(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "campaign") == 0) {
    return cmd_campaign(argc, argv);
  }
  if (argc >= 2 && argv[1][0] != '-') usage(argv[0]);
  return legacy_single_run(argc, argv);
}
