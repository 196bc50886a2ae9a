// secbus_perfbench: the measuring half of the repository benchmark.
//
// Runs one workload's campaign for a fixed host-time budget and writes every
// raw measurement as one JSON document; run.py turns that document into the
// reported metrics and makes the pass/fail decision. The jobs go through the
// public APIs a user's `campaign run` / `campaign serve` goes through:
//
//   in-process (attack_grid, datapath_busy)
//       load_campaign_file -> expand_campaign -> run_batch (1 thread)
//       -> CampaignReport -> cells CSV + campaign JSON + jobs CSV
//   fleet (fleet_loopback)
//       load_campaign_file -> FleetServer on a loopback TcpServerTransport
//       <- 3 run_fleet_worker threads (1 runner thread each) -> same outputs
//
// Every repetition ("rep") starts from a cleared FormatCache, as a fresh
// process would. With --trace 1 the reps alternate untraced/traced; traced
// reps record spans around each layer call (kept in memory, written at the
// end) and the run adds layer probes (crypto, checks, SoC build, frame
// codec). Nothing here changes what the simulator computes: the artifacts of
// every rep are compared byte-for-byte with the first rep's (in-process) or
// with an in-process reference run (fleet).
//
//   secbus_perfbench --workload NAME --campaign FILE --seconds S
//                    --trace 0|1 --workdir DIR --out RESULT.json

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fleet.hpp"
#include "campaign/report.hpp"
#include "campaign/shard.hpp"
#include "campaign/telemetry.hpp"
#include "core/checks.hpp"
#include "core/format_cache.hpp"
#include "core/policy_index.hpp"
#include "crypto/aes128.hpp"
#include "crypto/aes_modes.hpp"
#include "crypto/backend.hpp"
#include "crypto/hash_tree.hpp"
#include "crypto/sha256.hpp"
#include "net/frame.hpp"
#include "net/netstats.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "soc/soc.hpp"
#include "util/csv.hpp"
#include "util/fileio.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using namespace secbus;
using util::Json;
using Clock = std::chrono::steady_clock;

// Fleet geometry: many more shards than workers, so the lease round trip is
// paid often. Shards hold kJobsPerShard jobs each.
constexpr std::size_t kJobsPerShard = 6;
constexpr std::size_t kFleetWorkers = 3;
// Cycles the traced run ticks on each drained SoC to price an idle cycle.
constexpr sim::Cycle kIdleProbeCycles = 2000;
// A fleet rep that has not finished after this long counts its uncommitted
// jobs as lost.
constexpr double kFleetRepDeadlineS = 60.0;

const Clock::time_point g_origin = Clock::now();

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
std::int64_t ns_since_origin(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_origin)
      .count();
}
Json num(double v) { return Json::number(v); }
Json num(std::uint64_t v) { return Json::number(v); }
Json num_size(std::size_t v) {
  return Json::number(static_cast<std::uint64_t>(v));
}

// Keeps the optimizer from discarding a probe's result.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Times `body` (which runs `iters` operations) `rounds` times; returns the
// median ns per operation.
double ns_per_op(int rounds, std::size_t iters,
                 const std::function<void()>& body) {
  std::vector<double> samples;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    body();
    samples.push_back(secs(t0, Clock::now()) * 1e9 /
                      static_cast<double>(iters));
  }
  return median(samples);
}

// Moves the calling thread to the next CPU of the process's affinity set.
// In-process reps rotate over every CPU this way, so one run samples every
// core instead of whichever one the scheduler first picked: on a shared host
// the cores' speeds drift apart for tens of seconds at a time.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }
  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- spans ------------------------------------------------------------------

// Spans recorded around layer calls during traced reps. Held in memory and
// written once, at the end of the run.
class SpanLog {
 public:
  std::size_t add(std::string name, std::size_t parent, Clock::time_point start,
                  Clock::time_point end, Json attrs = Json::object()) {
    spans_.push_back({std::move(name), parent, ns_since_origin(start),
                      ns_since_origin(end), std::move(attrs)});
    return spans_.size();  // ids start at 1; 0 means "no parent"
  }
  void set_end(std::size_t id, Clock::time_point end) {
    spans_[id - 1].end_ns = ns_since_origin(end);
  }
  [[nodiscard]] Json to_json() const {
    Json out = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json j = Json::object();
      j.set("id", num_size(i + 1));
      j.set("parent", num_size(s.parent));
      j.set("name", Json::string(s.name));
      j.set("start_ns", Json::number(s.start_ns));
      j.set("end_ns", Json::number(s.end_ns));
      j.set("attrs", s.attrs);
      out.push(std::move(j));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    Json attrs;
  };
  std::vector<Span> spans_;
};

// --- artifacts --------------------------------------------------------------

struct Artifacts {
  std::string cells;
  std::string json;
  std::string jobs;
};

const char* const kArtifactSuffixes[] = {".cells.csv", ".campaign.json",
                                         ".jobs.csv"};

// The same three files `secbus_cli campaign run` writes, in the same way.
bool emit_artifacts(const fs::path& dir, const campaign::CampaignReport& report,
                    const std::vector<scenario::JobResult>& results) {
  const std::string stem = (dir / report.name).string();
  util::CsvWriter cells(stem + kArtifactSuffixes[0]);
  campaign::write_cells_csv(cells, report);
  cells.flush();
  util::CsvWriter jobs(stem + kArtifactSuffixes[2]);
  scenario::write_batch_csv(jobs, results);
  jobs.flush();
  const bool json_ok = util::write_file(stem + kArtifactSuffixes[1],
                                        campaign::campaign_json(report));
  return cells.ok() && jobs.ok() && json_ok;
}

Artifacts read_artifacts(const fs::path& dir, const std::string& name) {
  Artifacts a;
  const std::string stem = (dir / name).string();
  (void)util::read_file(stem + kArtifactSuffixes[0], a.cells);
  (void)util::read_file(stem + kArtifactSuffixes[1], a.json);
  (void)util::read_file(stem + kArtifactSuffixes[2], a.jobs);
  return a;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Jobs whose jobs-CSV row differs from the reference's (row i+1 is job i).
// A missing row counts as a mismatch.
std::size_t mismatched_jobs(const Artifacts& got, const Artifacts& want,
                            std::size_t jobs) {
  const std::vector<std::string> g = lines_of(got.jobs);
  const std::vector<std::string> w = lines_of(want.jobs);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    const std::size_t row = i + 1;
    if (row >= g.size() || row >= w.size() || g[row] != w[row]) ++bad;
  }
  return bad;
}

void record_comparison(Json& rep, const Artifacts& got, const Artifacts& want,
                       std::size_t jobs) {
  const bool same = got.cells == want.cells && got.json == want.json &&
                    got.jobs == want.jobs;
  rep.set("artifacts_identical", Json::boolean(same));
  rep.set("mismatched_jobs", num_size(mismatched_jobs(got, want, jobs)));
}

// --- per-job counters from the metrics registry -------------------------------

bool starts_with(const std::string& s, std::string_view p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}
bool ends_with(const std::string& s, std::string_view p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}
double value_of(const obs::Metric& m) {
  return m.is_counter ? static_cast<double>(m.count) : m.value;
}

// Sums the layer counters of one job's registry (bus.seg<i>.*, core.*).
Json job_counters(const obs::Registry& reg) {
  double idle = 0, busy = 0, bus_txn = 0, wait_sum = 0, wait_n = 0;
  double secpol = 0, mgr = 0, dec = 0, enc = 0, rmw = 0, cc = 0, hashes = 0;
  for (const obs::Metric& m : reg.metrics()) {
    const std::string& n = m.name;
    const double v = value_of(m);
    if (starts_with(n, "bus.seg")) {
      const std::string rest = n.substr(n.find('.', 4) + 1);
      if (rest == "idle_cycles") idle += v;
      if (rest == "busy_cycles") busy += v;
      if (rest == "transactions") bus_txn += v;
      if (starts_with(rest, "master.") && ends_with(rest, ".wait_cycles.mean")) {
        const std::string count_name =
            n.substr(0, n.size() - std::string_view(".mean").size()) +
            ".count";
        if (const obs::Metric* c = reg.find(count_name)) {
          wait_sum += v * value_of(*c);
          wait_n += value_of(*c);
        }
      }
    } else if (starts_with(n, "core.")) {
      if (ends_with(n, ".secpol_reqs")) secpol += v;
      if (n == "core.manager.checks_served") mgr += v;
      if (starts_with(n, "core.lcf")) {
        if (ends_with(n, ".lines_decrypted")) dec += v;
        if (ends_with(n, ".lines_encrypted")) enc += v;
        if (ends_with(n, ".read_modify_writes")) rmw += v;
        if (ends_with(n, ".cc.operations")) cc += v;
        if (ends_with(n, ".ic.hash_invocations")) hashes += v;
      }
    }
  }
  Json j = Json::object();
  j.set("idle_cycles", num(idle));
  j.set("busy_cycles", num(busy));
  j.set("bus_transactions", num(bus_txn));
  j.set("wait_cycles_sum", num(wait_sum));
  j.set("wait_cycles_n", num(wait_n));
  j.set("secpol_reqs", num(secpol));
  j.set("manager_checks", num(mgr));
  j.set("lines_decrypted", num(dec));
  j.set("lines_encrypted", num(enc));
  j.set("read_modify_writes", num(rmw));
  j.set("cc_operations", num(cc));
  j.set("hash_invocations", num(hashes));
  return j;
}

// SoC construction cost depends on these fields, not on the seed or attack.
std::string build_class(const soc::SocConfig& c) {
  return std::string(soc::to_string(c.security)) + "/" +
         soc::to_string(c.protection) + "/" + c.topology.label() +
         "/cpus=" + std::to_string(c.processors) +
         "/ext=" + std::to_string(c.external_fraction);
}

void add_totals(Json& rep, const std::vector<scenario::JobResult>& results) {
  std::uint64_t accesses = 0;
  std::uint64_t cycles = 0;
  std::size_t completed = 0;
  for (const auto& r : results) {
    accesses += r.soc.transactions_ok + r.soc.transactions_failed;
    cycles += r.soc.cycles;
    if (r.soc.completed) ++completed;
  }
  rep.set("accesses", num(accesses));
  rep.set("cycles", num(cycles));
  rep.set("completed", num_size(completed));
}

void add_cache_delta(Json& rep, const core::FormatCache::Stats& before) {
  const core::FormatCache::Stats after = core::FormatCache::instance().stats();
  rep.set("cache_hits", num(after.hits - before.hits));
  rep.set("cache_misses", num(after.misses - before.misses));
}

struct Options {
  std::string workload;
  std::string campaign_path;
  double seconds = 10;
  bool trace = false;
  fs::path workdir;
  std::string out;
};

// Per-job spans for a batch run on one runner thread. run_batch calls the
// inspect hook on the job's own thread right before on_job_done, so with one
// runner thread the two always see the same job.
class JobTracer {
 public:
  JobTracer(SpanLog& spans, std::size_t parent,
            const std::vector<std::size_t>& class_of)
      : spans_(spans),
        parent_(parent),
        class_of_(class_of),
        cache_last_(core::FormatCache::instance().stats()) {}
  JobTracer(const JobTracer&) = delete;
  JobTracer& operator=(const JobTracer&) = delete;

  void install(scenario::BatchOptions& batch) {
    batch.hooks.collect_metrics = true;
    batch.hooks.inspect = [this](soc::Soc& sys, const scenario::JobResult& r) {
      inspect(sys, r);
    };
  }
  // Records the job that just completed; [start, end] is its host wall.
  void job_done(Clock::time_point start, Clock::time_point end) {
    const std::size_t job = spans_.add("job", parent_, start, end, pending_);
    spans_.add("sim.idle_probe", job, idle_start_, idle_end_);
    ++executed_;
  }
  [[nodiscard]] std::size_t parent() const noexcept { return parent_; }

 private:
  void inspect(soc::Soc& sys, const scenario::JobResult& r) {
    pending_ = job_counters(r.metrics);
    pending_.set("cycles", num(r.soc.cycles));
    pending_.set("accesses",
                 num(r.soc.transactions_ok + r.soc.transactions_failed));
    pending_.set("ticks", num(sys.kernel().ticks_executed()));
    const core::FormatCache::Stats now = core::FormatCache::instance().stats();
    pending_.set("cache_hits", num(now.hits - cache_last_.hits));
    pending_.set("cache_misses", num(now.misses - cache_last_.misses));
    cache_last_ = now;
    pending_.set("build_class", num_size(class_of_[executed_]));
    pending_.set("idle_probe_cycles", num(std::uint64_t{kIdleProbeCycles}));
    // The result and its metrics are already collected, so the extra
    // cycles change nothing the job reports.
    idle_start_ = Clock::now();
    sys.kernel().run(kIdleProbeCycles);
    idle_end_ = Clock::now();
  }

  SpanLog& spans_;
  std::size_t parent_;
  const std::vector<std::size_t>& class_of_;
  core::FormatCache::Stats cache_last_;
  std::size_t executed_ = 0;
  Json pending_;
  Clock::time_point idle_start_;
  Clock::time_point idle_end_;
};

// --- in-process rep -----------------------------------------------------------

struct InProcessRep {
  Json sample = Json::object();
  std::vector<scenario::JobResult> results;
};

InProcessRep run_inprocess_rep(const Options& opt, const fs::path& dir,
                               SpanLog* spans, std::size_t rep_index,
                               const std::vector<std::size_t>& class_of) {
  InProcessRep out;
  Json& rep = out.sample;
  core::FormatCache::instance().clear();
  const core::FormatCache::Stats cache0 = core::FormatCache::instance().stats();
  fs::create_directories(dir);

  const auto t0 = Clock::now();
  campaign::CampaignSpec spec;
  std::string error;
  if (!campaign::load_campaign_file(opt.campaign_path, spec, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  const auto t_expand = Clock::now();
  const std::vector<scenario::ScenarioSpec> specs =
      campaign::expand_campaign(spec);
  const auto t1 = Clock::now();

  std::vector<double> job_ms;
  job_ms.reserve(specs.size());
  Clock::time_point last = t1;
  scenario::BatchOptions batch;
  batch.threads = 1;

  std::size_t rep_span = 0;
  std::optional<JobTracer> tracer;
  if (spans != nullptr) {
    Json attrs = Json::object();
    attrs.set("rep", num_size(rep_index));
    rep_span = spans->add("rep", 0, t0, t0, attrs);
    const std::size_t setup = spans->add("setup", rep_span, t0, t1);
    spans->add("campaign.expand", setup, t_expand, t1);
    tracer.emplace(*spans, spans->add("dispatch", rep_span, t1, t1), class_of);
    tracer->install(batch);
  }
  batch.on_job_done = [&](const scenario::JobResult&, std::size_t,
                          std::size_t) {
    const auto now = Clock::now();
    job_ms.push_back(secs(last, now) * 1e3);
    if (tracer) tracer->job_done(last, now);
    last = now;
  };
  out.results = scenario::run_batch(specs, batch);
  const auto t2 = Clock::now();
  const campaign::CampaignReport report =
      campaign::CampaignReport::from(spec.name, out.results);
  const auto t3 = Clock::now();
  const bool emitted = emit_artifacts(dir, report, out.results);
  const auto t4 = Clock::now();

  if (tracer) {
    spans->set_end(tracer->parent(), t2);
    spans->add("campaign.report", rep_span, t2, t3);
    spans->add("campaign.emit", rep_span, t3, t4);
    spans->set_end(rep_span, t4);
  }
  rep.set("traced", Json::boolean(spans != nullptr));
  rep.set("jobs", num_size(specs.size()));
  rep.set("setup_s", num(secs(t0, t1)));
  rep.set("expand_s", num(secs(t_expand, t1)));
  rep.set("dispatch_s", num(secs(t1, t4)));
  rep.set("report_s", num(secs(t2, t3)));
  rep.set("emit_s", num(secs(t3, t4)));
  rep.set("emitted", Json::boolean(emitted));
  Json jm = Json::array();
  for (const double ms : job_ms) jm.push(num(ms));
  rep.set("job_ms", std::move(jm));
  add_totals(rep, out.results);
  add_cache_delta(rep, cache0);
  return out;
}

// --- fleet rep ----------------------------------------------------------------

// Forwards to the server's real transport and timestamps, on the host clock,
// every lease grant the server sends and every shard result it receives.
// The audit log carries the same events in whole milliseconds; this gives
// the per-job fleet latency its sub-millisecond resolution.
class LeaseTap : public net::Transport {
 public:
  explicit LeaseTap(net::Transport& inner) : inner_(inner) {}

  bool send(net::ConnId conn, const Json& message) override {
    if (campaign::fleet_msg::type_of(message) == "grant") {
      grants_[key_of(message)] = Clock::now();
    }
    return inner_.send(conn, message);
  }
  bool send_frame(net::ConnId conn, const std::string& bytes) override {
    return inner_.send_frame(conn, bytes);
  }
  void close_conn(net::ConnId conn) override { inner_.close_conn(conn); }
  bool poll(std::uint64_t timeout_ms, std::vector<net::TransportEvent>& out,
            std::string* error) override {
    const std::size_t before = out.size();
    const bool ok = inner_.poll(timeout_ms, out, error);
    const auto now = Clock::now();
    for (std::size_t i = before; i < out.size(); ++i) {
      const net::TransportEvent& e = out[i];
      if (e.kind != net::TransportEvent::Kind::kMessage ||
          campaign::fleet_msg::type_of(e.message) != "shard_done") {
        continue;
      }
      const auto grant = grants_.find(key_of(e.message));
      if (grant != grants_.end()) {
        Json lease = Json::array();
        lease.push(num(key_of(e.message).first));
        lease.push(num(secs(grant->second, now) * 1e3));
        holds_.push(std::move(lease));
      }
    }
    return ok;
  }
  std::uint64_t now_ms() override { return inner_.now_ms(); }

  // [[shard, grant->result ms], ...] in arrival order.
  [[nodiscard]] const Json& holds() const noexcept { return holds_; }

 private:
  static std::pair<std::uint64_t, std::uint64_t> key_of(const Json& m) {
    std::uint64_t shard = 0;
    std::uint64_t generation = 0;
    if (const Json* v = m.find("shard")) (void)v->to_u64(shard);
    if (const Json* v = m.find("generation")) (void)v->to_u64(generation);
    return {shard, generation};
  }

  net::Transport& inner_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Clock::time_point> grants_;
  Json holds_ = Json::array();
};

struct FleetRep {
  Json sample = Json::object();
  bool finished = false;
};

FleetRep run_fleet_rep(const Options& opt, const fs::path& dir,
                       const fs::path& audit_copy, SpanLog* spans,
                       std::size_t rep_index) {
  FleetRep out;
  Json& rep = out.sample;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  core::FormatCache::instance().clear();
  const core::FormatCache::Stats cache0 = core::FormatCache::instance().stats();
  const net::NetStats net0 = net::netstats_snapshot();

  std::vector<std::thread> workers;
  std::vector<campaign::FleetWorkerStats> worker_stats(kFleetWorkers);
  std::vector<std::string> worker_errors(kFleetWorkers);
  std::string error;
  std::size_t jobs = 0;
  std::size_t lost = 0;
  std::vector<std::string> shard_files;
  std::string name;
  Clock::time_point t0, t_load, t_server, t1, t2, t3, t4;
  {
    t0 = Clock::now();
    campaign::CampaignSpec spec;
    if (!campaign::load_campaign_file(opt.campaign_path, spec, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      std::exit(2);
    }
    name = spec.name;
    const std::size_t shards = spec.job_count() / kJobsPerShard;
    t_load = Clock::now();
    net::TcpServerTransport tcp;
    if (!tcp.listen(0, /*loopback_only=*/true, &error)) {
      std::fprintf(stderr, "perfbench: listen: %s\n", error.c_str());
      std::exit(2);
    }
    campaign::FleetServerOptions so;
    so.shards = shards;
    so.out_dir = dir.string();
    so.quiet = true;
    LeaseTap tap(tcp);
    campaign::FleetServer server(tap, spec, so);  // expands the grid
    t_server = Clock::now();
    if (!server.init_error().empty()) {
      std::fprintf(stderr, "perfbench: %s\n", server.init_error().c_str());
      std::exit(2);
    }
    jobs = server.specs().size();
    for (std::size_t i = 0; i < kFleetWorkers; ++i) {
      campaign::FleetWorkerOptions wo;
      wo.host = "127.0.0.1";
      wo.port = tcp.bound_port();
      wo.worker_id = "w" + std::to_string(i);
      wo.out_dir = dir.string();
      wo.threads = 1;
      wo.quiet = true;
      // A failed rep should end fast rather than retry for seconds.
      wo.max_reconnects = 2;
      wo.backoff_ms = 100;
      wo.backoff_max_ms = 200;
      workers.emplace_back([wo, i, &worker_stats, &worker_errors] {
        (void)campaign::run_fleet_worker(wo, &worker_stats[i],
                                         &worker_errors[i]);
      });
    }
    bool ok = true;
    const auto hellos = [&server] {
      const obs::Registry reg = server.fleet_registry();
      const obs::Metric* m = reg.find("fleet.workers");
      return m == nullptr ? 0.0 : value_of(*m);
    };
    while (ok && hellos() < static_cast<double>(kFleetWorkers) &&
           secs(t0, Clock::now()) < kFleetRepDeadlineS) {
      ok = server.step(5, &error);
    }
    t1 = Clock::now();
    while (ok && !server.finished() &&
           secs(t1, Clock::now()) < kFleetRepDeadlineS) {
      ok = server.step(50, &error);
    }
    out.finished = ok && server.finished();
    if (out.finished) {
      const std::vector<scenario::JobResult>& results = server.results();
      t2 = Clock::now();
      const campaign::CampaignReport report =
          campaign::CampaignReport::from(spec.name, results);
      t3 = Clock::now();
      rep.set("emitted", Json::boolean(emit_artifacts(dir, report, results)));
      t4 = Clock::now();
      add_totals(rep, results);
      shard_files = server.shard_files();
      // Lets workers read `done` and hang up (run() only lingers here).
      (void)server.run(&error);
    } else {
      t2 = t3 = t4 = Clock::now();
      for (std::size_t s = 0; s < server.leases().shard_count(); ++s) {
        if (server.leases().state(s) !=
            campaign::LeaseManager::ShardState::kDone) {
          lost += campaign::shard_indices(jobs, s, shards).size();
        }
      }
      std::fprintf(stderr, "perfbench: fleet rep %zu did not finish: %s\n",
                   rep_index, error.c_str());
    }
    rep.set("lease_holds", tap.holds());
    rep.set("shards", num_size(shards));
    if (!server.audit_path().empty()) {
      fs::copy_file(server.audit_path(), audit_copy,
                    fs::copy_options::overwrite_existing, ec);
    }
  }  // server and listener close here: any worker still attached sees it
  for (std::thread& t : workers) t.join();
  if (!out.finished) {
    for (const std::string& e : worker_errors) {
      if (!e.empty()) std::fprintf(stderr, "perfbench: worker: %s\n", e.c_str());
    }
  }
  const net::NetStats net1 = net::netstats_snapshot();
  add_cache_delta(rep, cache0);

  double merge_s = 0.0;
  if (spans != nullptr && out.finished) {
    // The server merged these already; time one more merge of the same
    // shard files, outside the rep's timed phase.
    const auto m0 = Clock::now();
    std::string merged_name;
    std::vector<scenario::JobResult> merged;
    (void)campaign::merge_shard_files(shard_files, &merged_name, &merged,
                                      &error);
    merge_s = secs(m0, Clock::now());
    Json attrs = Json::object();
    attrs.set("rep", num_size(rep_index));
    const std::size_t root = spans->add("rep", 0, t0, t4, attrs);
    const std::size_t setup = spans->add("setup", root, t0, t1);
    spans->add("campaign.expand", setup, t_load, t_server);
    spans->add("dispatch", root, t1, t2);
    spans->add("campaign.report", root, t2, t3);
    spans->add("campaign.emit", root, t3, t4);
  }

  rep.set("traced", Json::boolean(spans != nullptr));
  rep.set("jobs", num_size(jobs));
  rep.set("lost_jobs", num_size(lost));
  rep.set("finished", Json::boolean(out.finished));
  rep.set("setup_s", num(secs(t0, t1)));
  rep.set("expand_s", num(secs(t_load, t_server)));
  rep.set("dispatch_s", num(secs(t1, t4)));
  rep.set("report_s", num(secs(t2, t3)));
  rep.set("emit_s", num(secs(t3, t4)));
  rep.set("merge_s", num(merge_s));
  rep.set("audit_log", Json::string(audit_copy.string()));
  rep.set("net_frames", num(net1.frames_in + net1.frames_out -
                            net0.frames_in - net0.frames_out));
  rep.set("net_bytes", num(net1.bytes_in + net1.bytes_out - net0.bytes_in -
                           net0.bytes_out));
  return out;
}

// --- probes (traced runs only) ------------------------------------------------

// AddressSegmentChecker + RwaChecker + AdfChecker over the compiled policy of
// the workload's CPU 0, on addresses inside and outside its rules.
double probe_check_ns(const scenario::ScenarioSpec& spec) {
  soc::Soc sys(spec.soc);
  const core::CompiledPolicyIndex index(sys.cpu_policy(0));
  const core::CompiledRuleSet& rules = index.rules_for(0);
  struct Probe {
    sim::Addr addr;
    bus::BusOp op;
    bus::DataFormat fmt;
  };
  std::vector<Probe> probes;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (const core::CompiledRule& rule : rules.rules()) {
    for (int k = 0; k < 64; ++k) {
      const std::uint64_t r = next();
      const sim::Addr in_rule = rule.base + (r % rule.size) / 4 * 4;
      probes.push_back({(k % 8 == 7) ? in_rule + rule.size : in_rule,
                        (r >> 40) & 1 ? bus::BusOp::kWrite : bus::BusOp::kRead,
                        (r >> 41) & 1 ? bus::DataFormat::kWord
                                      : bus::DataFormat::kByte});
    }
  }
  if (probes.empty()) return 0.0;
  core::AddressSegmentChecker seg;
  core::RwaChecker rwa;
  core::AdfChecker adf;
  constexpr std::size_t kChecks = 1 << 18;
  return ns_per_op(5, kChecks, [&] {
    std::size_t allowed = 0;
    for (std::size_t i = 0; i < kChecks; ++i) {
      const Probe& p = probes[i % probes.size()];
      const core::CompiledRule* rule = seg.check(rules, p.addr, 4);
      if (rule != nullptr && rwa.check(*rule, p.op) && adf.check(*rule, p.fmt)) {
        ++allowed;
      }
    }
    keep(allowed);
  });
}

Json probe_crypto(const scenario::ScenarioSpec& spec) {
  const std::size_t line = spec.soc.line_bytes;
  const std::size_t leaves = spec.soc.ddr_protected_size / line;
  crypto::Aes128Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  const crypto::Aes128 aes(key);
  crypto::CtrScratch scratch;
  std::vector<std::uint8_t> in(line, 0x5A);
  std::vector<std::uint8_t> out(line);
  constexpr std::size_t kLines = 1 << 15;
  Json j = Json::object();
  j.set("line_bytes", num_size(line));
  j.set("ctr_line_ns", num(ns_per_op(5, kLines, [&] {
          for (std::size_t i = 0; i < kLines; ++i) {
            crypto::memory_xcrypt_line(aes, 0x1234, 0x8000'0000ull + i * line,
                                       static_cast<std::uint32_t>(i), in, out,
                                       scratch);
          }
          keep(out);
        })));
  std::array<std::uint8_t, 32> left{};
  std::array<std::uint8_t, 32> right{};
  constexpr std::size_t kHashes = 1 << 16;
  j.set("sha256_ns", num(ns_per_op(5, kHashes, [&] {
          for (std::size_t i = 0; i < kHashes; ++i) {
            left[0] = static_cast<std::uint8_t>(i);
            const crypto::Sha256Digest d =
                crypto::Sha256::digest_parts({left, right});
            right[0] ^= d[0];
          }
          keep(right);
        })));
  crypto::HashTree tree({leaves, line, spec.soc.ddr_protected_base});
  tree.rebuild_zero();
  j.set("tree_depth", num_size(tree.depth()));
  const std::vector<std::uint8_t> zeros(line, 0);
  constexpr std::size_t kTreeOps = 1 << 12;
  j.set("tree_verify_ns", num(ns_per_op(5, kTreeOps, [&] {
          std::size_t ok = 0;
          for (std::size_t i = 0; i < kTreeOps; ++i) {
            ok += tree.verify((i * 7919) % leaves, zeros, 0).ok ? 1 : 0;
          }
          keep(ok);
        })));
  std::uint32_t version = 0;
  j.set("tree_update_ns", num(ns_per_op(5, kTreeOps, [&] {
          for (std::size_t i = 0; i < kTreeOps; ++i) {
            in[0] = static_cast<std::uint8_t>(i);
            keep(tree.update((i * 7919) % leaves, in, ++version));
          }
        })));
  return j;
}

// SoC construction per build class: FormatCache warm (hit) and disabled
// (every protected region formatted from scratch: miss).
Json probe_soc_builds(const std::vector<scenario::ScenarioSpec>& specs,
                      const std::vector<std::size_t>& class_of,
                      std::size_t classes) {
  Json out = Json::array();
  core::FormatCache& cache = core::FormatCache::instance();
  for (std::size_t c = 0; c < classes; ++c) {
    const auto it = std::find(class_of.begin(), class_of.end(), c);
    const soc::SocConfig& cfg = specs[it - class_of.begin()].soc;
    { const soc::Soc warm(cfg); }
    std::vector<double> hit_us;
    std::vector<double> miss_us;
    for (int i = 0; i < 7; ++i) {
      const auto t0 = Clock::now();
      const soc::Soc sys(cfg);
      hit_us.push_back(secs(t0, Clock::now()) * 1e6);
    }
    cache.set_enabled(false);
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const soc::Soc sys(cfg);
      miss_us.push_back(secs(t0, Clock::now()) * 1e6);
    }
    cache.set_enabled(true);
    Json j = Json::object();
    j.set("class", Json::string(build_class(cfg)));
    j.set("security", Json::string(soc::to_string(cfg.security)));
    j.set("protection", Json::string(soc::to_string(cfg.protection)));
    j.set("hit_us", num(median(hit_us)));
    j.set("miss_us", num(median(miss_us)));
    out.push(std::move(j));
  }
  return out;
}

// encode_frame + FrameDecoder::feed/next of a grant, a heartbeat carrying a
// worker snapshot, and a shard_done carrying one shard's results.
double probe_frame_roundtrip_us(
    const std::string& name,
    const std::vector<scenario::ScenarioSpec>& specs,
    const std::vector<scenario::JobResult>& results) {
  const std::size_t shards = std::max<std::size_t>(1, specs.size() / kJobsPerShard);
  Json grant = Json::object();
  grant.set("type", Json::string("grant"));
  grant.set("shard", num_size(3));
  grant.set("generation", num(std::uint64_t{1}));
  grant.set("epoch", num(std::uint64_t{0}));
  campaign::ProgressRecord progress;
  progress.campaign = name;
  progress.shard = 0;
  progress.shards = shards;
  progress.done = 3;
  progress.total = kJobsPerShard;
  progress.elapsed_ms = 12;
  progress.jobs_per_sec = 250.0;
  progress.format_cache_hits = 40;
  progress.format_cache_misses = 2;
  const obs::Registry snapshot = campaign::worker_metrics_snapshot(progress);
  campaign::ShardResultFile file;
  file.campaign = name;
  file.shard = 0;
  file.shards = shards;
  file.jobs_total = specs.size();
  file.grid_fp = campaign::grid_fingerprint(specs);
  for (const std::size_t i : campaign::shard_indices(specs.size(), 0, shards)) {
    file.results.push_back(results[i]);
  }
  const std::vector<Json> messages = {
      grant, campaign::fleet_msg::heartbeat(0, 1, progress, &snapshot),
      campaign::fleet_msg::shard_done(0, 1, progress, file)};
  constexpr std::size_t kRounds = 50;
  return ns_per_op(5, kRounds, [&] {
           std::size_t decoded = 0;
           for (std::size_t i = 0; i < kRounds; ++i) {
             for (const Json& m : messages) {
               const std::string bytes = net::encode_frame(m);
               net::FrameDecoder decoder;
               decoder.feed(bytes.data(), bytes.size());
               Json back;
               if (decoder.next(back)) ++decoded;
             }
           }
           keep(decoded);
         }) /
         1e3;
}

// --- reference run (fleet) ------------------------------------------------------

// The same campaign run in-process: the fleet's byte-identity reference, and
// (traced, one runner thread) the per-job compute walls the lease holds are
// compared with.
Json run_reference(const Options& opt, const fs::path& dir, unsigned threads,
                   SpanLog* spans, const std::vector<std::size_t>& class_of,
                   std::vector<scenario::JobResult>* results) {
  fs::create_directories(dir);
  core::FormatCache::instance().clear();
  campaign::CampaignSpec spec;
  std::string error;
  if (!campaign::load_campaign_file(opt.campaign_path, spec, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  const std::vector<scenario::ScenarioSpec> specs =
      campaign::expand_campaign(spec);
  std::vector<double> job_ms(specs.size(), 0.0);
  scenario::BatchOptions batch;
  batch.threads = threads;
  Clock::time_point last = Clock::now();
  std::optional<JobTracer> tracer;
  if (spans != nullptr && threads == 1) {
    tracer.emplace(*spans, spans->add("reference", 0, last, last), class_of);
    tracer->install(batch);
  }
  if (threads == 1) {
    batch.on_job_done = [&](const scenario::JobResult& r, std::size_t,
                            std::size_t) {
      const auto now = Clock::now();
      job_ms[r.index] = secs(last, now) * 1e3;
      if (tracer) tracer->job_done(last, now);
      last = now;
    };
  }
  *results = scenario::run_batch(specs, batch);
  if (tracer) spans->set_end(tracer->parent(), Clock::now());
  const campaign::CampaignReport report =
      campaign::CampaignReport::from(spec.name, *results);
  Json j = Json::object();
  j.set("dir", Json::string(dir.string()));
  j.set("emitted", Json::boolean(emit_artifacts(dir, report, *results)));
  j.set("threads", num(std::uint64_t{threads}));
  Json jm = Json::array();
  if (threads == 1) {
    for (const double ms : job_ms) jm.push(num(ms));
  }
  j.set("job_ms", std::move(jm));
  return j;
}

Json stamp() {
  const crypto::Backend& b = crypto::active_backend();
  Json j = Json::object();
  j.set("backend", Json::string(crypto::to_string(b.kind)));
  j.set("aes_impl", Json::string(crypto::to_string(b.aes_impl)));
  j.set("sha_impl", Json::string(crypto::to_string(b.sha_impl)));
  j.set("compiler", Json::string(PERFBENCH_COMPILER));
  j.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  j.set("hw_threads", num(std::uint64_t{std::thread::hardware_concurrency()}));
  return j;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: secbus_perfbench --workload NAME --campaign FILE "
               "--seconds S --trace 0|1 --workdir DIR --out RESULT.json\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--campaign") {
      opt.campaign_path = value;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--out") {
      opt.out = value;
    } else {
      usage();
    }
  }
  if (argc % 2 != 1 || opt.campaign_path.empty() || opt.workdir.empty() ||
      opt.out.empty() || opt.seconds <= 0 ||
      (opt.workload != "attack_grid" && opt.workload != "datapath_busy" &&
       opt.workload != "fleet_loopback")) {
    usage();
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  fs::create_directories(opt.workdir);
  const bool fleet = opt.workload == "fleet_loopback";
  SpanLog spans;

  Json doc = Json::object();
  doc.set("workload", Json::string(opt.workload));
  doc.set("stamp", stamp());

  // Traced in-process reps need each job's build class.
  std::string name;
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<std::size_t> class_of;
  std::size_t classes = 0;
  {
    campaign::CampaignSpec spec;
    std::string error;
    if (!campaign::load_campaign_file(opt.campaign_path, spec, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 2;
    }
    name = spec.name;
    doc.set("campaign", Json::string(name));
    specs = campaign::expand_campaign(spec);
    std::map<std::string, std::size_t> ids;
    for (const auto& s : specs) {
      class_of.push_back(ids.emplace(build_class(s.soc), ids.size()).first->second);
    }
    classes = ids.size();
  }

  // The fleet's reference comes first so every rep can be checked against it.
  std::vector<scenario::JobResult> reference_results;
  if (fleet) {
    doc.set("reference",
            run_reference(opt, opt.workdir / "reference",
                          opt.trace ? 1 : kFleetWorkers,
                          opt.trace ? &spans : nullptr, class_of,
                          &reference_results));
  }

  Json reps = Json::array();
  Artifacts baseline;
  std::vector<scenario::JobResult> first_results;
  const fs::path baseline_dir =
      fleet ? opt.workdir / "reference" : opt.workdir / "rep0";
  // At least three timed reps; traced runs need two timed untraced ones.
  const std::size_t min_reps = opt.trace ? 5 : 4;
  CpuRotation rotation;
  const auto t_start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    SpanLog* traced = opt.trace && rep % 2 == 1 ? &spans : nullptr;
    const fs::path dir = rep == 0 && !fleet ? baseline_dir : opt.workdir / "rep";
    Json sample;
    if (fleet) {
      const fs::path audit =
          opt.workdir / ("audit-" + std::to_string(rep) + ".jsonl");
      FleetRep r = run_fleet_rep(opt, dir, audit, traced, rep);
      sample = std::move(r.sample);
      if (rep == 0) {
        baseline = read_artifacts(baseline_dir, name);
        first_results = std::move(reference_results);
      }
      if (r.finished) {
        record_comparison(sample, read_artifacts(dir, name), baseline,
                          specs.size());
      } else {
        sample.set("artifacts_identical", Json::boolean(false));
        sample.set("mismatched_jobs", num_size(0));
      }
    } else {
      rotation.pin_next();
      InProcessRep r = run_inprocess_rep(opt, dir, traced, rep, class_of);
      sample = std::move(r.sample);
      if (rep == 0) {
        baseline = read_artifacts(baseline_dir, name);
        first_results = std::move(r.results);
      }
      record_comparison(sample, read_artifacts(dir, name), baseline,
                        specs.size());
    }
    // Rep 0 warms the process (allocator, caches, first page faults): it is
    // checked like every rep but left out of the timing statistics.
    sample.set("warmup", Json::boolean(rep == 0));
    reps.push(std::move(sample));
    if (rep + 1 >= min_reps && secs(t_start, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  doc.set("peak_rss_mb", num(peak_rss_mb()));
  doc.set("name", Json::string(name));
  doc.set("jobs", num_size(specs.size()));
  doc.set("baseline_dir", Json::string(baseline_dir.string()));
  doc.set("reps", std::move(reps));

  if (opt.trace) {
    Json probes = Json::object();
    probes.set("check_ns", num(probe_check_ns(specs.front())));
    // Crypto at the geometry of the workload's first ciphered job.
    const auto ciphered = std::find_if(
        specs.begin(), specs.end(), [](const scenario::ScenarioSpec& s) {
          return s.soc.protection != soc::ProtectionLevel::kPlaintext;
        });
    probes.set("crypto",
               probe_crypto(ciphered != specs.end() ? *ciphered : specs.front()));
    probes.set("soc_builds", probe_soc_builds(specs, class_of, classes));
    probes.set("frame_roundtrip_us",
               num(probe_frame_roundtrip_us(name, specs, first_results)));
    probes.set("idle_probe_cycles", num(std::uint64_t{kIdleProbeCycles}));
    doc.set("probes", std::move(probes));
    doc.set("spans", spans.to_json());
  }

  std::string error;
  if (!util::write_file(opt.out, doc.dump(0), &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return 0;
}
