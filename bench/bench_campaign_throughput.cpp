// Tracked throughput baseline for campaign execution.
//
// Times the same campaign three ways and records the ratios:
//   * single_nocache — one runner thread, SoC-setup memo cache disabled:
//     the execution model before memoization (the recorded baseline);
//   * single_cache   — one thread, memo cache warm: isolates the cross-job
//     SoC-setup memoization win (machine-independent);
//   * threadsN_cache — the batch runner on N threads sharing the warm
//     cache: the in-process parallel path `campaign run --jobs N` takes
//     (scales with hardware threads; `hw_threads` is recorded so a 1-core
//     CI box's number isn't misread as a regression).
//
// The figure of merit is `speedup_total` = single_nocache / threadsN_cache
// wall-clock; `speedup_memo` isolates the cache contribution. Results land
// in BENCH_campaign_throughput.json; tools/bench_compare diffs them against
// bench/baselines/.
//
//   bench_campaign_throughput [--campaign PATH] [--threads N] [--repeats N]
//                             [--out PATH] [--quick]
//
// Defaults: examples/campaigns/attack_grid.json, 4 threads, 3 repeats
// (best-of), output bench/out/BENCH_campaign_throughput.json. --quick drops
// to 1 repeat for CI smoke runs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_output.hpp"

#include "campaign/campaign.hpp"
#include "core/format_cache.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

using namespace secbus;

namespace {

struct Timing {
  std::string config;
  double wall_seconds = 0.0;  // best of repeats
  std::size_t jobs = 0;
};

double best_of(int repeats, const std::function<void()>& body) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (r == 0 || secs < best) best = secs;
  }
  return best;
}

void write_json(const std::string& path, const std::string& campaign,
                std::size_t jobs, unsigned threads, int repeats,
                const std::vector<Timing>& timings, double speedup_memo,
                double speedup_total,
                const core::FormatCache::Stats& cache_stats) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"campaign_throughput\",\n");
  std::fprintf(f, "  \"campaign\": \"%s\",\n", campaign.c_str());
  std::fprintf(f, "  \"jobs\": %zu,\n  \"threads\": %u,\n", jobs, threads);
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const Timing& t = timings[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"jobs\": %zu, "
                 "\"wall_seconds\": %.6f, \"jobs_per_sec\": %.1f}%s\n",
                 t.config.c_str(), t.jobs, t.wall_seconds,
                 t.wall_seconds > 0.0
                     ? static_cast<double>(t.jobs) / t.wall_seconds
                     : 0.0,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_memo\": %.3f,\n", speedup_memo);
  std::fprintf(f, "  \"speedup_total\": %.3f,\n", speedup_total);
  std::fprintf(f,
               "  \"format_cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"insertions\": %llu, \"evictions\": %llu},\n",
               static_cast<unsigned long long>(cache_stats.hits),
               static_cast<unsigned long long>(cache_stats.misses),
               static_cast<unsigned long long>(cache_stats.insertions),
               static_cast<unsigned long long>(cache_stats.evictions));
  // Flat registry-style metric paths (obs::Registry naming): these resolve
  // through tools/bench_compare's flat-key fallback, e.g.
  //   --metric metrics.core.format_cache.hit_rate
  const std::uint64_t lookups = cache_stats.hits + cache_stats.misses;
  const double hit_rate =
      lookups > 0
          ? static_cast<double>(cache_stats.hits) / static_cast<double>(lookups)
          : 0.0;
  std::fprintf(f,
               "  \"metrics\": {\"core.format_cache.hit_rate\": %.6f, "
               "\"core.format_cache.hits\": %llu, "
               "\"core.format_cache.misses\": %llu}\n",
               hit_rate, static_cast<unsigned long long>(cache_stats.hits),
               static_cast<unsigned long long>(cache_stats.misses));
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string campaign_path = "examples/campaigns/attack_grid.json";
  unsigned threads = 4;
  int repeats = 3;
  std::string out_path = benchio::out_path("BENCH_campaign_throughput.json");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--campaign" && i + 1 < argc) {
      campaign_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      threads = n < 1 || n > 64 ? 4u : static_cast<unsigned>(n);
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--quick") {
      repeats = 1;
    } else {
      std::fprintf(stderr,
                   "usage: bench_campaign_throughput [--campaign PATH] "
                   "[--threads N] [--repeats N] [--out PATH] [--quick]\n");
      return 2;
    }
  }
  if (repeats < 1) repeats = 1;

  std::puts("=== bench_campaign_throughput: campaign execution ===\n");

  campaign::CampaignSpec spec;
  std::string error;
  if (!campaign::load_campaign_file(campaign_path, spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const std::vector<scenario::ScenarioSpec> specs =
      campaign::expand_campaign(spec);

  core::FormatCache& cache = core::FormatCache::instance();
  std::vector<Timing> timings;

  // 1) Baseline: one thread, no setup memoization.
  cache.set_enabled(false);
  Timing nocache;
  nocache.config = "single_nocache";
  nocache.jobs = specs.size();
  nocache.wall_seconds = best_of(repeats, [&] {
    (void)scenario::run_batch(specs, {});
  });
  timings.push_back(nocache);

  // 2) Memoized single process (cache warmed by the first repeat; best-of
  //    keeps the warm figure, which is the steady state of a long
  //    campaign).
  cache.set_enabled(true);
  cache.clear();
  Timing cached;
  cached.config = "single_cache";
  cached.jobs = specs.size();
  cached.wall_seconds = best_of(repeats < 2 ? 2 : repeats, [&] {
    (void)scenario::run_batch(specs, {});
  });
  const core::FormatCache::Stats cache_stats = cache.stats();
  timings.push_back(cached);

  // 3) The batch runner on N threads over the warm shared cache.
  Timing threaded;
  threaded.config = "threads" + std::to_string(threads) + "_cache";
  threaded.jobs = specs.size();
  scenario::BatchOptions threaded_opts;
  threaded_opts.threads = threads;
  threaded.wall_seconds = best_of(repeats, [&] {
    (void)scenario::run_batch(specs, threaded_opts);
  });
  timings.push_back(threaded);

  const double speedup_memo =
      cached.wall_seconds > 0.0 ? nocache.wall_seconds / cached.wall_seconds
                                : 0.0;
  const double speedup_total =
      threaded.wall_seconds > 0.0
          ? nocache.wall_seconds / threaded.wall_seconds
          : 0.0;

  util::TextTable table("campaign " + spec.name + ", " +
                        std::to_string(specs.size()) + " jobs, best-of-" +
                        std::to_string(repeats) + ", " +
                        std::to_string(std::thread::hardware_concurrency()) +
                        " hw thread(s)");
  table.set_header({"config", "wall (s)", "jobs/sec", "speedup"});
  for (const Timing& t : timings) {
    table.add_row({t.config, util::TextTable::fmt(t.wall_seconds, 3),
                   util::TextTable::fmt(
                       t.wall_seconds > 0.0
                           ? static_cast<double>(t.jobs) / t.wall_seconds
                           : 0.0,
                       0),
                   util::TextTable::fmt(
                       t.wall_seconds > 0.0
                           ? nocache.wall_seconds / t.wall_seconds
                           : 0.0,
                       2)});
  }
  table.print();
  std::printf(
      "\nmemo speedup %.2fx, total (%u threads) %.2fx; format cache %llu "
      "hit(s) / %llu miss(es)\n",
      speedup_memo, threads, speedup_total,
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses));

  write_json(out_path, spec.name, specs.size(), threads, repeats, timings,
             speedup_memo, speedup_total, cache_stats);
  std::printf("Machine-readable report: %s\n", out_path.c_str());
  return 0;
}
