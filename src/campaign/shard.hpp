// Sharded, resumable campaign execution.
//
// A campaign grid expands to a deterministic job list; this module cuts
// that list into N deterministic shards (stable round-robin over the job
// index), runs any one shard with crash-safe JSONL checkpointing, ships
// each shard's completed JobResults as a self-describing result file, and
// merges shard files back into the full submission-order result vector —
// from which the ordinary CampaignReport/batch emitters produce output
// byte-identical to a single-process run (see scenario/result_io.hpp for
// why merge fidelity is exact).
//
// Three cooperating layers:
//   * shard plan      — shard_indices(), spec_fingerprint(), grid
//                       fingerprints guarding that every participant
//                       expanded the *same* grid;
//   * checkpointing   — CheckpointWriter appends one record per completed
//                       job; load_checkpoint() replays records whose job
//                       index + spec fingerprint still match, so re-running
//                       an interrupted shard skips finished work (and a
//                       stale checkpoint from an edited campaign is
//                       ignored, never merged);
//   * execution       — run_shard() executes one shard in-process. Spreading
//                       shards over processes is the fleet's job
//                       (fleet.hpp: `campaign serve` plus workers, loopback
//                       on one host), or the user's: N `--shard i/N` runs
//                       followed by `campaign merge`.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "campaign/chaos.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "util/jsonl.hpp"

namespace secbus::campaign {

// Job index -> shard assignment: stable round-robin. Round-robin (rather
// than contiguous blocks) balances shards even when grid cost varies
// monotonically along an axis (e.g. cpus innermost-to-outermost).
[[nodiscard]] inline std::size_t shard_of(std::size_t job_index,
                                          std::size_t shards) noexcept {
  return shards == 0 ? 0 : job_index % shards;
}

// Ascending job indices owned by `shard` of `shards` over `job_count` jobs.
[[nodiscard]] std::vector<std::size_t> shard_indices(std::size_t job_count,
                                                     std::size_t shard,
                                                     std::size_t shards);

// FNV-1a64 over the spec's canonical JSON (campaign::spec_to_json, compact
// dump): any change to any field — soc config, attack shaping, cycle cap,
// variant label — changes the fingerprint. Guards checkpoints and shard
// files against grids that drifted between runs.
[[nodiscard]] std::uint64_t spec_fingerprint(
    const scenario::ScenarioSpec& spec);

// spec_fingerprint of every spec, in order. The fingerprints of a grid
// never change, so a participant computes them once per campaign and hands
// them to grid_fingerprint and run_shard.
[[nodiscard]] std::vector<std::uint64_t> spec_fingerprints(
    const std::vector<scenario::ScenarioSpec>& specs);

// Fingerprint of a whole expanded job list (order-sensitive): FNV-1a64 over
// the job count and then every spec fingerprint.
[[nodiscard]] std::uint64_t grid_fingerprint(
    std::span<const std::uint64_t> spec_fps);
[[nodiscard]] std::uint64_t grid_fingerprint(
    const std::vector<scenario::ScenarioSpec>& specs);

// --- shard result files -----------------------------------------------------

struct ShardResultFile {
  std::string campaign;
  std::size_t shard = 0;
  std::size_t shards = 1;
  std::size_t jobs_total = 0;   // full grid size, not this shard's slice
  std::uint64_t grid_fp = 0;
  std::vector<scenario::JobResult> results;  // this shard's jobs, ascending
};

// Canonical file names: "<campaign>.shard-<i>-of-<N>.json" for results,
// "<campaign>.shard-<i>-of-<N>.ckpt.jsonl" for checkpoints. Shared by the
// CLI and the fleet worker so a --shard re-run resumes from the
// checkpoints a fleet worker wrote (and vice versa).
[[nodiscard]] std::string shard_file_name(const std::string& campaign,
                                          std::size_t shard,
                                          std::size_t shards);
[[nodiscard]] std::string checkpoint_file_name(const std::string& campaign,
                                               std::size_t shard,
                                               std::size_t shards);

// JSON (de)serialization of a shard result file. The on-disk file and the
// fleet protocol's shard_done payload are the same document, so a result
// that traveled over the wire is byte-for-byte the result a local worker
// would have written. `context` prefixes error messages (file path, or
// "worker <id>" for wire payloads).
[[nodiscard]] util::Json shard_file_to_json(const ShardResultFile& file);
bool shard_file_from_json(const util::Json& j, const std::string& context,
                          ShardResultFile& out, std::string* error);

bool write_shard_file(const std::string& path, const ShardResultFile& file,
                      std::string* error);
bool read_shard_file(const std::string& path, ShardResultFile& out,
                     std::string* error);

// Reassembles the full submission-order result vector from shard files
// already in memory. Validates that the files describe the same campaign
// (name, shard count, job count, grid fingerprint), that every result sits
// in its owner's slice, and that the union covers every job exactly once.
// `labels[f]` names files[f] in error messages (its path).
bool merge_shard_results(std::vector<ShardResultFile> files,
                         const std::vector<std::string>& labels,
                         std::string* campaign_name,
                         std::vector<scenario::JobResult>* results,
                         std::string* error);

// read_shard_file for every path, then merge_shard_results.
bool merge_shard_files(const std::vector<std::string>& paths,
                       std::string* campaign_name,
                       std::vector<scenario::JobResult>* results,
                       std::string* error);

// --- checkpoints ------------------------------------------------------------

// Thread-safe JSONL appender: one {"index", "fingerprint", "result"} record
// per completed job, flushed per record. Safe to call from concurrent
// batch-runner completion callbacks.
class CheckpointWriter {
 public:
  bool open(const std::string& path);
  bool append(const scenario::JobResult& result, std::uint64_t fingerprint);
  [[nodiscard]] bool ok();
  void close();

 private:
  std::mutex mutex_;
  util::JsonlWriter writer_;
};

// Replays a checkpoint into `results`/`done` (both sized like `spec_fps`,
// the spec_fingerprints of the current grid). A record is restored only
// when its index is in range, not already done, and its fingerprint
// matches the current spec at that index — anything else (stale grid,
// foreign shard, torn tail) is skipped. Returns the number of restored
// jobs; a missing file restores zero.
std::size_t load_checkpoint(const std::string& path,
                            std::span<const std::uint64_t> spec_fps,
                            std::vector<scenario::JobResult>& results,
                            std::vector<char>& done);

// --- shard execution --------------------------------------------------------

struct ShardRunOptions {
  std::size_t shard = 0;
  std::size_t shards = 1;
  unsigned threads = 1;  // batch-runner threads inside this shard
  // Non-empty enables checkpointing: resume from the file, then append
  // every newly-completed job to it.
  std::string checkpoint_path;
  // spec_fingerprints(specs), which checkpoint records carry and resume
  // checks; required with checkpoint_path. Must outlive run_shard.
  std::span<const std::uint64_t> spec_fps;
  // Non-empty enables progress telemetry: periodic ProgressRecords append
  // to this sidecar (see campaign/telemetry.hpp). `campaign` labels the
  // records; `progress_interval_ms` throttles them.
  std::string progress_path;
  std::string campaign;
  std::uint64_t progress_interval_ms = 1000;
  // Collect the full per-component metric registry on every job
  // (JobResult::metrics). A recording option, not a spec field: it never
  // perturbs spec fingerprints, so checkpoints resume across it.
  bool collect_metrics = false;
  // Fault injection (campaign/chaos.hpp): with kKillAfter, the process
  // std::_Exit()s right after checkpointing its n-th executed job — the
  // deterministic stand-in for a worker crash that the fleet's lease
  // reassignment must recover from.
  ChaosOptions chaos;
  // Progress over the whole shard slice; `done` counts resumed + executed.
  std::function<void(const scenario::JobResult&, std::size_t done,
                     std::size_t total)>
      on_job_done;
};

struct ShardRunOutcome {
  // Full-size (specs.size()) vector with this shard's slots filled — ready
  // to slice into a ShardResultFile or merge in-process.
  std::vector<scenario::JobResult> results;
  std::vector<std::size_t> indices;  // the shard's slice
  std::size_t resumed = 0;           // restored from the checkpoint
  std::size_t executed = 0;          // actually simulated this run
  bool checkpoint_ok = true;         // false: a checkpoint append failed
};

// Runs this shard's slice of the expanded grid (checkpoint-resumed when
// enabled). Deterministic: the filled slots are bit-identical to the same
// indices of a full-grid run.
[[nodiscard]] ShardRunOutcome run_shard(
    const std::vector<scenario::ScenarioSpec>& specs,
    const ShardRunOptions& options);

// Extracts `outcome.results` rows owned by shard `shard` into a result
// file. The index is explicit (not derived from the outcome) so an empty
// slice — fewer jobs than shards — still stamps the right shard.
[[nodiscard]] ShardResultFile to_shard_file(const std::string& campaign,
                                            const ShardRunOutcome& outcome,
                                            std::size_t shard,
                                            std::size_t shards,
                                            std::uint64_t grid_fp);

}  // namespace secbus::campaign
