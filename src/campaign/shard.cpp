#include "campaign/shard.hpp"

#include <utility>

#include "campaign/campaign.hpp"
#include "campaign/spec_io.hpp"
#include "campaign/telemetry.hpp"
#include "scenario/result_io.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {

namespace {

using util::Json;

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return false;
}

}  // namespace

std::vector<std::size_t> shard_indices(std::size_t job_count,
                                       std::size_t shard,
                                       std::size_t shards) {
  SECBUS_ASSERT(shards >= 1 && shard < shards, "bad shard selector");
  std::vector<std::size_t> indices;
  if (job_count == 0) return indices;
  indices.reserve(job_count / shards + 1);
  for (std::size_t i = shard; i < job_count; i += shards) indices.push_back(i);
  return indices;
}

std::uint64_t spec_fingerprint(const scenario::ScenarioSpec& spec) {
  const std::string canonical = spec_to_json(spec).dump(0);
  return util::fnv1a_64(util::kFnv1aOffset, canonical.data(), canonical.size());
}

std::vector<std::uint64_t> spec_fingerprints(
    const std::vector<scenario::ScenarioSpec>& specs) {
  std::vector<std::uint64_t> fps;
  fps.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    fps.push_back(spec_fingerprint(spec));
  }
  return fps;
}

std::uint64_t grid_fingerprint(std::span<const std::uint64_t> spec_fps) {
  std::uint64_t h = util::kFnv1aOffset;
  const std::uint64_t count = spec_fps.size();
  h = util::fnv1a_64(h, &count, sizeof count);
  for (const std::uint64_t fp : spec_fps) {
    h = util::fnv1a_64(h, &fp, sizeof fp);
  }
  return h;
}

std::uint64_t grid_fingerprint(
    const std::vector<scenario::ScenarioSpec>& specs) {
  return grid_fingerprint(spec_fingerprints(specs));
}

// --- shard result files -----------------------------------------------------

namespace {

std::string shard_stem(const std::string& campaign, std::size_t shard,
                       std::size_t shards) {
  return campaign + ".shard-" + std::to_string(shard) + "-of-" +
         std::to_string(shards);
}

}  // namespace

std::string shard_file_name(const std::string& campaign, std::size_t shard,
                            std::size_t shards) {
  return shard_stem(campaign, shard, shards) + ".json";
}

std::string checkpoint_file_name(const std::string& campaign,
                                 std::size_t shard, std::size_t shards) {
  return shard_stem(campaign, shard, shards) + ".ckpt.jsonl";
}

Json shard_file_to_json(const ShardResultFile& file) {
  Json j = Json::object();
  j.set("campaign", Json::string(file.campaign));
  j.set("shard", Json::number(static_cast<std::uint64_t>(file.shard)));
  j.set("shards", Json::number(static_cast<std::uint64_t>(file.shards)));
  j.set("jobs_total",
        Json::number(static_cast<std::uint64_t>(file.jobs_total)));
  j.set("grid_fingerprint", Json::number(file.grid_fp));
  Json results = Json::array();
  for (const scenario::JobResult& r : file.results) {
    results.push(scenario::job_result_to_json(r));
  }
  j.set("results", std::move(results));
  return j;
}

bool shard_file_from_json(const Json& j, const std::string& context,
                          ShardResultFile& out, std::string* error) {
  if (!j.is_object()) return fail(error, context + ": expected an object");

  ShardResultFile file;
  const Json* campaign = j.find("campaign");
  if (campaign == nullptr || !campaign->is_string()) {
    return fail(error, context + ": missing \"campaign\"");
  }
  file.campaign = campaign->as_string();
  const auto u64_field = [&](const char* name, std::size_t& out_value) {
    const Json* v = j.find(name);
    std::uint64_t u = 0;
    if (v == nullptr || !v->to_u64(u)) {
      return fail(error, context + ": missing u64 \"" + name + "\"");
    }
    out_value = static_cast<std::size_t>(u);
    return true;
  };
  if (!u64_field("shard", file.shard)) return false;
  if (!u64_field("shards", file.shards)) return false;
  if (!u64_field("jobs_total", file.jobs_total)) return false;
  const Json* fp = j.find("grid_fingerprint");
  if (fp == nullptr || !fp->to_u64(file.grid_fp)) {
    return fail(error, context + ": missing u64 \"grid_fingerprint\"");
  }
  if (file.shards == 0 || file.shard >= file.shards) {
    return fail(error, context + ": shard index outside shard count");
  }
  // Magnitude sanity before anything is sized from these fields: a corrupt
  // header must produce a named error, not a bad_alloc.
  if (file.shards > 1024) {
    return fail(error, context + ": implausible shard count " +
                           std::to_string(file.shards));
  }
  if (file.jobs_total > kMaxCampaignJobs) {
    return fail(error, context + ": jobs_total " +
                           std::to_string(file.jobs_total) +
                           " exceeds the " +
                           std::to_string(kMaxCampaignJobs) + "-job cap");
  }

  const Json* results = j.find("results");
  if (results == nullptr || !results->is_array()) {
    return fail(error, context + ": missing \"results\" array");
  }
  file.results.reserve(results->items().size());
  for (std::size_t i = 0; i < results->items().size(); ++i) {
    scenario::JobResult r;
    std::string job_error;
    if (!scenario::job_result_from_json(results->items()[i], r, &job_error)) {
      return fail(error, context + ": results[" + std::to_string(i) +
                             "]: " + job_error);
    }
    file.results.push_back(std::move(r));
  }
  out = std::move(file);
  return true;
}

bool write_shard_file(const std::string& path, const ShardResultFile& file,
                      std::string* error) {
  return util::write_file(path, shard_file_to_json(file).dump(), error);
}

bool read_shard_file(const std::string& path, ShardResultFile& out,
                     std::string* error) {
  std::string text;
  if (!util::read_file(path, text, error)) return false;
  Json j;
  std::string detail;
  if (!Json::parse(text, j, &detail)) return fail(error, path + ": " + detail);
  return shard_file_from_json(j, path, out, error);
}

bool merge_shard_files(const std::vector<std::string>& paths,
                       std::string* campaign_name,
                       std::vector<scenario::JobResult>* results,
                       std::string* error) {
  if (paths.empty()) return fail(error, "no shard files to merge");

  std::vector<ShardResultFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    ShardResultFile file;
    if (!read_shard_file(path, file, error)) return false;
    files.push_back(std::move(file));
  }
  return merge_shard_results(std::move(files), paths, campaign_name, results,
                             error);
}

bool merge_shard_results(std::vector<ShardResultFile> files,
                         const std::vector<std::string>& labels,
                         std::string* campaign_name,
                         std::vector<scenario::JobResult>* results,
                         std::string* error) {
  SECBUS_ASSERT(labels.size() == files.size(), "one label per shard file");
  if (files.empty()) return fail(error, "no shard files to merge");

  const ShardResultFile& first = files.front();
  std::vector<char> shard_seen(first.shards, 0);
  for (std::size_t f = 0; f < files.size(); ++f) {
    const ShardResultFile& file = files[f];
    if (file.campaign != first.campaign || file.shards != first.shards ||
        file.jobs_total != first.jobs_total ||
        file.grid_fp != first.grid_fp) {
      return fail(error, labels[f] +
                             ": shard file disagrees with " + labels[0] +
                             " (campaign/shards/jobs/grid fingerprint)");
    }
    if (shard_seen[file.shard]) {
      return fail(error, labels[f] + ": duplicate shard " +
                             std::to_string(file.shard));
    }
    shard_seen[file.shard] = 1;
  }
  if (files.size() != first.shards) {
    return fail(error, "expected " + std::to_string(first.shards) +
                           " shard files, got " +
                           std::to_string(files.size()));
  }

  std::vector<scenario::JobResult> merged(first.jobs_total);
  std::vector<char> filled(first.jobs_total, 0);
  for (std::size_t f = 0; f < files.size(); ++f) {
    ShardResultFile& file = files[f];
    for (scenario::JobResult& r : file.results) {
      if (r.index >= first.jobs_total) {
        return fail(error, labels[f] + ": job index " +
                               std::to_string(r.index) + " out of range");
      }
      if (shard_of(r.index, first.shards) != file.shard) {
        return fail(error, labels[f] + ": job " + std::to_string(r.index) +
                               " does not belong to shard " +
                               std::to_string(file.shard));
      }
      if (filled[r.index]) {
        return fail(error, labels[f] + ": job " + std::to_string(r.index) +
                               " appears twice");
      }
      filled[r.index] = 1;
      merged[r.index] = std::move(r);
    }
  }
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) {
      return fail(error, "merged shards do not cover job " +
                             std::to_string(i) + " (incomplete shard run?)");
    }
  }

  if (campaign_name != nullptr) *campaign_name = first.campaign;
  if (results != nullptr) *results = std::move(merged);
  return true;
}

// --- checkpoints ------------------------------------------------------------

bool CheckpointWriter::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.open(path);
}

bool CheckpointWriter::append(const scenario::JobResult& result,
                              std::uint64_t fingerprint) {
  Json record = Json::object();
  record.set("index", Json::number(static_cast<std::uint64_t>(result.index)));
  record.set("fingerprint", Json::number(fingerprint));
  record.set("result", scenario::job_result_to_json(result));
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.append(record);
}

bool CheckpointWriter::ok() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return writer_.ok();
}

void CheckpointWriter::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  writer_.close();
}

std::size_t load_checkpoint(const std::string& path,
                            std::span<const std::uint64_t> spec_fps,
                            std::vector<scenario::JobResult>& results,
                            std::vector<char>& done) {
  SECBUS_ASSERT(
      results.size() == spec_fps.size() && done.size() == spec_fps.size(),
      "checkpoint buffers must match the job list");
  std::vector<Json> records;
  if (!util::read_jsonl(path, records)) return 0;  // no checkpoint yet

  std::size_t restored = 0;
  for (const Json& record : records) {
    if (!record.is_object()) continue;
    const Json* index_v = record.find("index");
    const Json* fp_v = record.find("fingerprint");
    const Json* result_v = record.find("result");
    std::uint64_t index = 0;
    std::uint64_t fp = 0;
    if (index_v == nullptr || !index_v->to_u64(index) || fp_v == nullptr ||
        !fp_v->to_u64(fp) || result_v == nullptr) {
      continue;  // torn or foreign record
    }
    if (index >= spec_fps.size() || done[index]) continue;
    if (spec_fps[index] != fp) continue;  // grid drifted: re-run it
    scenario::JobResult r;
    if (!scenario::job_result_from_json(*result_v, r, nullptr)) continue;
    if (r.index != index) continue;
    results[index] = std::move(r);
    done[index] = 1;
    ++restored;
  }
  return restored;
}

// --- shard execution --------------------------------------------------------

ShardRunOutcome run_shard(const std::vector<scenario::ScenarioSpec>& specs,
                          const ShardRunOptions& options) {
  ShardRunOutcome outcome;
  outcome.indices = shard_indices(specs.size(), options.shard, options.shards);
  outcome.results.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) outcome.results[i].index = i;

  std::vector<char> done(specs.size(), 0);
  CheckpointWriter checkpoint;
  const bool checkpointing = !options.checkpoint_path.empty();
  const std::span<const std::uint64_t> spec_fps = options.spec_fps;
  if (checkpointing) {
    SECBUS_ASSERT(spec_fps.size() == specs.size(),
                  "checkpointing needs one spec fingerprint per job");
    (void)load_checkpoint(options.checkpoint_path, spec_fps, outcome.results,
                          done);
    outcome.checkpoint_ok = checkpoint.open(options.checkpoint_path);
  }

  ProgressWriter progress;
  const bool telemetry =
      !options.progress_path.empty() &&
      progress.open(options.progress_path, options.campaign, options.shard,
                    options.shards, options.progress_interval_ms);

  // `resumed` counts only this shard's slice: a checkpoint shared across
  // shards restores foreign indices too, which are neither our progress
  // nor our output.
  std::vector<std::size_t> to_run;
  to_run.reserve(outcome.indices.size());
  for (const std::size_t i : outcome.indices) {
    if (done[i]) {
      ++outcome.resumed;
    } else {
      to_run.push_back(i);
    }
  }
  outcome.executed = to_run.size();

  scenario::BatchOptions batch;
  batch.threads = options.threads;
  batch.indices = to_run;
  batch.hooks.collect_metrics = options.collect_metrics;
  const std::size_t resumed = outcome.resumed;
  const std::size_t total = outcome.indices.size();
  if (checkpointing || telemetry || options.on_job_done ||
      options.chaos.enabled()) {
    batch.on_job_done = [&](const scenario::JobResult& r, std::size_t n,
                            std::size_t /*of*/) {
      if (checkpointing) {
        checkpoint.append(r, spec_fps[r.index]);
      }
      if (telemetry) progress.update(resumed + n, total);
      if (options.on_job_done) options.on_job_done(r, resumed + n, total);
      // After the checkpoint append: a chaos-killed worker dies having
      // durably recorded exactly the jobs it completed.
      chaos_maybe_die(options.chaos, n);
    };
  }

  std::vector<scenario::JobResult> fresh = scenario::run_batch(specs, batch);
  for (const std::size_t i : to_run) {
    outcome.results[i] = std::move(fresh[i]);
  }
  if (checkpointing && !checkpoint.ok()) outcome.checkpoint_ok = false;
  checkpoint.close();
  if (telemetry) {
    progress.finish(resumed + outcome.executed, total);
    progress.close();
  }
  return outcome;
}

ShardResultFile to_shard_file(const std::string& campaign,
                              const ShardRunOutcome& outcome,
                              std::size_t shard, std::size_t shards,
                              std::uint64_t grid_fp) {
  SECBUS_ASSERT(outcome.indices.empty() ||
                    shard_of(outcome.indices.front(), shards) == shard,
                "outcome does not belong to this shard");
  ShardResultFile file;
  file.campaign = campaign;
  file.shard = shard;
  file.shards = shards;
  file.jobs_total = outcome.results.size();
  file.grid_fp = grid_fp;
  file.results.reserve(outcome.indices.size());
  for (const std::size_t i : outcome.indices) {
    file.results.push_back(outcome.results[i]);
  }
  return file;
}

}  // namespace secbus::campaign
