#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "scenario/sweep.hpp"
#include "soc/soc.hpp"
#include "util/bitops.hpp"
#include "util/fileio.hpp"

namespace secbus::campaign {

namespace {

bool fail(std::string* error, const std::string& path,
          const std::string& message) {
  if (error != nullptr && error->empty()) *error = path + ": " + message;
  return false;
}

}  // namespace

bool campaign_from_json(const util::Json& j, CampaignSpec& out,
                        std::string* error) {
  if (!j.is_object()) return fail(error, "$", "expected a top-level object");
  CampaignSpec campaign;

  for (const util::Json::Member& m : j.members()) {
    if (m.first != "name" && m.first != "description" && m.first != "base" &&
        m.first != "grid") {
      return fail(error, m.first, "unknown key");
    }
  }

  if (const util::Json* name = j.find("name")) {
    if (!name->is_string() || name->as_string().empty()) {
      return fail(error, "name", "expected a non-empty string");
    }
    campaign.name = name->as_string();
  } else {
    return fail(error, "name", "campaign files need a \"name\"");
  }
  if (const util::Json* desc = j.find("description")) {
    if (!desc->is_string()) return fail(error, "description",
                                        "expected a string");
    campaign.description = desc->as_string();
  }

  if (const util::Json* base = j.find("base")) {
    if (!spec_from_json(*base, "base", campaign.base, error)) return false;
  }
  if (campaign.base.name.empty()) campaign.base.name = campaign.name;
  if (campaign.base.description.empty()) {
    campaign.base.description = campaign.description;
  }

  if (const util::Json* grid = j.find("grid")) {
    if (!grid->is_object()) return fail(error, "grid", "expected an object");
    // The attack axis is a campaign-level concept the scenario engine's
    // SweepAxes doesn't know; parse it here, and tell the shared grid
    // reader the key is accounted for.
    if (const util::Json* attack = grid->find("attack")) {
      if (!attack->is_array() || attack->items().empty()) {
        return fail(error, "grid.attack",
                    "expected a non-empty array of attack kinds or "
                    "attack objects");
      }
      for (std::size_t i = 0; i < attack->items().size(); ++i) {
        scenario::AttackPlan plan = campaign.base.attack;
        if (!attack_from_json(attack->items()[i],
                              "grid.attack[" + std::to_string(i) + "]", plan,
                              error)) {
          return false;
        }
        campaign.attacks.push_back(plan);
      }
    }
    if (!axes_from_json(*grid, "grid", campaign.base.soc.seed, campaign.axes,
                        error, /*allow_attack_key=*/true)) {
      return false;
    }
  }

  if (!validate_campaign(campaign, error)) return false;
  out = std::move(campaign);
  return true;
}

util::Json campaign_to_json(const CampaignSpec& campaign) {
  using util::Json;
  Json j = Json::object();
  j.set("name", Json::string(campaign.name));
  j.set("description", Json::string(campaign.description));
  j.set("base", spec_to_json(campaign.base));
  Json grid = axes_to_json(campaign.axes);
  if (!campaign.attacks.empty()) {
    Json arr = Json::array();
    for (const scenario::AttackPlan& plan : campaign.attacks) {
      arr.push(attack_to_json(plan));
    }
    // Attack is the outermost axis; keep it first in the emitted grid.
    grid.members().insert(grid.members().begin(),
                          {"attack", std::move(arr)});
  }
  j.set("grid", std::move(grid));
  return j;
}

bool load_campaign_file(const std::string& path, CampaignSpec& out,
                        std::string* error) {
  std::string text;
  if (!util::read_file(path, text, error)) return false;

  util::Json j;
  std::string detail;
  if (!util::Json::parse(text, j, &detail)) {
    return fail(error, path, detail);
  }
  if (!campaign_from_json(j, out, &detail)) {
    return fail(error, path, detail);
  }
  return true;
}

bool save_campaign_file(const std::string& path, const CampaignSpec& campaign,
                        std::string* error) {
  return util::write_file(path, campaign_to_json(campaign).dump(), error);
}

bool validate_campaign(const CampaignSpec& campaign, std::string* error) {
  if (campaign.name.empty()) {
    return fail(error, "name", "campaign files need a \"name\"");
  }
  // The name becomes an output *filename* (<name>.cells.csv, ...): keep it
  // to a safe charset so a campaign file can never write outside --out.
  if (campaign.name.size() > 128) {
    return fail(error, "name", "must be at most 128 characters");
  }
  for (const char c : campaign.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) {
      return fail(error, "name",
                  "may only contain letters, digits, '-', '_' and '.' "
                  "(it names the report files)");
    }
  }
  if (campaign.name[0] == '.') {
    return fail(error, "name", "must not start with '.'");
  }
  const std::size_t jobs = campaign.job_count();
  if (jobs == 0) return fail(error, "grid", "campaign expands to 0 jobs");
  if (jobs > kMaxCampaignJobs) {
    return fail(error, "grid",
                "campaign expands to " + std::to_string(jobs) +
                    " jobs, cap is " + std::to_string(kMaxCampaignJobs));
  }

  // Placement must hold for every topology the grid can select (placement
  // itself is not a sweep axis, so this check is exact without expansion).
  const soc::SocConfig& soc = campaign.base.soc;
  const auto check_topology = [&](const soc::TopologySpec& topo,
                                  const std::string& path) {
    const std::size_t segments = topo.segment_count();
    if (soc.memory_segment >= segments) {
      return fail(error, "base.soc.memory_segment",
                  "segment " + std::to_string(soc.memory_segment) +
                      " outside topology '" + topo.label() + "' (" +
                      std::to_string(segments) + " segment(s), from " + path +
                      ")");
    }
    const auto check_override = [&](std::size_t segment, const char* field) {
      if (segment != soc::SocConfig::kAutoSegment && segment >= segments) {
        return fail(error, std::string("base.soc.") + field,
                    "segment " + std::to_string(segment) +
                        " outside topology '" + topo.label() + "' (" +
                        std::to_string(segments) + " segment(s), from " +
                        path + ")");
      }
      return true;
    };
    if (!check_override(soc.bram_segment, "bram_segment")) return false;
    if (!check_override(soc.ddr_segment, "ddr_segment")) return false;
    if (!check_override(soc.dma_segment, "dma_segment")) return false;
    return true;
  };
  if (campaign.axes.topology.empty()) {
    if (!check_topology(soc.topology, "base.soc.topology")) return false;
  } else {
    for (std::size_t i = 0; i < campaign.axes.topology.size(); ++i) {
      if (!check_topology(campaign.axes.topology[i],
                          "grid.topology[" + std::to_string(i) + "]")) {
        return false;
      }
    }
  }

  // Every grid cpus value must leave each CPU a >= 4 KiB protected window
  // (the AddressPlan invariant, reported instead of asserted).
  const auto check_cpus = [&](std::size_t cpus, const std::string& path) {
    const std::uint64_t window =
        soc::AddressPlan::cpu_window_bytes(soc, cpus);
    if (window < 4096) {
      return fail(error, path,
                  std::to_string(cpus) +
                      " CPUs do not fit ddr_protected_size " +
                      std::to_string(soc.ddr_protected_size) +
                      " (each CPU window must be >= 4096 bytes)");
    }
    return true;
  };
  if (campaign.axes.cpus.empty()) {
    if (!check_cpus(soc.processors, "base.soc.processors")) return false;
  } else {
    for (std::size_t i = 0; i < campaign.axes.cpus.size(); ++i) {
      if (!check_cpus(campaign.axes.cpus[i],
                      "grid.cpus[" + std::to_string(i) + "]")) {
        return false;
      }
    }
  }

  // Every effective line size must tile the protected window into a
  // power-of-two number (>= 2) of lines starting on a line boundary — the
  // hash tree's structural invariants, reported here instead of asserted
  // mid-run by the IntegrityCore.
  const auto check_line = [&](std::uint64_t lb, const std::string& path) {
    const bool tiles = lb > 0 && soc.ddr_protected_size % lb == 0;
    const std::uint64_t lines = tiles ? soc.ddr_protected_size / lb : 0;
    if (!tiles || !util::is_pow2(lines) || lines < 2 ||
        soc.ddr_protected_base % lb != 0) {
      return fail(error, path,
                  "line size " + std::to_string(lb) +
                      " must tile ddr_protected_size " +
                      std::to_string(soc.ddr_protected_size) +
                      " into a power-of-two number of lines (>= 2)");
    }
    return true;
  };
  if (campaign.axes.line_bytes.empty()) {
    if (!check_line(soc.line_bytes, "base.soc.line_bytes")) return false;
  } else {
    for (std::size_t i = 0; i < campaign.axes.line_bytes.size(); ++i) {
      if (!check_line(campaign.axes.line_bytes[i],
                      "grid.line_bytes[" + std::to_string(i) + "]")) {
        return false;
      }
    }
  }
  return true;
}

// Axis labels for the attack entries. Two differently-shaped plans of the
// same kind must land in *distinct* report cells, so duplicate kinds get a
// "#<occurrence>" suffix (flood-in-policy#1, flood-in-policy#2, ...).
static std::vector<std::string> attack_axis_labels(
    const std::vector<scenario::AttackPlan>& attacks) {
  std::vector<std::string> labels;
  labels.reserve(attacks.size());
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const char* kind = to_string(attacks[i].kind);
    std::size_t total = 0;
    std::size_t ordinal = 0;
    for (std::size_t k = 0; k < attacks.size(); ++k) {
      if (attacks[k].kind == attacks[i].kind) {
        ++total;
        if (k <= i) ++ordinal;
      }
    }
    labels.push_back(total > 1
                         ? std::string(kind) + "#" + std::to_string(ordinal)
                         : std::string(kind));
  }
  return labels;
}

std::vector<scenario::ScenarioSpec> expand_campaign(
    const CampaignSpec& campaign) {
  scenario::ScenarioSpec base = campaign.base;
  if (base.name.empty()) base.name = campaign.name;
  if (campaign.attacks.empty()) {
    return scenario::expand(base, campaign.axes);
  }
  const std::vector<std::string> labels = attack_axis_labels(campaign.attacks);
  std::vector<scenario::ScenarioSpec> jobs;
  jobs.reserve(campaign.job_count());
  for (std::size_t i = 0; i < campaign.attacks.size(); ++i) {
    scenario::ScenarioSpec spec = base;
    spec.attack = campaign.attacks[i];
    std::string label = base.variant;
    scenario::append_variant_label(label, "attack", labels[i]);
    spec.variant = std::move(label);
    std::vector<scenario::ScenarioSpec> expanded =
        scenario::expand(spec, campaign.axes);
    for (scenario::ScenarioSpec& e : expanded) {
      jobs.push_back(std::move(e));
    }
  }
  return jobs;
}

bool expand_grid(const CampaignSpec& campaign, const GridOptions& grid,
                 std::vector<scenario::ScenarioSpec>& out,
                 std::string* error) {
  // A division, so a hostile repeats count cannot overflow the product.
  const std::size_t jobs = std::max<std::size_t>(campaign.job_count(), 1);
  const std::uint64_t max_repeats = kMaxCampaignJobs / jobs;
  if (grid.repeats == 0 || grid.repeats > max_repeats) {
    return fail(error, "grid.repeats",
                "got " + std::to_string(grid.repeats) + "; a " +
                    std::to_string(jobs) + "-job grid allows 1.." +
                    std::to_string(max_repeats) + " under the " +
                    std::to_string(kMaxCampaignJobs) + "-job cap");
  }
  out = scenario::replicate_seeds(expand_campaign(campaign), grid.repeats);
  if (grid.max_cycles != 0) {
    for (scenario::ScenarioSpec& spec : out) spec.max_cycles = grid.max_cycles;
  }
  return true;
}

CampaignSpec campaign_from_builtin(const scenario::NamedScenario& entry) {
  CampaignSpec campaign;
  campaign.name = entry.spec.name;
  campaign.description = entry.spec.description;
  campaign.base = entry.spec;
  campaign.axes = entry.axes;
  return campaign;
}

bool export_builtin_campaigns(const std::string& dir,
                              std::vector<std::string>* paths,
                              std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return fail(error, dir, "cannot create directory");
  for (const scenario::NamedScenario& entry : scenario::builtin_scenarios()) {
    const std::string path =
        (std::filesystem::path(dir) / (entry.spec.name + ".json")).string();
    if (!save_campaign_file(path, campaign_from_builtin(entry), error)) {
      return false;
    }
    if (paths != nullptr) paths->push_back(path);
  }
  return true;
}

}  // namespace secbus::campaign
