// Campaign files: whole experiment grids declared in JSON.
//
// A campaign crosses one base ScenarioSpec over an attack axis (full
// AttackPlan shaping, not just the kind) and the scenario engine's SweepAxes
// (topology x cpus x security x protection x ... x seeds), expanding into
// thousands of independent jobs for the batch runner — with zero recompiles:
// the whole design space, threat model included, lives in the file.
//
// File shape (see examples/campaigns/ and the README "Campaigns" section):
//
//   {
//     "name": "attack-grid",
//     "description": "...",
//     "base": { <ScenarioSpec: soc config, default attack, cycle cap> },
//     "grid": {
//       "attack": ["hijack", {"kind": "flood-in-policy", "flood_writes": 800}],
//       "security": ["distributed", "centralized"],
//       "protection": ["plaintext", "cipher-only", "cipher+integrity"],
//       "topology": ["flat", "mesh2x2"],
//       "seeds": 5
//     }
//   }
//
// "seeds" is either an explicit array or a count (N deterministically
// derived repeats of the base seed). The attack axis is the outermost
// crossing; the remaining axes keep SweepAxes' fixed order, so job order is
// stable and every derived report is reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec_io.hpp"
#include "scenario/registry.hpp"

namespace secbus::campaign {

struct CampaignSpec {
  std::string name;
  std::string description;
  scenario::ScenarioSpec base;
  // Outermost grid axis; empty = the base spec's attack plan only.
  std::vector<scenario::AttackPlan> attacks;
  scenario::SweepAxes axes;

  [[nodiscard]] std::size_t job_count() const noexcept {
    return (attacks.empty() ? 1 : attacks.size()) * axes.cardinality();
  }
};

// Hard cap on what one campaign may expand to; validate_campaign rejects
// anything larger so a typo'd grid cannot OOM the runner.
inline constexpr std::size_t kMaxCampaignJobs = 1'000'000;

// --- JSON <-> CampaignSpec --------------------------------------------------
bool campaign_from_json(const util::Json& j, CampaignSpec& out,
                        std::string* error);
[[nodiscard]] util::Json campaign_to_json(const CampaignSpec& campaign);

// Reads and parses `path`; errors carry the file name and either a JSON
// parse position or the offending JSON path.
bool load_campaign_file(const std::string& path, CampaignSpec& out,
                        std::string* error);
bool save_campaign_file(const std::string& path, const CampaignSpec& campaign,
                        std::string* error);

// Structural validation beyond per-field ranges: placement vs. every grid
// topology, CPU-window fit for every grid cpus value, LCF line fit, job cap.
// campaign_from_json runs this; standalone for programmatic specs.
bool validate_campaign(const CampaignSpec& campaign, std::string* error);

// Expands the full grid in deterministic order (attack outermost, then the
// SweepAxes crossing). Variants carry an "attack=<kind>" component when the
// attack axis is active.
[[nodiscard]] std::vector<scenario::ScenarioSpec> expand_campaign(
    const CampaignSpec& campaign);

// --- grid shaping -----------------------------------------------------------

// The batch options that change what a grid *means*, not just how it runs.
// The fleet server announces them and every worker applies them before
// fingerprint-checking its expansion, so `--repeats`/`--max-cycles` drift
// is caught up front, not at merge time.
struct GridOptions {
  std::uint64_t repeats = 1;
  std::uint64_t max_cycles = 0;  // 0 = keep each spec's cap
  bool collect_metrics = false;
};

// expand_campaign, then seed replication, then the cycle-cap override: the
// one grid expansion behind `run`/`sweep`, `campaign run` and both fleet
// endpoints, so job order and fingerprints agree however a grid runs. A
// repeats count of 0, or one that would push the grid past kMaxCampaignJobs,
// is a "grid.repeats" error raised before anything is allocated.
bool expand_grid(const CampaignSpec& campaign, const GridOptions& grid,
                 std::vector<scenario::ScenarioSpec>& out, std::string* error);

// --- builtin registry as data -----------------------------------------------
// Wraps a registry entry into an equivalent campaign (same base spec, same
// default axes); expand_campaign() of the result reproduces
// scenario::expand(entry.spec, entry.axes) spec-for-spec.
[[nodiscard]] CampaignSpec campaign_from_builtin(
    const scenario::NamedScenario& entry);

// Writes one "<name>.json" campaign file per builtin scenario into `dir`
// (created if missing). Returns the written paths through `paths`.
bool export_builtin_campaigns(const std::string& dir,
                              std::vector<std::string>* paths,
                              std::string* error);

}  // namespace secbus::campaign
