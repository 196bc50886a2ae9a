// SoC assembly: builds and wires the full case-study system (Figure 1 /
// Section V) in any SecurityMode, owns every component, and runs it.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baseline/centralized.hpp"
#include "bus/fabric.hpp"
#include "bus/system_bus.hpp"
#include "core/alert.hpp"
#include "core/ciphering_firewall.hpp"
#include "core/config_memory.hpp"
#include "core/local_firewall.hpp"
#include "core/reconfig.hpp"
#include "ip/dma_engine.hpp"
#include "ip/processor.hpp"
#include "ip/scripted_master.hpp"
#include "mem/bram.hpp"
#include "mem/ddr.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "soc/soc_config.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::soc {

// Named address windows derived from a SocConfig; both the workload
// generators and the security policies are expressed over these.
struct AddressPlan {
  struct Window {
    sim::Addr base = 0;
    std::uint64_t size = 0;
  };

  Window bram_scratch;  // shared on-chip scratchpad, RW for everyone
  Window bram_boot;     // boot/parameter area, read-only for processors
  std::vector<Window> cpu_windows;  // private external windows (protected)
  Window shared_code;   // shared external code, RO for CPUs, RW for the DMA
  Window ddr_scratch;   // unprotected external scratch (the paper's
                        // "non sensitive part of the system")

  // Per-CPU protected-window size under this plan's layout for a
  // hypothetical CPU count. from_config() asserts it is >= 4096; campaign
  // validation calls it to reject bad `cpus` values *before* building a
  // SoC, so the two can never disagree on the layout formula.
  [[nodiscard]] static std::uint64_t cpu_window_bytes(const SocConfig& cfg,
                                                      std::size_t processors);

  static AddressPlan from_config(const SocConfig& cfg);
};

// Well-known firewall / master identifiers used by the presets and tests.
inline constexpr core::FirewallId kFwCpuBase = 0;      // CPU i -> id i
inline constexpr core::FirewallId kFwDma = 100;
inline constexpr core::FirewallId kFwBram = 200;
inline constexpr core::FirewallId kFwLcf = 300;
inline constexpr sim::MasterId kMasterCpuBase = 0;
inline constexpr sim::MasterId kMasterDma = 100;
// Scripted/custom masters start well above the fixed firewall ids so their
// per-master policies can never collide with the built-in ones.
inline constexpr sim::MasterId kMasterScriptedBase = 400;

// Quick summary of a run; detailed stats stay queryable on the Soc itself.
struct SocResults {
  sim::Cycle cycles = 0;
  bool completed = false;  // all processors finished before the cycle cap
  std::uint64_t transactions_ok = 0;
  std::uint64_t transactions_failed = 0;
  std::uint64_t alerts = 0;
  double avg_access_latency = 0.0;  // mean issue->response cycles across CPUs
  double bus_occupancy = 0.0;  // aggregate across every fabric segment
  std::uint64_t bytes_moved = 0;
  // Exact per-access issue->response percentiles, merged over every
  // processor's latency histogram (nearest-rank; see util::LatencyHistogram).
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p95 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t latency_max = 0;

  bool operator==(const SocResults&) const = default;
};

class Soc {
 public:
  explicit Soc(const SocConfig& cfg);

  Soc(const Soc&) = delete;
  Soc& operator=(const Soc&) = delete;

  // Runs until every processor finished and the fabric drained, or until
  // `max_cycles`. Returns the summary.
  SocResults run(sim::Cycle max_cycles);

  // Walks every component's Stats into `reg` under the stable hierarchical
  // naming scheme (bus.seg<i>.*, core.<firewall>.*, ip.<master>.*,
  // mem.ddr.*, trace.*). Pull-model: costs nothing unless called, and a
  // given SoC state always snapshots to the same document. The process-wide
  // FormatCache is deliberately excluded — it races across batch threads
  // and would break byte-stable per-job artifacts.
  void snapshot_metrics(obs::Registry& reg) const;

  // Zeroes every component's statistics (fabric, masters, memories,
  // firewalls, crypto cores) without touching simulation or security
  // state, so a later snapshot_metrics() covers only the cycles since.
  // The alert log and the event trace are history, not counters, and are
  // left alone.
  void reset_stats();

  // Adds a scripted master behind its own firewall/gate with the given
  // policy. Must be called before run(). Returns the master for scripting.
  // `segment` places it on the fabric (default: farthest from the memories).
  ip::ScriptedMaster& add_scripted_master(const std::string& name,
                                          core::SecurityPolicy policy,
                                          std::size_t segment = kRemoteSegment);

  // Resolves to "the segment farthest from the memories" when passed as the
  // `segment` of attach_custom_master — the most adversarial placement for
  // attack masters (0 on a flat fabric, a far corner on a mesh).
  static constexpr std::size_t kRemoteSegment =
      std::numeric_limits<std::size_t>::max();

  // Attaches an externally-owned master component (e.g. a FloodMaster)
  // behind its own firewall/gate with the given policy and registers it with
  // the kernel. Returns the endpoint the component should connect() to. The
  // component must outlive this SoC's runs.
  // `done` (optional) joins the quiescence predicate so run() keeps going
  // while the custom master is still active. `lf_cfg` (optional) overrides
  // the Local Firewall configuration for this master in distributed mode
  // (e.g. to enable the DoS throttle on a suspect interface). `segment`
  // picks the fabric segment the master (and its firewall) lives on.
  bus::MasterEndpoint& attach_custom_master(
      sim::Component& component, const std::string& name,
      core::SecurityPolicy policy, std::function<bool()> done = {},
      const core::LocalFirewall::Config* lf_cfg = nullptr,
      std::size_t segment = kRemoteSegment);

  // Starts the dedicated IP's DMA job (no-op SoCs without the dedicated IP
  // abort). Typically scheduled before run().
  void start_dma(const ip::DmaEngine::Job& job);

  // --- component access (tests, benches, attack framework) -------------
  [[nodiscard]] const SocConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const AddressPlan& plan() const noexcept { return plan_; }
  sim::SimKernel& kernel() noexcept { return kernel_; }
  bus::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const bus::Fabric& fabric() const noexcept { return *fabric_; }
  // The memory-side segment — the *only* segment on a flat topology (which
  // is what pre-fabric callers mean by "the bus").
  bus::SystemBus& bus() noexcept {
    return fabric_->segment(cfg_.memory_segment);
  }
  // Fabric segment hosting processor `i` under this SoC's placement.
  [[nodiscard]] std::size_t cpu_segment(std::size_t i) const noexcept;
  // Default memory home segment (cfg.memory_segment); the per-memory
  // accessors below resolve kAutoSegment overrides against it.
  [[nodiscard]] std::size_t memory_segment() const noexcept;
  // Segment hosting the secure internal BRAM (+ its slave firewall/gate).
  [[nodiscard]] std::size_t bram_segment() const noexcept;
  // Segment hosting the open external DDR (+ the LCF). Anchor for
  // "farthest from the memories" attack placement and max-hops reporting.
  [[nodiscard]] std::size_t ddr_segment() const noexcept;
  [[nodiscard]] std::size_t dma_segment() const noexcept;
  mem::DdrMemory& ddr() noexcept { return *ddr_; }
  mem::Bram& bram() noexcept { return *bram_; }
  core::SecurityEventLog& log() noexcept { return log_; }
  core::ConfigurationMemory& config_mem() noexcept { return config_mem_; }
  sim::EventTrace& trace() noexcept { return trace_; }
  [[nodiscard]] const std::vector<std::unique_ptr<ip::Processor>>& processors()
      const noexcept {
    return processors_;
  }
  ip::DmaEngine* dma() noexcept { return dma_.get(); }
  // Non-null only in distributed mode.
  core::LocalCipheringFirewall* lcf() noexcept { return lcf_.get(); }
  core::SlaveFirewall* bram_firewall() noexcept { return bram_fw_.get(); }
  [[nodiscard]] const std::vector<std::unique_ptr<core::LocalFirewall>>&
  master_firewalls() const noexcept {
    return master_fws_;
  }
  // Non-null only in centralized mode.
  baseline::CentralizedManager* manager() noexcept { return manager_.get(); }
  core::PolicyReconfigurator* reconfigurator() noexcept {
    return reconfig_.get();
  }

  // Builds the default policy for CPU `i` under this SoC's plan (exposed so
  // tests and attack scenarios can derive variants).
  [[nodiscard]] core::SecurityPolicy cpu_policy(std::size_t i) const;
  [[nodiscard]] core::SecurityPolicy dma_policy() const;
  [[nodiscard]] core::SecurityPolicy bram_policy() const;
  [[nodiscard]] core::SecurityPolicy lcf_policy() const;

 private:
  void build_memory();
  void build_policies();
  void build_masters();
  void register_components();
  void append_extra_rules(core::PolicyBuilder& builder) const;
  [[nodiscard]] bool quiescent() const;

  SocConfig cfg_;
  AddressPlan plan_;
  sim::SimKernel kernel_;
  sim::EventTrace trace_;
  core::SecurityEventLog log_;
  core::ConfigurationMemory config_mem_;

  std::unique_ptr<bus::Fabric> fabric_;
  std::unique_ptr<mem::Bram> bram_;
  std::unique_ptr<mem::DdrMemory> ddr_;

  // Slave-side protection (one of these wraps each memory, by mode).
  std::unique_ptr<core::SlaveFirewall> bram_fw_;
  std::unique_ptr<core::LocalCipheringFirewall> lcf_;
  std::unique_ptr<baseline::CentralizedManager> manager_;
  std::unique_ptr<baseline::CentralizedSlaveGate> bram_gate_;
  std::unique_ptr<baseline::CentralizedSlaveGate> ddr_gate_;

  std::vector<std::unique_ptr<ip::Processor>> processors_;
  std::unique_ptr<ip::DmaEngine> dma_;
  std::vector<std::unique_ptr<ip::ScriptedMaster>> scripted_;

  std::vector<std::unique_ptr<core::LocalFirewall>> master_fws_;
  std::vector<std::unique_ptr<baseline::CentralizedMasterGate>> master_gates_;
  std::vector<std::function<bool()>> custom_done_;
  sim::MasterId next_custom_index_ = 0;

  std::unique_ptr<core::PolicyReconfigurator> reconfig_;
};

}  // namespace secbus::soc
