// Differential test: the next-event kernel against per-cycle stepping.
//
// One extra registered component that keeps the default next_tick() pins
// the kernel to ticking every component every cycle, which turns the same
// SoC build into the reference. Each workload below must produce identical
// SocResults, identical metrics-registry dumps and identical event traces
// both ways.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/external_attacker.hpp"
#include "attack/flood_master.hpp"
#include "bus/system_bus.hpp"
#include "ip/dma_engine.hpp"
#include "mem/bram.hpp"
#include "obs/registry.hpp"
#include "soc/presets.hpp"
#include "soc/soc.hpp"

namespace secbus::soc {
namespace {

// Needs a tick every cycle: registering it disables all skipping.
class EveryCycle final : public sim::Component {
 public:
  EveryCycle() : Component("every_cycle") {}
  void tick(sim::Cycle /*now*/) override {}
};

struct Outcome {
  SocResults results;
  std::string metrics;
  std::string trace;
  std::uint64_t ticks = 0;
  std::size_t components = 0;
};

std::string trace_text(const sim::EventTrace& trace) {
  std::ostringstream out;
  for (const sim::TraceEvent& e : trace.snapshot()) {
    out << e.cycle << ' ' << sim::to_string(e.kind) << ' ' << e.source << ' '
        << e.trans << ' ' << e.addr << ' ' << e.detail << '\n';
  }
  return out.str();
}

// Adds masters or attacks to a built SoC; the returned object is kept alive
// until the run ends.
using Wiring = std::function<std::shared_ptr<void>(Soc&)>;

Outcome run_soc(SocConfig cfg, const Wiring& wire, bool per_cycle) {
  cfg.trace_capacity = 1 << 18;
  EveryCycle pin;
  Soc soc(cfg);
  const std::shared_ptr<void> keep = wire ? wire(soc) : nullptr;
  if (per_cycle) soc.kernel().add(pin);

  Outcome out;
  out.results = soc.run(3'000'000);
  obs::Registry reg;
  soc.snapshot_metrics(reg);
  out.metrics = reg.to_json().dump();
  out.trace = trace_text(soc.trace());
  out.ticks = soc.kernel().ticks_executed();
  out.components = soc.kernel().component_count();
  return out;
}

// Runs `cfg` both ways, checks they agree and returns the skipping run.
Outcome expect_equivalent(const SocConfig& cfg, const Wiring& wire = {}) {
  const Outcome fast = run_soc(cfg, wire, false);
  const Outcome ref = run_soc(cfg, wire, true);
  EXPECT_TRUE(ref.results.completed);
  EXPECT_EQ(ref.ticks, ref.results.cycles * ref.components)
      << "the reference must tick every component every cycle";
  EXPECT_TRUE(fast.results == ref.results);
  EXPECT_EQ(fast.results.cycles, ref.results.cycles);
  EXPECT_EQ(fast.metrics, ref.metrics);
  EXPECT_FALSE(fast.trace.empty());
  EXPECT_EQ(fast.trace, ref.trace);
  return fast;
}

core::SecurityPolicy window_policy(const AddressPlan::Window& w,
                                   std::uint32_t spi) {
  core::PolicyBuilder pb(spi);
  pb.allow(w.base, w.size, core::RwAccess::kReadWrite, core::FormatMask::kAll,
           "window");
  return pb.build();
}

TEST(KernelEquivalence, Section5DistributedCipherAndIntegrity) {
  SocConfig cfg = section5_config();
  ASSERT_EQ(cfg.security, SecurityMode::kDistributed);
  ASSERT_EQ(cfg.protection, ProtectionLevel::kFull);
  cfg.transactions_per_cpu = 60;
  expect_equivalent(cfg);
}

TEST(KernelEquivalence, Centralized) {
  SocConfig cfg = centralized_config();
  cfg.transactions_per_cpu = 60;
  expect_equivalent(cfg);
}

TEST(KernelEquivalence, Mesh2x2BridgeBookings) {
  SocConfig cfg = mesh2x2_config();
  cfg.transactions_per_cpu = 30;
  expect_equivalent(cfg);
}

TEST(KernelEquivalence, ThrottledFlood) {
  SocConfig cfg = tiny_test_config();
  cfg.transactions_per_cpu = 60;
  expect_equivalent(cfg, [](Soc& soc) {
    attack::FloodMaster::Config fc;
    fc.target = soc.plan().bram_scratch.base + 8192;
    fc.region = 4096;
    fc.burst_beats = 8;
    fc.total_writes = 80;
    auto flood = std::make_shared<attack::FloodMaster>("flooder", 250, fc);
    core::LocalFirewall::Config lf_cfg;
    lf_cfg.rate_limit_window = 400;
    lf_cfg.rate_limit_max = 3;
    auto& ep = soc.attach_custom_master(
        *flood, "flooder", window_policy(soc.plan().bram_scratch, 0x600),
        [raw = flood.get()] { return raw->done(); }, &lf_cfg);
    flood->connect(ep);
    return flood;
  });
}

TEST(KernelEquivalence, UnprotectedMastersSitOnTheBus) {
  SocConfig cfg = tiny_test_config();
  cfg.security = SecurityMode::kNone;
  cfg.transactions_per_cpu = 40;
  expect_equivalent(cfg, [](Soc& soc) {
    const auto& plan = soc.plan();
    auto& probe = soc.add_scripted_master(
        "probe", window_policy(plan.bram_scratch, 0x700));
    for (sim::Cycle delay : {0, 500, 3'000, 7}) {
      probe.enqueue_write(delay, plan.bram_scratch.base + 64, {1, 2, 3, 4});
      probe.enqueue_read(delay, plan.bram_scratch.base + 64);
    }
    attack::FloodMaster::Config fc;
    fc.target = plan.bram_scratch.base + 8192;
    fc.total_writes = 50;
    auto flood = std::make_shared<attack::FloodMaster>("flooder", 250, fc);
    auto& ep = soc.attach_custom_master(
        *flood, "flooder", window_policy(plan.bram_scratch, 0x600),
        [raw = flood.get()] { return raw->done(); });
    flood->connect(ep);
    return flood;
  });
}

// Masters ticked *before* the bus see its responses a cycle later, so they
// must wake on a queued response. The SoC registers its custom masters after
// their firewall or bus, which hides that path; this bare rig does not.
struct BareRig {
  explicit BareRig(bool per_cycle)
      : bram("bram", mem::Bram::Config{0, 0x10000, 3}),
        flood("flood", 2, attack::FloodMaster::Config{0x8000, 4096, 4, 400}) {
    bus.add_slave(bram);
    bus.map_region(0, 0x10000, 0, "bram");
    bus.set_trace(&trace);
    probe.connect(bus.attach_master(1, "probe"));
    flood.connect(bus.attach_master(2, "flood"));
    dma.connect(bus.attach_master(3, "dma"));
    for (sim::Cycle delay : {0, 900, 5, 2'000}) {
      probe.enqueue_write(delay, 0x100, {1, 2, 3, 4});
      probe.enqueue_read(delay, 0x100);
    }
    dma.start(ip::DmaEngine::Job{0x1000, 0x2000, 512, 8});
    kernel.add(probe);
    kernel.add(flood);
    kernel.add(dma);
    kernel.add(bus);
    if (per_cycle) kernel.add(pin);
  }

  // Everything observable: end cycle, bus metrics, master stats, trace.
  std::string run() {
    const bool done = kernel.run_until(
        [this] {
          return probe.done() && flood.done() && !dma.busy() && bus.idle();
        },
        1'000'000);
    obs::Registry reg;
    bus.contribute_metrics(reg, "bus");
    dma.contribute_metrics(reg, "dma");
    std::ostringstream out;
    out << done << ' ' << kernel.now() << ' ' << probe.stats().latency.mean()
        << ' ' << flood.completed() << '\n'
        << reg.to_json().dump() << trace_text(trace);
    return out.str();
  }

  sim::SimKernel kernel;
  sim::EventTrace trace{1 << 16};
  bus::SystemBus bus{"bus"};
  mem::Bram bram;
  ip::ScriptedMaster probe{"probe", 1};
  attack::FloodMaster flood;
  ip::DmaEngine dma{"dma", 3};
  EveryCycle pin;
};

TEST(KernelEquivalence, MastersTickedBeforeTheBus) {
  BareRig fast(false);
  BareRig ref(true);
  const std::string expected = ref.run();
  EXPECT_EQ(fast.run(), expected);
  EXPECT_EQ(expected.rfind("1 ", 0), 0u) << "the rig must drain";
  EXPECT_LT(fast.kernel.ticks_executed(), ref.kernel.ticks_executed());
}

TEST(KernelEquivalence, DmaJob) {
  SocConfig cfg = section5_config();
  cfg.transactions_per_cpu = 20;
  expect_equivalent(cfg, [](Soc& soc) {
    const auto& plan = soc.plan();
    soc.start_dma(ip::DmaEngine::Job{plan.bram_scratch.base + 0x400,
                                     plan.shared_code.base, 256, 8});
    return nullptr;
  });
}

TEST(KernelEquivalence, ScriptedVictimUnderExternalAttack) {
  SocConfig cfg = tiny_test_config();
  cfg.transactions_per_cpu = 40;
  const Wiring wire = [&cfg](Soc& soc) {
    const auto& plan = soc.plan();
    const sim::Addr victim_line = plan.shared_code.base;
    const sim::Addr replayed_line = plan.shared_code.base + cfg.line_bytes;
    auto& victim = soc.add_scripted_master(
        "victim", window_policy(plan.shared_code, 0x500));
    victim.enqueue_write(0, victim_line,
                         std::vector<std::uint8_t>(cfg.line_bytes, 0x11));
    victim.enqueue_write(100, replayed_line,
                         std::vector<std::uint8_t>(cfg.line_bytes, 0x22));
    victim.enqueue_write(10'000, replayed_line,
                         std::vector<std::uint8_t>(cfg.line_bytes, 0x33));
    const auto words = static_cast<std::uint16_t>(cfg.line_bytes / 4);
    victim.enqueue_read(30'000, victim_line, bus::DataFormat::kWord, words);
    victim.enqueue_read(10'000, replayed_line, bus::DataFormat::kWord, words);

    auto attacker = std::make_shared<attack::ExternalAttacker>(soc, 7);
    attacker->schedule_spoof(20'000, victim_line, cfg.line_bytes);
    attacker->schedule_replay(8'000, 25'000, replayed_line, cfg.line_bytes);
    return attacker;
  };
  const Outcome fast = expect_equivalent(cfg, wire);
  EXPECT_GT(fast.results.alerts, 0u) << "both tampered lines must be caught";
  // Most of the timeline is quiescent: a silent fallback to per-cycle
  // stepping must fail here.
  EXPECT_LT(fast.ticks * 4, fast.results.cycles * fast.components);
}

}  // namespace
}  // namespace secbus::soc
