// Scripted bus master: issues a fixed sequence of transactions.
//
// Used by integration tests (deterministic stimulus) and by the attack
// framework's hijacked-processor model (Section III.A "processor hijacking":
// a compromised IP running attacker-chosen code is, from the interconnect's
// point of view, exactly a master issuing attacker-chosen transactions).
#pragma once

#include <string>
#include <vector>

#include "bus/ports.hpp"
#include "sim/component.hpp"
#include "util/stats.hpp"

namespace secbus::ip {

class ScriptedMaster final : public sim::Component {
 public:
  struct Step {
    sim::Cycle delay = 0;  // compute cycles before issuing this transaction
    bus::BusTransaction trans;
  };

  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t violations = 0;  // responses flagged by a firewall
    std::uint64_t other_errors = 0;
    util::RunningStat latency;
    // Completed transactions in script order (for content assertions).
    std::vector<bus::BusTransaction> responses;
  };

  ScriptedMaster(std::string name, sim::MasterId id);

  void connect(bus::MasterEndpoint& endpoint) noexcept { port_ = &endpoint; }

  // Appends a step; steps run strictly in order, each waiting for the
  // previous response.
  void enqueue(sim::Cycle delay, bus::BusTransaction t);

  // Convenience wrappers.
  void enqueue_read(sim::Cycle delay, sim::Addr addr,
                    bus::DataFormat fmt = bus::DataFormat::kWord,
                    std::uint16_t burst = 1);
  void enqueue_write(sim::Cycle delay, sim::Addr addr,
                     std::vector<std::uint8_t> payload,
                     bus::DataFormat fmt = bus::DataFormat::kWord);

  void tick(sim::Cycle now) override;
  // The cycle the next step issues; never while waiting for a response.
  [[nodiscard]] sim::Cycle next_tick(sim::Cycle now) const override;
  void skip(sim::Cycle from, sim::Cycle to) override;
  void reset() override;

  [[nodiscard]] bool done() const noexcept {
    return next_step_ >= script_.size() && state_ == State::kIdle;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::MasterId master_id() const noexcept { return id_; }

  // Zeroes the accounting without touching script progress.
  void reset_stats() noexcept { stats_ = {}; }

 private:
  enum class State { kIdle, kDelay, kWaiting };

  sim::MasterId id_;
  bus::MasterEndpoint* port_ = nullptr;
  std::vector<Step> script_;
  std::size_t next_step_ = 0;
  sim::Cycle delay_remaining_ = 0;
  State state_ = State::kIdle;
  std::uint64_t seq_ = 0;
  Stats stats_;
};

}  // namespace secbus::ip
