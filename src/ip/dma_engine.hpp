// Dedicated IP: a DMA copy engine.
//
// The case-study system contains "one dedicated IP"; a DMA engine is the
// canonical example and produces the burst traffic that stresses the
// firewalls' ADF/burst handling. It copies `length` bytes from `src` to
// `dst` in word bursts, one read+write pair in flight at a time.
#pragma once

#include <string>

#include "bus/ports.hpp"
#include "sim/component.hpp"

namespace secbus::obs {
class Registry;
}

namespace secbus::ip {

class DmaEngine final : public sim::Component {
 public:
  struct Job {
    sim::Addr src = 0;
    sim::Addr dst = 0;
    std::uint64_t length = 0;       // bytes, multiple of 4
    std::uint16_t burst_beats = 8;  // words per burst
  };

  struct Stats {
    std::uint64_t bursts = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t errors = 0;
    sim::Cycle started_at = 0;
    sim::Cycle finished_at = 0;
  };

  DmaEngine(std::string name, sim::MasterId id);

  void connect(bus::MasterEndpoint& endpoint) noexcept { port_ = &endpoint; }

  // Starts a copy job; only one job at a time.
  void start(const Job& job);

  void tick(sim::Cycle now) override;
  // Now with a burst to issue or a response to take; never while idle or
  // waiting on the bus.
  [[nodiscard]] sim::Cycle next_tick(sim::Cycle now) const override;
  void reset() override;

  [[nodiscard]] bool busy() const noexcept { return state_ != State::kIdle; }
  [[nodiscard]] bool job_done() const noexcept {
    return state_ == State::kIdle && stats_.bytes_copied > 0;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::MasterId master_id() const noexcept { return id_; }

  // Zeroes the statistics only; the engine state machine and any job in
  // flight are untouched. job_done() reports false again until the next
  // copy completes (it keys off bytes_copied).
  void reset_stats() noexcept { stats_ = {}; }

  // Publishes the copy counters under `prefix` ("<prefix>.bursts", ...).
  void contribute_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  enum class State { kIdle, kReading, kWriting };

  [[nodiscard]] std::uint16_t beats_for_chunk() const noexcept;

  sim::MasterId id_;
  bus::MasterEndpoint* port_ = nullptr;
  Job job_;
  std::uint64_t progress_ = 0;  // bytes copied so far
  bus::Payload chunk_;
  State state_ = State::kIdle;
  bool pending_issue_ = false;
  std::uint64_t seq_ = 0;
  Stats stats_;
};

}  // namespace secbus::ip
