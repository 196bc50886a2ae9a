#include "ip/processor.hpp"

#include "bus/system_bus.hpp"
#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::ip {

Processor::Processor(std::string name, sim::MasterId id, std::uint64_t seed,
                     Workload workload)
    : Component(std::move(name)),
      id_(id),
      seed_(seed),
      workload_(std::move(workload)),
      rng_(seed) {
  SECBUS_ASSERT(!workload_.targets.empty(), "processor workload needs targets");
  SECBUS_ASSERT(workload_.compute_max >= workload_.compute_min,
                "compute gap range inverted");
  SECBUS_ASSERT(workload_.max_burst_beats >= 1, "burst beats must be >= 1");
  SECBUS_ASSERT(workload_.threads >= 1, "at least one thread");
  compute_remaining_ =
      rng_.range(workload_.compute_min, workload_.compute_max);
}

bus::BusTransaction Processor::next_transaction(sim::Cycle now) {
  // Pick a target window, a direction, a format and a burst length, then an
  // aligned address such that the whole burst stays inside the window.
  std::vector<double> weights;
  weights.reserve(workload_.targets.size());
  for (const Target& t : workload_.targets) weights.push_back(t.weight);
  const std::size_t target_idx =
      rng_.weighted_pick(std::span<const double>(weights.data(), weights.size()));
  const Target& target = workload_.targets[target_idx];
  pending_external_ = target.external;

  const double fmt_weights[3] = {workload_.w_byte, workload_.w_half,
                                 workload_.w_word};
  const std::size_t fmt_idx =
      rng_.weighted_pick(std::span<const double>(fmt_weights, 3));
  const bus::DataFormat fmt = fmt_idx == 0   ? bus::DataFormat::kByte
                              : fmt_idx == 1 ? bus::DataFormat::kHalfWord
                                             : bus::DataFormat::kWord;

  const auto burst = static_cast<std::uint16_t>(
      rng_.range(1, workload_.max_burst_beats));
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(burst) * bus::beat_bytes(fmt);
  SECBUS_ASSERT(target.size >= bytes, "target window smaller than one burst");

  const std::uint64_t slots = (target.size - bytes) / bus::beat_bytes(fmt) + 1;
  const sim::Addr addr =
      target.base + rng_.below(slots) * bus::beat_bytes(fmt);

  const bool is_write = rng_.chance(workload_.write_fraction);
  bus::BusTransaction t;
  if (is_write) {
    std::vector<std::uint8_t> payload(bytes);
    rng_.fill(std::span<std::uint8_t>(payload.data(), payload.size()));
    t = bus::make_write(id_, addr, std::move(payload), fmt);
    ++stats_.writes;
  } else {
    t = bus::make_read(id_, addr, fmt, burst);
    ++stats_.reads;
  }
  t.id = bus::make_trans_id(id_, ++seq_);
  t.thread = static_cast<bus::ThreadId>(seq_ % workload_.threads);
  t.issued_at = now;
  return t;
}

void Processor::tick(sim::Cycle now) {
  if (port_ == nullptr) return;

  switch (state_) {
    case State::kComputing: {
      if (done()) return;
      ++stats_.compute_cycles;
      if (compute_remaining_ > 0) {
        --compute_remaining_;
        return;
      }
      bus::BusTransaction t = next_transaction(now);
      ++stats_.issued;
      (pending_external_ ? stats_.external_accesses : stats_.internal_accesses) += 1;
      port_->request.push(std::move(t));
      state_ = State::kWaiting;
      break;
    }
    case State::kWaiting: {
      if (port_->response.empty()) {
        ++stats_.stall_cycles;
        return;
      }
      const bus::BusTransaction resp = *port_->response.pop();
      stats_.latency.add(static_cast<double>(now - resp.issued_at));
      stats_.latency_hist.add(now - resp.issued_at);
      if (resp.status == bus::TransStatus::kOk) {
        ++stats_.completed;
        stats_.bytes_moved += resp.payload_bytes();
      } else {
        ++stats_.failed;
      }
      compute_remaining_ =
          rng_.range(workload_.compute_min, workload_.compute_max);
      state_ = State::kComputing;
      break;
    }
  }
}

sim::Cycle Processor::next_tick(sim::Cycle now) const {
  if (port_ == nullptr) return sim::kNeverCycle;
  if (state_ == State::kWaiting) {
    return port_->response.empty() ? sim::kNeverCycle : now;
  }
  return done() ? sim::kNeverCycle : now + compute_remaining_;
}

void Processor::skip(sim::Cycle from, sim::Cycle to) {
  if (port_ == nullptr) return;
  const sim::Cycle n = to - from;
  if (state_ == State::kWaiting) {
    stats_.stall_cycles += n;
  } else if (!done()) {
    stats_.compute_cycles += n;
    compute_remaining_ -= n;
  }
}

void Processor::contribute_metrics(obs::Registry& reg,
                                   const std::string& prefix) const {
  reg.counter(prefix + ".issued", stats_.issued);
  reg.counter(prefix + ".completed", stats_.completed);
  reg.counter(prefix + ".failed", stats_.failed);
  reg.counter(prefix + ".reads", stats_.reads);
  reg.counter(prefix + ".writes", stats_.writes);
  reg.counter(prefix + ".external_accesses", stats_.external_accesses);
  reg.counter(prefix + ".internal_accesses", stats_.internal_accesses);
  reg.counter(prefix + ".bytes_moved", stats_.bytes_moved);
  reg.counter(prefix + ".compute_cycles", stats_.compute_cycles);
  reg.counter(prefix + ".stall_cycles", stats_.stall_cycles);
  reg.hist(prefix + ".latency", stats_.latency_hist);
}

void Processor::reset() {
  rng_ = util::Xoshiro256(seed_);
  state_ = State::kComputing;
  compute_remaining_ = rng_.range(workload_.compute_min, workload_.compute_max);
  seq_ = 0;
  stats_ = {};
}

}  // namespace secbus::ip
