#include "attack/flood_master.hpp"

#include "bus/system_bus.hpp"

namespace secbus::attack {

FloodMaster::FloodMaster(std::string name, sim::MasterId id, Config cfg)
    : Component(std::move(name)), id_(id), cfg_(cfg) {}

void FloodMaster::tick(sim::Cycle now) {
  if (port_ == nullptr) return;

  // Drain responses (the flooder does not care about results, but counting
  // rejections shows firewall throttling).
  while (!port_->response.empty()) {
    const bus::BusTransaction resp = *port_->response.pop();
    if (resp.status == bus::TransStatus::kOk) {
      ++completed_;
    } else {
      ++rejected_;
    }
    outstanding_ = false;
  }

  if (done() || outstanding_) return;
  if (cfg_.total_writes != 0 && issued_ >= cfg_.total_writes) return;

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cfg_.burst_beats) * 4;
  std::vector<std::uint8_t> payload(bytes, 0xDD);  // dummy data
  bus::BusTransaction t = bus::make_write(
      id_, cfg_.target + offset_, std::move(payload), bus::DataFormat::kWord);
  t.id = bus::make_trans_id(id_, ++seq_);
  t.issued_at = now;
  offset_ = (offset_ + bytes) % cfg_.region;
  ++issued_;
  outstanding_ = true;
  port_->request.push(std::move(t));
}

sim::Cycle FloodMaster::next_tick(sim::Cycle now) const {
  if (port_ == nullptr) return sim::kNeverCycle;
  if (!port_->response.empty()) return now;
  if (done() || outstanding_) return sim::kNeverCycle;
  if (cfg_.total_writes != 0 && issued_ >= cfg_.total_writes) {
    return sim::kNeverCycle;
  }
  return now;
}

void FloodMaster::reset() {
  issued_ = completed_ = rejected_ = 0;
  seq_ = 0;
  offset_ = 0;
  outstanding_ = false;
}

}  // namespace secbus::attack
