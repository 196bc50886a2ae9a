#include "ip/scripted_master.hpp"

#include "bus/system_bus.hpp"

namespace secbus::ip {

ScriptedMaster::ScriptedMaster(std::string name, sim::MasterId id)
    : Component(std::move(name)), id_(id) {}

void ScriptedMaster::enqueue(sim::Cycle delay, bus::BusTransaction t) {
  t.master = id_;
  script_.push_back(Step{delay, std::move(t)});
}

void ScriptedMaster::enqueue_read(sim::Cycle delay, sim::Addr addr,
                                  bus::DataFormat fmt, std::uint16_t burst) {
  enqueue(delay, bus::make_read(id_, addr, fmt, burst));
}

void ScriptedMaster::enqueue_write(sim::Cycle delay, sim::Addr addr,
                                   std::vector<std::uint8_t> payload,
                                   bus::DataFormat fmt) {
  enqueue(delay, bus::make_write(id_, addr, std::move(payload), fmt));
}

void ScriptedMaster::tick(sim::Cycle now) {
  if (port_ == nullptr) return;
  switch (state_) {
    case State::kIdle: {
      if (next_step_ >= script_.size()) return;
      delay_remaining_ = script_[next_step_].delay;
      state_ = State::kDelay;
      [[fallthrough]];
    }
    case State::kDelay: {
      if (delay_remaining_ > 0) {
        --delay_remaining_;
        return;
      }
      bus::BusTransaction t = script_[next_step_].trans;
      t.id = bus::make_trans_id(id_, ++seq_);
      t.issued_at = now;
      ++stats_.issued;
      port_->request.push(std::move(t));
      ++next_step_;
      state_ = State::kWaiting;
      break;
    }
    case State::kWaiting: {
      if (port_->response.empty()) return;
      bus::BusTransaction resp = *port_->response.pop();
      stats_.latency.add(static_cast<double>(now - resp.issued_at));
      switch (resp.status) {
        case bus::TransStatus::kOk:
          ++stats_.ok;
          break;
        case bus::TransStatus::kSecurityViolation:
        case bus::TransStatus::kIntegrityError:
          ++stats_.violations;
          break;
        default:
          ++stats_.other_errors;
          break;
      }
      stats_.responses.push_back(std::move(resp));
      state_ = State::kIdle;
      break;
    }
  }
}

sim::Cycle ScriptedMaster::next_tick(sim::Cycle now) const {
  if (port_ == nullptr) return sim::kNeverCycle;
  switch (state_) {
    case State::kIdle:
      return next_step_ < script_.size() ? now + script_[next_step_].delay
                                         : sim::kNeverCycle;
    case State::kDelay:
      return now + delay_remaining_;
    case State::kWaiting:
      return port_->response.empty() ? sim::kNeverCycle : now;
  }
  return now;
}

void ScriptedMaster::skip(sim::Cycle from, sim::Cycle to) {
  if (port_ == nullptr) return;
  if (state_ == State::kIdle) {
    if (next_step_ >= script_.size()) return;
    // The first skipped tick loads the step's delay, as tick() would.
    delay_remaining_ = script_[next_step_].delay;
    state_ = State::kDelay;
  }
  if (state_ == State::kDelay) delay_remaining_ -= to - from;
}

void ScriptedMaster::reset() {
  next_step_ = 0;
  delay_remaining_ = 0;
  state_ = State::kIdle;
  seq_ = 0;
  stats_ = {};
}

}  // namespace secbus::ip
