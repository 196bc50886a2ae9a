#include "core/local_firewall.hpp"

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace secbus::core {

void contribute_firewall_metrics(obs::Registry& reg, const std::string& prefix,
                                 const FirewallStats& stats) {
  reg.counter(prefix + ".secpol_reqs", stats.secpol_reqs);
  reg.counter(prefix + ".passed", stats.passed);
  reg.counter(prefix + ".blocked", stats.blocked);
  reg.counter(prefix + ".check_cycles", stats.check_cycles);
  reg.counter(prefix + ".responses_gated", stats.responses_gated);
  // kNone is skipped: it is never counted (only denials are).
  for (std::size_t v = 1; v < kViolationKindCount; ++v) {
    reg.counter(
        prefix + ".violations." + to_string(static_cast<Violation>(v)),
        stats.violations[v]);
  }
}

LocalFirewall::LocalFirewall(std::string name, FirewallId id,
                             ConfigurationMemory& config_mem,
                             SecurityEventLog& log)
    : LocalFirewall(std::move(name), id, config_mem, log, Config{}) {}

LocalFirewall::LocalFirewall(std::string name, FirewallId id,
                             ConfigurationMemory& config_mem,
                             SecurityEventLog& log, Config cfg)
    : Component(std::move(name)),
      id_(id),
      cfg_(cfg),
      sb_(config_mem, id, cfg.sb),
      log_(&log) {}

bool LocalFirewall::idle() const noexcept {
  return !in_check_.has_value() && ip_side_.request.empty() &&
         ip_side_.response.empty() &&
         (bus_side_ == nullptr ||
          (bus_side_->request.empty() && bus_side_->response.empty()));
}

void LocalFirewall::start_check(sim::Cycle now) {
  auto popped = ip_side_.request.pop();
  SECBUS_ASSERT(popped.has_value(), "start_check with empty queue");
  in_check_ = std::move(*popped);
  ++stats_.secpol_reqs;
  if (trace_ != nullptr) {
    // The issue event is back-dated to when the IP handed the transaction
    // to the LFCB queue; detail carries the queue wait it saw.
    trace_->record({in_check_->issued_at, sim::TraceKind::kTransIssued,
                    name().c_str(), in_check_->id, in_check_->addr,
                    now - in_check_->issued_at});
    trace_->record({now, sim::TraceKind::kSecpolReq, name().c_str(),
                    in_check_->id, in_check_->addr, 0});
  }
  check_result_ = sb_.run_check(in_check_->op, in_check_->addr,
                                in_check_->payload_bytes(), in_check_->format,
                                in_check_->thread);
  check_remaining_ = check_result_.latency;
  stats_.check_cycles += check_result_.latency;
}

void LocalFirewall::finish_check(sim::Cycle now) {
  SECBUS_ASSERT(in_check_.has_value(), "finish_check without a transaction");
  SECBUS_ASSERT(bus_side_ != nullptr, "firewall not connected to the bus");
  bus::BusTransaction t = std::move(*in_check_);
  in_check_.reset();

  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kCheckResult, name().c_str(), t.id,
                    t.addr, static_cast<std::uint64_t>(check_result_.decision.violation)});
  }

  // DoS throttle: even rule-legal traffic is bounded per window.
  if (check_result_.decision.allowed && cfg_.rate_limit_window > 0) {
    if (now - rate_window_start_ >= cfg_.rate_limit_window) {
      rate_window_start_ = now - (now % cfg_.rate_limit_window);
      rate_window_count_ = 0;
    }
    if (rate_window_count_ >= cfg_.rate_limit_max) {
      check_result_.decision.allowed = false;
      check_result_.decision.violation = Violation::kRateLimited;
    } else {
      ++rate_window_count_;
    }
  }

  const auto gate = fi_.apply(check_result_.decision);
  if (gate.forwarded) {
    ++stats_.passed;
    bus_side_->request.push(std::move(t));
    return;
  }

  // Discard path: the transaction never reaches the bus. The IP gets an
  // error response so it can continue (a hardware IP would see its strobe
  // acknowledged with an error code).
  ++stats_.blocked;
  stats_.count_violation(check_result_.decision.violation);
  log_->raise(Alert{now, id_, name(), check_result_.decision.violation, t.master,
                    t.op, t.addr, t.id});
  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kTransDiscarded, name().c_str(), t.id,
                    t.addr, static_cast<std::uint64_t>(check_result_.decision.violation)});
    trace_->record({now, sim::TraceKind::kAlert, name().c_str(), t.id, t.addr,
                    static_cast<std::uint64_t>(check_result_.decision.violation)});
  }
  t.status = bus::TransStatus::kSecurityViolation;
  // Discarded data must not reach the IP (read) nor the bus (write).
  std::fill(t.data.begin(), t.data.end(), 0);
  t.completed_at = now;
  ip_side_.response.push(std::move(t));
}

void LocalFirewall::pump_responses(sim::Cycle now) {
  if (bus_side_ == nullptr) return;
  while (!bus_side_->response.empty()) {
    bus::BusTransaction t = *bus_side_->response.pop();
    ++stats_.responses_gated;
    if (cfg_.recheck_responses && t.op == bus::BusOp::kRead &&
        t.status == bus::TransStatus::kOk) {
      // Paranoid mode: full SB re-check of the returning data's shape.
      const auto recheck =
          sb_.run_check(t.op, t.addr, t.payload_bytes(), t.format, t.thread);
      stats_.check_cycles += recheck.latency;
      if (!recheck.decision.allowed) {
        ++stats_.blocked;
        stats_.count_violation(recheck.decision.violation);
        log_->raise(Alert{now, id_, name(), recheck.decision.violation,
                          t.master, t.op, t.addr, t.id});
        t.status = bus::TransStatus::kSecurityViolation;
        std::fill(t.data.begin(), t.data.end(), 0);
      }
    }
    ip_side_.response.push(std::move(t));
  }
}

void LocalFirewall::tick(sim::Cycle now) {
  // Responses flow back to the IP through the FI gate.
  pump_responses(now);

  // SB pipeline: one check at a time; new requests wait in the LFCB queue.
  if (in_check_.has_value()) {
    SECBUS_ASSERT(check_remaining_ > 0, "check countdown underflow");
    --check_remaining_;
    if (check_remaining_ == 0) finish_check(now);
    return;
  }
  if (!ip_side_.request.empty()) {
    start_check(now);
    // The check consumes this cycle as its first cycle.
    --check_remaining_;
    if (check_remaining_ == 0) finish_check(now);
  }
}

sim::Cycle LocalFirewall::next_tick(sim::Cycle now) const {
  if (bus_side_ != nullptr && !bus_side_->response.empty()) return now;
  if (in_check_.has_value()) return now + check_remaining_ - 1;
  return ip_side_.request.empty() ? sim::kNeverCycle : now;
}

void LocalFirewall::skip(sim::Cycle from, sim::Cycle to) {
  if (in_check_.has_value()) check_remaining_ -= to - from;
}

void LocalFirewall::reset_stats() noexcept {
  stats_ = {};
  fi_.reset();
  sb_.reset_stats();
}

void LocalFirewall::contribute_metrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  contribute_firewall_metrics(reg, prefix, stats_);
}

void LocalFirewall::reset() {
  ip_side_.clear();
  if (bus_side_ != nullptr) bus_side_->clear();
  in_check_.reset();
  check_remaining_ = 0;
  rate_window_start_ = 0;
  rate_window_count_ = 0;
  reset_stats();
}

SlaveFirewall::SlaveFirewall(std::string name, FirewallId id,
                             ConfigurationMemory& config_mem,
                             SecurityEventLog& log, bus::SlaveDevice& inner)
    : SlaveFirewall(std::move(name), id, config_mem, log, inner,
                    SecurityBuilder::Config{}) {}

SlaveFirewall::SlaveFirewall(std::string name, FirewallId id,
                             ConfigurationMemory& config_mem,
                             SecurityEventLog& log, bus::SlaveDevice& inner,
                             SecurityBuilder::Config sb_cfg)
    : name_(std::move(name)),
      id_(id),
      sb_(config_mem, id, sb_cfg),
      log_(&log),
      inner_(&inner) {}

bus::AccessResult SlaveFirewall::access(bus::BusTransaction& t, sim::Cycle now) {
  ++stats_.secpol_reqs;
  if (trace_ != nullptr) {
    trace_->record({now, sim::TraceKind::kSecpolReq, name_.c_str(), t.id,
                    t.addr, 0});
  }
  const auto result =
      sb_.run_check(t.op, t.addr, t.payload_bytes(), t.format, t.thread);
  stats_.check_cycles += result.latency;
  if (trace_ != nullptr) {
    // Stamped at check completion so the secpol_req -> check_result pair
    // spans the SB latency the access is charged.
    trace_->record({now + result.latency, sim::TraceKind::kCheckResult,
                    name_.c_str(), t.id, t.addr,
                    static_cast<std::uint64_t>(result.decision.violation)});
  }

  const auto gate = fi_.apply(result.decision);
  if (!gate.forwarded) {
    ++stats_.blocked;
    stats_.count_violation(result.decision.violation);
    log_->raise(Alert{now, id_, name_, result.decision.violation, t.master,
                      t.op, t.addr, t.id});
    if (trace_ != nullptr) {
      trace_->record({now, sim::TraceKind::kTransDiscarded, name_.c_str(), t.id,
                      t.addr, static_cast<std::uint64_t>(result.decision.violation)});
      trace_->record({now, sim::TraceKind::kAlert, name_.c_str(), t.id, t.addr,
                      static_cast<std::uint64_t>(result.decision.violation)});
    }
    std::fill(t.data.begin(), t.data.end(), 0);
    t.status = bus::TransStatus::kSecurityViolation;
    return {result.latency, bus::TransStatus::kSecurityViolation};
  }

  ++stats_.passed;
  const auto inner_result = inner_->access(t, now + result.latency);
  return {result.latency + inner_result.latency, inner_result.status};
}

void SlaveFirewall::reset_stats() noexcept {
  stats_ = {};
  fi_.reset();
  sb_.reset_stats();
}

void SlaveFirewall::contribute_metrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  contribute_firewall_metrics(reg, prefix, stats_);
}

}  // namespace secbus::core
