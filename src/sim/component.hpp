// Component base class for the cycle-driven simulation kernel.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace secbus::sim {

class SimKernel;

// A clocked hardware block. The kernel calls tick() once per executed cycle
// in registration order; determinism comes from that fixed order plus the
// rule that components exchange data only through explicit queues whose
// contents are consumed on the *next* cycle (one-cycle wire delay, like a
// registered output in RTL). Combinational shortcuts are allowed inside a
// single component but never across components.
//
// Quiescence skipping. The kernel does not execute cycles in which no
// component can change state: after each executed cycle it asks every
// component for next_tick() and jumps to the earliest answer, crediting the
// cycles it jumps over through skip(). Every executed cycle still ticks
// *every* component, so a component may be ticked before its next_tick();
// tick() must stay correct then, exactly as under per-cycle stepping.
class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  // Advance one clock cycle. `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  // Earliest cycle >= now at which tick() can change this component's state
  // (anything beyond the counters skip() credits) without new input, or
  // kNeverCycle when only input arriving through its ports can wake it.
  // Called after every executed cycle, once all ticks of that cycle are
  // done. It may read only the component's own state and its own ports, and
  // it must be conservative: an answer that is too early only costs an
  // executed cycle, an answer that is too late skips work and is a bug. The
  // default, `now`, keeps the component (and so the whole kernel) stepping
  // every cycle.
  [[nodiscard]] virtual Cycle next_tick(Cycle now) const { return now; }

  // Accounts for the cycles [from, to) the kernel jumped over, with
  // from < to <= next_tick(from). Must leave every counter and countdown
  // exactly as (to - from) ticks without input would have left them.
  virtual void skip(Cycle /*from*/, Cycle /*to*/) {}

  // Return to power-on state. Kernel reset() calls this on every component.
  virtual void reset() {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Set by the kernel at registration; null until then.
  [[nodiscard]] SimKernel* kernel() const noexcept { return kernel_; }

 private:
  friend class SimKernel;
  std::string name_;
  SimKernel* kernel_ = nullptr;
};

}  // namespace secbus::sim
