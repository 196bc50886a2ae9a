// Next-event simulation kernel.
//
// The kernel owns nothing: components are built and owned by the SoC layer
// (or by tests) and registered here. Each executed cycle the kernel
//   1. fires due delayed callbacks (schedule()), in deterministic order, then
//   2. ticks every registered component in registration order.
// Both orders are fixed, so a run is a pure function of (wiring, seeds).
//
// Between executed cycles the kernel jumps time forward to the earliest of
// every component's next_tick(), the next scheduled callback and the run's
// deadline, and lets each component skip() the cycles in between. Because
// next_tick() is conservative (see Component), the jump never crosses a
// cycle in which a tick would have changed state, so a run produces the
// same results, counters and traces as ticking every component every
// cycle. A component that keeps the default next_tick() pins the kernel to
// exactly that per-cycle stepping.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/component.hpp"
#include "sim/types.hpp"

namespace secbus::sim {

class SimKernel {
 public:
  SimKernel() = default;

  SimKernel(const SimKernel&) = delete;
  SimKernel& operator=(const SimKernel&) = delete;

  // Registers a component; the kernel keeps a non-owning pointer. Components
  // must outlive the kernel's run calls. Registration order defines tick
  // order and must therefore be deterministic in the caller.
  void add(Component& c);

  // Runs exactly n cycles: ends at now() + n.
  void run(Cycle n);

  // Runs until `done()` returns true or until `max_cycles` elapse, whichever
  // is first. Returns true when the predicate fired, false on timeout (then
  // now() has advanced by exactly max_cycles). `done()` is checked after
  // each executed cycle, before the jump: it must depend only on component
  // state, which skipped cycles do not change, so the run stops at the same
  // cycle as under per-cycle stepping.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  // Executes a single cycle, without jumping afterwards.
  void step();

  // Schedules `fn` to run at cycle `now + delay`, before components tick.
  // delay 0 means "at the start of the next step()" when called outside a
  // step, or "this cycle, before ticks" when called from another callback.
  void schedule(Cycle delay, std::function<void()> fn);

  // Resets time to 0, clears pending callbacks and resets all components.
  void reset();

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  // tick() calls actually made; skipped cycles do not count.
  [[nodiscard]] std::uint64_t ticks_executed() const noexcept {
    return ticks_executed_;
  }
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

 private:
  struct Scheduled {
    Cycle when;
    std::uint64_t seq;  // tie-break so equal-cycle callbacks run FIFO
    std::function<void()> fn;
  };
  struct ScheduledLater {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // Jumps now_ to the earliest cycle (capped at `deadline`) at which a
  // component may need a tick or a callback is due; no-op when that is now_.
  void advance(Cycle deadline);

  std::vector<Component*> components_;
  // Min-heap over (when, seq) maintained with std::push_heap/pop_heap on a
  // plain vector (rather than std::priority_queue, whose const top() forces
  // copying the std::function out on every dispatch — pop_heap lets us move
  // it). The backing storage is also reused across steps instead of being
  // reallocated.
  std::vector<Scheduled> pending_;
  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t ticks_executed_ = 0;
};

}  // namespace secbus::sim
