#include "sim/kernel.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace secbus::sim {

void SimKernel::add(Component& c) {
  SECBUS_ASSERT(c.kernel_ == nullptr || c.kernel_ == this,
                "component already registered with another kernel");
  c.kernel_ = this;
  components_.push_back(&c);
}

void SimKernel::step() {
  // Phase 1: due callbacks (scheduled events) run before any component ticks
  // this cycle, in (cycle, FIFO) order. A callback may schedule more work for
  // the same cycle; it runs within this phase.
  while (!pending_.empty() && pending_.front().when <= now_) {
    std::pop_heap(pending_.begin(), pending_.end(), ScheduledLater{});
    Scheduled ev = std::move(pending_.back());
    pending_.pop_back();
    ev.fn();
  }
  // Phase 2: tick all components in registration order.
  for (Component* c : components_) {
    c->tick(now_);
    ++ticks_executed_;
  }
  ++now_;
}

void SimKernel::advance(Cycle deadline) {
  Cycle next = deadline;
  if (!pending_.empty()) next = std::min(next, pending_.front().when);
  for (Component* c : components_) {
    if (next <= now_) return;
    next = std::min(next, c->next_tick(now_));
  }
  if (next <= now_) return;
  for (Component* c : components_) c->skip(now_, next);
  now_ = next;
}

void SimKernel::run(Cycle n) {
  const Cycle deadline = now_ + n;
  while (now_ < deadline) {
    step();
    advance(deadline);
  }
}

bool SimKernel::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  const Cycle deadline = now_ + max_cycles;
  if (done()) return true;
  while (now_ < deadline) {
    step();
    // Checked before the jump: once done, the remaining components may all
    // report kNeverCycle, and jumping first would run on to the deadline.
    if (done()) return true;
    advance(deadline);
  }
  return false;
}

void SimKernel::schedule(Cycle delay, std::function<void()> fn) {
  pending_.push_back(Scheduled{now_ + delay, seq_++, std::move(fn)});
  std::push_heap(pending_.begin(), pending_.end(), ScheduledLater{});
}

void SimKernel::reset() {
  now_ = 0;
  ticks_executed_ = 0;
  seq_ = 0;
  pending_.clear();
  for (Component* c : components_) c->reset();
}

}  // namespace secbus::sim
