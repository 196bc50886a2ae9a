#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace secbus::sim {
namespace {

// Records the order in which it is ticked.
class Probe final : public Component {
 public:
  Probe(std::string name, std::vector<std::string>& sink)
      : Component(std::move(name)), sink_(&sink) {}

  void tick(Cycle now) override {
    sink_->push_back(name() + "@" + std::to_string(now));
    ++ticks;
  }
  void reset() override { resets++; }

  int ticks = 0;
  int resets = 0;

 private:
  std::vector<std::string>* sink_;
};

// Needs a tick only at `wake` (then never again); logs ticks and skips.
class Sleeper final : public Component {
 public:
  Sleeper(Cycle wake, std::vector<std::string>& sink)
      : Component("sleeper"), wake_(wake), sink_(&sink) {}

  void tick(Cycle now) override {
    sink_->push_back("tick@" + std::to_string(now));
    if (now >= wake_) wake_ = kNeverCycle;
  }
  [[nodiscard]] Cycle next_tick(Cycle now) const override {
    return std::max(now, wake_);
  }
  void skip(Cycle from, Cycle to) override { skips.emplace_back(from, to); }

  std::vector<std::pair<Cycle, Cycle>> skips;

 private:
  Cycle wake_;
  std::vector<std::string>* sink_;
};

using Skips = std::vector<std::pair<Cycle, Cycle>>;

TEST(Kernel, TicksComponentsInRegistrationOrder) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order), b("b", order), c("c", order);
  k.add(a);
  k.add(b);
  k.add(c);
  k.run(2);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "a@0");
  EXPECT_EQ(order[1], "b@0");
  EXPECT_EQ(order[2], "c@0");
  EXPECT_EQ(order[3], "a@1");
}

TEST(Kernel, NowAdvances) {
  SimKernel k;
  EXPECT_EQ(k.now(), 0u);
  k.run(5);
  EXPECT_EQ(k.now(), 5u);
  k.step();
  EXPECT_EQ(k.now(), 6u);
}

TEST(Kernel, ScheduleRunsAtRequestedCycleBeforeTicks) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  k.add(a);
  k.schedule(2, [&order] { order.push_back("cb@sched"); });
  k.run(4);
  // Callback fires at cycle 2, before a's tick of cycle 2.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "a@0");
  EXPECT_EQ(order[1], "a@1");
  EXPECT_EQ(order[2], "cb@sched");
  EXPECT_EQ(order[3], "a@2");
}

TEST(Kernel, ScheduledCallbacksSameCycleRunFifo) {
  SimKernel k;
  std::vector<int> order;
  k.schedule(1, [&order] { order.push_back(1); });
  k.schedule(1, [&order] { order.push_back(2); });
  k.schedule(0, [&order] { order.push_back(0); });
  k.run(3);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Kernel, CallbackMayScheduleSameCycleWork) {
  SimKernel k;
  std::vector<int> order;
  k.schedule(1, [&] {
    order.push_back(1);
    k.schedule(0, [&order] { order.push_back(2); });
  });
  k.run(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, RunUntilStopsOnPredicate) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  k.add(a);
  const bool hit = k.run_until([&a] { return a.ticks >= 3; }, 100);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.ticks, 3);
  EXPECT_EQ(k.now(), 3u);
}

TEST(Kernel, RunUntilTimesOut) {
  SimKernel k;
  const bool hit = k.run_until([] { return false; }, 10);
  EXPECT_FALSE(hit);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, ResetRestoresTimeAndComponents) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order);
  k.add(a);
  k.schedule(50, [] {});
  k.run(3);
  k.reset();
  EXPECT_EQ(k.now(), 0u);
  EXPECT_EQ(a.resets, 1);
  // The pending callback at cycle 50 was dropped: running 60 cycles after
  // reset re-executes ticks but no stale callback.
  order.clear();
  k.run(1);
  EXPECT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "a@0");
}

TEST(Kernel, TicksExecutedCountsAllComponents) {
  SimKernel k;
  std::vector<std::string> order;
  Probe a("a", order), b("b", order);
  k.add(a);
  k.add(b);
  k.run(10);
  EXPECT_EQ(k.ticks_executed(), 20u);
  EXPECT_EQ(k.component_count(), 2u);
}

TEST(Kernel, JumpsToNextTickWithOneSkipPerGap) {
  SimKernel k;
  std::vector<std::string> log;
  Sleeper s(10, log);
  k.add(s);
  k.run(20);
  EXPECT_EQ(log, (std::vector<std::string>{"tick@0", "tick@10"}));
  EXPECT_EQ(s.skips, (Skips{{1, 10}, {11, 20}}));
  EXPECT_EQ(k.now(), 20u);
  EXPECT_EQ(k.ticks_executed(), 2u);
}

TEST(Kernel, DefaultNextTickPinsPerCycleStepping) {
  SimKernel k;
  std::vector<std::string> log;
  Sleeper s(kNeverCycle, log);
  Probe p("p", log);
  k.add(s);
  k.add(p);
  k.run(4);
  EXPECT_TRUE(s.skips.empty());
  EXPECT_EQ(p.ticks, 4);
  EXPECT_EQ(k.ticks_executed(), 8u);
}

TEST(Kernel, ScheduledCallbackCapsTheJumpAndFiresBeforeTicks) {
  SimKernel k;
  std::vector<std::string> log;
  Sleeper s(50, log);
  k.add(s);
  k.schedule(7, [&] { log.push_back("cb@" + std::to_string(k.now())); });
  k.run(60);
  EXPECT_EQ(log, (std::vector<std::string>{"tick@0", "cb@7", "tick@7",
                                           "tick@50"}));
  EXPECT_EQ(s.skips, (Skips{{1, 7}, {8, 50}, {51, 60}}));
}

TEST(Kernel, RunUntilReturnsAtTheQuiescenceCycle) {
  SimKernel k;
  std::vector<std::string> log;
  Sleeper s(25, log);
  k.add(s);
  // After its wake-up tick the sleeper reports kNeverCycle: only checking
  // the predicate before jumping stops the run at 26 instead of 1000.
  const bool hit = k.run_until([&log] { return log.size() == 2; }, 1000);
  EXPECT_TRUE(hit);
  EXPECT_EQ(k.now(), 26u);
  EXPECT_EQ(s.skips, (Skips{{1, 25}}));
}

TEST(Kernel, RunUntilTimeoutEndsExactlyAtTheDeadline) {
  SimKernel k;
  std::vector<std::string> log;
  Sleeper s(40, log);
  k.add(s);
  k.run(5);
  const bool hit = k.run_until([] { return false; }, 100);
  EXPECT_FALSE(hit);
  EXPECT_EQ(k.now(), 105u);
  EXPECT_EQ(log, (std::vector<std::string>{"tick@0", "tick@5", "tick@40"}));
  EXPECT_EQ(s.skips.back(), (std::pair<Cycle, Cycle>{41, 105}));
}

TEST(Kernel, RunEndsExactlyNCyclesLater) {
  SimKernel k;
  std::vector<std::string> log;
  Sleeper s(kNeverCycle, log);
  k.add(s);
  k.run(3);
  EXPECT_EQ(k.now(), 3u);
  k.run(1000);
  EXPECT_EQ(k.now(), 1003u);
  EXPECT_EQ(k.ticks_executed(), 2u);
  EXPECT_EQ(s.skips, (Skips{{1, 3}, {4, 1003}}));
}

}  // namespace
}  // namespace secbus::sim
