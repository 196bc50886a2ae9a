#include "bus/system_bus.hpp"

#include <gtest/gtest.h>

#include "sim/kernel.hpp"

namespace secbus::bus {
namespace {

// Configurable fake slave: byte-addressed array, fixed latency.
class FakeSlave final : public SlaveDevice {
 public:
  explicit FakeSlave(sim::Cycle latency = 1) : latency_(latency) {
    memory_.resize(0x1000, 0);
  }

  AccessResult access(BusTransaction& t, sim::Cycle now) override {
    last_access_cycle = now;
    ++accesses;
    if (t.end_addr() > memory_.size()) return {1, TransStatus::kSlaveError};
    if (t.is_write()) {
      std::copy(t.data.begin(), t.data.end(), memory_.begin() + static_cast<long>(t.addr));
    } else {
      t.data.assign(memory_.begin() + static_cast<long>(t.addr),
                    memory_.begin() + static_cast<long>(t.end_addr()));
    }
    return {latency_, TransStatus::kOk};
  }
  [[nodiscard]] std::string_view slave_name() const override { return "fake"; }

  std::vector<std::uint8_t> memory_;
  sim::Cycle latency_;
  sim::Cycle last_access_cycle = 0;
  int accesses = 0;
};

struct BusFixture : public ::testing::Test {
  void SetUp() override {
    bus = std::make_unique<SystemBus>("bus");
    slave_id = bus->add_slave(slave);
    bus->map_region(0x0000, 0x1000, slave_id, "mem");
    ep0 = &bus->attach_master(0, "m0");
    ep1 = &bus->attach_master(1, "m1");
    kernel.add(*bus);
  }

  sim::SimKernel kernel;
  std::unique_ptr<SystemBus> bus;
  FakeSlave slave;
  sim::SlaveId slave_id = 0;
  MasterEndpoint* ep0 = nullptr;
  MasterEndpoint* ep1 = nullptr;
};

TEST_F(BusFixture, WriteThenReadRoundTrip) {
  BusTransaction w = make_write(0, 0x100, {1, 2, 3, 4});
  w.issued_at = 0;
  ep0->request.push(std::move(w));
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  EXPECT_EQ(ep0->response.pop()->status, TransStatus::kOk);

  BusTransaction r = make_read(0, 0x100, DataFormat::kWord, 1);
  r.issued_at = kernel.now();
  ep0->request.push(std::move(r));
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  const BusTransaction resp = *ep0->response.pop();
  EXPECT_EQ(resp.status, TransStatus::kOk);
  EXPECT_EQ(resp.data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST_F(BusFixture, TransactionTimingMatchesModel) {
  // grant cycle (addr) + slave latency + burst beats.
  slave.latency_ = 3;
  BusTransaction r = make_read(0, 0x0, DataFormat::kWord, 2);
  r.issued_at = 0;
  ep0->request.push(std::move(r));
  kernel.run(20);
  ASSERT_FALSE(ep0->response.empty());
  const BusTransaction resp = *ep0->response.pop();
  EXPECT_EQ(resp.granted_at, 0u);
  // Address cycle at c0, then latency(3) + beats(2) cycles -> done at c5.
  EXPECT_EQ(resp.completed_at, 5u);
}

TEST_F(BusFixture, DecodeErrorForUnmappedAddress) {
  BusTransaction r = make_read(0, 0x8000);
  ep0->request.push(std::move(r));
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  EXPECT_EQ(ep0->response.pop()->status, TransStatus::kDecodeError);
  EXPECT_EQ(bus->stats().decode_errors, 1u);
  EXPECT_EQ(slave.accesses, 0);
}

TEST_F(BusFixture, BurstMayNotStraddleRegionEnd) {
  BusTransaction r = make_read(0, 0x0FFC, DataFormat::kWord, 2);  // 8 bytes
  ep0->request.push(std::move(r));
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  EXPECT_EQ(ep0->response.pop()->status, TransStatus::kDecodeError);
}

TEST_F(BusFixture, RoundRobinAlternatesBetweenMasters) {
  for (int i = 0; i < 3; ++i) {
    ep0->request.push(make_read(0, 0x0));
    ep1->request.push(make_read(1, 0x4));
  }
  kernel.run(60);
  EXPECT_EQ(bus->master_stats()[0].grants, 3u);
  EXPECT_EQ(bus->master_stats()[1].grants, 3u);
  EXPECT_EQ(bus->stats().transactions, 6u);
}

TEST_F(BusFixture, OneTransactionAtATime) {
  ep0->request.push(make_read(0, 0x0, DataFormat::kWord, 4));
  ep1->request.push(make_read(1, 0x4, DataFormat::kWord, 4));
  kernel.run(3);
  // Second master still waiting while first transfer occupies the bus.
  EXPECT_TRUE(ep1->response.empty());
  kernel.run(30);
  EXPECT_FALSE(ep1->response.empty());
}

TEST_F(BusFixture, StatsTrackOccupancyAndBytes) {
  ep0->request.push(make_write(0, 0x0, std::vector<std::uint8_t>(16, 9)));
  kernel.run(30);
  const auto& stats = bus->stats();
  EXPECT_EQ(stats.transactions, 1u);
  EXPECT_EQ(stats.bytes_transferred, 16u);
  EXPECT_GT(stats.busy_cycles, 0u);
  EXPECT_GT(stats.idle_cycles, 0u);
  EXPECT_GT(stats.occupancy(), 0.0);
  EXPECT_LT(stats.occupancy(), 1.0);
}

TEST_F(BusFixture, WaitCyclesMeasuredFromIssue) {
  BusTransaction r1 = make_read(0, 0x0, DataFormat::kWord, 4);
  r1.issued_at = 0;
  BusTransaction r2 = make_read(1, 0x4);
  r2.issued_at = 0;
  ep0->request.push(std::move(r1));
  ep1->request.push(std::move(r2));
  kernel.run(30);
  // m1 waited for m0's transfer to finish.
  EXPECT_GT(bus->master_stats()[1].wait_cycles.mean(), 0.0);
}

TEST_F(BusFixture, SlaveErrorPropagates) {
  ep0->request.push(make_read(0, 0x0FF8, DataFormat::kWord, 2));
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  // In range for the region (0x0FF8+8 = 0x1000) but FakeSlave's memory is
  // exactly 0x1000 bytes, so this succeeds; use a smaller slave to check.
  // Instead: unmap nothing—this transaction is fine. Shrink memory:
  EXPECT_EQ(ep0->response.pop()->status, TransStatus::kOk);

  slave.memory_.resize(0x800);
  ep0->request.push(make_read(0, 0x0900));
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  EXPECT_EQ(ep0->response.pop()->status, TransStatus::kSlaveError);
  EXPECT_EQ(bus->master_stats()[0].errors, 1u);
}

TEST_F(BusFixture, IdleReflectsQueuesAndState) {
  EXPECT_TRUE(bus->idle());
  ep0->request.push(make_read(0, 0x0));
  EXPECT_FALSE(bus->idle());
  kernel.run(10);
  EXPECT_TRUE(bus->idle());
}

TEST_F(BusFixture, ResetClearsState) {
  ep0->request.push(make_read(0, 0x0));
  kernel.run(2);
  bus->reset();
  EXPECT_TRUE(bus->idle());
  EXPECT_EQ(bus->stats().transactions, 0u);
  EXPECT_EQ(bus->master_stats()[0].grants, 0u);
}

TEST_F(BusFixture, NextTickWaitsOutBookedWindows) {
  bus->book(2, 10);
  bus->book(10, 15);  // adjacent: one busy stretch 2..15
  bus->book(20, 25);
  EXPECT_EQ(bus->next_tick(0), sim::kNeverCycle) << "no request, no tick";
  ep0->request.push(make_read(0, 0x0));
  EXPECT_EQ(bus->next_tick(0), 0u);
  EXPECT_EQ(bus->next_tick(2), 15u);
  EXPECT_EQ(bus->next_tick(12), 15u);
  EXPECT_EQ(bus->next_tick(16), 16u);
  EXPECT_EQ(bus->next_tick(22), 25u);
}

TEST_F(BusFixture, NextTickIsTheDataPhaseEnd) {
  slave.latency_ = 5;
  ep0->request.push(make_read(0, 0x0, DataFormat::kWord, 2));
  kernel.step();  // grant + address phase at cycle 0
  // 5 slave cycles + 2 beats from cycle 1: the response lands at cycle 7.
  EXPECT_EQ(bus->next_tick(kernel.now()), 7u);
  kernel.run(10);
  ASSERT_FALSE(ep0->response.empty());
  EXPECT_EQ(ep0->response.front().completed_at, 7u);
}

TEST(SystemBusSkip, CreditsBookedWindowsAsBusyTheRestAsIdle) {
  SystemBus skipped("skipped");
  SystemBus ticked("ticked");
  for (SystemBus* b : {&skipped, &ticked}) {
    b->book(3, 8);
    b->book(12, 20);
  }
  skipped.skip(1, 16);
  for (sim::Cycle c = 1; c < 16; ++c) ticked.tick(c);
  EXPECT_EQ(skipped.stats().busy_cycles, 9u);
  EXPECT_EQ(skipped.stats().idle_cycles, 6u);
  EXPECT_EQ(skipped.stats().busy_cycles, ticked.stats().busy_cycles);
  EXPECT_EQ(skipped.stats().idle_cycles, ticked.stats().idle_cycles);
}

TEST(SystemBusPriority, FixedPriorityStarvesUnderLoad) {
  sim::SimKernel kernel;
  SystemBus bus("bus", std::make_unique<FixedPriorityArbiter>());
  FakeSlave slave;
  const auto sid = bus.add_slave(slave);
  bus.map_region(0x0, 0x1000, sid, "mem");
  auto& ep0 = bus.attach_master(0, "hog");
  auto& ep1 = bus.attach_master(1, "victim");
  kernel.add(bus);

  // Keep master 0 saturated; master 1 has one pending request.
  ep1.request.push(make_read(1, 0x4));
  for (int i = 0; i < 10; ++i) ep0.request.push(make_read(0, 0x0));
  kernel.run(25);
  // Master 1 still starved while master 0 has work.
  EXPECT_EQ(bus.master_stats()[1].grants, 0u);
  kernel.run(200);
  EXPECT_EQ(bus.master_stats()[1].grants, 1u);
}

}  // namespace
}  // namespace secbus::bus
