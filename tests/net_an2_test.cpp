#include "net/an2.hpp"

#include <gtest/gtest.h>

#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::net {
namespace {

using sim::Cycles;
using sim::Node;
using sim::NodeConfig;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

struct TwoNodes {
  Simulator sim;
  Node* a;
  Node* b;
  An2Device* dev_a;
  An2Device* dev_b;

  explicit TwoNodes(const An2Config& cfg = {}, NodeConfig node_cfg = {}) {
    a = &sim.add_node("a", node_cfg);
    b = &sim.add_node("b", node_cfg);
    dev_a = new An2Device(*a, cfg);
    dev_b = new An2Device(*b, cfg);
    dev_a->connect(*dev_b);
  }
  ~TwoNodes() {
    delete dev_a;
    delete dev_b;
  }
};

TEST(An2, DeliversIntoSuppliedBufferZeroCopy) {
  TwoNodes t;
  bool checked = false;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 4096);
    co_await t.dev_b->arrival_channel(vc).wait(self);
    const auto d = t.dev_b->poll(vc);
    EXPECT_TRUE(d.has_value());
    if (d.has_value()) {
      EXPECT_EQ(d->addr, self.segment().base);  // landed in app memory
      EXPECT_EQ(d->len, 4u);
      const std::uint8_t* p = t.b->mem(d->addr, 4);
      EXPECT_EQ(p[0], 0xde);
      EXPECT_EQ(p[3], 0xef);
      checked = true;
    }
  });
  t.sim.queue().schedule_at(100, [&] {
    const std::uint8_t msg[] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(t.dev_a->send(0, msg));
  });
  t.sim.run();
  EXPECT_TRUE(checked);
}

TEST(An2, DmaInvalidatesCachedLines) {
  TwoNodes t;
  bool checked = false;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    const std::uint32_t buf = self.segment().base;
    t.dev_b->supply_buffer(vc, buf, 4096);
    t.b->dcache().touch_range(buf, 64);  // stale cached copy
    co_await t.dev_b->arrival_channel(vc).wait(self);
    EXPECT_FALSE(t.b->dcache().contains(buf));
    checked = true;
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t msg[] = {1, 2, 3, 4};
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  EXPECT_TRUE(checked);
}

TEST(An2, DropsWhenNoFreeBuffer) {
  TwoNodes t;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    t.dev_b->bind_vc(self);  // no buffers supplied
    co_await self.compute(1);
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t msg[] = {1, 2, 3, 4};
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  EXPECT_EQ(t.dev_b->drops(0), 1u);
}

TEST(An2, DropsOversizeMessage) {
  TwoNodes t;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 16);
    co_await self.compute(1);
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::vector<std::uint8_t> msg(64, 7);
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  EXPECT_EQ(t.dev_b->drops(0), 1u);
  EXPECT_EQ(t.dev_b->free_buffers(0), 1u);  // buffer not consumed
}

TEST(An2, HardwareLatencyCalibration) {
  // One-way for a tiny message: serialization(4B) + per-packet overhead +
  // one_way_latency ~= 48 us, i.e. 96 us RTT (Table I's hardware floor).
  // Measured at the kernel hook, which adds ~5 us of driver work.
  TwoNodes t;
  Cycles arrive_time = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 64);
    t.dev_b->set_kernel_hook(vc, [&](const An2Device::RxEvent&) {
      arrive_time = t.b->now();
      return true;
    });
    co_await self.sleep_for(us(10000.0));
  });
  t.sim.queue().schedule_at(0, [&] {
    const std::uint8_t msg[] = {1, 2, 3, 4};
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  const double hook_us = sim::to_us(arrive_time);
  EXPECT_GT(hook_us, 48.0);
  EXPECT_LT(hook_us, 58.0);
}

TEST(An2, SerializationPipelinesBackToBackPackets) {
  TwoNodes t;
  std::vector<Cycles> arrivals;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    for (int i = 0; i < 3; ++i) {
      t.dev_b->supply_buffer(
          vc, self.segment().base + 4096u * static_cast<std::uint32_t>(i),
          4096);
    }
    for (int i = 0; i < 3; ++i) {
      co_await t.dev_b->arrival_channel(vc).wait(self);
      arrivals.push_back(self.node().now());
      (void)t.dev_b->poll(vc);
    }
  });
  t.sim.queue().schedule_at(0, [&] {
    const std::vector<std::uint8_t> msg(4096, 9);
    for (int i = 0; i < 3; ++i) t.dev_a->send(0, msg);
  });
  t.sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Successive arrivals are spaced by one serialization time (~254 us for
  // 4 KB at 16.8 MB/s + overhead), not delivered simultaneously.
  const double gap1 = sim::to_us(arrivals[1] - arrivals[0]);
  const double gap2 = sim::to_us(arrivals[2] - arrivals[1]);
  EXPECT_NEAR(gap1, 253.8, 10.0);
  EXPECT_NEAR(gap2, 253.8, 10.0);
}

TEST(An2, KernelHookConsumesMessage) {
  TwoNodes t;
  int hook_runs = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 64);
    t.dev_b->set_kernel_hook(vc, [&](const An2Device::RxEvent& ev) {
      EXPECT_EQ(ev.channel, 0);
      EXPECT_EQ(ev.desc.len, 4u);
      ++hook_runs;
      return true;  // consumed: no notification
    });
    co_await self.sleep_for(us(10000.0));
    EXPECT_FALSE(t.dev_b->poll(vc).has_value());
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t msg[] = {1, 2, 3, 4};
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  EXPECT_EQ(hook_runs, 1);
}

TEST(An2, DecliningHookFallsBackToNotification) {
  TwoNodes t;
  bool received = false;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 64);
    t.dev_b->set_kernel_hook(
        vc, [](const An2Device::RxEvent&) { return false; });
    co_await t.dev_b->arrival_channel(vc).wait(self);
    received = t.dev_b->poll(vc).has_value();
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t msg[] = {1, 2, 3, 4};
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  EXPECT_TRUE(received);
}

TEST(An2, FaultInjectionDropsSomePackets) {
  An2Config cfg;
  cfg.faults.drop_prob = 0.5;
  cfg.faults.seed = 99;
  TwoNodes t(cfg);
  int received = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    for (int i = 0; i < 64; ++i) {
      t.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    // Give everything time to arrive, then count.
    co_await self.sleep_for(us(100000.0));
    while (t.dev_b->poll(vc).has_value()) ++received;
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t msg[] = {1, 2, 3, 4};
    for (int i = 0; i < 64; ++i) t.dev_a->send(0, msg);
  });
  t.sim.run();
  EXPECT_GT(received, 10);
  EXPECT_LT(received, 54);
}

TEST(An2, PingPongRoundTripUnderInKernelHandlers) {
  // Raw in-kernel ping-pong: both sides consume in a kernel hook and reply
  // immediately — reproduces Table I's in-kernel configuration (~112 us).
  TwoNodes t;
  int rtts = 0;
  Cycles t0 = 0, t1 = 0;
  constexpr int kIters = 8;

  // Both "processes" exist only to own VCs; handlers do the work.
  t.a->kernel().spawn("client", [&](Process& self) -> Task {
    const int vc = t.dev_a->bind_vc(self);
    for (int i = 0; i < 16; ++i) {
      t.dev_a->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    t.dev_a->set_kernel_hook(vc, [&](const An2Device::RxEvent& ev) {
      ++rtts;
      if (rtts == kIters) {
        t1 = t.a->now();
        return true;
      }
      t.a->kernel_work(t.dev_a->config().tx_kernel_work, [&, ev] {
        t.dev_a->send_from(0, ev.desc.addr, ev.desc.len);
      });
      return true;
    });
    co_await self.compute(1);
  });
  t.b->kernel().spawn("server", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    for (int i = 0; i < 16; ++i) {
      t.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    t.dev_b->set_kernel_hook(vc, [&](const An2Device::RxEvent& ev) {
      t.b->kernel_work(t.dev_b->config().tx_kernel_work, [&, ev] {
        t.dev_b->send_from(0, ev.desc.addr, ev.desc.len);
      });
      return true;
    });
    co_await self.compute(1);
  });
  t.sim.queue().schedule_at(1000, [&] {
    t0 = t.a->now();
    const std::uint8_t msg[] = {1, 2, 3, 4};
    t.dev_a->send(0, msg);
  });
  t.sim.run();
  ASSERT_EQ(rtts, kIters);
  const double rtt_us = sim::to_us(t1 - t0) / kIters;
  // Table I: in-kernel AN2 round trip = 112 us. Expect the same ballpark.
  EXPECT_GT(rtt_us, 100.0);
  EXPECT_LT(rtt_us, 125.0);
}

}  // namespace
}  // namespace ash::net
