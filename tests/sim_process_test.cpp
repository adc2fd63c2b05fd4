#include <gtest/gtest.h>

#include "sim/kernel.hpp"
#include "sim/memops.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {
namespace {

NodeConfig quiet_config() {
  NodeConfig cfg;
  // Zero scheduling overheads make arithmetic in basic tests exact.
  cfg.cost.context_switch = 0;
  return cfg;
}

TEST(Process, ComputeAdvancesSimulatedTime) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  Cycles finished = 0;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    co_await self.compute(1000);
    co_await self.compute(500);
    finished = self.node().now();
  });
  sim.run();
  EXPECT_EQ(finished, 1500u);
}

TEST(Process, SyscallChargesCrossingsAndWork) {
  Simulator sim;
  NodeConfig cfg = quiet_config();
  cfg.cost.kernel_crossing = 100;
  cfg.cost.syscall_overhead = 50;
  Node& node = sim.add_node("n0", cfg);
  Cycles finished = 0;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    co_await self.syscall(10);
    finished = self.node().now();
  });
  sim.run();
  EXPECT_EQ(finished, 2u * 100 + 50 + 10);
}

TEST(Process, SleepBlocksForDuration) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  Cycles woke = 0;
  node.kernel().spawn("sleeper", [&](Process& self) -> Task {
    co_await self.sleep_for(5000);
    woke = self.node().now();
  });
  sim.run();
  EXPECT_EQ(woke, 5000u);
}

TEST(Process, ContextSwitchCostCharged) {
  Simulator sim;
  NodeConfig cfg;
  cfg.cost.context_switch = 400;
  Node& node = sim.add_node("n0", cfg);
  Cycles finished = 0;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    co_await self.compute(100);
    finished = self.node().now();
  });
  sim.run();
  EXPECT_EQ(finished, 500u);  // initial dispatch pays the switch
}

TEST(Process, TwoProcessesShareCpuSerially) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  Cycles a_done = 0, b_done = 0;
  node.kernel().spawn("a", [&](Process& self) -> Task {
    co_await self.compute(1000);
    a_done = self.node().now();
  });
  node.kernel().spawn("b", [&](Process& self) -> Task {
    co_await self.compute(1000);
    b_done = self.node().now();
  });
  sim.run();
  // a runs to completion first (compute shorter than quantum), then b.
  EXPECT_EQ(a_done, 1000u);
  EXPECT_EQ(b_done, 2000u);
}

TEST(Process, QuantumPreemptionInterleavesLongComputes) {
  Simulator sim;
  NodeConfig cfg = quiet_config();
  cfg.cost.quantum = 10000;  // short quantum
  Node& node = sim.add_node("n0", cfg);
  Cycles a_done = 0, b_done = 0;
  node.kernel().spawn("a", [&](Process& self) -> Task {
    co_await self.compute(50000);
    a_done = self.node().now();
  });
  node.kernel().spawn("b", [&](Process& self) -> Task {
    co_await self.compute(50000);
    b_done = self.node().now();
  });
  sim.run();
  // With strict serial execution b would finish at 100000 and a at 50000;
  // with preemption both finish near the end.
  EXPECT_GT(a_done, 50000u);
  EXPECT_LE(b_done, 101000u);
  EXPECT_LT(b_done - a_done, 15000u);
}

TEST(Process, YieldRotatesReadyQueue) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    node.kernel().spawn("p", [&order, i](Process& self) -> Task {
      for (int r = 0; r < 2; ++r) {
        order.push_back(i);
        co_await self.compute(10);
        co_await self.yield_now();
      }
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Process, WaitChannelDeliversTokensWithoutLoss) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  WaitChannel ch;
  int received = 0;
  node.kernel().spawn("consumer", [&](Process& self) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await ch.wait(self);
      ++received;
    }
  });
  // Notify before the consumer even starts (token semantics), then later.
  ch.notify();
  sim.queue().schedule_at(1000, [&] { ch.notify(); });
  sim.queue().schedule_at(2000, [&] { ch.notify(); });
  sim.run();
  EXPECT_EQ(received, 3);
}

TEST(Process, WaitChannelNotifyBetweenCheckAndWaitIsNotLost) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  WaitChannel ch;
  bool got = false;
  node.kernel().spawn("consumer", [&](Process& self) -> Task {
    co_await self.compute(500);  // notify lands during this compute
    co_await ch.wait(self);
    got = true;
  });
  sim.queue().schedule_at(100, [&] { ch.notify(); });
  sim.run();
  EXPECT_TRUE(got);
}

TEST(Process, BlockedProcessFreesCpuForOthers) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  WaitChannel ch;
  Cycles worker_done = 0;
  node.kernel().spawn("blocked", [&](Process& self) -> Task {
    co_await ch.wait(self);
  });
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    co_await self.compute(100);
    worker_done = self.node().now();
  });
  sim.queue().schedule_at(100000, [&] { ch.notify(); });
  sim.run();
  EXPECT_LE(worker_done, 200u);  // didn't wait behind the blocked process
}

TEST(Process, ExceptionsPropagateToSimulatorRun) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  node.kernel().spawn("thrower", [&](Process& self) -> Task {
    co_await self.compute(10);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Process, KernelWorkDelaysProcessCompute) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  Cycles done = 0;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    co_await self.compute(100);   // finishes at 100
    co_await self.compute(100);   // must wait for interrupt work
    done = self.node().now();
  });
  // Interrupt-style kernel work arrives at t=100 and occupies 500 cycles.
  sim.queue().schedule_at(100, [&] { node.kernel_work(500); });
  sim.run();
  EXPECT_EQ(done, 700u);
}

TEST(Process, SpawnExhaustsMemory) {
  Simulator sim;
  NodeConfig cfg = quiet_config();
  cfg.memory_bytes = 4u << 20;  // room for 3 segments beyond kernel area
  Node& node = sim.add_node("n0", cfg);
  auto noop = [](Process& self) -> Task {
    co_await self.compute(1);
  };
  node.kernel().spawn("a", noop);
  node.kernel().spawn("b", noop);
  node.kernel().spawn("c", noop);
  EXPECT_THROW(node.kernel().spawn("d", noop), std::length_error);
}

TEST(Process, LiveProcessCountTracksExits) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  node.kernel().spawn("a", [](Process& self) -> Task {
    co_await self.compute(10);
  });
  node.kernel().spawn("b", [](Process& self) -> Task {
    co_await self.compute(10000);
  });
  EXPECT_EQ(node.kernel().live_processes(), 2u);
  sim.run();
  EXPECT_EQ(node.kernel().live_processes(), 0u);
}

TEST(Scheduler, PriorityBoostWakesToFrontAndPreempts) {
  Simulator sim;
  NodeConfig cfg = quiet_config();
  cfg.policy = SchedPolicy::PriorityBoost;
  cfg.cost.quantum = us(100000.0);  // quantum never expires in this test
  Node& node = sim.add_node("n0", cfg);
  WaitChannel ch;
  Cycles woken_ran_at = 0;

  node.kernel().spawn("sleeper", [&](Process& self) -> Task {
    co_await ch.wait(self);
    woken_ran_at = self.node().now();
  });
  // Two CPU hogs that would otherwise run for a very long time.
  for (int i = 0; i < 2; ++i) {
    node.kernel().spawn("hog", [&](Process& self) -> Task {
      for (int r = 0; r < 1000; ++r) co_await self.compute(1000);
    });
  }
  sim.queue().schedule_at(10000, [&] { ch.notify(/*boost=*/true); });
  sim.run(us(100000.0));
  EXPECT_GT(woken_ran_at, 0u);
  // Boosted process ran promptly (within a few chunks), not after the hogs.
  EXPECT_LT(woken_ran_at, 20000u);
}

TEST(Scheduler, ObliviousPolicyMakesWokenProcessWait) {
  Simulator sim;
  NodeConfig cfg = quiet_config();
  cfg.policy = SchedPolicy::RoundRobinOblivious;
  cfg.cost.quantum = us(1000.0);  // 1 ms quantum
  Node& node = sim.add_node("n0", cfg);
  WaitChannel ch;
  Cycles woken_ran_at = 0;

  node.kernel().spawn("sleeper", [&](Process& self) -> Task {
    co_await ch.wait(self);
    woken_ran_at = self.node().now();
  });
  for (int i = 0; i < 2; ++i) {
    node.kernel().spawn("hog", [&](Process& self) -> Task {
      for (int r = 0; r < 200; ++r) co_await self.compute(1000);
    });
  }
  sim.queue().schedule_at(10000, [&] { ch.notify(/*boost=*/true); });
  sim.run();
  // Oblivious: the woken process waits for the running hog's quantum (and
  // the other hog ahead of it in the queue).
  EXPECT_GT(woken_ran_at, us(1000.0));
}

namespace subhelpers {

Sub<int> leaf(Process& self, int x) {
  co_await self.compute(100);
  co_return x * 2;
}

Sub<int> middle(Process& self, int x) {
  const int a = co_await leaf(self, x);
  co_await self.compute(50);
  const int b = co_await leaf(self, a);
  co_return b + 1;
}

Sub<void> thrower(Process& self) {
  co_await self.compute(10);
  throw std::runtime_error("sub boom");
}

}  // namespace subhelpers

TEST(Sub, NestedSubroutinesResumeInnermost) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  int result = 0;
  Cycles done = 0;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    result = co_await subhelpers::middle(self, 5);
    done = self.node().now();
  });
  sim.run();
  EXPECT_EQ(result, 21);        // ((5*2)*2)+1
  EXPECT_EQ(done, 250u);        // 100 + 50 + 100 cycles charged
}

TEST(Sub, ExceptionsPropagateThroughSubroutines) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  bool caught = false;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    try {
      co_await subhelpers::thrower(self);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  });
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Sub, SubCanBlockOnChannel) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  WaitChannel ch;
  Cycles woke = 0;
  auto waiter = [](Process& self, WaitChannel& c) -> Sub<int> {
    co_await c.wait(self);
    co_await self.compute(10);
    co_return 7;
  };
  int got = 0;
  node.kernel().spawn("worker", [&](Process& self) -> Task {
    got = co_await waiter(self, ch);
    woke = self.node().now();
  });
  sim.queue().schedule_at(5000, [&] { ch.notify(); });
  sim.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(woke, 5010u);
}

TEST(MemOps, CopyMovesBytesAndChargesCache) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  auto* src = node.mem(0x1000, 64);
  ASSERT_NE(src, nullptr);
  for (int i = 0; i < 64; ++i) src[i] = static_cast<std::uint8_t>(i);

  node.dcache().flush_all();
  const Cycles cold = memops::copy(node, 0x2000, 0x1000, 64);
  const Cycles warm = memops::copy(node, 0x3000, 0x1000, 64);
  EXPECT_GT(cold, warm);  // second copy's source is cached
  const auto* dst = node.mem(0x2000, 64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(i));
  }
}

TEST(MemOps, CksumMatchesReference) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  auto* p = node.mem(0x1000, 32);
  for (int i = 0; i < 32; ++i) p[i] = static_cast<std::uint8_t>(i * 3);
  std::uint32_t acc1 = 0, acc2 = 0;
  memops::cksum(node, 0x1000, 32, &acc1);
  memops::copy_cksum(node, 0x2000, 0x1000, 32, &acc2);
  EXPECT_EQ(acc1, acc2);
  EXPECT_NE(acc1, 0u);
}

TEST(MemOps, IntegratedCheaperThanSeparate) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  const std::uint32_t len = 4096;
  std::uint32_t acc = 0;

  node.dcache().flush_all();
  const Cycles sep_copy = memops::copy(node, 0x10000, 0x4000, len);
  const Cycles sep_ck = memops::cksum(node, 0x10000, len, &acc);
  node.dcache().flush_all();
  const Cycles integrated = memops::copy_cksum(node, 0x20000, 0x4000, len, &acc);
  EXPECT_LT(integrated, sep_copy + sep_ck);
}

TEST(MemOps, OutOfBoundsThrows) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  const auto size = static_cast<std::uint32_t>(node.memory_size());
  EXPECT_THROW(memops::copy(node, size - 8, 0, 64), std::out_of_range);
  std::uint32_t acc = 0;
  EXPECT_THROW(memops::cksum(node, size - 4, 64, &acc), std::out_of_range);
}

TEST(MemOps, StoreWritesBytesAndChargesTheStoreHalfOnly) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  const std::uint8_t bytes[9] = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  std::uint32_t dst = 0x1000;
  for (const std::uint32_t skew : {0u, 1u, 3u}) {  // aligned, unaligned
    for (std::uint32_t len = 0; len <= 9; ++len, dst += 64) {
      SCOPED_TRACE(testing::Message() << "skew " << skew << " len " << len);
      node.dcache().flush_all();
      const Cycles c = memops::store(node, dst + skew, {bytes, len});
      // Default write cost: a store neither stalls nor fills a line.
      EXPECT_EQ(c, node.cost().copy_loop_insns_per_word * ((len + 3) / 4));
      const std::uint8_t* p = node.mem(dst, 16);
      for (std::uint32_t i = 0; i < 16; ++i) {
        const bool inside = i >= skew && i < skew + len;
        EXPECT_EQ(p[i], inside ? bytes[i - skew] : 0) << "byte " << i;
        EXPECT_FALSE(node.dcache().contains(dst + i));
      }
    }
  }
}

TEST(MemOps, StoreToUnmappedDestinationThrows) {
  Simulator sim;
  Node& node = sim.add_node("n0", quiet_config());
  const std::uint8_t bytes[8] = {};
  const auto size = static_cast<std::uint32_t>(node.memory_size());
  EXPECT_THROW(memops::store(node, size - 4, bytes), std::out_of_range);
  EXPECT_THROW(memops::store(node, size, {bytes, 1}), std::out_of_range);
}

}  // namespace
}  // namespace ash::sim
