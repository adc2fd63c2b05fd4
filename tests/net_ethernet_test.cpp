#include "net/ethernet.hpp"

#include <gtest/gtest.h>

#include "sim/kernel.hpp"
#include "sim/memops.hpp"
#include "sim/simulator.hpp"

namespace ash::net {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

dpf::Filter type_filter(std::uint16_t ethertype) {
  dpf::Filter f;
  f.atoms = {dpf::atom_be16(12, ethertype)};
  return f;
}

std::vector<std::uint8_t> frame(std::uint16_t ethertype,
                                std::size_t payload_len,
                                std::uint8_t fill = 0x5a) {
  std::vector<std::uint8_t> f(14 + payload_len, fill);
  f[12] = static_cast<std::uint8_t>(ethertype >> 8);
  f[13] = static_cast<std::uint8_t>(ethertype);
  for (std::size_t i = 0; i < payload_len; ++i) {
    f[14 + i] = static_cast<std::uint8_t>(i);
  }
  return f;
}

struct TwoNodes {
  Simulator sim;
  Node* a;
  Node* b;
  EthernetDevice* dev_a;
  EthernetDevice* dev_b;

  explicit TwoNodes(const EthernetConfig& cfg = {}) {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new EthernetDevice(*a, cfg);
    dev_b = new EthernetDevice(*b, cfg);
    dev_a->connect(*dev_b);
  }
  ~TwoNodes() {
    delete dev_a;
    delete dev_b;
  }
};

TEST(Ethernet, DemuxesToMatchingEndpointAndDestripes) {
  TwoNodes t;
  bool got = false;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = t.dev_b->attach(self, type_filter(0x0800));
    t.dev_b->attach(self, type_filter(0x0806));  // decoy
    t.dev_b->supply_buffer(ep, self.segment().base, 2048);
    co_await t.dev_b->arrival_channel(ep).wait(self);
    const auto d = t.dev_b->poll(ep);
    EXPECT_TRUE(d.has_value());
    if (d.has_value() && d->len == 14u + 100u) {
      const std::uint8_t* p = t.b->mem(d->addr, d->len);
      EXPECT_EQ(p[12], 0x08);  // contiguous (destriped) frame
      EXPECT_EQ(p[13], 0x00);
      bool payload_ok = true;
      for (std::size_t i = 0; i < 100; ++i) {
        payload_ok &= p[14 + i] == static_cast<std::uint8_t>(i);
      }
      EXPECT_TRUE(payload_ok);
      got = true;
    }
  });
  t.sim.queue().schedule_at(10, [&] {
    ASSERT_TRUE(t.dev_a->send(frame(0x0800, 100)));
  });
  t.sim.run();
  EXPECT_TRUE(got);
}

TEST(Ethernet, UnmatchedFramesAreCounted) {
  TwoNodes t;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = t.dev_b->attach(self, type_filter(0x0800));
    t.dev_b->supply_buffer(ep, self.segment().base, 2048);
    co_await self.sleep_for(us(10000.0));
  });
  t.sim.queue().schedule_at(10,
                            [&] { t.dev_a->send(frame(0x1234, 50)); });
  t.sim.run();
  EXPECT_EQ(t.dev_b->unmatched(), 1u);
}

TEST(Ethernet, OversizeFrameRejectedAtSend) {
  TwoNodes t;
  const std::vector<std::uint8_t> big(2000, 1);
  EXPECT_FALSE(t.dev_a->send(big));
}

TEST(Ethernet, ScarceKernelBuffersDropBursts) {
  EthernetConfig cfg;
  cfg.rx_buffers = 2;
  TwoNodes t(cfg);
  // No process consumes: endpoint exists but has no app buffers, so the
  // kernel cannot copy frames out and the pool stays exhausted... actually
  // frames without app buffers are dropped immediately, freeing the pool.
  // To hold kernel buffers, use a hook that keeps them busy is not
  // possible (hooks are synchronous); instead flood faster than the wire
  // drains: the wire itself serializes, so all frames arrive spaced out.
  // The realistic drop case is endpoint-buffer exhaustion:
  int received = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = t.dev_b->attach(self, type_filter(0x0800));
    t.dev_b->supply_buffer(ep, self.segment().base, 2048);  // only one
    co_await self.sleep_for(us(50000.0));
    while (t.dev_b->poll(ep).has_value()) ++received;
  });
  t.sim.queue().schedule_at(10, [&] {
    for (int i = 0; i < 4; ++i) t.dev_a->send(frame(0x0800, 100));
  });
  t.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(t.dev_b->drops(), 3u);
}

TEST(Ethernet, MinimumFrameTimeEnforced) {
  TwoNodes t;
  // 4-byte payload -> 64-byte minimum frame + 20 framing bytes at
  // 10 Mb/s = 67.2 us on the wire.
  const auto cycles = t.dev_a->tx_wire_cycles(18);
  EXPECT_NEAR(sim::to_us(cycles), 67.2, 0.5);
  // Large frame: (1400+20)*0.8us.
  EXPECT_NEAR(sim::to_us(t.dev_a->tx_wire_cycles(1400)), 1136.0, 1.0);
}

TEST(Ethernet, KernelHookSeesStripedBufferAndCanDestripe) {
  TwoNodes t;
  bool ok = false;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = t.dev_b->attach(self, type_filter(0x0800));
    const std::uint32_t dst = self.segment().base + 0x100;
    t.dev_b->set_kernel_hook(ep, [&, dst](const EthernetDevice::RxEvent& ev) {
      // The handler-directed single copy: striped kernel buffer -> app.
      const auto cycles = sim::memops::copy_destripe(
          *t.b, dst, ev.desc.addr, ev.desc.len);
      t.b->kernel_work(cycles);
      const std::uint8_t* p = t.b->mem(dst, ev.desc.len);
      ok = p[13] == 0x00 && p[14] == 0 && p[15] == 1 && p[63] == 49;
      return true;
    });
    co_await self.sleep_for(us(20000.0));
  });
  t.sim.queue().schedule_at(10, [&] { t.dev_a->send(frame(0x0800, 50)); });
  t.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Ethernet, StripeDestripeMemopsRoundTrip) {
  Simulator sim;
  Node& node = sim.add_node("n");
  const std::uint32_t src = 0x100000, striped = 0x110000, dst = 0x120000;
  std::uint8_t* s = node.mem(src, 100);
  for (int i = 0; i < 100; ++i) s[i] = static_cast<std::uint8_t>(i * 7);
  sim::memops::copy_stripe(node, striped, src, 100);
  // Pad regions interleave the data.
  EXPECT_EQ(node.mem(striped, 1)[0], s[0]);
  EXPECT_EQ(node.mem(striped + 32, 1)[0], s[16]);
  sim::memops::copy_destripe(node, dst, striped, 100);
  const std::uint8_t* d = node.mem(dst, 100);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(d[i], s[i]) << i;
}

}  // namespace
}  // namespace ash::net
