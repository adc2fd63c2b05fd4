// The poll() charging contract, cycle-exact (ISSUE 5 audit): poll() itself
// is free; the CALLER charges check-then-charge style —
//   * poll_iteration only AFTER an empty poll,
//   * an2_user_recv_overhead INSTEAD OF (never in addition to) a
//     poll_iteration on the check that finds a frame.
// A sloppy poller that charges the iteration before checking, or charges
// both on a hit, double-charges exactly one poll_iteration per received
// frame — these tests pin the intended totals for both NIC models so the
// contract documented on An2Device::poll / EthernetDevice::poll stays
// enforced.
#include <gtest/gtest.h>

#include <type_traits>

#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "proto/an2_link.hpp"
#include "proto/eth_link.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {
namespace {

using sim::CostModel;
using sim::Cycles;
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

std::vector<std::uint8_t> eth_frame(std::uint16_t ethertype) {
  std::vector<std::uint8_t> f(64, 0);
  f[12] = static_cast<std::uint8_t>(ethertype >> 8);
  f[13] = static_cast<std::uint8_t>(ethertype);
  return f;
}

/// Contract-following poll loop: returns (empty_checks, hit_time,
/// done_time). Charges nothing before the first check, poll_iteration per
/// empty check, recv overhead after the hit.
template <typename PollFn>
sim::Sub<int> poll_until_hit(Process& self, PollFn poll, int* empty_checks,
                             Cycles* hit_time, Cycles* done_time) {
  for (;;) {
    if (poll()) {
      *hit_time = self.node().now();
      co_await self.compute(self.node().cost().an2_user_recv_overhead);
      *done_time = self.node().now();
      co_return 0;
    }
    ++*empty_checks;
    co_await self.compute(self.node().cost().poll_iteration);
  }
}

/// First FrameArrival time on node `cpu` (the instant the ring entry
/// became visible to the poller).
Cycles arrival_time(std::uint16_t cpu) {
  for (const auto& ev : trace::global().all_events()) {
    if (ev.type == trace::EventType::FrameArrival && ev.cpu == cpu) {
      return ev.time;
    }
  }
  ADD_FAILURE() << "no FrameArrival on cpu " << cpu;
  return 0;
}

TEST(PollCharge, An2HitOnFirstCheckCostsRecvOverheadOnly) {
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);

  int empty = 0;
  Cycles t0 = 0, hit = 0, done = 0;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = dev_b.bind_vc(self);
    dev_b.supply_buffer(vc, self.segment().base, 4096);
    // Start checking long after the frame has landed.
    co_await self.sleep_for(us(500.0));
    t0 = self.node().now();
    co_await poll_until_hit(
        self, [&] { return dev_b.poll(vc).has_value(); }, &empty, &hit,
        &done);
  });
  sim.queue().schedule_at(us(10.0), [&] {
    const std::uint8_t m[4] = {1, 2, 3, 4};
    ASSERT_TRUE(dev_a.send(0, m));
  });
  sim.run();

  EXPECT_EQ(empty, 0);
  EXPECT_EQ(hit, t0);  // the check itself is free
  EXPECT_EQ(done - t0, b.cost().an2_user_recv_overhead);
}

TEST(PollCharge, An2SpinThenHitChargesEachEmptyCheckOnceAndNoDouble) {
  trace::TracerConfig tc;
  tc.max_cpus = 2;
  trace::Session session(tc);
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);

  int empty = 0;
  Cycles t0 = 0, hit = 0, done = 0;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = dev_b.bind_vc(self);
    dev_b.supply_buffer(vc, self.segment().base, 4096);
    co_await self.sleep_for(us(100.0));
    t0 = self.node().now();
    co_await poll_until_hit(
        self, [&] { return dev_b.poll(vc).has_value(); }, &empty, &hit,
        &done);
  });
  // Sent mid-spin: the frame arrives between two checks, so the poller
  // discovers it on the next check with no extra poll charge. (The send
  // is late enough that process startup cannot beat it to the ring.)
  sim.queue().schedule_at(us(250.0), [&] {
    const std::uint8_t m[4] = {1, 2, 3, 4};
    ASSERT_TRUE(dev_a.send(0, m));
  });
  sim.run();

  const Cycles arrive = arrival_time(b.cpu_id());
  ASSERT_GT(arrive, t0);
  const Cycles p = b.cost().poll_iteration;
  // The poller checked at t0, t0+p, ... — the hit is the FIRST check at
  // or after the arrival, after exactly ceil((arrive - t0) / p) empty
  // checks, each charged once.
  const Cycles n = (arrive - t0 + p - 1) / p;
  EXPECT_GT(n, 0u);
  EXPECT_EQ(static_cast<Cycles>(empty), n);
  EXPECT_EQ(hit, t0 + n * p);
  // The hit check charges the receive overhead INSTEAD of an iteration.
  EXPECT_EQ(done - hit, b.cost().an2_user_recv_overhead);
  EXPECT_EQ(done - t0, n * p + b.cost().an2_user_recv_overhead);
}

TEST(PollCharge, EthernetHitChargesRecvOverheadOnly) {
  // On the Ethernet the ring entry appears only after the driver's
  // kernel work, which shares the CPU with the poller's own compute — so
  // the cycle-exact case is the idle-CPU hit: by poll time the frame has
  // long been copied out and the kernel is quiet, and the hit must cost
  // exactly the receive overhead with zero poll_iteration charges.
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  EthernetDevice dev_a(a), dev_b(b);
  dev_a.connect(dev_b);

  int empty = 0;
  Cycles t0 = 0, hit = 0, done = 0;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = dev_b.attach(self, type_filter(0x0800));
    dev_b.supply_buffer(ep, self.segment().base, 2048);
    co_await self.sleep_for(us(1000.0));
    t0 = self.node().now();
    co_await poll_until_hit(
        self, [&] { return dev_b.poll(ep).has_value(); }, &empty, &hit,
        &done);
  });
  sim.queue().schedule_at(us(10.0),
                          [&] { ASSERT_TRUE(dev_a.send(eth_frame(0x0800))); });
  sim.run();

  EXPECT_EQ(empty, 0);
  EXPECT_EQ(hit, t0);  // the check itself is free
  EXPECT_EQ(done - t0, b.cost().an2_user_recv_overhead);
}

TEST(PollCharge, EthernetSpinChargesEachEmptyCheckOnceAndNoDouble) {
  trace::TracerConfig tc;
  tc.max_cpus = 2;
  trace::Session session(tc);
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  EthernetDevice dev_a(a), dev_b(b);
  dev_a.connect(dev_b);

  int empty = 0;
  Cycles t0 = 0, hit = 0, done = 0;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = dev_b.attach(self, type_filter(0x0800));
    dev_b.supply_buffer(ep, self.segment().base, 2048);
    co_await self.sleep_for(us(100.0));
    t0 = self.node().now();
    co_await poll_until_hit(
        self, [&] { return dev_b.poll(ep).has_value(); }, &empty, &hit,
        &done);
  });
  sim.queue().schedule_at(us(250.0),
                          [&] { ASSERT_TRUE(dev_a.send(eth_frame(0x0800))); });
  sim.run();

  // The spinner's compute chunks interleave with the driver's kernel
  // work, so pin the structure rather than absolute times: the ring
  // became visible only after FrameArrival, every pre-hit check charged
  // an iteration (hit no earlier than t0 + empty * p), and the hit
  // charged the receive overhead INSTEAD of another iteration.
  const Cycles arrive = arrival_time(b.cpu_id());
  ASSERT_GT(arrive, t0);
  const Cycles p = b.cost().poll_iteration;
  EXPECT_GT(empty, 0);
  EXPECT_GE(hit, t0 + static_cast<Cycles>(empty) * p);
  EXPECT_GT(hit, arrive);  // driver work delays ring visibility
  // The ring entry is posted while the driver still owes the copy-out's
  // kernel cycles, so the recv-overhead compute can wait those out — but
  // never an extra poll_iteration.
  EXPECT_GE(done - hit, b.cost().an2_user_recv_overhead);
  EXPECT_LT(done - hit, b.cost().an2_user_recv_overhead + us(10.0));
}

// ---- the links' receive path (RxPort::recv_until over poll_idle) ----
//
// The same four receives, once through the contract-following hand loop
// above and once through Link::recv on an An2Link and an EthLink, which
// charges empty checks with Process::poll_idle instead of one compute() each:
// the hit time, the empty-check count and the completion time must all
// match.

struct RecvTiming {
  Cycles t0 = 0;
  Cycles hit = 0;  // the hand loop only
  Cycles done = 0;
  std::uint64_t empty = 0;
};

/// One receive on node b of an AN2 (or Ethernet) pair: the receiver
/// starts checking at `start`, the frame is sent at `send_at`.
template <typename Device, typename Link>
RecvTiming one_receive(bool via_link, Cycles start, Cycles send_at) {
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  constexpr bool kAn2 = std::is_same_v<Device, An2Device>;

  RecvTiming r;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    if (via_link) {
      Link link(self, dev_b, {});
      co_await self.sleep_for(start);
      r.t0 = self.node().now();
      const std::uint64_t polls = self.poll_iterations();
      const net::RxDesc d = co_await link.recv();
      (void)d;
      r.done = self.node().now();
      r.empty = self.poll_iterations() - polls;
      co_return;
    }
    int ch = 0;
    if constexpr (kAn2) {
      ch = dev_b.bind_vc(self);
      dev_b.supply_buffer(ch, self.segment().base, 4096);
    } else {
      ch = dev_b.attach(self, type_filter(0x0800));
      dev_b.supply_buffer(ch, self.segment().base, 2048);
    }
    co_await self.sleep_for(start);
    r.t0 = self.node().now();
    int empty = 0;
    co_await poll_until_hit(
        self, [&] { return dev_b.poll(ch).has_value(); }, &empty, &r.hit,
        &r.done);
    r.empty = static_cast<std::uint64_t>(empty);
  });
  sim.queue().schedule_at(send_at, [&] {
    if constexpr (kAn2) {
      const std::uint8_t m[4] = {1, 2, 3, 4};
      ASSERT_TRUE(dev_a.send(0, m));
    } else {
      ASSERT_TRUE(dev_a.send(eth_frame(0x0800)));
    }
  });
  sim.run();
  return r;
}

template <typename Device, typename Link>
void expect_link_matches_hand_loop(Cycles start, Cycles send_at,
                                   bool spin) {
  const RecvTiming hand = one_receive<Device, Link>(false, start, send_at);
  const RecvTiming link = one_receive<Device, Link>(true, start, send_at);
  EXPECT_EQ(link.t0, hand.t0);
  EXPECT_EQ(link.empty, hand.empty);
  // Both charge the receive overhead after the hit; on the AN2 nothing
  // else runs in between, so equal completions mean equal hit times.
  EXPECT_EQ(link.done, hand.done);
  if constexpr (std::is_same_v<Device, An2Device>) {
    EXPECT_EQ(link.done - CostModel{}.an2_user_recv_overhead, hand.hit);
  }
  if (spin) {
    EXPECT_GT(hand.empty, 0u);
  } else {
    EXPECT_EQ(hand.empty, 0u);
    EXPECT_EQ(hand.hit, hand.t0);
  }
}

TEST(PollCharge, An2LinkHitOnFirstCheckMatchesHandLoop) {
  expect_link_matches_hand_loop<An2Device, proto::An2Link>(us(500.0),
                                                           us(10.0), false);
}

TEST(PollCharge, An2LinkSpinThenHitMatchesHandLoop) {
  expect_link_matches_hand_loop<An2Device, proto::An2Link>(us(100.0),
                                                           us(250.0), true);
}

TEST(PollCharge, EthernetLinkHitOnFirstCheckMatchesHandLoop) {
  expect_link_matches_hand_loop<EthernetDevice, proto::EthLink>(
      us(1000.0), us(10.0), false);
}

TEST(PollCharge, EthernetLinkSpinThenHitMatchesHandLoop) {
  expect_link_matches_hand_loop<EthernetDevice, proto::EthLink>(
      us(100.0), us(250.0), true);
}

}  // namespace
}  // namespace ash::net
