// FaultInjector unit tests plus device-level checks that both NIC models
// honour the shared fault surface (the old per-device knobs could not:
// AN2 skipped duplication on the switched path and Ethernet had no
// duplication at all).
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <functional>
#include <tuple>
#include <vector>

#include "net/an2.hpp"
#include "net/an2_switch.hpp"
#include "net/ethernet.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {
namespace {

using sim::Cycles;
using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

std::vector<std::uint8_t> test_frame(std::size_t len, std::uint8_t tag) {
  std::vector<std::uint8_t> f(len, tag);
  for (std::size_t i = 0; i < len; ++i) {
    f[i] = static_cast<std::uint8_t>(tag + i);
  }
  return f;
}

TEST(FaultInjectorUnit, AllZeroProbabilitiesAreInert) {
  FaultConfig cfg;  // defaults: perfect link
  EXPECT_FALSE(cfg.enabled());
  FaultInjector fi(cfg);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> f = test_frame(64, 7);
    const std::vector<std::uint8_t> orig = f;
    const FaultInjector::Decision d = fi.inject(f);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, 0u);
    EXPECT_EQ(f, orig);
  }
  const FaultCounters& c = fi.counters();
  EXPECT_EQ(c.drops + c.dups + c.reorders + c.corrupts + c.truncates +
                c.jitters,
            0u);
}

TEST(FaultInjectorUnit, SameSeedReplaysTheSameSchedule) {
  FaultConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.dup_prob = 0.2;
  cfg.reorder_prob = 0.2;
  cfg.corrupt_prob = 0.2;
  cfg.truncate_prob = 0.2;
  cfg.jitter_prob = 0.2;
  cfg.seed = 42;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> fa = test_frame(128, 3);
    std::vector<std::uint8_t> fb = fa;
    const FaultInjector::Decision da = a.inject(fa);
    const FaultInjector::Decision db = b.inject(fb);
    ASSERT_EQ(da.drop, db.drop);
    ASSERT_EQ(da.duplicate, db.duplicate);
    ASSERT_EQ(da.extra_delay, db.extra_delay);
    ASSERT_EQ(fa, fb);  // identical mutations, byte for byte
  }
}

TEST(FaultInjectorUnit, FaultClassSchedulesAreIndependent) {
  // Which frames get dropped must not change when other classes are
  // toggled on — each class draws from its own (seed, frame, class)
  // stream. This keeps loss sweeps comparable across fault mixes.
  FaultConfig drop_only;
  drop_only.drop_prob = 0.3;
  drop_only.seed = 99;
  FaultConfig mixed = drop_only;
  mixed.dup_prob = 0.5;
  mixed.corrupt_prob = 0.9;
  mixed.truncate_prob = 0.4;
  mixed.jitter_prob = 0.7;

  FaultInjector a(drop_only);
  FaultInjector b(mixed);
  std::vector<bool> drops_a, drops_b;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> fa = test_frame(64, 1);
    std::vector<std::uint8_t> fb = fa;
    drops_a.push_back(a.inject(fa).drop);
    drops_b.push_back(b.inject(fb).drop);
  }
  EXPECT_EQ(drops_a, drops_b);
  EXPECT_EQ(a.counters().drops, b.counters().drops);
}

TEST(FaultInjectorUnit, CountersTrackEachClass) {
  FaultConfig cfg;
  cfg.corrupt_prob = 1.0;
  cfg.truncate_prob = 1.0;
  cfg.dup_prob = 1.0;
  cfg.reorder_prob = 1.0;
  cfg.jitter_prob = 1.0;
  FaultInjector fi(cfg);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> f = test_frame(64, 5);
    const std::vector<std::uint8_t> orig = f;
    const FaultInjector::Decision d = fi.inject(f);
    EXPECT_TRUE(d.duplicate);
    EXPECT_GE(d.extra_delay, cfg.reorder_delay);
    EXPECT_LT(f.size(), orig.size());  // truncated
    EXPECT_FALSE(std::equal(f.begin(), f.end(), orig.begin()));  // corrupted
  }
  const FaultCounters& c = fi.counters();
  EXPECT_EQ(c.frames, 50u);
  EXPECT_EQ(c.corrupts, 50u);
  EXPECT_EQ(c.truncates, 50u);
  EXPECT_EQ(c.dups, 50u);
  EXPECT_EQ(c.reorders, 50u);
  EXPECT_EQ(c.jitters, 50u);
  EXPECT_EQ(c.drops, 0u);
}

TEST(FaultInjectorUnit, TruncateKeepsAtLeastOneByte) {
  FaultConfig cfg;
  cfg.truncate_prob = 1.0;
  cfg.seed = 7;
  FaultInjector fi(cfg);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> f = test_frame(2 + (i % 64), 9);
    fi.inject(f);
    EXPECT_GE(f.size(), 1u);
  }
}

// ---- An2 device level ----

struct An2Pair {
  Simulator sim;
  Node* a;
  Node* b;
  An2Device* dev_a;
  An2Device* dev_b;

  explicit An2Pair(const An2Config& cfg = {}) {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new An2Device(*a, cfg);
    dev_b = new An2Device(*b, cfg);
    dev_a->connect(*dev_b);
  }
  ~An2Pair() {
    delete dev_a;
    delete dev_b;
  }
};

TEST(FaultDevice, An2DropsEverythingAtProbOne) {
  An2Config cfg;
  cfg.faults.drop_prob = 1.0;
  An2Pair t(cfg);
  int received = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 256);
    co_await self.sleep_for(us(5000.0));
    while (t.dev_b->poll(vc).has_value()) ++received;
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    for (int i = 0; i < 8; ++i) t.dev_a->send(0, m);
  });
  t.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(t.dev_a->fault_counters().drops, 8u);
  EXPECT_EQ(t.dev_a->fault_counters().frames, 8u);
}

TEST(FaultDevice, An2DuplicatesOnPointToPointLink) {
  An2Config cfg;
  cfg.faults.dup_prob = 1.0;
  An2Pair t(cfg);
  int received = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 256);
    t.dev_b->supply_buffer(vc, self.segment().base + 256, 256);
    t.dev_b->supply_buffer(vc, self.segment().base + 512, 256);
    co_await self.sleep_for(us(5000.0));
    while (t.dev_b->poll(vc).has_value()) ++received;
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    t.dev_a->send(0, m);
  });
  t.sim.run();
  EXPECT_EQ(received, 2);  // original + duplicate
  EXPECT_EQ(t.dev_a->fault_counters().dups, 1u);
}

TEST(FaultDevice, An2DuplicatesOnSwitchedPathToo) {
  // Regression: duplication used to be scheduled only on the
  // point-to-point branch of An2Device::send — a switched topology
  // silently ignored dup_prob.
  An2Config faulty;
  faulty.faults.dup_prob = 1.0;
  Simulator sim;
  Node& n1 = sim.add_node("n1");
  Node& hub = sim.add_node("hub");
  An2Device d1(n1, faulty);
  An2Device dh(hub);
  An2Switch sw(sim);
  const int p1 = sw.attach(d1);
  const int ph = sw.attach(dh);
  sw.add_duplex(p1, 0, ph, 0);

  int received = 0;
  hub.kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = dh.bind_vc(self);
    dh.supply_buffer(vc, self.segment().base, 64);
    dh.supply_buffer(vc, self.segment().base + 64, 64);
    dh.supply_buffer(vc, self.segment().base + 128, 64);
    co_await self.sleep_for(us(5000.0));
    while (dh.poll(vc).has_value()) ++received;
  });
  sim.queue().schedule_at(10, [&] {
    const std::uint8_t m[] = {0xaa, 0xbb};
    ASSERT_TRUE(d1.send(0, m));
  });
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(d1.fault_counters().dups, 1u);
}

TEST(FaultDevice, An2TruncatesAndCorruptsFramesInFlight) {
  An2Config cfg;
  cfg.faults.truncate_prob = 1.0;
  cfg.faults.seed = 5;
  An2Pair t(cfg);
  std::uint32_t got_len = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 256);
    co_await t.dev_b->arrival_channel(vc).wait(self);
    const auto d = t.dev_b->poll(vc);
    EXPECT_TRUE(d.has_value());
    if (d.has_value()) got_len = d->len;
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::vector<std::uint8_t> m(100, 0x11);
    t.dev_a->send(0, m);
  });
  t.sim.run();
  EXPECT_GE(got_len, 1u);
  EXPECT_LT(got_len, 100u);
  EXPECT_EQ(t.dev_a->fault_counters().truncates, 1u);
}

TEST(FaultDevice, An2ReordersFramesAcrossEachOther) {
  // Find a seed where frame 0 is held back and frame 1 is not; the
  // reorder delay (120 us) dwarfs their serialization gap, so frame 1
  // must overtake frame 0 on the wire.
  FaultConfig fc;
  fc.reorder_prob = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 1000 && seed == 0; ++s) {
    fc.seed = s;
    FaultInjector probe(fc);
    std::vector<std::uint8_t> f0{1}, f1{2};
    const bool r0 = probe.inject(f0).extra_delay > 0;
    const bool r1 = probe.inject(f1).extra_delay > 0;
    if (r0 && !r1) seed = s;
  }
  ASSERT_NE(seed, 0u);

  An2Config cfg;
  cfg.faults.reorder_prob = 0.5;
  cfg.faults.seed = seed;
  An2Pair t(cfg);
  std::vector<std::uint8_t> order;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 64);
    t.dev_b->supply_buffer(vc, self.segment().base + 64, 64);
    while (order.size() < 2) {
      if (const auto d = t.dev_b->poll(vc)) {
        order.push_back(*t.b->mem(d->addr, 1));
      } else {
        co_await self.compute(self.node().cost().poll_iteration);
      }
    }
  });
  t.sim.queue().schedule_at(10, [&] {
    const std::uint8_t first[] = {1, 1, 1, 1};
    const std::uint8_t second[] = {2, 2, 2, 2};
    t.dev_a->send(0, first);
    t.dev_a->send(0, second);
  });
  t.sim.run(us(1e6));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // the later send arrives first
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(t.dev_a->fault_counters().reorders, 1u);
}

TEST(FaultDevice, SetFaultsSwapsScheduleMidRun) {
  An2Pair t;  // perfect link at construction
  int received = 0;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 64);
    t.dev_b->supply_buffer(vc, self.segment().base + 64, 64);
    co_await self.sleep_for(us(10000.0));
    while (t.dev_b->poll(vc).has_value()) ++received;
  });
  const std::uint8_t m[] = {9, 9};
  t.sim.queue().schedule_at(10, [&] { t.dev_a->send(0, m); });
  t.sim.queue().schedule_at(sim::us(2000.0), [&] {
    FaultConfig broken;
    broken.drop_prob = 1.0;
    t.dev_a->set_faults(broken);
    t.dev_a->send(0, m);  // this one vanishes
  });
  t.sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(t.dev_a->fault_counters().drops, 1u);
}

// ---- Ethernet device level ----

dpf::Filter eth_type_filter(std::uint16_t ethertype) {
  dpf::Filter f;
  f.atoms = {dpf::atom_be16(12, ethertype)};
  return f;
}

std::vector<std::uint8_t> eth_frame(std::uint16_t ethertype,
                                    std::size_t payload_len) {
  std::vector<std::uint8_t> f(14 + payload_len, 0);
  f[12] = static_cast<std::uint8_t>(ethertype >> 8);
  f[13] = static_cast<std::uint8_t>(ethertype);
  for (std::size_t i = 0; i < payload_len; ++i) {
    f[14 + i] = static_cast<std::uint8_t>(i);
  }
  return f;
}

TEST(FaultDevice, EthernetDuplicatesFrames) {
  // Regression: EthernetConfig used to expose only drop_prob — the
  // duplication (and every other) fault class simply did not exist on
  // the Ethernet model.
  EthernetConfig cfg;
  cfg.faults.dup_prob = 1.0;
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  EthernetDevice da(a, cfg);
  EthernetDevice db(b);
  da.connect(db);

  int received = 0;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = db.attach(self, eth_type_filter(0x0800));
    db.supply_buffer(ep, self.segment().base, 2048);
    db.supply_buffer(ep, self.segment().base + 2048, 2048);
    co_await self.sleep_for(us(20000.0));
    while (db.poll(ep).has_value()) ++received;
  });
  sim.queue().schedule_at(10, [&] {
    ASSERT_TRUE(da.send(eth_frame(0x0800, 100)));
  });
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(da.fault_counters().dups, 1u);
  EXPECT_EQ(db.kernel_bufs_in_use(), 0u);  // all deliveries drained
}

TEST(FaultDevice, EthernetDropsAtProbOne) {
  EthernetConfig cfg;
  cfg.faults.drop_prob = 1.0;
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  EthernetDevice da(a, cfg);
  EthernetDevice db(b);
  da.connect(db);

  int received = 0;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    const int ep = db.attach(self, eth_type_filter(0x0800));
    db.supply_buffer(ep, self.segment().base, 2048);
    co_await self.sleep_for(us(20000.0));
    while (db.poll(ep).has_value()) ++received;
  });
  sim.queue().schedule_at(10, [&] { da.send(eth_frame(0x0800, 64)); });
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(da.fault_counters().drops, 1u);
}

// ---- One fault schedule, three paths ----
//
// The same frame train, under one FaultConfig with every class on, over
// the AN2 point-to-point, the AN2 through a switch, and the Ethernet. A
// reference FaultInjector replayed over the train predicts what each
// receiver gets: which frames (drops, duplicates), which bytes (truncation,
// corruption) and when — the send time, plus serialization behind earlier
// frames at the sender's tx_wire_cycles, plus the one-way latency (and the
// switch hop), plus the injector's delay (reorder, jitter; dup_delay for a
// duplicate).

struct Sent {
  Cycles at;
  std::vector<std::uint8_t> bytes;
};

struct Arrival {
  Cycles at;
  std::vector<std::uint8_t> bytes;
  auto operator<=>(const Arrival&) const = default;
};

struct PathRun {
  std::vector<Arrival> arrivals;  // sorted
  FaultCounters counters;         // the sender's
  std::vector<Cycles> wire;       // the sender's tx_wire_cycles per frame
  Cycles latency = 0;             // one-way latency, plus any switch hop
};

FaultConfig every_fault() {
  FaultConfig fc;
  fc.drop_prob = 0.15;
  fc.dup_prob = 0.2;
  fc.reorder_prob = 0.2;
  fc.corrupt_prob = 0.25;
  fc.truncate_prob = 0.25;
  fc.jitter_prob = 0.3;
  fc.seed = 11;
  return fc;
}

/// 48 frames of 1..200 bytes (some under the Ethernet minimum), mostly
/// back to back so later frames serialize behind earlier ones, with gaps
/// long enough for the link to idle between bursts.
std::vector<Sent> frame_train() {
  const Cycles gaps[] = {0, 0, 0, us(5.0), us(900.0), 0, us(60.0)};
  std::vector<Sent> train;
  Cycles at = 10;
  for (std::size_t i = 0; i < 48; ++i) {
    train.push_back({at, test_frame(1 + (i * 53) % 200,
                                    static_cast<std::uint8_t>(i))});
    at += gaps[i % 7];
  }
  return train;
}

template <typename Device>
void send_train(Simulator& sim, Device& tx, int channel,
                const std::vector<Sent>& train, PathRun& run) {
  for (const Sent& f : train) {
    run.wire.push_back(
        tx.tx_wire_cycles(static_cast<std::uint32_t>(f.bytes.size())));
    sim.queue().schedule_at(f.at, [&tx, channel, &f] {
      EXPECT_TRUE(tx.send(channel, f.bytes));
    });
  }
}

/// Every arrival on `rx`'s channel `ch`: its time from the receiving
/// node's FrameArrival events, its bytes from the channel's ring (both in
/// arrival order).
std::vector<Arrival> collect(RxPort& rx, Node& n, int ch) {
  std::vector<Cycles> times;
  for (const trace::Event& ev : trace::global().events(n.cpu_id())) {
    if (ev.type == trace::EventType::FrameArrival) times.push_back(ev.time);
  }
  std::vector<Arrival> out;
  while (const auto d = rx.poll(ch)) {
    const std::uint8_t* p = n.mem(d->addr, d->len);
    const Cycles at = out.size() < times.size() ? times[out.size()] : 0;
    out.push_back({at, std::vector<std::uint8_t>(p, p + d->len)});
  }
  EXPECT_EQ(out.size(), times.size());
  std::sort(out.begin(), out.end());
  return out;
}

PathRun run_an2(const FaultConfig& fc, const std::vector<Sent>& train,
                bool switched) {
  trace::TracerConfig tc;
  tc.max_cpus = 2;
  trace::Session session(tc);
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  An2Config cfg;
  cfg.faults = fc;
  An2Device tx(a, cfg);
  An2Device rx(b);
  An2Switch sw(sim);
  PathRun run;
  run.latency = cfg.one_way_latency;
  if (switched) {
    sw.add_duplex(sw.attach(tx), 0, sw.attach(rx), 0);
    run.latency += An2SwitchConfig{}.hop_latency;
  } else {
    tx.connect(rx);
  }
  int vc = -1;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    vc = rx.bind_vc(self);
    for (std::uint32_t i = 0; i < 2 * train.size(); ++i) {
      rx.supply_buffer(vc, self.segment().base + 256 * i, 256);
    }
    co_await self.sleep_for(us(1e5));
  });
  send_train(sim, tx, 0, train, run);
  sim.run();
  run.arrivals = collect(rx, b, vc);
  run.counters = tx.fault_counters();
  EXPECT_EQ(rx.drops(), 0u);
  return run;
}

PathRun run_ethernet(const FaultConfig& fc, const std::vector<Sent>& train) {
  trace::TracerConfig tc;
  tc.max_cpus = 2;
  trace::Session session(tc);
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  EthernetConfig cfg;
  cfg.faults = fc;
  EthernetConfig rx_cfg;
  rx_cfg.rx_buffers = 32;  // the receive pool is not under test here
  EthernetDevice tx(a, cfg);
  EthernetDevice rx(b, rx_cfg);
  tx.connect(rx);
  PathRun run;
  run.latency = cfg.one_way_latency;
  int ep = -1;
  b.kernel().spawn("rx", [&](Process& self) -> Task {
    ep = rx.attach(self, dpf::Filter{});  // catch-all
    for (std::uint32_t i = 0; i < 2 * train.size(); ++i) {
      rx.supply_buffer(ep, self.segment().base + 2048 * i, 2048);
    }
    co_await self.sleep_for(us(1e5));
  });
  send_train(sim, tx, ep, train, run);
  sim.run();
  run.arrivals = collect(rx, b, ep);
  run.counters = tx.fault_counters();
  EXPECT_EQ(rx.drops(), 0u);
  EXPECT_EQ(rx.unmatched(), 0u);
  return run;
}

/// Replay a reference injector over the train; fill `counters` with its.
std::vector<Arrival> predict(const FaultConfig& fc,
                             const std::vector<Sent>& train,
                             const PathRun& run, FaultCounters& counters) {
  FaultInjector ref(fc);
  std::vector<Arrival> out;
  Cycles free_at = 0;
  for (std::size_t i = 0; i < train.size(); ++i) {
    free_at = std::max(train[i].at, free_at) + run.wire[i];
    std::vector<std::uint8_t> bytes = train[i].bytes;
    const FaultInjector::Decision d = ref.inject(bytes);
    if (d.drop) continue;
    const Cycles at = free_at + run.latency + d.extra_delay;
    if (d.duplicate) out.push_back({at + fc.dup_delay, bytes});
    out.push_back({at, std::move(bytes)});
  }
  counters = ref.counters();
  std::sort(out.begin(), out.end());
  return out;
}

auto fields(const FaultCounters& c) {
  return std::tuple(c.frames, c.drops, c.dups, c.reorders, c.corrupts,
                    c.truncates, c.jitters);
}

TEST(FaultDevice, OneScheduleThreePathsMatchTheReferenceInjector) {
  const FaultConfig fc = every_fault();
  const std::vector<Sent> train = frame_train();
  const std::pair<const char*, std::function<PathRun()>> paths[] = {
      {"an2 point-to-point", [&] { return run_an2(fc, train, false); }},
      {"an2 switched", [&] { return run_an2(fc, train, true); }},
      {"ethernet", [&] { return run_ethernet(fc, train); }},
  };
  for (const auto& [name, run_path] : paths) {
    SCOPED_TRACE(name);
    const PathRun run = run_path();
    FaultCounters want;
    const std::vector<Arrival> expected = predict(fc, train, run, want);
    // Every class fires on this train, so every branch is checked.
    EXPECT_GT(want.drops, 0u);
    EXPECT_GT(want.dups, 0u);
    EXPECT_GT(want.reorders, 0u);
    EXPECT_GT(want.corrupts, 0u);
    EXPECT_GT(want.truncates, 0u);
    EXPECT_GT(want.jitters, 0u);
    EXPECT_EQ(fields(run.counters), fields(want));
    EXPECT_EQ(run.arrivals.size(), expected.size());
    for (std::size_t i = 0;
         i < std::min(run.arrivals.size(), expected.size()); ++i) {
      EXPECT_EQ(run.arrivals[i].at, expected[i].at) << "arrival " << i;
      EXPECT_EQ(run.arrivals[i].bytes, expected[i].bytes) << "arrival " << i;
    }
  }
}

TEST(FaultDevice, An2ZeroLengthMessageDeliversCleanly) {
  // Found by tools/packetfuzz (tcp target, mutated-to-empty frame):
  // An2Device::deliver memcpy'd from the empty vector's null data()
  // pointer — undefined behaviour flagged by UBSan. An empty message must
  // deliver as a zero-length descriptor without touching memory.
  An2Pair t;
  std::optional<net::RxDesc> got;
  t.b->kernel().spawn("rx", [&](Process& self) -> Task {
    const int vc = t.dev_b->bind_vc(self);
    t.dev_b->supply_buffer(vc, self.segment().base, 256);
    co_await self.sleep_for(us(5000.0));
    got = t.dev_b->poll(vc);
  });
  t.sim.queue().schedule_at(10, [&] {
    EXPECT_TRUE(t.dev_a->send(0, {}));
  });
  t.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->len, 0u);
}

}  // namespace
}  // namespace ash::net
