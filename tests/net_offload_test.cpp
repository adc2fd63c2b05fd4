// NicProcessor in isolation: the memory-window reservation arithmetic,
// the enqueue protocol (overflow before quota, mirroring RxQueue), punt
// attribution per reason, detach- and resize-while-parked semantics, and
// the summary formats `ashtool offload` prints. The sink's nic_run runs
// test-local per-channel lambdas — the AshSystem-backed end-to-end paths
// live in net_offload_diff_test and net_offload_property_test.
#include "net/nic_offload.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::net {
namespace {

using sim::KernelCpu;
using sim::MemSegment;
using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::us;

/// A channel's stand-in for the handler its binding names.
using TestHook = std::function<NicExecResult(const RxFrame&, NicExecUnit&)>;

struct FakeSink final : RxSink {
  std::uint64_t batches = 0;
  std::uint64_t nic_runs = 0;             // nic_run calls, any channel
  std::unordered_map<int, TestHook> hooks;  // what each channel runs
  std::vector<int> consumed;              // channels committed on-device
  std::vector<int> punted;                // channels handed back
  std::vector<std::uint16_t> punt_cpus;   // host CPU each punt completed on
  std::vector<std::uint32_t> drop_bufs;   // recycled buffers from NIC drops

  void rx_batch(std::span<const RxFrame>, const KernelCpu&) override {
    ++batches;
  }
  void rx_drop(const RxFrame& f) override { drop_bufs.push_back(f.addr); }
  NicExecResult nic_run(const RxFrame& f, NicExecUnit& u) override {
    ++nic_runs;
    return hooks.at(f.channel)(f, u);
  }
  void nic_consumed(const RxFrame& f) override {
    consumed.push_back(f.channel);
  }
  void nic_punt(const RxFrame& f, const KernelCpu& cpu) override {
    punted.push_back(f.channel);
    punt_cpus.push_back(cpu.cpu_id());
  }
};

struct FakeQuota final : RxQuota {
  std::uint32_t cap = 1u << 30;
  std::uint32_t pending = 0;
  std::uint64_t admit_calls = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_quota = 0;

  bool try_admit(const sim::Process* owner) override {
    ++admit_calls;
    if (owner == nullptr) return true;
    if (pending >= cap) return false;
    ++pending;
    return true;
  }
  void on_dispatched(const sim::Process* owner) override {
    ++dispatches;
    if (owner != nullptr && pending > 0) --pending;
  }
  void on_drop(const sim::Process*, RxDropReason reason) override {
    (reason == RxDropReason::Overflow ? drops_overflow : drops_quota) += 1;
  }
};

RxFrame frame(FakeSink& sink, int channel, std::uint32_t buf = 0,
              sim::Process* owner = nullptr) {
  RxFrame f;
  f.sink = &sink;
  f.channel = channel;
  f.addr = buf;
  f.len = 32;
  f.buf_len = 64;
  f.owner = owner;
  return f;
}

/// Give `channel` `hook` to run, then reserve `footprint` for it — what
/// RxPort::bind does for a bound channel.
bool attach(NicProcessor& nic, FakeSink& sink, int channel,
            std::uint32_t footprint, TestHook hook) {
  sink.hooks[channel] = std::move(hook);
  return nic.attach(&sink, channel, footprint);
}

/// A hook that commits on-device, charging `busy` unit-cycles.
TestHook consume_hook(std::uint64_t* runs, sim::Cycles busy,
                      std::uint32_t replies = 0) {
  return [runs, busy, replies](const RxFrame&, NicExecUnit& u) {
    if (runs != nullptr) ++*runs;
    NicExecResult r;
    r.consumed = true;
    r.replies = replies;
    r.charged = u.cost().dispatch + u.scale(busy);
    u.work(r.charged);
    return r;
  };
}

TestHook punt_hook(bool faulted) {
  return [faulted](const RxFrame&, NicExecUnit& u) {
    NicExecResult r;
    r.consumed = false;
    r.faulted = faulted;
    r.charged = u.cost().dispatch + u.cost().punt_handoff;
    u.work(r.charged);
    return r;
  };
}

TEST(OffloadUnit, WindowAccountingAcrossAttachDetachReattach) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicConfig cfg;
  cfg.mem_window_bytes = 1000;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;

  EXPECT_TRUE(nic.attach(&sink, 0, 600));
  EXPECT_EQ(nic.window_used(), 600u);
  EXPECT_TRUE(nic.resident(&sink, 0));

  // Does not fit: recorded (counted NotResident later), not reserved.
  EXPECT_FALSE(nic.attach(&sink, 1, 600));
  EXPECT_EQ(nic.window_used(), 600u);
  EXPECT_FALSE(nic.resident(&sink, 1));
  EXPECT_EQ(nic.attached(), 2u);

  // Detach releases the reservation; the no-fit channel can then land.
  nic.detach(&sink, 0);
  EXPECT_EQ(nic.window_used(), 0u);
  EXPECT_EQ(nic.attached(), 1u);
  EXPECT_TRUE(nic.attach(&sink, 1, 600));
  EXPECT_EQ(nic.window_used(), 600u);

  // Re-attach (re-download) of a resident channel sizes the *new* image
  // against the window with the old reservation released first.
  EXPECT_TRUE(nic.attach(&sink, 1, 900));
  EXPECT_EQ(nic.window_used(), 900u);
  EXPECT_FALSE(nic.attach(&sink, 1, 1200));
  EXPECT_EQ(nic.window_used(), 0u);  // shrank out of residency entirely
  EXPECT_FALSE(nic.resident(&sink, 1));

  // Detaching something never attached is a no-op.
  nic.detach(&sink, 7);
  EXPECT_EQ(nic.attached(), 1u);
}

TEST(OffloadUnit, OfferIgnoresNeverOffloadedChannels) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicProcessor nic(n, rxq, {});
  FakeSink sink;
  EXPECT_FALSE(nic.offer(frame(sink, 3)));
  EXPECT_EQ(nic.totals().offered, 0u);  // plain host traffic, uncounted
}

TEST(OffloadUnit, NotResidentFramesAreCountedPuntsOnTheHostPath) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicConfig cfg;
  cfg.mem_window_bytes = 100;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;
  std::uint64_t runs = 0;
  EXPECT_FALSE(attach(nic, sink, 0, 4096, consume_hook(&runs, 0)));

  // false = caller continues down the host path; but the punt is counted.
  EXPECT_FALSE(nic.offer(frame(sink, 0)));
  EXPECT_FALSE(nic.offer(frame(sink, 0)));
  const auto t = nic.totals();
  EXPECT_EQ(t.offered, 2u);
  EXPECT_EQ(t.punted, 2u);
  EXPECT_EQ(t.by_punt_reason[static_cast<std::size_t>(
                PuntReason::NotResident)],
            2u);
  EXPECT_EQ(runs, 0u);
  sim.run(us(1000.0));
  EXPECT_TRUE(sink.punted.empty());  // the host path delivers, not nic_punt
}

TEST(OffloadUnit, ConsumeOnDeviceCountsRepliesAndCycles) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicProcessor nic(n, rxq, {});
  FakeSink sink;
  std::uint64_t runs = 0;
  ASSERT_TRUE(attach(nic, sink, 2, 512,
                     consume_hook(&runs, us(4.0), /*replies=*/1)));

  EXPECT_TRUE(nic.offer(frame(sink, 2)));
  sim.run(us(1000.0));

  EXPECT_EQ(runs, 1u);
  const auto& s = nic.stats(0);  // single queue
  EXPECT_EQ(s.offered, 1u);
  EXPECT_EQ(s.nic_executed, 1u);
  EXPECT_EQ(s.punted, 0u);
  EXPECT_EQ(s.replies, 1u);
  EXPECT_GT(s.nic_cycles, 0u);
  ASSERT_EQ(sink.consumed.size(), 1u);
  EXPECT_EQ(sink.consumed[0], 2);
  // The unit really was occupied: its charge ledger matches the stats.
  EXPECT_EQ(nic.unit(0, 0).charged_total(), s.nic_cycles);
  EXPECT_EQ(nic.depth(0), 0u);
}

TEST(OffloadUnit, OverflowIsADeviceDropCheckedBeforeTheQuota) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process owner(n, /*pid=*/9, "t", MemSegment{0, 4096});
  FakeQuota quota;
  RxQueueSet::Config qc;
  qc.quota = &quota;
  RxQueueSet rxq(n, qc);
  NicConfig cfg;
  cfg.units_per_queue = 1;
  cfg.queue_capacity = 1;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;
  std::uint64_t runs = 0;
  ASSERT_TRUE(attach(nic, sink, 0, 256, consume_hook(&runs, us(500.0))));

  // Frame 1 goes straight to the (only) unit, frame 2 parks, frame 3
  // overflows the single descriptor slot — a device-attributed drop that
  // must never consult (or charge) the tenant quota.
  EXPECT_TRUE(nic.offer(frame(sink, 0, 0xA0, &owner)));
  EXPECT_TRUE(nic.offer(frame(sink, 0, 0xB0, &owner)));
  EXPECT_TRUE(nic.offer(frame(sink, 0, 0xC0, &owner)));
  EXPECT_EQ(quota.admit_calls, 2u);

  sim.run(us(5000.0));
  EXPECT_EQ(runs, 2u);
  const auto& s = nic.stats(0);
  EXPECT_EQ(s.offered, 3u);
  EXPECT_EQ(s.nic_executed, 2u);
  EXPECT_EQ(s.dropped, 1u);
  EXPECT_EQ(s.overflow_drops, 1u);
  EXPECT_EQ(s.quota_drops, 0u);
  EXPECT_EQ(quota.drops_overflow, 1u);
  EXPECT_EQ(quota.dispatches, 2u);
  ASSERT_EQ(sink.drop_bufs.size(), 1u);   // dropped frame's buffer recycled
  EXPECT_EQ(sink.drop_bufs[0], 0xC0u);
  EXPECT_EQ(s.offered, s.nic_executed + s.punted + s.dropped);
}

TEST(OffloadUnit, QuotaDropIsAttributedToTheTenant) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process owner(n, /*pid=*/4, "t", MemSegment{0, 4096});
  FakeQuota quota;
  quota.cap = 1;
  RxQueueSet::Config qc;
  qc.quota = &quota;
  RxQueueSet rxq(n, qc);
  NicConfig cfg;
  cfg.units_per_queue = 1;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;
  std::uint64_t runs = 0;
  ASSERT_TRUE(attach(nic, sink, 0, 256, consume_hook(&runs, us(500.0))));

  EXPECT_TRUE(nic.offer(frame(sink, 0, 0xA0, &owner)));
  EXPECT_TRUE(nic.offer(frame(sink, 0, 0xB0, &owner)));  // over occupancy
  const auto& s = nic.stats(0);
  EXPECT_EQ(s.quota_drops, 1u);
  EXPECT_EQ(quota.drops_quota, 1u);

  sim.run(us(5000.0));
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(s.offered, s.nic_executed + s.punted + s.dropped);
}

TEST(OffloadUnit, DetachWhileParkedPuntsWithoutRunningTheHandler) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicConfig cfg;
  cfg.units_per_queue = 1;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;
  std::uint64_t runs = 0;
  ASSERT_TRUE(attach(nic, sink, 0, 256, consume_hook(&runs, us(500.0))));

  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  // Revocation races the parked frames: the hook must never run again,
  // and both frames complete as HostService punts on the host queue CPU.
  nic.detach(&sink, 0);
  sim.run(us(5000.0));

  EXPECT_EQ(runs, 0u);
  const auto& s = nic.stats(0);
  EXPECT_EQ(s.punted, 2u);
  EXPECT_EQ(s.by_punt_reason[static_cast<std::size_t>(
                PuntReason::HostService)],
            2u);
  ASSERT_EQ(sink.punted.size(), 2u);
  EXPECT_EQ(sink.punt_cpus[0], rxq.queue(0).cpu().cpu_id());
  EXPECT_EQ(s.offered, s.nic_executed + s.punted + s.dropped);
}

TEST(OffloadUnit, ResizeOutOfTheWindowWhileParkedPuntsWithoutRunning) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicConfig cfg;
  cfg.units_per_queue = 1;
  cfg.mem_window_bytes = 1000;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;
  ASSERT_TRUE(attach(nic, sink, 0, 256, consume_hook(nullptr, us(500.0))));
  ASSERT_TRUE(attach(nic, sink, 1, 300, consume_hook(nullptr, 0)));
  EXPECT_EQ(nic.window_used(), 556u);

  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  // The channel is rebound to an image that no longer fits while its
  // frames are parked: the record stays (later frames are counted
  // NotResident punts) but nothing may run on a unit for it. Both parked
  // frames complete as HostService punts, each paying the handoff.
  EXPECT_FALSE(nic.attach(&sink, 0, 800));
  EXPECT_EQ(nic.window_used(), 300u);
  EXPECT_FALSE(nic.resident(&sink, 0));
  sim.run(us(5000.0));

  EXPECT_EQ(sink.nic_runs, 0u);
  const auto& s = nic.stats(0);
  EXPECT_EQ(s.punted, 2u);
  EXPECT_EQ(s.by_punt_reason[static_cast<std::size_t>(
                PuntReason::HostService)],
            2u);
  EXPECT_EQ(s.nic_cycles, 2 * cfg.cost.punt_handoff);
  ASSERT_EQ(sink.punted.size(), 2u);
  EXPECT_EQ(s.offered, s.nic_executed + s.punted + s.dropped);

  // The window stays exact: only channel 1's reservation is held, and
  // shrinking channel 0 back into the space left reserves exactly it.
  EXPECT_EQ(nic.window_used(), 300u);
  EXPECT_EQ(nic.attached(), 2u);
  EXPECT_TRUE(nic.attach(&sink, 0, 700));
  EXPECT_EQ(nic.window_used(), 1000u);
}

TEST(OffloadUnit, FaultedRunsArePuntedWithFaultAttribution) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet rxq(n, {});
  NicProcessor nic(n, rxq, {});
  FakeSink sink;
  ASSERT_TRUE(attach(nic, sink, 0, 256, punt_hook(/*faulted=*/true)));
  ASSERT_TRUE(attach(nic, sink, 1, 256, punt_hook(/*faulted=*/false)));

  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  EXPECT_TRUE(nic.offer(frame(sink, 1)));
  sim.run(us(5000.0));

  const auto t = nic.totals();
  EXPECT_EQ(t.punted, 2u);
  EXPECT_EQ(t.by_punt_reason[static_cast<std::size_t>(PuntReason::Fault)],
            1u);
  EXPECT_EQ(t.by_punt_reason[static_cast<std::size_t>(
                PuntReason::HostService)],
            1u);
  EXPECT_EQ(sink.punted.size(), 2u);
}

TEST(OffloadUnit, MultiQueueSteeringMatchesTheHostPolicyAndTotalsSum) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet::Config qc;
  qc.queues = 2;
  RxQueueSet rxq(n, qc);
  NicProcessor nic(n, rxq, {});
  EXPECT_EQ(nic.queues(), 2u);
  FakeSink sink;
  ASSERT_TRUE(attach(nic, sink, 0, 128, consume_hook(nullptr, us(1.0))));
  ASSERT_TRUE(attach(nic, sink, 1, 128, consume_hook(nullptr, us(1.0))));

  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  EXPECT_TRUE(nic.offer(frame(sink, 1)));
  EXPECT_TRUE(nic.offer(frame(sink, 1)));
  sim.run(us(1000.0));

  EXPECT_EQ(nic.stats(0).offered, 1u);  // channel hash: ch % queues
  EXPECT_EQ(nic.stats(1).offered, 2u);
  EXPECT_EQ(nic.totals().offered, 3u);
  EXPECT_EQ(nic.totals().nic_executed, 3u);
}

TEST(OffloadUnit, SummaryFormatsCarryTheOffloadColumns) {
  Simulator sim;
  Node& n = sim.add_node("n");
  RxQueueSet::Config qc;
  qc.queues = 2;
  RxQueueSet rxq(n, qc);
  NicConfig cfg;
  cfg.mem_window_bytes = 1024;
  NicProcessor nic(n, rxq, cfg);
  FakeSink sink;
  ASSERT_TRUE(attach(nic, sink, 0, 512, consume_hook(nullptr, us(1.0))));
  EXPECT_FALSE(attach(nic, sink, 1, 1024, consume_hook(nullptr, us(1.0))));
  EXPECT_TRUE(nic.offer(frame(sink, 0)));
  EXPECT_FALSE(nic.offer(frame(sink, 1)));  // NotResident
  sim.run(us(1000.0));

  const std::string text = nic.format_summary();
  EXPECT_NE(text.find("nic offload: 2 queue(s)"), std::string::npos);
  EXPECT_NE(text.find("window 512/1024 B"), std::string::npos);
  EXPECT_NE(text.find("2 attached (1 resident)"), std::string::npos);
  EXPECT_NE(text.find("q0:"), std::string::npos);
  EXPECT_NE(text.find("not-resident=1"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
  EXPECT_NE(text.find(" cyc"), std::string::npos);

  const std::string json = nic.summary_json();
  EXPECT_NE(json.find("\"queues\":2"), std::string::npos);
  EXPECT_NE(json.find("\"window_used\":512"), std::string::npos);
  EXPECT_NE(json.find("\"totals\":"), std::string::npos);
  EXPECT_NE(json.find("\"per_queue\":["), std::string::npos);
  EXPECT_NE(json.find("\"not_resident\":1"), std::string::npos);
  EXPECT_NE(json.find("\"nic_cyc\":"), std::string::npos);

  EXPECT_STREQ(to_string(PuntReason::NotResident), "not-resident");
  EXPECT_STREQ(to_string(PuntReason::HostService), "host-service");
  EXPECT_STREQ(to_string(PuntReason::Fault), "fault");
}

}  // namespace
}  // namespace ash::net
