// Per-tenant RX-queue occupancy quotas (net::RxQuota): drop attribution
// by reason (overflow vs tenant quota), occupancy charge/release around
// the batch lifecycle, buffer recycling on quota drops, the sojourn
// histogram, and the RxDrop trace event + QueueMetrics aggregation.
#include "net/rx_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {
namespace {

using sim::Cycles;
using sim::KernelCpu;
using sim::MemSegment;
using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::us;

struct FakeSink final : RxSink {
  std::uint64_t frames = 0;
  std::uint64_t drops = 0;
  std::vector<std::uint32_t> recycled;  // addr of each dropped frame

  void rx_batch(std::span<const RxFrame> fs, const KernelCpu&) override {
    frames += fs.size();
  }
  void rx_drop(const RxFrame& f) override {
    ++drops;
    recycled.push_back(f.addr);
  }
};

/// Test-local quota: a hard per-owner occupancy cap, with every callback
/// recorded so the tests can pin the charge/release/attribute protocol.
struct FakeQuota final : RxQuota {
  std::uint32_t cap = 2;
  std::uint32_t pending = 0;       // current charged occupancy
  std::uint64_t admits = 0;        // try_admit calls that returned true
  std::uint64_t admit_calls = 0;   // all try_admit calls
  std::uint64_t dispatches = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_quota = 0;
  std::uint32_t last_drop_pid = 0;

  bool try_admit(const sim::Process* owner) override {
    ++admit_calls;
    if (owner == nullptr) return true;
    if (pending >= cap) return false;
    ++pending;
    ++admits;
    return true;
  }
  void on_dispatched(const sim::Process* owner) override {
    if (owner == nullptr) return;
    ++dispatches;
    if (pending > 0) --pending;
  }
  void on_drop(const sim::Process* owner, RxDropReason reason) override {
    if (reason == RxDropReason::Overflow) {
      ++drops_overflow;
    } else {
      ++drops_quota;
    }
    last_drop_pid = owner != nullptr ? owner->pid() : 0;
  }
};

RxFrame frame_for(FakeSink& sink, Process* owner, int channel,
                  std::uint32_t addr = 0) {
  RxFrame f;
  f.sink = &sink;
  f.channel = channel;
  f.owner = owner;
  f.addr = addr;
  f.driver_cycles = 10;
  return f;
}

/// Park frames without dispatching: coalescing on, huge batch, long delay.
CoalesceConfig parked() {
  CoalesceConfig co;
  co.enabled = true;
  co.max_frames = 64;
  co.max_delay = us(1e6);
  return co;
}

TEST(RxQuotaUnit, QuotaDenyDropsAttributeAndRecycleBuffers) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process owner(n, /*pid=*/7, "tenant", MemSegment{0, 4096});
  FakeSink sink;
  FakeQuota quota;  // cap = 2
  RxQueue q(KernelCpu(n), 0, parked(), /*capacity=*/256, &quota);

  for (std::uint32_t i = 0; i < 4; ++i) {
    q.enqueue(frame_for(sink, &owner, 3, /*addr=*/0x100 + i));
  }

  // Frames 3 and 4 were over quota: dropped at enqueue, charged to the
  // tenant, and their rx buffers handed straight back to the device.
  EXPECT_EQ(q.enqueued(), 4u);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(q.quota_drops(), 2u);
  EXPECT_EQ(q.overflow_drops(), 0u);
  EXPECT_EQ(quota.drops_quota, 2u);
  EXPECT_EQ(quota.drops_overflow, 0u);
  EXPECT_EQ(quota.last_drop_pid, 7u);
  EXPECT_EQ(sink.drops, 2u);
  EXPECT_EQ(sink.recycled, (std::vector<std::uint32_t>{0x102, 0x103}));
  // The dropped frames were never charged: occupancy still equals depth.
  EXPECT_EQ(quota.pending, 2u);
  EXPECT_EQ(quota.admits, 2u);
}

TEST(RxQuotaUnit, OverflowShortCircuitsBeforeTheQuota) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process owner(n, 7, "tenant", MemSegment{0, 4096});
  FakeSink sink;
  FakeQuota quota;
  quota.cap = 100;  // the quota itself never bites
  RxQueue q(KernelCpu(n), 0, parked(), /*capacity=*/2, &quota);

  for (int i = 0; i < 3; ++i) q.enqueue(frame_for(sink, &owner, 0));

  // The third frame hit queue overflow: attributed as Overflow (queue's
  // fault, not the tenant's quota) and try_admit was never consulted, so
  // no occupancy was charged for it.
  EXPECT_EQ(q.overflow_drops(), 1u);
  EXPECT_EQ(q.quota_drops(), 0u);
  EXPECT_EQ(quota.drops_overflow, 1u);
  EXPECT_EQ(quota.admit_calls, 2u);
  EXPECT_EQ(quota.pending, 2u);
}

TEST(RxQuotaUnit, DispatchReleasesOccupancyAndObservesSojourn) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process owner(n, 7, "tenant", MemSegment{0, 4096});
  FakeSink sink;
  FakeQuota quota;
  quota.cap = 8;
  CoalesceConfig co = parked();
  co.max_frames = 4;  // the 4th enqueue fires the batch
  RxQueue q(KernelCpu(n), 0, co, 256, &quota);

  sim.queue().schedule_at(us(10.0), [&] {
    for (int i = 0; i < 4; ++i) q.enqueue(frame_for(sink, &owner, 0));
  });
  sim.run();

  EXPECT_EQ(q.dispatched(), 4u);
  EXPECT_EQ(sink.frames, 4u);
  // Delivery released every charged unit back to the tenant...
  EXPECT_EQ(quota.dispatches, 4u);
  EXPECT_EQ(quota.pending, 0u);
  // ...and the sojourn histogram saw exactly the dispatched frames.
  EXPECT_EQ(q.sojourn().count(), 4u);
  // Conservation with drops broken out by reason.
  EXPECT_EQ(q.enqueued(), q.dispatched() + q.depth() + q.dropped());
  EXPECT_EQ(q.dropped(), q.overflow_drops() + q.quota_drops());

  // The tenant can immediately park frames again after the release.
  q.enqueue(frame_for(sink, &owner, 0));
  EXPECT_EQ(q.quota_drops(), 0u);
}

TEST(RxQuotaUnit, UnownedFramesBypassTheQuota) {
  Simulator sim;
  Node& n = sim.add_node("n");
  FakeSink sink;
  FakeQuota quota;
  quota.cap = 0;  // every owned frame would be denied
  RxQueue q(KernelCpu(n), 0, parked(), 256, &quota);

  q.enqueue(frame_for(sink, nullptr, 0));
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_EQ(quota.pending, 0u);  // kernel control traffic is never charged
}

TEST(RxQuotaUnit, RxDropEventCarriesOwnerReasonChannelAndAggregates) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process owner(n, 9, "tenant", MemSegment{0, 4096});
  FakeSink sink;
  FakeQuota quota;
  quota.cap = 1;
  trace::Session session;
  RxQueue q(KernelCpu(n), 3, parked(), /*capacity=*/1, &quota);

  q.enqueue(frame_for(sink, &owner, 5));  // admitted
  q.enqueue(frame_for(sink, &owner, 5));  // overflow (capacity 1)

  FakeQuota quota2;
  quota2.cap = 0;
  RxQueue q2(KernelCpu(n), 4, parked(), 256, &quota2);
  q2.enqueue(frame_for(sink, &owner, 6));  // tenant-quota

  const auto events = trace::global().all_events();
  std::vector<trace::Event> drops;
  for (const trace::Event& ev : events) {
    if (ev.type == trace::EventType::RxDrop) drops.push_back(ev);
  }
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops[0].id, 3);
  EXPECT_EQ(drops[0].arg0, 9u);  // owner pid
  EXPECT_EQ(drops[0].arg1,
            static_cast<std::uint32_t>(RxDropReason::Overflow));
  EXPECT_EQ(drops[0].insns, 5u);  // channel
  EXPECT_EQ(drops[1].id, 4);
  EXPECT_EQ(drops[1].arg1,
            static_cast<std::uint32_t>(RxDropReason::TenantQuota));
  EXPECT_EQ(drops[1].insns, 6u);

  // Emit-time aggregation fills QueueMetrics by reason.
  const trace::QueueMetrics& m3 = trace::global().queue_metrics(3);
  EXPECT_EQ(m3.drops, 1u);
  EXPECT_EQ(m3.by_drop_reason[0], 1u);
  EXPECT_EQ(m3.by_drop_reason[1], 0u);
  const trace::QueueMetrics& m4 = trace::global().queue_metrics(4);
  EXPECT_EQ(m4.drops, 1u);
  EXPECT_EQ(m4.by_drop_reason[1], 1u);

  // The formatter names both reasons.
  EXPECT_STREQ(to_string(RxDropReason::Overflow), "overflow");
  EXPECT_STREQ(to_string(RxDropReason::TenantQuota), "tenant-quota");
}

}  // namespace
}  // namespace ash::net
