// Property/soak test for the ashtrace layer: replay the seeded packetfuzz
// corpus (the same seeds the protocol soak tests use) through a two-node
// AN2 + ASH world with the tracer on, and assert the tracer's conservation
// invariants rather than any particular packet schedule:
//
//   * per-CPU event streams are strictly seq-monotonic and time-ordered,
//   * the drop counter matches the ring occupancy arithmetic exactly
//     (emitted == retained + dropped) in both overwrite and drop-newest
//     modes,
//   * the per-ASH / per-channel aggregates equal an independent
//     re-aggregation of the retained events whenever nothing was dropped.
//
// Faults (drop/dup/reorder/corrupt/truncate/jitter) shuffle the traffic;
// a deliberately faulting second handler plus a tight supervisor policy
// drives the denial / supervisor-action event classes too.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>

#include "core/ash.hpp"
#include "net/an2.hpp"
#include "net/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "vcode/builder.hpp"

namespace ash::core {
namespace {

using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;
using trace::Event;
using trace::EventType;
using vcode::Builder;
using vcode::kRegArg0;
using vcode::kRegArg1;
using vcode::kRegArg2;
using vcode::kRegArg3;
using vcode::Reg;

constexpr std::array<std::uint64_t, 10> kCorpus = {
    1001, 1002, 1003, 1004, 1005, 1006, 1007, 2001, 4001, 6001};

/// One fault class per 100x-seed, mixed classes for the protocol seeds —
/// the same shape the soak suite stresses.
net::FaultConfig fault_for_seed(std::uint64_t seed) {
  net::FaultConfig f;
  f.seed = seed;
  switch (seed) {
    case 1001: f.drop_prob = 0.2; break;
    case 1002: f.dup_prob = 0.2; break;
    case 1003: f.reorder_prob = 0.2; break;
    case 1004: f.corrupt_prob = 0.2; break;
    case 1005: f.truncate_prob = 0.2; break;
    case 1006: f.jitter_prob = 0.5; break;
    case 1007:
      f.drop_prob = 0.1;
      f.dup_prob = 0.1;
      f.corrupt_prob = 0.1;
      break;
    case 2001:
      f.drop_prob = 0.05;
      f.jitter_prob = 0.3;
      break;
    case 4001:
      f.reorder_prob = 0.15;
      f.dup_prob = 0.1;
      break;
    default:  // 6001
      f.corrupt_prob = 0.15;
      f.truncate_prob = 0.1;
      break;
  }
  return f;
}

vcode::Program remote_increment_ash() {
  Builder b;
  const Reg v = b.reg();
  b.lw(v, kRegArg2, 0);
  b.addiu(v, v, 1);
  b.sw(v, kRegArg2, 0);
  b.t_send(kRegArg3, kRegArg0, kRegArg1);
  b.movi(kRegArg0, 1);
  b.halt();
  return b.take();
}

/// Stores outside the owner segment: MemFault on every invocation, which
/// walks the supervisor through quarantine (denials) toward revocation.
vcode::Program always_faulting_ash() {
  Builder b;
  const Reg v = b.reg();
  b.movi(v, 0x10);  // below any owner segment
  b.sw(v, v, 0);
  b.halt();
  return b.take();
}

/// Drive one corpus seed through the fuzz world with the tracer already
/// enabled by the caller (whose TracerConfig decides ring behaviour).
void run_corpus_seed(std::uint64_t seed, int messages = 40) {
  Simulator sim;
  sim::Node& a = sim.add_node("a");
  sim::Node& b = sim.add_node("b");
  net::An2Device dev_a(a);
  net::An2Device dev_b(b);
  dev_a.connect(dev_b);
  dev_a.set_faults(fault_for_seed(seed));
  AshSystem ashsys(b);
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 2;
  sup.quarantine_base = us(500.0);
  sup.max_quarantines = 3;
  ashsys.set_supervisor(sup);

  b.kernel().spawn("owner", [&](Process& self) -> Task {
    const std::uint32_t counter = self.segment().base + 0x100;
    const int vc_good = dev_b.bind_vc(self);
    const int vc_bad = dev_b.bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      dev_b.supply_buffer(vc_good,
                          self.segment().base + 0x1000 +
                              64u * static_cast<std::uint32_t>(i),
                          64);
      dev_b.supply_buffer(vc_bad,
                          self.segment().base + 0x2000 +
                              64u * static_cast<std::uint32_t>(i),
                          64);
    }
    std::string error;
    const int good = ashsys.download(self, remote_increment_ash(), {}, &error);
    EXPECT_GE(good, 0) << error;
    AshOptions unsafe;  // kernel-trusted, so the wild store reaches MemFault
    unsafe.sandboxed = false;
    const int bad =
        ashsys.download(self, always_faulting_ash(), unsafe, &error);
    EXPECT_GE(bad, 0) << error;
    if (good < 0 || bad < 0) co_return;
    ashsys.attach(dev_b, vc_good, good, counter);
    ashsys.attach(dev_b, vc_bad, bad, 0);
    co_await self.sleep_for(us(1.0e6));
    // Drain anything the handlers declined into the normal path.
    while (dev_b.poll(vc_good).has_value()) {
    }
    while (dev_b.poll(vc_bad).has_value()) {
    }
  });
  a.kernel().spawn("client", [&, messages](Process& self) -> Task {
    for (int i = 0; i < messages; ++i) {
      std::uint8_t msg[16];
      std::memset(msg, static_cast<std::uint8_t>(i), sizeof msg);
      co_await self.syscall(dev_a.config().tx_kernel_work);
      dev_a.send(i % 2, msg);
      co_await self.sleep_for(us(50.0));
    }
  });
  sim.run();
}

/// Re-derive every aggregate from the retained events; only valid when
/// nothing was dropped.
struct Reaggregated {
  std::map<std::int32_t, std::uint64_t> dispatches, outcomes, consumed,
      denials, latency_sum, insns;
  std::map<std::int32_t, std::uint64_t> frames, frame_bytes, fallbacks;
  std::array<std::uint64_t, trace::kEventTypeCount> by_type{};
};

Reaggregated reaggregate(const std::vector<Event>& events) {
  Reaggregated r;
  for (const Event& ev : events) {
    ++r.by_type[static_cast<std::size_t>(ev.type)];
    switch (ev.type) {
      case EventType::AshDispatch:
        ++r.dispatches[ev.id];
        break;
      case EventType::AshOutcome:
        ++r.outcomes[ev.id];
        r.consumed[ev.id] += ev.arg1;
        r.latency_sum[ev.id] += ev.cycles;
        r.insns[ev.id] += ev.insns;
        break;
      case EventType::AshDenied:
        ++r.denials[ev.id];
        break;
      case EventType::FrameArrival:
        ++r.frames[ev.id];
        r.frame_bytes[ev.id] += ev.arg0;
        break;
      case EventType::UpcallFallback:
        ++r.fallbacks[ev.id];
        break;
      default:
        break;
    }
  }
  return r;
}

TEST(TraceConservation, CorpusSeedsHoldInvariantsWithLargeRing) {
  for (const std::uint64_t seed : kCorpus) {
    trace::TracerConfig cfg;
    cfg.ring_capacity = 1u << 15;  // large enough: nothing may drop
    trace::Session session(cfg);
    run_corpus_seed(seed);

    trace::Tracer& t = trace::global();
    std::uint64_t total_retained = 0;
    std::vector<Event> all;
    for (std::uint16_t cpu = 0; cpu < t.cpus(); ++cpu) {
      const auto events = t.events(cpu);
      total_retained += events.size();
      // Occupancy arithmetic with no wrap.
      EXPECT_EQ(t.dropped(cpu), 0u) << "seed " << seed << " cpu " << cpu;
      EXPECT_EQ(t.emitted(cpu), events.size())
          << "seed " << seed << " cpu " << cpu;
      // Strict per-CPU monotonicity: seq is gapless from 0, time never
      // runs backwards.
      for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(events[i].seq, i) << "seed " << seed << " cpu " << cpu;
        if (i > 0) {
          ASSERT_GE(events[i].time, events[i - 1].time)
              << "seed " << seed << " cpu " << cpu << " index " << i;
        }
      }
      all.insert(all.end(), events.begin(), events.end());
    }
    EXPECT_GT(total_retained, 0u) << "seed " << seed;
    EXPECT_EQ(t.clamped_cpus(), 0u) << "seed " << seed;
    EXPECT_EQ(t.all_events().size(), all.size()) << "seed " << seed;

    // Aggregates must equal an independent re-aggregation of the events.
    const Reaggregated r = reaggregate(all);
    for (std::size_t ty = 0; ty < trace::kEventTypeCount; ++ty) {
      EXPECT_EQ(t.type_count(static_cast<EventType>(ty)), r.by_type[ty])
          << "seed " << seed << " type " << ty;
    }
    for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
      const trace::AshMetrics& m = t.ash_metrics(id);
      const auto get = [&](const std::map<std::int32_t, std::uint64_t>& mp) {
        const auto it = mp.find(id);
        return it == mp.end() ? 0ull : it->second;
      };
      EXPECT_EQ(m.dispatches, get(r.dispatches)) << "seed " << seed;
      EXPECT_EQ(m.outcomes, get(r.outcomes)) << "seed " << seed;
      EXPECT_EQ(m.consumed, get(r.consumed)) << "seed " << seed;
      EXPECT_EQ(m.denials, get(r.denials)) << "seed " << seed;
      EXPECT_EQ(m.latency.sum(), get(r.latency_sum)) << "seed " << seed;
      EXPECT_EQ(m.cycles, get(r.latency_sum)) << "seed " << seed;
      EXPECT_EQ(m.insns, get(r.insns)) << "seed " << seed;
      std::uint64_t outcome_total = 0;
      for (const std::uint64_t n : m.by_outcome) outcome_total += n;
      EXPECT_EQ(outcome_total, m.outcomes) << "seed " << seed;
      std::uint64_t denial_total = 0;
      for (const std::uint64_t n : m.denial_reasons) denial_total += n;
      EXPECT_EQ(denial_total, m.denials) << "seed " << seed;
    }
    for (std::int32_t id = 0; id <= t.max_channel_slot(); ++id) {
      const trace::ChannelMetrics& c = t.channel_metrics(id);
      const auto get = [&](const std::map<std::int32_t, std::uint64_t>& mp) {
        const auto it = mp.find(id);
        return it == mp.end() ? 0ull : it->second;
      };
      EXPECT_EQ(c.frames, get(r.frames)) << "seed " << seed;
      EXPECT_EQ(c.bytes, get(r.frame_bytes)) << "seed " << seed;
      EXPECT_EQ(c.fallbacks, get(r.fallbacks)) << "seed " << seed;
      EXPECT_EQ(c.frame_bytes.count(), c.frames) << "seed " << seed;
      EXPECT_EQ(c.frame_bytes.sum(), c.bytes) << "seed " << seed;
    }

    // The scenario must actually exercise the interesting event classes.
    EXPECT_GT(t.type_count(EventType::AshOutcome), 0u) << "seed " << seed;
    EXPECT_GT(t.type_count(EventType::AshDenied), 0u) << "seed " << seed;
    EXPECT_GT(t.type_count(EventType::SupervisorAction), 0u)
        << "seed " << seed;
    EXPECT_GT(t.type_count(EventType::UpcallFallback), 0u)
        << "seed " << seed;
  }
}

TEST(TraceConservation, TinyRingOccupancyMathHoldsUnderWrap) {
  for (const bool overwrite : {true, false}) {
    trace::TracerConfig cfg;
    cfg.ring_capacity = 8;  // guaranteed to wrap
    cfg.overwrite = overwrite;
    trace::Session session(cfg);
    run_corpus_seed(1007, /*messages=*/60);

    trace::Tracer& t = trace::global();
    bool any_dropped = false;
    for (std::uint16_t cpu = 0; cpu < t.cpus(); ++cpu) {
      const auto events = t.events(cpu);
      // The invariant the drop counter must satisfy, wrap or no wrap.
      EXPECT_EQ(t.emitted(cpu), events.size() + t.dropped(cpu))
          << "overwrite=" << overwrite << " cpu " << cpu;
      if (t.dropped(cpu) > 0) any_dropped = true;
      // Retention shape: overwrite keeps the newest window (seq ends at
      // emitted-1), drop-newest keeps the oldest (seq starts at 0).
      if (!events.empty()) {
        if (overwrite) {
          EXPECT_EQ(events.back().seq, t.emitted(cpu) - 1) << "cpu " << cpu;
        } else {
          EXPECT_EQ(events.front().seq, 0u) << "cpu " << cpu;
        }
        for (std::size_t i = 1; i < events.size(); ++i) {
          ASSERT_EQ(events[i].seq, events[i - 1].seq + 1) << "cpu " << cpu;
        }
      }
    }
    EXPECT_TRUE(any_dropped) << "overwrite=" << overwrite
                             << ": tiny ring never wrapped";

    // Aggregation happens before ring insertion, so metric totals must
    // reflect every EMITTED event even though the ring lost most of them.
    std::uint64_t dispatch_metric = 0;
    for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
      dispatch_metric += t.ash_metrics(id).dispatches;
    }
    EXPECT_EQ(dispatch_metric, t.type_count(EventType::AshDispatch));
  }
}

}  // namespace
}  // namespace ash::core
