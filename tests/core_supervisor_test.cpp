// Supervisor fault containment: the policy engine in isolation, the
// quarantine/revocation machinery end-to-end through the AN2 receive path,
// and the abort-path side-effect containment guarantees (TSend release,
// DILP persistent-register writeback).
#include "core/ash.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>

#include "core/supervisor.hpp"
#include "dilp/pipe.hpp"
#include "dpf/dpf.hpp"
#include "net/ethernet.hpp"
#include "net/nic_offload.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "vcode/builder.hpp"

namespace ash::core {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;
using vcode::Builder;
using vcode::kRegArg0;
using vcode::kRegArg1;
using vcode::kRegArg2;
using vcode::kRegArg3;
using vcode::Reg;

// ---------------------------------------------------------------------------
// The policy engine alone: a pure state machine over a bare cycle counter.
// ---------------------------------------------------------------------------

SupervisorConfig tight_config() {
  SupervisorConfig c;
  c.enabled = true;
  c.fault_threshold = 3;
  c.fault_window = 1000;
  c.quarantine_base = 100;
  c.quarantine_cap = 400;
  c.probation_successes = 2;
  c.max_quarantines = 0;  // never revoke unless the test says so
  return c;
}

TEST(Supervisor, QuarantinesAtThresholdWithinWindow) {
  Supervisor sup;
  sup.set_config(tight_config());
  Supervisor::HandlerState h;

  EXPECT_EQ(sup.note_result(h, true, 0), Supervisor::Action::None);
  EXPECT_EQ(sup.note_result(h, true, 10), Supervisor::Action::None);
  EXPECT_EQ(h.health, Health::Healthy);
  EXPECT_EQ(sup.note_result(h, true, 20), Supervisor::Action::Quarantine);
  EXPECT_EQ(h.health, Health::Quarantined);
  EXPECT_EQ(h.quarantine_len, 100u);
  EXPECT_EQ(h.quarantine_until, 120u);
  EXPECT_EQ(h.quarantine_trips, 1u);
}

TEST(Supervisor, SlidingWindowForgetsOldFaults) {
  Supervisor sup;
  sup.set_config(tight_config());
  Supervisor::HandlerState h;

  EXPECT_EQ(sup.note_result(h, true, 0), Supervisor::Action::None);
  EXPECT_EQ(sup.note_result(h, true, 10), Supervisor::Action::None);
  // Window (1000 cycles) expires: the old two faults no longer count.
  EXPECT_EQ(sup.note_result(h, true, 2000), Supervisor::Action::None);
  EXPECT_EQ(sup.note_result(h, true, 2010), Supervisor::Action::None);
  EXPECT_EQ(h.health, Health::Healthy);
  EXPECT_EQ(sup.note_result(h, true, 2020), Supervisor::Action::Quarantine);
}

TEST(Supervisor, AdmissionDeniedUntilBackoffThenProbation) {
  Supervisor sup;
  sup.set_config(tight_config());
  Supervisor::HandlerState h;
  for (int i = 0; i < 3; ++i) sup.note_result(h, true, 0);
  ASSERT_EQ(h.health, Health::Quarantined);

  EXPECT_EQ(sup.admit(h, 50), Supervisor::Admission::Denied);
  EXPECT_EQ(h.health, Health::Quarantined);
  // Backoff elapsed: the next message is the probe, run on probation.
  EXPECT_EQ(sup.admit(h, 100), Supervisor::Admission::Run);
  EXPECT_EQ(h.health, Health::Probation);
}

TEST(Supervisor, BackoffDoublesAndCaps) {
  Supervisor sup;
  sup.set_config(tight_config());
  Supervisor::HandlerState h;

  for (int i = 0; i < 3; ++i) sup.note_result(h, true, 0);
  EXPECT_EQ(h.quarantine_len, 100u);  // base
  ASSERT_EQ(sup.admit(h, 100), Supervisor::Admission::Run);
  sup.note_result(h, true, 100);  // probe faults: straight back, doubled
  EXPECT_EQ(h.health, Health::Quarantined);
  EXPECT_EQ(h.quarantine_len, 200u);
  ASSERT_EQ(sup.admit(h, 300), Supervisor::Admission::Run);
  sup.note_result(h, true, 300);
  EXPECT_EQ(h.quarantine_len, 400u);  // cap
  ASSERT_EQ(sup.admit(h, 700), Supervisor::Admission::Run);
  sup.note_result(h, true, 700);
  EXPECT_EQ(h.quarantine_len, 400u);  // stays at cap
  EXPECT_EQ(h.quarantine_trips, 4u);
}

TEST(Supervisor, ProbationRecoveryRestoresHealthyAndResetsBackoff) {
  Supervisor sup;
  sup.set_config(tight_config());
  Supervisor::HandlerState h;
  for (int i = 0; i < 3; ++i) sup.note_result(h, true, 0);
  ASSERT_EQ(sup.admit(h, 100), Supervisor::Admission::Run);

  EXPECT_EQ(sup.note_result(h, false, 110), Supervisor::Action::None);
  EXPECT_EQ(h.health, Health::Probation);  // one clean run is not enough
  EXPECT_EQ(sup.note_result(h, false, 120), Supervisor::Action::None);
  EXPECT_EQ(h.health, Health::Healthy);
  EXPECT_EQ(h.quarantine_len, 0u);  // backoff reset: next trip starts at base
  EXPECT_EQ(h.faults_in_window, 0u);

  for (int i = 0; i < 3; ++i) sup.note_result(h, true, 200);
  EXPECT_EQ(h.health, Health::Quarantined);
  EXPECT_EQ(h.quarantine_len, 100u);  // base again, not doubled
}

TEST(Supervisor, RevokedAfterMaxQuarantineTrips) {
  Supervisor sup;
  SupervisorConfig cfg = tight_config();
  cfg.max_quarantines = 2;
  sup.set_config(cfg);
  Supervisor::HandlerState h;

  for (int i = 0; i < 3; ++i) sup.note_result(h, true, 0);
  ASSERT_EQ(h.health, Health::Quarantined);
  ASSERT_EQ(sup.admit(h, 100), Supervisor::Admission::Run);
  EXPECT_EQ(sup.note_result(h, true, 100), Supervisor::Action::Revoke);
  EXPECT_EQ(h.health, Health::Revoked);
  EXPECT_EQ(sup.admit(h, 1u << 30), Supervisor::Admission::Denied);
  // Results on a revoked handler are ignored (stale in-flight completions).
  EXPECT_EQ(sup.note_result(h, true, 200), Supervisor::Action::None);
}

// ---------------------------------------------------------------------------
// End-to-end through the AN2 receive path.
// ---------------------------------------------------------------------------

struct SupWorld {
  Simulator sim;
  Node* a;
  Node* b;
  net::An2Device* dev_a;
  net::An2Device* dev_b;
  AshSystem* ash_b;

  SupWorld() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new net::An2Device(*a);
    dev_b = new net::An2Device(*b);
    dev_a->connect(*dev_b);
    ash_b = new AshSystem(*b);
  }
  ~SupWorld() {
    delete ash_b;
    delete dev_a;
    delete dev_b;
  }
};

/// Faults with DivideByZero iff the first message word is zero — a cheap,
/// data-dependent involuntary abort (no timer budget burned).
vcode::Program div_by_word0_ash() {
  Builder b;
  const Reg v = b.reg();
  const Reg q = b.reg();
  b.lw(v, kRegArg0, 0);
  b.divu(q, kRegArg1, v);
  b.movi(kRegArg0, 1);
  b.halt();
  return b.take();
}

constexpr std::uint8_t kBadMsg[4] = {0, 0, 0, 0};
constexpr std::uint8_t kGoodMsg[4] = {1, 0, 0, 0};

TEST(Quarantine, FaultThresholdQuarantinesAndSkipsAtLowCost) {
  SupWorld w;
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 2;
  w.ash_b->set_supervisor(sup);

  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    const int id = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach(*w.dev_b, vc, id);
    co_await self.sleep_for(us(20000.0));

    const AshStats& s = w.ash_b->stats(id);
    // Two faults run, then the supervisor stops paying: messages 3 and 4
    // are skipped at demux cost.
    EXPECT_EQ(s.invocations, 2u);
    EXPECT_EQ(s.involuntary_aborts, 2u);
    EXPECT_EQ(s.quarantine_skips, 2u);
    EXPECT_EQ(w.ash_b->health(id), Health::Quarantined);
    EXPECT_EQ(w.ash_b->supervisor_state(id).quarantine_trips, 1u);

    // Abort taxonomy + last-fault forensics.
    EXPECT_EQ(s.by_outcome[static_cast<std::size_t>(
                  vcode::Outcome::DivideByZero)],
              2u);
    EXPECT_TRUE(s.last_fault.valid);
    EXPECT_EQ(s.last_fault.outcome, vcode::Outcome::DivideByZero);
    EXPECT_GT(s.last_fault.insns, 0u);
    EXPECT_NE(w.ash_b->format_status().find("Quarantined"),
              std::string::npos);

    // All four messages still reached the owner via normal delivery.
    int delivered = 0;
    while (w.dev_b->poll(vc).has_value()) ++delivered;
    EXPECT_EQ(delivered, 4);
  });
  for (int i = 1; i <= 4; ++i) {
    w.sim.queue().schedule_at(us(1000.0 * i),
                              [&] { w.dev_a->send(0, kBadMsg); });
  }
  w.sim.run();
}

TEST(Quarantine, ProbeFaultEscalatesToRevocationAndClearsHook) {
  SupWorld w;
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 1;
  sup.quarantine_base = us(1000.0);
  sup.max_quarantines = 2;
  w.ash_b->set_supervisor(sup);

  int vc = -1;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    const int id = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach(*w.dev_b, vc, id);
    EXPECT_TRUE(w.dev_b->has_kernel_hook(vc));
    co_await self.sleep_for(us(50000.0));

    const AshStats& s = w.ash_b->stats(id);
    // Fault 1 -> quarantine trip 1; message 2 skipped; the probe faults
    // -> trip 2 = max_quarantines -> revoked, hook cleared.
    EXPECT_EQ(s.invocations, 2u);
    EXPECT_EQ(s.quarantine_skips, 1u);
    EXPECT_EQ(w.ash_b->health(id), Health::Revoked);
    EXPECT_FALSE(w.dev_b->has_kernel_hook(vc));
    // Message 4 took the plain device path: the ASH system never saw it.
    EXPECT_EQ(s.revoked_skips, 0u);
    // Revocation already cleared the attachment; detach finds nothing.
    EXPECT_FALSE(w.ash_b->detach(*w.dev_b, vc));

    int delivered = 0;
    while (w.dev_b->poll(vc).has_value()) ++delivered;
    EXPECT_EQ(delivered, 4);
  });
  // t=1ms fault; t=1.5ms skipped; t=4ms probe faults; t=6ms hook-less.
  for (const double t : {1000.0, 1500.0, 4000.0, 6000.0}) {
    w.sim.queue().schedule_at(us(t), [&] { w.dev_a->send(0, kBadMsg); });
  }
  w.sim.run();
}

TEST(Quarantine, CleanProbationRunsRestoreHealthy) {
  SupWorld w;
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 1;
  sup.quarantine_base = us(1000.0);
  sup.probation_successes = 2;
  sup.max_quarantines = 0;
  w.ash_b->set_supervisor(sup);

  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    const int id = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach(*w.dev_b, vc, id);
    co_await self.sleep_for(us(50000.0));

    const AshStats& s = w.ash_b->stats(id);
    EXPECT_EQ(s.involuntary_aborts, 1u);
    EXPECT_EQ(s.commits, 2u);  // both probes ran clean
    EXPECT_EQ(w.ash_b->health(id), Health::Healthy);
    EXPECT_EQ(w.ash_b->supervisor_state(id).quarantine_len, 0u);
    EXPECT_EQ(w.ash_b->supervisor_state(id).quarantine_trips, 1u);
  });
  w.sim.queue().schedule_at(us(1000.0), [&] { w.dev_a->send(0, kBadMsg); });
  w.sim.queue().schedule_at(us(4000.0), [&] { w.dev_a->send(0, kGoodMsg); });
  w.sim.queue().schedule_at(us(5000.0), [&] { w.dev_a->send(0, kGoodMsg); });
  w.sim.run();
}

TEST(Quarantine, OwnerFaultLimitRevokesEveryHandlerOfTheProcess) {
  SupWorld w;
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 100;  // per-handler quarantine effectively off
  sup.owner_fault_limit = 3;
  w.ash_b->set_supervisor(sup);

  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc0 = w.dev_b->bind_vc(self);
    const int vc1 = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc0, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
      w.dev_b->supply_buffer(
          vc1,
          self.segment().base + 0x1000 + 64u * static_cast<std::uint32_t>(i),
          64);
    }
    std::string error;
    const int id0 = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    const int id1 = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id0, 0);
    EXPECT_GE(id1, 0);
    w.ash_b->attach(*w.dev_b, vc0, id0);
    w.ash_b->attach(*w.dev_b, vc1, id1);
    co_await self.sleep_for(us(50000.0));

    // Faults aggregate across the owner's handlers: vc0, vc1, vc0 -> the
    // third fault crosses the owner limit and takes BOTH handlers down.
    EXPECT_EQ(w.ash_b->owner_faults(w.ash_b->owner(id0)), 3u);
    EXPECT_EQ(w.ash_b->health(id0), Health::Revoked);
    EXPECT_EQ(w.ash_b->health(id1), Health::Revoked);
    EXPECT_FALSE(w.dev_b->has_kernel_hook(vc0));
    EXPECT_FALSE(w.dev_b->has_kernel_hook(vc1));
  });
  w.sim.queue().schedule_at(us(1000.0), [&] { w.dev_a->send(0, kBadMsg); });
  w.sim.queue().schedule_at(us(2000.0), [&] { w.dev_a->send(1, kBadMsg); });
  w.sim.queue().schedule_at(us(3000.0), [&] { w.dev_a->send(0, kBadMsg); });
  w.sim.run();
}

TEST(Quarantine, ExplicitRevokeDeniesEvenWithSupervisorDisabled) {
  SupWorld w;  // note: no set_supervisor — policy disabled
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    const int id = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach(*w.dev_b, vc, id);
    co_await self.sleep_for(us(2000.0));
    EXPECT_EQ(w.ash_b->stats(id).commits, 1u);

    w.ash_b->revoke(id);
    EXPECT_EQ(w.ash_b->health(id), Health::Revoked);
    co_await self.sleep_for(us(1000.0));  // deferred hook-clear runs
    EXPECT_FALSE(w.dev_b->has_kernel_hook(vc));

    // Direct invocation (a custom demux point) is denied too.
    std::memcpy(w.b->mem(self.segment().base + 0x2000, 4), kGoodMsg, 4);
    MsgContext m;
    m.addr = self.segment().base + 0x2000;
    m.len = 4;
    EXPECT_FALSE(w.ash_b->invoke(
        id, m, [](int, std::span<const std::uint8_t>) { return true; }, 0));
    EXPECT_EQ(w.ash_b->stats(id).revoked_skips, 1u);

    co_await self.sleep_for(us(5000.0));
    EXPECT_EQ(w.ash_b->stats(id).invocations, 1u);  // message 2 bypassed
    int delivered = 0;
    while (w.dev_b->poll(vc).has_value()) ++delivered;
    EXPECT_EQ(delivered, 1);
  });
  w.sim.queue().schedule_at(us(1000.0), [&] { w.dev_a->send(0, kGoodMsg); });
  w.sim.queue().schedule_at(us(5000.0), [&] { w.dev_a->send(0, kGoodMsg); });
  w.sim.run();
}

TEST(Quarantine, DetachClearsHooksOnBothDeviceKinds) {
  SupWorld w;
  net::EthernetDevice eth_b(*w.b);
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    dpf::Filter f;
    f.atoms = {dpf::atom_be16(12, 0x0800)};
    const int ep = eth_b.attach(self, f);
    std::string error;
    const int id = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach(*w.dev_b, vc, id);
    w.ash_b->attach(eth_b, ep, id);
    EXPECT_TRUE(w.dev_b->has_kernel_hook(vc));
    EXPECT_TRUE(eth_b.has_kernel_hook(ep));

    EXPECT_TRUE(w.ash_b->detach(*w.dev_b, vc));
    EXPECT_FALSE(w.dev_b->has_kernel_hook(vc));
    EXPECT_FALSE(w.ash_b->detach(*w.dev_b, vc));  // already gone

    EXPECT_TRUE(w.ash_b->detach(eth_b, ep));
    EXPECT_FALSE(eth_b.has_kernel_hook(ep));
    EXPECT_FALSE(w.ash_b->detach(eth_b, ep));

    // The handler itself is untouched by detach: still Healthy.
    EXPECT_EQ(w.ash_b->health(id), Health::Healthy);
    co_await self.compute(1);
  });
  w.sim.run();
}

// ---------------------------------------------------------------------------
// Abort-path side-effect containment.
// ---------------------------------------------------------------------------

TEST(Containment, TSendsReleasedOnlyOnHalt) {
  enum class Ending { Halt, VoluntaryAbort, InvoluntaryAbort };
  const auto sends_after = [](Ending ending) -> std::uint64_t {
    SupWorld w;
    std::uint64_t sends = 0;
    w.b->kernel().spawn("owner", [&](Process& self) -> Task {
      Builder bld;
      bld.t_send(kRegArg3, kRegArg0, kRegArg1);  // queue the echo first
      switch (ending) {
        case Ending::Halt:
          bld.movi(kRegArg0, 1);
          bld.halt();
          break;
        case Ending::VoluntaryAbort:
          bld.abort(7);
          break;
        case Ending::InvoluntaryAbort: {
          const vcode::Label loop = bld.label();
          bld.bind(loop);
          bld.jmp(loop);  // burn the timer budget
          break;
        }
      }
      std::string error;
      const int id = w.ash_b->download(self, bld.take(), {}, &error);
      EXPECT_GE(id, 0) << error;

      std::memcpy(w.b->mem(self.segment().base + 0x2000, 4), kGoodMsg, 4);
      MsgContext m;
      m.addr = self.segment().base + 0x2000;
      m.len = 4;
      w.ash_b->invoke(
          id, m,
          [&sends](int, std::span<const std::uint8_t>) {
            ++sends;
            return true;
          },
          0);
      // Sends are released when the handler's simulated runtime elapses.
      co_await self.sleep_for(us(20000.0));
    });
    w.sim.run();
    return sends;
  };

  EXPECT_EQ(sends_after(Ending::Halt), 1u);
  EXPECT_EQ(sends_after(Ending::VoluntaryAbort), 0u);
  EXPECT_EQ(sends_after(Ending::InvoluntaryAbort), 0u);
}

TEST(Containment, RevokingAReplacedHandlerKeepsTheReplacementAttached) {
  // A channel has one binding: attaching B over A moves the channel to B,
  // and on a NIC port its residency with it, so a unit runs B, never A.
  // Revoking A afterwards must leave B bound and resident.
  const std::pair<bool, bool> legs[] = {
      {false, true}, {true, true}, {false, false}, {true, false}};
  for (const std::pair<bool, bool>& leg : legs) {
    const bool nic_leg = leg.first;
    const bool revoke_a = leg.second;
    SCOPED_TRACE(nic_leg ? "nic" : "host");
    SCOPED_TRACE(revoke_a ? "revoke A" : "keep A");
    SupWorld w;
    std::unique_ptr<net::RxQueueSet> rxq;
    std::unique_ptr<net::NicProcessor> nic;
    if (nic_leg) {
      rxq = std::make_unique<net::RxQueueSet>(*w.b, net::RxQueueSet::Config{});
      w.dev_b->set_rx_queues(rxq.get());
      nic = std::make_unique<net::NicProcessor>(*w.b, *rxq);
      w.dev_b->set_nic(nic.get());
    }
    w.b->kernel().spawn("owner", [&](Process& self) -> Task {
      const int vc = w.dev_b->bind_vc(self);
      for (int i = 0; i < 8; ++i) {
        w.dev_b->supply_buffer(
            vc, self.segment().base + 64u * static_cast<std::uint32_t>(i),
            64);
      }
      std::string error;
      const int a = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
      const int b = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
      EXPECT_GE(a, 0) << error;
      EXPECT_GE(b, 0) << error;
      // attach reports whether the handler ended up on the NIC.
      EXPECT_EQ(w.ash_b->attach(*w.dev_b, vc, a), nic_leg);
      EXPECT_EQ(w.ash_b->attach(*w.dev_b, vc, b), nic_leg);
      if (revoke_a) w.ash_b->revoke(a);
      co_await self.sleep_for(us(1000.0));  // any deferred unbind runs

      EXPECT_EQ(w.ash_b->health(a),
                revoke_a ? Health::Revoked : Health::Healthy);
      EXPECT_EQ(w.ash_b->health(b), Health::Healthy);
      EXPECT_TRUE(w.dev_b->has_kernel_hook(vc));
      if (nic_leg) {
        EXPECT_TRUE(nic->resident(w.dev_b, vc));
        EXPECT_EQ(nic->window_used(), w.ash_b->nic_footprint(b));
      }

      co_await self.sleep_for(us(5000.0));
      // The message sent after the rebinding ran B (on a unit, on the NIC
      // leg), not A and not the ring.
      EXPECT_EQ(w.ash_b->stats(b).commits, 1u);
      EXPECT_EQ(w.ash_b->stats(a).invocations, 0u);
      EXPECT_FALSE(w.dev_b->poll(vc).has_value());
      if (nic_leg) {
        EXPECT_EQ(nic->totals().nic_executed, 1u);
        EXPECT_EQ(nic->totals().punted, 0u);
      }

      // Another AshSystem's detach leaves a binding it does not own; B's
      // own detach still unhooks the channel and releases its residency.
      AshSystem other(*w.b);
      EXPECT_FALSE(other.detach(*w.dev_b, vc));
      EXPECT_TRUE(w.dev_b->has_kernel_hook(vc));
      EXPECT_TRUE(w.ash_b->detach(*w.dev_b, vc));
      EXPECT_FALSE(w.dev_b->has_kernel_hook(vc));
      if (nic_leg) {
        EXPECT_FALSE(nic->resident(w.dev_b, vc));
        EXPECT_EQ(nic->window_used(), 0u);
        EXPECT_EQ(nic->attached(), 0u);
      }
    });
    w.sim.queue().schedule_at(us(3000.0),
                              [&] { w.dev_a->send(0, kGoodMsg); });
    w.sim.run();
  }

  // A per-frame hook installed over A's binding replaces it just the
  // same, residency included: the hook runs, A never does, and revoking A
  // must leave the hook in place.
  for (const std::pair<bool, bool>& leg : legs) {
    const bool nic_leg = leg.first;
    const bool revoke_a = leg.second;
    SCOPED_TRACE(nic_leg ? "nic, per-frame hook" : "host, per-frame hook");
    SCOPED_TRACE(revoke_a ? "revoke A" : "keep A");
    SupWorld w;
    std::unique_ptr<net::RxQueueSet> rxq;
    std::unique_ptr<net::NicProcessor> nic;
    if (nic_leg) {
      rxq = std::make_unique<net::RxQueueSet>(*w.b, net::RxQueueSet::Config{});
      w.dev_b->set_rx_queues(rxq.get());
      nic = std::make_unique<net::NicProcessor>(*w.b, *rxq);
      w.dev_b->set_nic(nic.get());
    }
    int hook_calls = 0;
    w.b->kernel().spawn("owner", [&](Process& self) -> Task {
      const int vc = w.dev_b->bind_vc(self);
      w.dev_b->supply_buffer(vc, self.segment().base, 64);
      std::string error;
      const int a = w.ash_b->download(self, div_by_word0_ash(), {}, &error);
      EXPECT_GE(a, 0) << error;
      EXPECT_EQ(w.ash_b->attach(*w.dev_b, vc, a), nic_leg);
      w.dev_b->set_kernel_hook(vc, [&](const net::RxPort::RxEvent&) {
        ++hook_calls;
        return true;
      });
      if (nic_leg) {
        EXPECT_FALSE(nic->resident(w.dev_b, vc));
        EXPECT_EQ(nic->window_used(), 0u);
      }
      if (revoke_a) w.ash_b->revoke(a);
      co_await self.sleep_for(us(6000.0));
      EXPECT_TRUE(w.dev_b->has_kernel_hook(vc));
      EXPECT_EQ(hook_calls, 1);
      EXPECT_EQ(w.ash_b->stats(a).invocations, 0u);
      EXPECT_FALSE(w.dev_b->poll(vc).has_value());
      if (nic_leg) {
        EXPECT_EQ(nic->totals().offered, 0u);
      }
      // The binding no longer names this system: nothing to detach.
      EXPECT_FALSE(w.ash_b->detach(*w.dev_b, vc));
    });
    w.sim.queue().schedule_at(us(3000.0), [&] { w.dev_a->send(0, kGoodMsg); });
    w.sim.run();
  }
}

TEST(Containment, DilpPersistentRegsKeepSeedAcrossFaultedTransfer) {
  // A pipe with a persistent accumulator that faults mid-transfer (divu by
  // a zero message word): the persistent-exchange registers must keep
  // their seeds — no partial writeback of a half-run accumulator.
  std::uint32_t status_out = 0xff, acc_out = 0xff;

  const auto run_case = [&](bool fault) {
    SupWorld world;
    world.b->kernel().spawn("owner", [&, fault](Process& self) -> Task {
      dilp::PipeBuilder pb("sum-div", dilp::Gauge::G32, dilp::Gauge::G32,
                           dilp::kCommutative | dilp::kNoMod);
      const Reg acc = pb.persistent_reg();
      const Reg in = pb.temp_reg();
      const Reg t = pb.temp_reg();
      pb.code().pin32(in);
      pb.code().addu(acc, acc, in);
      pb.code().divu(t, acc, in);  // faults when a message word is zero
      pb.code().pout32(in);
      dilp::PipeList pl;
      pl.add(pb.finish());
      std::string error;
      const int ilp =
          world.ash_b->dilp().register_ilp(pl, dilp::Direction::Read, &error);
      EXPECT_GE(ilp, 0) << error;

      Builder bld;
      const Reg ilp_reg = bld.reg();
      bld.movi(ilp_reg, static_cast<std::uint32_t>(ilp));
      bld.movi(kDilpPersistentBase, 7);  // seed the accumulator
      bld.t_dilp(ilp_reg, kRegArg0, kRegArg2, kRegArg1);
      // r1 now holds the TDilp status; store status and accumulator for
      // the test to read back.
      bld.sw(kRegArg0, kRegArg2, 64);
      bld.sw(kDilpPersistentBase, kRegArg2, 68);
      bld.movi(kRegArg0, 1);
      bld.halt();
      std::string err2;
      const int id = world.ash_b->download(self, bld.take(), {}, &err2);
      EXPECT_GE(id, 0) << err2;

      // Three words; the last is zero only in the faulting case.
      const std::uint32_t msg = self.segment().base + 0x2000;
      const std::uint32_t dst = self.segment().base + 0x3000;
      const std::uint32_t words[3] = {1, 2, fault ? 0u : 3u};
      std::memcpy(world.b->mem(msg, 12), words, 12);

      MsgContext m;
      m.addr = msg;
      m.len = 12;
      m.user_arg = dst;
      world.ash_b->invoke(
          id, m, [](int, std::span<const std::uint8_t>) { return true; }, 0);
      std::memcpy(&status_out, world.b->mem(dst + 64, 4), 4);
      std::memcpy(&acc_out, world.b->mem(dst + 68, 4), 4);
      co_await self.compute(1);
    });
    world.sim.run();
  };

  run_case(/*fault=*/false);
  EXPECT_EQ(status_out, 0u);
  EXPECT_EQ(acc_out, 7u + 1 + 2 + 3);  // finals written back on success

  run_case(/*fault=*/true);
  EXPECT_EQ(status_out, 1u);  // transfer reported failed to the handler
  EXPECT_EQ(acc_out, 7u);     // seed intact: no partial writeback
}

}  // namespace
}  // namespace ash::core
