// Batched ASH dispatch (one dispatch session per fired RX queue batch):
// charge amortization, and the containment property — a handler that
// faults mid-batch must not poison the rest of the batch, with admission
// re-checked per message so supervisor state changes take effect within
// the batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/ash.hpp"
#include "core/supervisor.hpp"
#include "core/tenant.hpp"
#include "net/an2.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
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

/// Remote increment that detonates (divide by zero — an involuntary
/// abort) when the first message word is the poison marker. Healthy
/// messages bump the counter at user_arg and echo the message back.
vcode::Program poison_pill_ash() {
  Builder b;
  const Reg m = b.reg();
  const Reg marker = b.reg();
  const Reg v = b.reg();
  vcode::Label boom = b.label();
  b.lw(m, kRegArg0, 0);
  b.movi(marker, 0xdeadbeefu);
  b.beq(m, marker, boom);
  b.lw(v, kRegArg2, 0);
  b.addiu(v, v, 1);
  b.sw(v, kRegArg2, 0);
  b.t_send(kRegArg3, kRegArg0, kRegArg1);
  b.movi(kRegArg0, 1);
  b.halt();
  b.bind(boom);
  b.movi(v, 0);
  b.divu(m, m, v);
  b.halt();
  return b.take();
}

struct BatchWorld {
  Simulator sim;
  Node* a;
  Node* b;
  std::unique_ptr<net::An2Device> dev_a;
  std::unique_ptr<net::An2Device> dev_b;
  std::unique_ptr<AshSystem> ash_b;
  std::unique_ptr<net::RxQueueSet> rxq;
  int ash_id = -1;
  std::uint32_t ctr_addr = 0;

  /// One server VC behind a single coalescing queue (max_frames high and
  /// max_delay long enough that a back-to-back train lands in ONE batch).
  BatchWorld() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = std::make_unique<net::An2Device>(*a);
    dev_b = std::make_unique<net::An2Device>(*b);
    dev_a->connect(*dev_b);
    ash_b = std::make_unique<AshSystem>(*b);

    net::RxQueueSet::Config qc;
    qc.queues = 1;
    qc.coalesce.enabled = true;
    qc.coalesce.max_frames = 16;
    qc.coalesce.max_delay = us(200.0);
    rxq = std::make_unique<net::RxQueueSet>(*b, qc);
    dev_b->set_rx_queues(rxq.get());

    b->kernel().spawn("owner", [this](Process& self) -> Task {
      std::string error;
      const int id = ash_b->download(self, poison_pill_ash(), {}, &error);
      EXPECT_GE(id, 0) << error;
      ash_id = id;
      const int vc = dev_b->bind_vc(self);
      for (int i = 0; i < 32; ++i) {
        dev_b->supply_buffer(
            vc, self.segment().base + 64u * static_cast<std::uint32_t>(i),
            64);
      }
      ctr_addr = self.segment().base + 0x80000;
      ash_b->attach(*dev_b, vc, id, ctr_addr);
      co_await self.sleep_for(us(1e6));
    });
  }

  /// Send a back-to-back train; each element is poison or healthy.
  void send_train(sim::Cycles at, const std::vector<bool>& poison) {
    sim.queue().schedule_at(at, [this, poison] {
      const std::uint8_t ok[4] = {1, 2, 3, 4};
      const std::uint8_t bad[4] = {0xef, 0xbe, 0xad, 0xde};  // LE marker
      for (const bool p : poison) dev_a->send(0, p ? bad : ok);
    });
  }

  std::uint32_t counter() const {
    const std::uint8_t* p = b->mem(ctr_addr, 4);
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  std::size_t server_ring_depth() {
    std::size_t n = 0;
    while (dev_b->poll(0)) ++n;
    return n;
  }
};

TEST(AshBatch, MidBatchFaultDoesNotPoisonTheRest) {
  BatchWorld w;
  w.send_train(us(500.0), {false, false, true, false, false});
  w.sim.run(us(5000.0));

  const AshStats& s = w.ash_b->stats(w.ash_id);
  EXPECT_EQ(s.invocations, 5u);
  EXPECT_EQ(s.commits, 4u);
  EXPECT_EQ(w.counter(), 4u);
  // Exactly one fault, and it is the divide.
  EXPECT_EQ(s.involuntary_aborts, 1u);
  EXPECT_EQ(
      s.by_outcome[static_cast<std::size_t>(vcode::Outcome::DivideByZero)],
      1u);
  EXPECT_TRUE(s.last_fault.valid);
  EXPECT_EQ(s.last_fault.outcome, vcode::Outcome::DivideByZero);
  // The faulting message is not lost: it fell back to the notify ring.
  EXPECT_EQ(w.server_ring_depth(), 1u);
}

TEST(AshBatch, AdmissionIsRecheckedPerMessageWithinABatch) {
  BatchWorld w;
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 1;  // first fault quarantines immediately
  sup.quarantine_base = us(100000.0);
  w.ash_b->set_supervisor(sup);

  // Poison in the middle of one batch: the two trailing messages must be
  // denied by the freshly-quarantined state, not run.
  w.send_train(us(500.0), {false, false, true, false, false});
  w.sim.run(us(5000.0));

  const AshStats& s = w.ash_b->stats(w.ash_id);
  EXPECT_EQ(s.commits, 2u);
  EXPECT_EQ(w.counter(), 2u);
  EXPECT_EQ(
      s.by_outcome[static_cast<std::size_t>(vcode::Outcome::DivideByZero)],
      1u);
  EXPECT_EQ(s.quarantine_skips, 2u);
  EXPECT_EQ(w.ash_b->health(w.ash_id), Health::Quarantined);
  // Poison + the two skipped messages all fell back to the ring.
  EXPECT_EQ(w.server_ring_depth(), 3u);

  // A later batch while still quarantined bypasses the handler entirely.
  w.send_train(us(6000.0), {false, false});
  w.sim.run(us(10000.0));
  EXPECT_EQ(w.ash_b->stats(w.ash_id).commits, 2u);
  EXPECT_EQ(w.ash_b->stats(w.ash_id).quarantine_skips, 4u);
  EXPECT_EQ(w.server_ring_depth(), 2u);
}

TEST(AshBatch, BatchChargesOneEntryAndClearPlusPerMessageRearm) {
  trace::TracerConfig tc;
  tc.max_cpus = 4;
  trace::Session session(tc);
  BatchWorld w;
  w.send_train(us(500.0), {false, false, false, false});
  w.sim.run(us(5000.0));

  const AshStats& s = w.ash_b->stats(w.ash_id);
  ASSERT_EQ(s.commits, 4u);

  // Keep the snapshot alive: `batch` points into it past the loop.
  const std::vector<trace::Event> events = trace::global().all_events();
  const trace::Event* batch = nullptr;
  for (const auto& ev : events) {
    if (ev.type == trace::EventType::BatchDispatch) {
      ASSERT_EQ(batch, nullptr) << "expected exactly one batch";
      batch = &ev;
    }
  }
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->arg0, 4u);  // offered
  EXPECT_EQ(batch->arg1, 4u);  // executed
  // Charge model: one timer setup + context install for the whole batch,
  // a cheap re-arm for messages 2..N, one timer clear at the end, plus
  // the handlers' own execution cycles (AshStats::cycles).
  const auto& cost = w.b->cost();
  EXPECT_EQ(batch->cycles, cost.ash_timer_setup + cost.ash_context_install +
                               3 * cost.ash_batch_rearm +
                               cost.ash_timer_clear + s.cycles);
  EXPECT_EQ(batch->insns, s.insns);
}

// ------------------------------------------------- sessions across handlers

/// Four poison-pill handlers on four server VCs behind one coalescing
/// queue, for two owners: X runs h0 and h1, Y runs h2 and the prebound
/// h3. A TenantScheduler keeps the per-owner cycle ledger. The server's
/// transmit side is free and instant, so a reply reaches the client at
/// the very cycle its run's charge completes.
struct SessionWorld {
  Simulator sim;
  Node* a;
  Node* b;
  std::unique_ptr<net::An2Device> dev_a;
  std::unique_ptr<net::An2Device> dev_b;
  std::unique_ptr<AshSystem> ash_b;
  std::unique_ptr<TenantScheduler> tenants;
  std::unique_ptr<net::RxQueueSet> rxq;
  int vc[4] = {-1, -1, -1, -1};
  int id[4] = {-1, -1, -1, -1};
  std::uint32_t ctr[4] = {};
  std::uint32_t pid[2] = {};

  SessionWorld() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = std::make_unique<net::An2Device>(*a);
    net::An2Config instant_tx;
    instant_tx.one_way_latency = 0;
    instant_tx.per_packet_overhead = 0;
    instant_tx.bandwidth_mbytes_per_sec = 1e12;
    dev_b = std::make_unique<net::An2Device>(*b, instant_tx);
    dev_a->connect(*dev_b);
    ash_b = std::make_unique<AshSystem>(*b);
    tenants = std::make_unique<TenantScheduler>(*b);
    ash_b->set_tenants(tenants.get());

    net::RxQueueSet::Config qc;
    qc.queues = 1;
    qc.coalesce.enabled = true;
    qc.coalesce.max_frames = 16;
    qc.coalesce.max_delay = us(200.0);
    rxq = std::make_unique<net::RxQueueSet>(*b, qc);
    dev_b->set_rx_queues(rxq.get());

    for (int o = 0; o < 2; ++o) {
      b->kernel().spawn(o == 0 ? "x" : "y", [this, o](Process& self) -> Task {
        pid[o] = self.pid();
        for (int k = 2 * o; k < 2 * o + 2; ++k) {
          AshOptions opts;
          opts.prebound_translation = k == 3;
          std::string error;
          id[k] = ash_b->download(self, poison_pill_ash(), opts, &error);
          EXPECT_GE(id[k], 0) << error;
          vc[k] = dev_b->bind_vc(self);
          const std::uint32_t base = self.segment().base + 0x4000u * k;
          for (std::uint32_t i = 0; i < 16; ++i) {
            dev_b->supply_buffer(vc[k], base + 64u * i, 64);
          }
          ctr[k] = self.segment().base + 0x80000 + 4u * k;
          ash_b->attach(*dev_b, vc[k], id[k], ctr[k]);
        }
        co_await self.sleep_for(us(1e6));
      });
    }
    a->kernel().spawn("client", [this](Process& self) -> Task {
      for (int k = 0; k < 4; ++k) dev_a->bind_vc(self);  // reply sinks
      co_await self.sleep_for(us(1e6));
    });
  }

  /// Send a back-to-back train: element i goes to handler `to[i]`'s VC,
  /// carrying the poison marker where `poison[i]` is set.
  void send_train(sim::Cycles at, std::vector<int> to,
                  std::vector<bool> poison) {
    sim.queue().schedule_at(at, [this, to, poison] {
      const std::uint8_t ok[4] = {1, 2, 3, 4};
      const std::uint8_t bad[4] = {0xef, 0xbe, 0xad, 0xde};  // LE marker
      for (std::size_t i = 0; i < to.size(); ++i) {
        dev_a->send(vc[to[i]], poison[i] ? bad : ok);
      }
    });
  }

  std::uint32_t counter(int k) const {
    std::uint32_t v = 0;
    std::memcpy(&v, b->mem(ctr[k], 4), 4);
    return v;
  }

  std::size_t ring_depth(int k) {
    std::size_t n = 0;
    while (dev_b->poll(vc[k])) ++n;
    return n;
  }

  /// Tenant ledger: each owner was charged exactly its handlers' cycles.
  void expect_ledger_balanced() const {
    for (int o = 0; o < 2; ++o) {
      EXPECT_EQ(tenants->cycles_charged(pid[o]),
                ash_b->stats(id[2 * o]).cycles +
                    ash_b->stats(id[2 * o + 1]).cycles)
          << "owner " << o;
    }
  }
};

std::vector<trace::Event> events_of(trace::EventType type,
                                    std::uint16_t cpu) {
  std::vector<trace::Event> out;
  for (const auto& ev : trace::global().all_events()) {
    if (ev.type == type && ev.cpu == cpu) out.push_back(ev);
  }
  return out;
}

TEST(AshBatch, SessionPaysOneEntryInstallsOnOwnerChangeAndOneClear) {
  trace::TracerConfig tc;
  tc.max_cpus = 4;
  trace::Session session(tc);
  SessionWorld w;
  // One train, one batch, five runs: h0 h0 | h1 | h2 h2 | h0 | h3.
  w.send_train(us(500.0), {0, 0, 1, 2, 2, 0, 3}, std::vector<bool>(7));
  w.sim.run(us(5000.0));

  const std::uint16_t server = w.b->cpu_id();
  const auto fires = events_of(trace::EventType::CoalesceFire, server);
  const auto batches = events_of(trace::EventType::BatchDispatch, server);
  const auto outcomes = events_of(trace::EventType::AshOutcome, server);
  const auto execs = events_of(trace::EventType::VcodeExec, server);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].arg0, 7u);
  ASSERT_EQ(batches.size(), 1u) << "one BatchDispatch per session";
  ASSERT_EQ(outcomes.size(), 7u);
  ASSERT_EQ(execs.size(), 7u);

  std::uint64_t exec_cycles = 0, insns = 0;
  for (int k = 0; k < 4; ++k) {
    const AshStats& s = w.ash_b->stats(w.id[k]);
    EXPECT_EQ(s.commits, s.invocations) << k;
    exec_cycles += s.cycles;
    insns += s.insns;
  }
  EXPECT_EQ(w.counter(0), 3u);
  EXPECT_EQ(w.counter(1), 1u);
  EXPECT_EQ(w.counter(2), 2u);
  EXPECT_EQ(w.counter(3), 1u);

  // Entry per message: the timer setup and X's context for the first;
  // a re-arm for every later one, plus a context install at X->Y and
  // Y->X. h3 is prebound, so its switch back to Y installs nothing.
  const sim::CostModel& c = w.b->cost();
  const sim::Cycles entry[7] = {
      c.ash_timer_setup + c.ash_context_install,
      c.ash_batch_rearm,
      c.ash_batch_rearm,
      c.ash_batch_rearm + c.ash_context_install,
      c.ash_batch_rearm,
      c.ash_batch_rearm + c.ash_context_install,
      c.ash_batch_rearm};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(outcomes[i].cycles, entry[i] + execs[i].cycles) << i;
  }
  EXPECT_EQ(batches[0].id, w.id[0]);  // the first offered handler
  EXPECT_EQ(batches[0].arg0, 7u);     // offered
  EXPECT_EQ(batches[0].arg1, 7u);     // executed
  EXPECT_EQ(batches[0].cycles, c.ash_timer_setup +
                                   3 * c.ash_context_install +
                                   6 * c.ash_batch_rearm +
                                   c.ash_timer_clear + exec_cycles);
  EXPECT_EQ(batches[0].insns, insns);

  // Each run's replies leave when the charges up to and including that
  // run complete; the last run's charge also carries the timer clear.
  const std::size_t run_end[] = {2, 3, 5, 6, 7};
  sim::Cycles done = fires[0].time + fires[0].cycles;
  std::vector<sim::Cycles> want;
  std::size_t m = 0;
  for (const std::size_t end : run_end) {
    const std::size_t begin = m;
    for (; m < end; ++m) done += outcomes[m].cycles;
    if (end == 7) done += c.ash_timer_clear;
    want.insert(want.end(), end - begin, done);
  }
  std::vector<sim::Cycles> got;
  for (const auto& ev :
       events_of(trace::EventType::FrameArrival, w.a->cpu_id())) {
    got.push_back(ev.time);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  w.expect_ledger_balanced();
}

TEST(AshBatch, SessionFaultInOneHandlerLeavesTheOthersCommitted) {
  SessionWorld w;
  // h2's first message is poison, mid-session: h2 h2 sit between runs of
  // X's handlers and before the prebound h3.
  w.send_train(us(500.0), {0, 0, 1, 2, 2, 0, 3},
               {false, false, false, true, false, false, false});
  w.sim.run(us(5000.0));

  EXPECT_EQ(w.ash_b->stats(w.id[0]).commits, 3u);
  EXPECT_EQ(w.ash_b->stats(w.id[1]).commits, 1u);
  EXPECT_EQ(w.ash_b->stats(w.id[3]).commits, 1u);
  const AshStats& h2 = w.ash_b->stats(w.id[2]);
  EXPECT_EQ(h2.invocations, 2u);
  EXPECT_EQ(h2.commits, 1u);
  EXPECT_EQ(
      h2.by_outcome[static_cast<std::size_t>(vcode::Outcome::DivideByZero)],
      1u);
  EXPECT_EQ(w.counter(0), 3u);
  EXPECT_EQ(w.counter(1), 1u);
  EXPECT_EQ(w.counter(2), 1u);
  EXPECT_EQ(w.counter(3), 1u);
  // Only the poison fell back to its owner's ring.
  EXPECT_EQ(w.ring_depth(0), 0u);
  EXPECT_EQ(w.ring_depth(1), 0u);
  EXPECT_EQ(w.ring_depth(2), 1u);
  EXPECT_EQ(w.ring_depth(3), 0u);
  w.expect_ledger_balanced();
}

TEST(AshBatch, SessionDrainsARevokedHandlersOwnRunOnly) {
  trace::TracerConfig tc;
  tc.max_cpus = 4;
  trace::Session session(tc);
  SessionWorld w;
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 1;
  sup.max_quarantines = 1;  // a handler's first fault revokes it
  w.ash_b->set_supervisor(sup);
  // Runs: h1 (poison) h1 h1 | h2 | h1 | h0. The poison revokes h1 while
  // the rest of the batch is still queued behind it.
  w.send_train(us(500.0), {1, 1, 1, 2, 1, 0},
               {true, false, false, false, false, false});
  w.sim.run(us(5000.0));

  const AshStats& h1 = w.ash_b->stats(w.id[1]);
  EXPECT_EQ(w.ash_b->health(w.id[1]), Health::Revoked);
  EXPECT_EQ(h1.invocations, 1u);
  // Its run's second message is denied at admission and the third is
  // drained; its later run in the same session is denied at admission.
  EXPECT_EQ(h1.revoked_skips, 3u);
  const TenantAccount* x = w.tenants->find_account(w.pid[0]);
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->drained_frames, 1u);
  // The other handlers' runs in the same session, X's h0 included, ran.
  EXPECT_EQ(w.ash_b->health(w.id[0]), Health::Healthy);
  EXPECT_EQ(w.ash_b->stats(w.id[0]).commits, 1u);
  EXPECT_EQ(w.ash_b->stats(w.id[2]).commits, 1u);
  EXPECT_EQ(w.ash_b->stats(w.id[0]).revoked_skips, 0u);
  EXPECT_EQ(w.ash_b->stats(w.id[2]).revoked_skips, 0u);
  EXPECT_EQ(w.ring_depth(1), 4u);
  EXPECT_EQ(w.ring_depth(0), 0u);
  EXPECT_EQ(w.ring_depth(2), 0u);

  const auto batches =
      events_of(trace::EventType::BatchDispatch, w.b->cpu_id());
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].id, w.id[1]);
  EXPECT_EQ(batches[0].arg0, 6u);  // offered
  EXPECT_EQ(batches[0].arg1, 3u);  // executed: the poison, h2, h0
  w.expect_ledger_balanced();
}

}  // namespace
}  // namespace ash::core
