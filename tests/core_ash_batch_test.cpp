// Batched ASH dispatch (AshSystem::dispatch on a host CPU): charge
// amortization, and the containment property — a handler that faults
// mid-batch must not poison the rest of the batch, with admission
// re-checked per message so supervisor state changes take effect within
// the batch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/ash.hpp"
#include "core/supervisor.hpp"
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

}  // namespace
}  // namespace ash::core
