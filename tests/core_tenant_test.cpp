// Multi-tenant isolation: the DRR cycle scheduler in isolation, download
// admission control (buffer pool + handler count), the cycle quota
// end-to-end through AshSystem, the revoke-mid-batch drain regression,
// and a randomized cycle-conservation property across fault/quarantine/
// revoke churn.
#include "core/tenant.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/ash.hpp"
#include "core/supervisor.hpp"
#include "net/an2.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vcode/builder.hpp"

namespace ash::core {
namespace {

using sim::MemSegment;
using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;
using vcode::Builder;
using vcode::kRegArg0;
using vcode::kRegArg1;
using vcode::Reg;

/// Faults with DivideByZero iff the first message word is zero — cheap,
/// data-dependent churn for the supervisor without burning timer budget.
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

constexpr std::size_t kCycleQuota =
    static_cast<std::size_t>(TenantDeny::CycleQuota);
constexpr std::size_t kRevokedDeny =
    static_cast<std::size_t>(TenantDeny::Revoked);

// ---------------------------------------------------------------------------
// The DRR engine alone: accounts, weights, replenish, burst cap.
// ---------------------------------------------------------------------------

TEST(TenantScheduler, DrrWeightsProportionAndOverdrawRepayment) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process p1(n, 1, "t1", MemSegment{0, 4096});
  Process p2(n, 2, "t2", MemSegment{4096, 4096});
  TenantSchedulerConfig cfg;
  cfg.replenish_period = 1000;  // raw cycles: one round per 1000
  cfg.quantum_per_weight = 100;
  cfg.burst_rounds = 2;
  TenantScheduler ts(n, cfg);
  ts.set_weight(p2, 3);

  // t=0: a fresh account banks exactly one round, scaled by weight.
  EXPECT_TRUE(ts.admit_cycles(p1));
  ts.charge(p1, 100);  // deficit -> 0: spent the round exactly
  EXPECT_FALSE(ts.admit_cycles(p1));
  EXPECT_TRUE(ts.admit_cycles(p2));
  ts.charge(p2, 250);  // weight-3 round = 300; 50 left
  EXPECT_TRUE(ts.admit_cycles(p2));
  ts.charge(p2, 350);  // one admitted run may overdraw: deficit -300
  EXPECT_FALSE(ts.admit_cycles(p2));

  const TenantAccount* a1 = ts.find_account(1);
  const TenantAccount* a2 = ts.find_account(2);
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a1->denials[kCycleQuota], 1u);
  EXPECT_EQ(a2->denials[kCycleQuota], 1u);
  EXPECT_EQ(a1->cycles_charged, 100u);
  EXPECT_EQ(a2->cycles_charged, 600u);
  EXPECT_EQ(a2->runs, 2u);

  sim.queue().schedule_at(1500, [&] {
    // One round elapsed. p1 earns 100 and runs again; p2's earnings only
    // repay the overdraw (-300 + 300 = 0): the debt is real.
    EXPECT_TRUE(ts.admit_cycles(p1));
    EXPECT_FALSE(ts.admit_cycles(p2));
  });
  sim.queue().schedule_at(5500, [&] {
    // Four more rounds elapsed but the bank caps at burst_rounds = 2
    // rounds: p1 can spend at most 200, not 500.
    EXPECT_TRUE(ts.admit_cycles(p1));
    ts.charge(p1, 200);
    EXPECT_FALSE(ts.admit_cycles(p1));
    // p2 is back in credit (capped at 2 x 300).
    EXPECT_TRUE(ts.admit_cycles(p2));
    ts.charge(p2, 600);
    EXPECT_FALSE(ts.admit_cycles(p2));
  });
  sim.run();
}

TEST(TenantScheduler, RevokedAccountIsDeniedAndItsDebtWrittenOff) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process p(n, 5, "t", MemSegment{0, 4096});
  TenantSchedulerConfig cfg;
  cfg.replenish_period = 1000;
  cfg.quantum_per_weight = 100;
  TenantScheduler ts(n, cfg);

  EXPECT_TRUE(ts.admit_cycles(p));
  ts.charge(p, 5000);  // deep overdraw
  ts.on_owner_revoked(p);

  const TenantAccount* a = ts.find_account(5);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->revoked);
  EXPECT_EQ(a->deficit, 0);  // the write-off: no debt survives revocation
  EXPECT_FALSE(ts.admit_cycles(p));
  EXPECT_EQ(a->denials[kRevokedDeny], 1u);
  // The ledger itself is untouched by revocation.
  EXPECT_EQ(a->cycles_charged, 5000u);

  // RX admission is denied too; drained frames are recorded.
  EXPECT_FALSE(ts.try_admit(&p));
  ts.note_drained(p, 3);
  EXPECT_EQ(a->drained_frames, 3u);
}

// ---------------------------------------------------------------------------
// Download admission: buffer-pool share and handler-count caps.
// ---------------------------------------------------------------------------

TEST(TenantAdmission, BufferAndHandlerCapsRejectWithTypedDenials) {
  Simulator sim;
  Node& n = sim.add_node("n");
  Process p(n, 3, "t", MemSegment{0, 4096});
  TenantSchedulerConfig cfg;
  cfg.buffer_bytes_cap = 100;
  cfg.max_handlers = 3;
  TenantScheduler ts(n, cfg);

  TenantDeny why{};
  EXPECT_TRUE(ts.admit_download(p, 60, &why));
  EXPECT_FALSE(ts.admit_download(p, 60, &why));  // 120 > 100
  EXPECT_EQ(why, TenantDeny::BufferQuota);
  EXPECT_TRUE(ts.admit_download(p, 40, &why));  // exactly at the cap
  EXPECT_TRUE(ts.admit_download(p, 0, &why));
  EXPECT_FALSE(ts.admit_download(p, 0, &why));  // 4th handler
  EXPECT_EQ(why, TenantDeny::DownloadQuota);

  const TenantAccount* a = ts.find_account(3);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->handlers, 3u);
  EXPECT_EQ(a->buffer_bytes, 100u);
  EXPECT_EQ(a->denials[static_cast<std::size_t>(TenantDeny::BufferQuota)],
            1u);
  EXPECT_EQ(a->denials[static_cast<std::size_t>(TenantDeny::DownloadQuota)],
            1u);

  ts.on_owner_revoked(p);
  EXPECT_FALSE(ts.admit_download(p, 0, &why));
  EXPECT_EQ(why, TenantDeny::Revoked);

  // The observability surfaces (ashtool tenants): every denial class has
  // a stable name and the JSON view carries the full ledger.
  EXPECT_STREQ(to_string(TenantDeny::CycleQuota), "cycle-quota");
  EXPECT_STREQ(to_string(TenantDeny::RxQuota), "rx-quota");
  EXPECT_STREQ(to_string(TenantDeny::BufferQuota), "buffer-quota");
  EXPECT_STREQ(to_string(TenantDeny::DownloadQuota), "download-quota");
  EXPECT_STREQ(to_string(TenantDeny::Revoked), "revoked");
  const std::string json = ts.tenants_json();
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"revoked\":true"), std::string::npos);
  EXPECT_NE(json.find("\"handlers\":3"), std::string::npos);
  EXPECT_NE(json.find("\"buffer_quota\":1"), std::string::npos);
  EXPECT_NE(json.find("\"download_quota\":1"), std::string::npos);
}

TEST(TenantAdmission, DownloadPathRejectsGracefullyWithTypedError) {
  Simulator sim;
  Node& n = sim.add_node("n");
  AshSystem ash(n);
  TenantSchedulerConfig cfg;
  cfg.max_handlers = 1;
  TenantScheduler ts(n, cfg);
  ash.set_tenants(&ts);

  n.kernel().spawn("tenant", [&](Process& self) -> Task {
    std::string error;
    const int id0 = ash.download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id0, 0) << error;
    // The image's kernel footprint was charged to the tenant.
    const TenantAccount* a = ts.find_account(self.pid());
    if (a == nullptr) {
      ADD_FAILURE() << "no tenant account after download";
      co_return;
    }
    EXPECT_EQ(a->handlers, 1u);
    EXPECT_GT(a->buffer_bytes, 0u);

    // Second install crosses max_handlers: a typed, graceful denial —
    // no translation work, no slot burned, the first handler untouched.
    const int id1 = ash.download(self, div_by_word0_ash(), {}, &error);
    EXPECT_EQ(id1, -1);
    EXPECT_EQ(error, "tenant admission denied: download-quota");
    EXPECT_EQ(a->handlers, 1u);
    EXPECT_EQ(ash.health(id0), Health::Healthy);
    co_await self.compute(1);
  });
  sim.run();
}

// ---------------------------------------------------------------------------
// The cycle quota end-to-end through the AN2 receive path.
// ---------------------------------------------------------------------------

TEST(TenantCycles, ExhaustedAccountDefersToNormalDelivery) {
  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  net::An2Device dev_a(a);
  net::An2Device dev_b(b);
  dev_a.connect(dev_b);
  AshSystem ash(b);
  TenantSchedulerConfig cfg;
  cfg.quantum_per_weight = 1;         // one run empties the account
  cfg.burst_rounds = 1;
  cfg.replenish_period = us(1e5);     // no replenish inside the test
  TenantScheduler ts(b, cfg);
  ash.set_tenants(&ts);

  std::uint32_t pid = 0;
  b.kernel().spawn("tenant", [&](Process& self) -> Task {
    pid = self.pid();
    const int vc = dev_b.bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      dev_b.supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    const int id = ash.download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    ash.attach(dev_b, vc, id);
    co_await self.sleep_for(us(20000.0));

    // Run 1 spent the whole account; runs 2 and 3 were deferred at
    // near-zero cost and the messages took the normal delivery path —
    // the tenant's backlog is its own problem.
    const AshStats& s = ash.stats(id);
    EXPECT_EQ(s.invocations, 1u);
    EXPECT_EQ(s.commits, 1u);
    EXPECT_EQ(s.tenant_deferrals, 2u);
    int delivered = 0;
    while (dev_b.poll(vc).has_value()) ++delivered;
    EXPECT_EQ(delivered, 2);

    const TenantAccount* acct = ts.find_account(pid);
    if (acct == nullptr) {
      ADD_FAILURE() << "no tenant account after traffic";
      co_return;
    }
    EXPECT_EQ(acct->runs, 1u);
    EXPECT_EQ(acct->cycles_charged, s.cycles);
    EXPECT_EQ(acct->denials[kCycleQuota], 2u);

    // Both views name the condition.
    EXPECT_NE(ash.format_status().find("cycle-quota deferrals=2"),
              std::string::npos);
    EXPECT_NE(ts.format_table().find("cycle-quota=2"), std::string::npos);
  });
  for (int i = 1; i <= 3; ++i) {
    sim.queue().schedule_at(us(1000.0 * i),
                            [&] { dev_a.send(0, kGoodMsg); });
  }
  sim.run();
}

// ---------------------------------------------------------------------------
// Revoke-mid-batch: coalesced frames for a freshly revoked owner drain
// with counted denials, not a per-frame trip through admission.
// ---------------------------------------------------------------------------

TEST(TenantRevoke, MidBatchRevocationDrainsPendingCoalescedFrames) {
  trace::TracerConfig tc;
  tc.max_cpus = 4;
  trace::Session session(tc);

  Simulator sim;
  Node& a = sim.add_node("a");
  Node& b = sim.add_node("b");
  net::An2Device dev_a(a);
  net::An2Device dev_b(b);
  dev_a.connect(dev_b);
  AshSystem ash(b);
  TenantScheduler ts(b);  // generous defaults: only revocation bites
  ash.set_tenants(&ts);

  // One fault revokes the whole owner, mid-batch.
  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 100;
  sup.owner_fault_limit = 1;
  ash.set_supervisor(sup);

  net::RxQueueSet::Config qc;
  qc.queues = 1;
  qc.coalesce.enabled = true;
  qc.coalesce.max_frames = 16;
  qc.coalesce.max_delay = us(200.0);
  qc.quota = &ts;
  net::RxQueueSet rxq(b, qc);
  dev_b.set_rx_queues(&rxq);

  int ash_id = -1;
  std::uint32_t pid = 0;
  b.kernel().spawn("tenant", [&](Process& self) -> Task {
    pid = self.pid();
    const int vc = dev_b.bind_vc(self);
    for (int i = 0; i < 16; ++i) {
      dev_b.supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    ash_id = ash.download(self, div_by_word0_ash(), {}, &error);
    EXPECT_GE(ash_id, 0) << error;
    ash.attach(dev_b, vc, ash_id);
    co_await self.sleep_for(us(1e6));
  });

  // One back-to-back train -> one coalesced batch: good, BAD, good, good.
  // The fault on message 2 revokes the owner; 3 is denied by admission
  // and 4 is drained without re-entering the admission path.
  sim.queue().schedule_at(us(500.0), [&] {
    dev_a.send(0, kGoodMsg);
    dev_a.send(0, kBadMsg);
    dev_a.send(0, kGoodMsg);
    dev_a.send(0, kGoodMsg);
  });
  sim.run(us(5000.0));

  const AshStats& s = ash.stats(ash_id);
  EXPECT_EQ(s.invocations, 2u);  // good run + the fault
  EXPECT_EQ(s.commits, 1u);
  EXPECT_EQ(s.involuntary_aborts, 1u);
  EXPECT_EQ(ash.health(ash_id), Health::Revoked);
  // Message 3 hit admission (revoked deny); message 4 was drained. Both
  // count as revoked skips — the drain changes the cost, not the story.
  EXPECT_EQ(s.revoked_skips, 2u);
  const TenantAccount* acct = ts.find_account(pid);
  ASSERT_NE(acct, nullptr);
  EXPECT_TRUE(acct->revoked);
  EXPECT_EQ(acct->drained_frames, 1u);

  // The drain emits the same per-frame denial events the admission path
  // would have: observers cannot tell the fast path from the slow one.
  std::uint64_t revoked_events = 0;
  for (const auto& ev : trace::global().all_events()) {
    if (ev.type == trace::EventType::AshDenied &&
        ev.arg0 ==
            static_cast<std::uint32_t>(trace::DenyReason::Revoked)) {
      ++revoked_events;
    }
  }
  EXPECT_EQ(revoked_events, 2u);
}

// ---------------------------------------------------------------------------
// Randomized conservation: cycles charged to tenants == cycles recorded
// on their handlers, across fault / quarantine / revoke churn.
// ---------------------------------------------------------------------------

TEST(TenantConservation, ChargesMatchHandlerCyclesAcrossChurn) {
  Simulator sim;
  Node& n = sim.add_node("n");
  AshSystem ash(n);
  TenantSchedulerConfig cfg;
  // A run of the divide handler costs ~70 cycles, so ~1.4 runs per round
  // per weight unit: tight enough that the quota denies a real fraction
  // of the churn while still admitting plenty.
  cfg.quantum_per_weight = 100;
  cfg.replenish_period = us(2000.0);
  cfg.burst_rounds = 1;
  TenantScheduler ts(n, cfg);
  ash.set_tenants(&ts);

  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 3;
  sup.quarantine_base = us(200.0);
  sup.max_quarantines = 3;  // policy revocations join the churn
  ash.set_supervisor(sup);

  constexpr int kTenants = 6;
  struct Tenant {
    Process* proc = nullptr;
    std::vector<int> ids;
    std::uint32_t good_addr = 0;
    std::uint32_t bad_addr = 0;
  };
  std::vector<Tenant> tenants(kTenants);

  for (int t = 0; t < kTenants; ++t) {
    n.kernel().spawn("tenant" + std::to_string(t),
                     [&, t](Process& self) -> Task {
      Tenant& me = tenants[t];
      me.proc = &self;
      ts.set_weight(self, static_cast<std::uint32_t>(1 + t % 3));
      std::string error;
      for (int h = 0; h < 2; ++h) {
        const int id = ash.download(self, div_by_word0_ash(), {}, &error);
        EXPECT_GE(id, 0) << error;
        if (id >= 0) me.ids.push_back(id);
      }
      me.good_addr = self.segment().base + 0x2000;
      me.bad_addr = self.segment().base + 0x2010;
      std::memcpy(n.mem(me.good_addr, 4), kGoodMsg, 4);
      std::memcpy(n.mem(me.bad_addr, 4), kBadMsg, 4);
      co_await self.sleep_for(us(1e6));
    });
  }

  // 400 invocations at random times over 50 ms, ~30% faulting, with two
  // random owner revocations and random re-weights thrown in.
  util::Rng rng(0xa5a5'1234'dead'beefull);
  for (int i = 0; i < 400; ++i) {
    const int t = static_cast<int>(rng.next() % kTenants);
    const bool bad = rng.next() % 10 < 3;
    const sim::Cycles at = us(100.0 + 49000.0 * (rng.next() % 1000) / 1000.0);
    sim.queue().schedule_at(at, [&, t, bad] {
      Tenant& vict = tenants[t];
      if (vict.ids.empty()) return;
      const int id = vict.ids[0];
      MsgContext m;
      m.addr = bad ? vict.bad_addr : vict.good_addr;
      m.len = 4;
      ash.invoke(
          id, m, [](int, std::span<const std::uint8_t>) { return true; },
          0);
      // Second handler, same owner: exercises cross-handler aggregation.
      if (vict.ids.size() > 1) {
        ash.invoke(
            vict.ids[1], m,
            [](int, std::span<const std::uint8_t>) { return true; }, 0);
      }
    });
  }
  sim.queue().schedule_at(us(20000.0), [&] {
    ash.revoke_owner(*tenants[1].proc);
  });
  sim.queue().schedule_at(us(35000.0), [&] {
    ash.revoke_owner(*tenants[4].proc);
  });
  for (int i = 0; i < 8; ++i) {
    sim.queue().schedule_at(us(5000.0 * (i + 1)), [&, i] {
      ts.set_weight(*tenants[i % kTenants].proc,
                    static_cast<std::uint32_t>(1 + i % 4));
    });
  }
  sim.run(us(60000.0));

  // The conservation property: for every tenant, the scheduler's ledger
  // equals the sum over its handlers of the cycles those handlers
  // actually ran — no double-charge, no refund leak, regardless of
  // faults, quarantines, deferrals, or revocations along the way.
  std::uint64_t total_runs = 0, total_denials = 0;
  for (const Tenant& t : tenants) {
    ASSERT_NE(t.proc, nullptr);
    std::uint64_t handler_cycles = 0, handler_runs = 0;
    for (const int id : t.ids) {
      handler_cycles += ash.stats(id).cycles;
      handler_runs += ash.stats(id).invocations;
    }
    const TenantAccount* acct = ts.find_account(t.proc->pid());
    ASSERT_NE(acct, nullptr) << t.proc->name();
    EXPECT_EQ(acct->cycles_charged, handler_cycles) << t.proc->name();
    EXPECT_EQ(acct->runs, handler_runs) << t.proc->name();
    total_runs += acct->runs;
    for (const std::uint64_t d : acct->denials) total_denials += d;
  }
  // Non-vacuity: the churn actually ran handlers AND denied admissions.
  EXPECT_GT(total_runs, 30u);
  EXPECT_GT(total_denials, 10u);
  EXPECT_TRUE(tenants[1].ids.empty() ||
              ash.health(tenants[1].ids[0]) == Health::Revoked);
}

}  // namespace
}  // namespace ash::core
