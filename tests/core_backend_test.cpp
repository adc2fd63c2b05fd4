// Backend selection at the AshSystem level: the interp / jit knob must be
// a pure execution-path selector. Every kernel-visible observable — commit
// counters, abort taxonomy, fault records, simulated cycles, supervisor
// containment decisions, owner memory — must be bit-identical on both
// backends.
#include "core/ash.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/an2.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "vcode/backend.hpp"
#include "vcode/builder.hpp"

namespace ash::core {
namespace {

using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;
using vcode::Backend;
using vcode::Builder;
using vcode::kRegArg0;
using vcode::kRegArg2;
using vcode::Reg;

struct AshWorld {
  Simulator sim;
  sim::Node* a;
  sim::Node* b;
  net::An2Device* dev_a;
  net::An2Device* dev_b;
  AshSystem* ash_b;

  AshWorld() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new net::An2Device(*a);
    dev_b = new net::An2Device(*b);
    dev_a->connect(*dev_b);
    ash_b = new AshSystem(*b);
  }
  ~AshWorld() {
    delete ash_b;
    delete dev_a;
    delete dev_b;
  }
};

/// Counter-increment handler: loads the counter at r3, adds one, stores it
/// back, commits.
vcode::Program increment_ash() {
  Builder b;
  const Reg v = b.reg();
  b.lw(v, kRegArg2, 0);
  b.addiu(v, v, 1);
  b.sw(v, kRegArg2, 0);
  b.movi(kRegArg0, 1);
  b.halt();
  return b.take();
}

/// Everything a scenario run observes; compared field-by-field across
/// backends.
struct Snapshot {
  Backend backend = Backend::Interp;
  AshStats stats;
  vcode::BackendStats bstats;
  Health health = Health::Healthy;
  std::uint32_t counter = 0;
  sim::Cycles end_time = 0;
};

void expect_equivalent(const Snapshot& ref, const Snapshot& got,
                       const char* tag) {
  EXPECT_EQ(ref.stats.invocations, got.stats.invocations) << tag;
  EXPECT_EQ(ref.stats.commits, got.stats.commits) << tag;
  EXPECT_EQ(ref.stats.voluntary_aborts, got.stats.voluntary_aborts) << tag;
  EXPECT_EQ(ref.stats.involuntary_aborts, got.stats.involuntary_aborts)
      << tag;
  EXPECT_EQ(ref.stats.cycles, got.stats.cycles) << tag;
  EXPECT_EQ(ref.stats.insns, got.stats.insns) << tag;
  EXPECT_EQ(ref.stats.by_outcome, got.stats.by_outcome) << tag;
  EXPECT_EQ(ref.stats.quarantine_skips, got.stats.quarantine_skips) << tag;
  EXPECT_EQ(ref.stats.last_fault.valid, got.stats.last_fault.valid) << tag;
  if (ref.stats.last_fault.valid && got.stats.last_fault.valid) {
    EXPECT_EQ(static_cast<int>(ref.stats.last_fault.outcome),
              static_cast<int>(got.stats.last_fault.outcome))
        << tag;
    EXPECT_EQ(ref.stats.last_fault.pc, got.stats.last_fault.pc) << tag;
    EXPECT_EQ(ref.stats.last_fault.insns, got.stats.last_fault.insns) << tag;
    EXPECT_EQ(ref.stats.last_fault.cycles, got.stats.last_fault.cycles)
        << tag;
    EXPECT_EQ(ref.stats.last_fault.at, got.stats.last_fault.at) << tag;
  }
  EXPECT_EQ(static_cast<int>(ref.health), static_cast<int>(got.health))
      << tag;
  EXPECT_EQ(ref.counter, got.counter) << tag;
  EXPECT_EQ(ref.end_time, got.end_time) << tag;
  // Run counts must line up too, however the backend tracks them.
  EXPECT_EQ(ref.bstats.runs, got.bstats.runs) << tag;
}

/// Run `prog` under `be` against `n_msgs` arriving messages and snapshot
/// every kernel observable. `sup`, when enabled, arms the supervisor.
Snapshot run_scenario(const vcode::Program& prog, Backend be, int n_msgs,
                      const SupervisorConfig& sup = {}) {
  AshWorld w;
  Snapshot snap;
  if (sup.enabled) w.ash_b->set_supervisor(sup);
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const std::uint32_t counter_addr = self.segment().base + 0x200;
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 16; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    AshOptions opts;
    opts.backend = be;
    const int id = w.ash_b->download(self, prog, opts, &error);
    EXPECT_GE(id, 0) << error;
    EXPECT_EQ(w.ash_b->backend(id), be);
    w.ash_b->attach_an2(*w.dev_b, vc, id, counter_addr);
    co_await self.sleep_for(us(400000.0));
    snap.backend = w.ash_b->backend(id);
    snap.stats = w.ash_b->stats(id);
    snap.bstats = w.ash_b->backend_stats(id);
    snap.health = w.ash_b->supervisor_state(id).health;
    std::memcpy(&snap.counter, w.b->mem(counter_addr, 4), 4);
  });
  for (int i = 0; i < n_msgs; ++i) {
    w.sim.queue().schedule_at(us(200.0 * (i + 1)), [&w, i] {
      const std::uint8_t m[] = {static_cast<std::uint8_t>(i), 2, 3, 4};
      w.dev_a->send(0, m);
    });
  }
  w.sim.run();
  snap.end_time = w.sim.now();
  return snap;
}

void expect_backends_equivalent(const vcode::Program& prog, int n_msgs,
                                const SupervisorConfig& sup = {}) {
  const Snapshot i = run_scenario(prog, Backend::Interp, n_msgs, sup);
  const Snapshot j = run_scenario(prog, Backend::Jit, n_msgs, sup);
  EXPECT_EQ(i.backend, Backend::Interp);
  EXPECT_EQ(j.backend, Backend::Jit);
  expect_equivalent(i, j, "jit-vs-interp");
}

TEST(BackendEquivalence, CommitPathCountersAndMemory) {
  expect_backends_equivalent(increment_ash(), 5);
  const Snapshot j = run_scenario(increment_ash(), Backend::Jit, 5);
  EXPECT_EQ(j.stats.commits, 5u);
  EXPECT_EQ(j.counter, 5u);
  EXPECT_EQ(j.bstats.backend, Backend::Jit);
  EXPECT_EQ(j.bstats.runs, 5u);
  EXPECT_GT(j.bstats.superblocks, 0u);
  EXPECT_GT(j.bstats.emitted_bytes, 0u);
}

TEST(BackendEquivalence, BudgetExhaustionAbortPath) {
  // Runaway handler: the timer budget kills it; the abort outcome, fault
  // pc, burned cycles, and fault timestamps must match across backends.
  Builder bld;
  vcode::Label loop = bld.label();
  bld.bind(loop);
  bld.jmp(loop);
  const vcode::Program prog = bld.take();
  expect_backends_equivalent(prog, 3);
  const Snapshot j = run_scenario(prog, Backend::Jit, 3);
  EXPECT_EQ(j.stats.involuntary_aborts, 3u);
  ASSERT_TRUE(j.stats.last_fault.valid);
  EXPECT_EQ(j.stats.last_fault.outcome, vcode::Outcome::BudgetExceeded);
}

TEST(BackendEquivalence, SandboxedWildStoreRewriteIdentical) {
  // Out-of-segment store: the SFI rewrite pins it inside the owner
  // segment, so the run commits — and must do so identically (cycles,
  // memory effect) on every backend.
  Builder bld;
  const Reg addr = bld.reg();
  const Reg v = bld.reg();
  bld.movi(addr, 3u * sim::Kernel::kSegmentSize + 0x40);
  bld.movi(v, 0xdead);
  bld.sw(v, addr, 0);
  bld.movi(kRegArg0, 1);
  bld.halt();
  const vcode::Program prog = bld.take();
  expect_backends_equivalent(prog, 3);
  const Snapshot j = run_scenario(prog, Backend::Jit, 3);
  EXPECT_EQ(j.stats.commits, 3u);
}

TEST(BackendEquivalence, FaultingHandlerQuarantinedAtSameInvocation) {
  // Divide-by-zero every run; with the supervisor armed the handler must
  // cross into quarantine at the same invocation and with the same skip
  // counters and fault record on every backend.
  Builder bld;
  const Reg q = bld.reg();
  bld.divu(q, kRegArg0, vcode::kRegZero);
  bld.halt();
  const vcode::Program prog = bld.take();

  SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 2;
  sup.fault_window = us(100000.0);
  sup.quarantine_base = us(500000.0);  // stays quarantined to the snapshot
  expect_backends_equivalent(prog, 5, sup);

  const Snapshot j = run_scenario(prog, Backend::Jit, 5, sup);
  EXPECT_EQ(j.health, Health::Quarantined);
  EXPECT_GT(j.stats.quarantine_skips, 0u);
  ASSERT_TRUE(j.stats.last_fault.valid);
  EXPECT_EQ(j.stats.last_fault.outcome, vcode::Outcome::DivideByZero);
}

TEST(BackendEquivalence, DivideByZeroFaultPinned) {
  Builder bld;
  const Reg v = bld.reg();
  bld.movi(v, 9);
  bld.divu(v, v, vcode::kRegZero);
  bld.halt();
  const vcode::Program prog = bld.take();
  expect_backends_equivalent(prog, 2);
  const Snapshot j = run_scenario(prog, Backend::Jit, 2);
  ASSERT_TRUE(j.stats.last_fault.valid);
  EXPECT_EQ(j.stats.last_fault.outcome, vcode::Outcome::DivideByZero);
}

TEST(BackendSelection, EnvVarOverridesDownloadOptions) {
  ::setenv("ASH_BACKEND", "interp", 1);
  AshWorld w;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    std::string error;
    const int id = w.ash_b->download(self, increment_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    EXPECT_EQ(w.ash_b->backend(id), Backend::Interp);
    EXPECT_EQ(w.ash_b->jit_backend(id), nullptr);
    EXPECT_EQ(w.ash_b->backend_stats(id).translations, 0u);
    co_await self.compute(1);
  });
  w.sim.run();
  ::unsetenv("ASH_BACKEND");

  // Without the env var the default is the JIT, and the retired CodeCache
  // enumerator resolves to it as well.
  AshWorld w2;
  w2.b->kernel().spawn("owner", [&](Process& self) -> Task {
    std::string error;
    const int id = w2.ash_b->download(self, increment_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    EXPECT_EQ(w2.ash_b->backend(id), Backend::Jit);
    EXPECT_NE(w2.ash_b->jit_backend(id), nullptr);
    AshOptions opts;
    opts.backend = Backend::CodeCache;
    const int retired = w2.ash_b->download(self, increment_ash(), opts, &error);
    EXPECT_GE(retired, 0) << error;
    EXPECT_EQ(w2.ash_b->backend(retired), Backend::Jit);
    EXPECT_EQ(w2.ash_b->backend_stats(retired).translations, 1u);
    co_await self.compute(1);
  });
  w2.sim.run();
}

}  // namespace
}  // namespace ash::core
