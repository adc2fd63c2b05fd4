#include "core/ash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "core/ash_env.hpp"
#include "core/upcall.hpp"
#include "dilp/stdpipes.hpp"
#include "sandbox/sfi.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/checksum.hpp"
#include "vcode/builder.hpp"
#include "vcode/jit/jit.hpp"

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

/// Remote-increment handler (the Table V workload): r3 = address of the
/// counter in the owner's memory; loads it, increments, stores back, and
/// replies with the original 4-byte message.
vcode::Program remote_increment_ash() {
  Builder b;
  const Reg v = b.reg();
  b.lw(v, kRegArg2, 0);          // counter value
  b.addiu(v, v, 1);
  b.sw(v, kRegArg2, 0);
  b.t_send(kRegArg3, kRegArg0, kRegArg1);  // echo the message back
  b.movi(kRegArg0, 1);
  b.halt();
  return b.take();
}

struct AshWorld {
  Simulator sim;
  Node* a;
  Node* b;
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

TEST(AshSystem, DownloadSandboxesByDefault) {
  AshWorld w;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    std::string error;
    sandbox::Report report;
    const int id = w.ash_b->download(self, remote_increment_ash(), {},
                                     &error, &report);
    EXPECT_GE(id, 0) << error;
    EXPECT_TRUE(w.ash_b->program(id).sandboxed);
    EXPECT_GT(report.added(), 0u);
    co_await self.compute(1);
  });
  w.sim.run();
}

TEST(AshSystem, DownloadRejectsFloatingPoint) {
  AshWorld w;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    Builder bld;
    bld.fadd(kRegArg0, kRegArg0, kRegArg1);
    bld.halt();
    std::string error;
    EXPECT_EQ(w.ash_b->download(self, bld.take(), {}, &error), -1);
    EXPECT_FALSE(error.empty());
    AshOptions unsafe;
    unsafe.sandboxed = false;
    EXPECT_EQ(w.ash_b->download(self, bld.take(), unsafe, &error), -1);
    co_await self.compute(1);
  });
  w.sim.run();
}

TEST(AshSystem, RemoteIncrementEndToEnd) {
  // Full path: node a sends; the ASH on node b increments a counter in the
  // owner's memory and replies; node a receives the echo.
  AshWorld w;
  bool echoed = false;
  std::uint32_t counter_addr = 0;

  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    counter_addr = self.segment().base + 0x100;
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    const int id =
        w.ash_b->download(self, remote_increment_ash(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach_an2(*w.dev_b, vc, id, counter_addr);
    // The owner sleeps; the ASH handles everything in kernel context.
    co_await self.sleep_for(us(100000.0));
    EXPECT_EQ(w.ash_b->stats(id).invocations, 3u);
    EXPECT_EQ(w.ash_b->stats(id).commits, 3u);
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    const int vc = w.dev_a->bind_vc(self);
    w.dev_a->supply_buffer(vc, self.segment().base, 64);
    for (int i = 0; i < 3; ++i) {
      const std::uint8_t ping[] = {9, 9, 9, 9};
      co_await self.syscall(w.dev_a->config().tx_kernel_work);
      w.dev_a->send(0, ping);
      co_await w.dev_a->arrival_channel(vc).wait(self);
      const auto d = w.dev_a->poll(vc);
      EXPECT_TRUE(d.has_value());
      if (d) {
        echoed = true;
        w.dev_a->return_buffer(vc, self.segment().base, 64);
      }
    }
  });
  w.sim.run();
  EXPECT_TRUE(echoed);
  const std::uint8_t* ctr = w.b->mem(counter_addr, 4);
  EXPECT_EQ(ctr[0], 3);  // incremented once per message
}

TEST(AshSystem, VoluntaryAbortFallsBackToNormalDelivery) {
  AshWorld w;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    w.dev_b->supply_buffer(vc, self.segment().base, 64);
    Builder bld;
    bld.abort(42);  // always decline
    std::string error;
    const int id = w.ash_b->download(self, bld.take(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach_an2(*w.dev_b, vc, id);
    co_await w.dev_b->arrival_channel(vc).wait(self);
    EXPECT_TRUE(w.dev_b->poll(vc).has_value());  // delivered normally
    EXPECT_EQ(w.ash_b->stats(id).voluntary_aborts, 1u);
    EXPECT_EQ(w.ash_b->stats(id).commits, 0u);
  });
  w.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    w.dev_a->send(0, m);
  });
  w.sim.run();
}

TEST(AshSystem, RunawayHandlerIsInvoluntarilyAborted) {
  AshWorld w;
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    w.dev_b->supply_buffer(vc, self.segment().base, 64);
    Builder bld;
    vcode::Label loop = bld.label();
    bld.bind(loop);
    bld.jmp(loop);  // infinite loop
    std::string error;
    const int id = w.ash_b->download(self, bld.take(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach_an2(*w.dev_b, vc, id);
    co_await w.dev_b->arrival_channel(vc).wait(self);
    EXPECT_TRUE(w.dev_b->poll(vc).has_value());
    EXPECT_EQ(w.ash_b->stats(id).involuntary_aborts, 1u);
    // The handler burned its full timer budget before being killed.
    EXPECT_GE(w.ash_b->stats(id).cycles, w.b->cost().ash_max_runtime);
  });
  w.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    w.dev_a->send(0, m);
  });
  w.sim.run();
}

TEST(AshSystem, WildStoresCannotEscapeOwnerSegment) {
  AshWorld w;
  w.b->kernel().spawn("victim", [](Process& self) -> Task {
    co_await self.sleep_for(us(50000.0));
  });
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    w.dev_b->supply_buffer(vc, self.segment().base, 64);
    Builder bld;
    const Reg addr = bld.reg();
    const Reg v = bld.reg();
    // Try to smash the victim's segment (the first spawned process).
    bld.movi(addr, sim::Kernel::kSegmentSize + 0x10);
    bld.movi(v, 0xffffffffu);
    bld.sw(v, addr, 0);
    bld.movi(kRegArg0, 1);
    bld.halt();
    std::string error;
    const int id = w.ash_b->download(self, bld.take(), {}, &error);
    EXPECT_GE(id, 0) << error;
    w.ash_b->attach_an2(*w.dev_b, vc, id);
    co_await self.sleep_for(us(20000.0));
    EXPECT_EQ(w.ash_b->stats(id).commits, 1u);  // it ran...
  });
  w.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    w.dev_a->send(0, m);
  });
  w.sim.run();
  // ...but the victim's memory is untouched (store was masked into the
  // owner's own segment).
  const std::uint8_t* victim = w.b->mem(sim::Kernel::kSegmentSize + 0x10, 4);
  EXPECT_EQ(victim[0], 0);

  // The same program as an UNSAFE ash would have written there — checked
  // via a fresh world to show the sandbox is what made the difference.
  AshWorld w2;
  w2.b->kernel().spawn("victim", [](Process& self) -> Task {
    co_await self.sleep_for(us(50000.0));
  });
  w2.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w2.dev_b->bind_vc(self);
    w2.dev_b->supply_buffer(vc, self.segment().base, 64);
    Builder bld;
    const Reg addr = bld.reg();
    const Reg v = bld.reg();
    bld.movi(addr, sim::Kernel::kSegmentSize + 0x10);
    bld.movi(v, 0xffffffffu);
    bld.sw(v, addr, 0);
    bld.movi(kRegArg0, 1);
    bld.halt();
    AshOptions unsafe;
    unsafe.sandboxed = false;
    std::string error;
    const int id = w2.ash_b->download(self, bld.take(), unsafe, &error);
    EXPECT_GE(id, 0) << error;
    w2.ash_b->attach_an2(*w2.dev_b, vc, id);
    co_await self.sleep_for(us(20000.0));
  });
  w2.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    w2.dev_a->send(0, m);
  });
  w2.sim.run();
  // Unsafe ASH writes into what is actually the victim's segment — the
  // AshEnv's defence-in-depth only confines to owner+message for loads and
  // owner for stores... so the unsafe handler faults instead of escaping.
  // Either way the victim is protected by the environment:
  const std::uint8_t* victim2 =
      w2.b->mem(sim::Kernel::kSegmentSize + 0x10, 4);
  EXPECT_EQ(victim2[0], 0);
}

TEST(AshSystem, DilpFromHandlerWithPersistentExchange) {
  // The TCP-receive pattern: handler runs a cksum|copy DILP over the
  // message into application memory, reading the accumulator back through
  // the persistent-exchange registers.
  AshWorld w;
  std::uint32_t acc_out = 0;
  std::uint32_t dst_addr = 0;
  const std::vector<std::uint8_t> payload = {1, 2,  3,  4,  5,  6,
                                             7, 8, 9, 10, 11, 12};

  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    w.dev_b->supply_buffer(vc, self.segment().base, 4096);
    dst_addr = self.segment().base + 0x1000;

    dilp::PipeList pl;
    pl.add(dilp::make_cksum_pipe(nullptr));
    std::string error;
    const int ilp =
        w.ash_b->dilp().register_ilp(pl, dilp::Direction::Read, &error);
    EXPECT_GE(ilp, 0) << error;

    Builder bld;
    const Reg ilp_reg = bld.reg();
    bld.movi(ilp_reg, static_cast<std::uint32_t>(ilp));
    bld.movi(kDilpPersistentBase, 0);  // seed accumulator
    // TDilp(id=ilp, src=r1 (msg), dst=r3 (user arg), len=r2)
    bld.t_dilp(ilp_reg, kRegArg0, kRegArg2, kRegArg1);
    // Store the accumulator into owner memory at user_arg + 64 so the
    // test can read it out.
    bld.sw(kDilpPersistentBase, kRegArg2, 64);
    bld.movi(kRegArg0, 1);
    bld.halt();

    std::string err2;
    const int id = w.ash_b->download(self, bld.take(), {}, &err2);
    EXPECT_GE(id, 0) << err2;
    w.ash_b->attach_an2(*w.dev_b, vc, id, dst_addr);
    co_await self.sleep_for(us(50000.0));
  });
  w.sim.queue().schedule_at(us(200.0), [&] { w.dev_a->send(0, payload); });
  w.sim.run();

  // Data landed at dst_addr, checksum accumulator at dst_addr+64.
  const std::uint8_t* d = w.b->mem(dst_addr, 12);
  for (int i = 0; i < 12; ++i) ASSERT_EQ(d[i], payload[static_cast<std::size_t>(i)]);
  std::memcpy(&acc_out, w.b->mem(dst_addr + 64, 4), 4);
  EXPECT_EQ(util::fold16_le_word_sum(acc_out),
            util::fold16(util::cksum_partial(payload)));
}

TEST(AshSystem, LivelockQuotaDefersExcessMessages) {
  AshWorld w;
  w.ash_b->set_livelock_quota(2, us(100000.0));
  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    Builder bld;
    bld.movi(kRegArg0, 1);
    bld.halt();
    std::string error;
    const int id = w.ash_b->download(self, bld.take(), {}, &error);
    w.ash_b->attach_an2(*w.dev_b, vc, id);
    co_await self.sleep_for(us(50000.0));
    // 5 messages: 2 via the ASH, 3 deferred to normal delivery.
    EXPECT_EQ(w.ash_b->stats(id).commits, 2u);
    EXPECT_EQ(w.ash_b->stats(id).livelock_deferrals, 3u);
    int delivered = 0;
    while (w.dev_b->poll(vc).has_value()) ++delivered;
    EXPECT_EQ(delivered, 3);
  });
  w.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    for (int i = 0; i < 5; ++i) w.dev_a->send(0, m);
  });
  w.sim.run();
}

TEST(AshSystem, LivelockQuotaIsSharedAcrossOneOwnersHandlers) {
  // The quota is "per process per window" (Section VI-4): a process with
  // two handlers gets ONE share, not two. Six messages split across two
  // VCs of the same owner must yield exactly `quota` handler runs total.
  AshWorld w;
  w.ash_b->set_livelock_quota(2, us(100000.0));
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
    Builder bld;
    bld.movi(kRegArg0, 1);
    bld.halt();
    std::string error;
    const int id0 = w.ash_b->download(self, bld.take(), {}, &error);
    Builder bld2;
    bld2.movi(kRegArg0, 1);
    bld2.halt();
    const int id1 = w.ash_b->download(self, bld2.take(), {}, &error);
    w.ash_b->attach_an2(*w.dev_b, vc0, id0);
    w.ash_b->attach_an2(*w.dev_b, vc1, id1);
    co_await self.sleep_for(us(50000.0));

    const auto& s0 = w.ash_b->stats(id0);
    const auto& s1 = w.ash_b->stats(id1);
    EXPECT_EQ(s0.commits + s1.commits, 2u);
    EXPECT_EQ(s0.livelock_deferrals + s1.livelock_deferrals, 4u);
  });
  w.sim.queue().schedule_at(us(200.0), [&] {
    const std::uint8_t m[] = {1, 2, 3, 4};
    for (int i = 0; i < 3; ++i) {
      w.dev_a->send(0, m);
      w.dev_a->send(1, m);
    }
  });
  w.sim.run();
}

TEST(AshSystem, InvalidIdFallsBackInsteadOfThrowing) {
  // A stale id reaching invoke (possible once handlers can be revoked or
  // a custom demux point misbehaves) must not unwind through the device
  // driver: it counts a fallback and declines the message.
  AshWorld w;
  MsgContext m;
  m.addr = 0x100;
  m.len = 4;
  const auto drop = [](int, std::span<const std::uint8_t>) { return true; };
  EXPECT_FALSE(w.ash_b->invoke(999, m, drop, 0));
  EXPECT_EQ(w.ash_b->bad_id_fallbacks(), 1u);
  EXPECT_FALSE(w.ash_b->invoke(-1, m, drop, 0));
  EXPECT_EQ(w.ash_b->bad_id_fallbacks(), 2u);
  EXPECT_EQ(w.ash_b->handler_count(), 0u);
}

TEST(Upcall, HandlerRunsAndRepliesWithoutScheduling) {
  AshWorld w;
  UpcallManager upcalls(*w.b);
  bool got_reply = false;

  w.b->kernel().spawn("owner", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    w.dev_b->supply_buffer(vc, self.segment().base, 64);
    upcalls.attach_an2(*w.dev_b, vc, [&](const UpcallManager::Ctx& ctx) {
      const std::uint8_t* msg = w.b->mem(ctx.msg_addr, ctx.msg_len);
      std::vector<std::uint8_t> reply(msg, msg + ctx.msg_len);
      reply[0] += 1;
      ctx.send(ctx.channel, reply);
      return UpcallManager::Result{us(2.0), true};
    });
    co_await self.sleep_for(us(100000.0));
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    const int vc = w.dev_a->bind_vc(self);
    w.dev_a->supply_buffer(vc, self.segment().base, 64);
    const std::uint8_t ping[] = {7, 0, 0, 0};
    co_await self.syscall(w.dev_a->config().tx_kernel_work);
    w.dev_a->send(0, ping);
    co_await w.dev_a->arrival_channel(vc).wait(self);
    const auto d = w.dev_a->poll(vc);
    EXPECT_TRUE(d.has_value());
    if (d) got_reply = w.a->mem(d->addr, 1)[0] == 8;
  });
  w.sim.run();
  EXPECT_TRUE(got_reply);
  EXPECT_EQ(upcalls.invocations(), 1u);
}

TEST(AshSystem, AshFasterThanUpcallForRemoteIncrement) {
  // The structural claim behind Table V: handling the same message costs
  // less kernel-path time as an ASH than as an upcall.
  auto kernel_cycles = [&](bool use_ash) {
    AshWorld w;
    UpcallManager upcalls(*w.b);
    w.b->kernel().spawn("owner", [&, use_ash](Process& self) -> Task {
      const int vc = w.dev_b->bind_vc(self);
      w.dev_b->supply_buffer(vc, self.segment().base, 64);
      const std::uint32_t ctr = self.segment().base + 0x100;
      if (use_ash) {
        std::string error;
        const int id =
            w.ash_b->download(self, remote_increment_ash(), {}, &error);
        w.ash_b->attach_an2(*w.dev_b, vc, id, ctr);
      } else {
        upcalls.attach_an2(*w.dev_b, vc, [&w, ctr](const UpcallManager::Ctx& ctx) {
          std::uint32_t v;
          std::memcpy(&v, w.b->mem(ctr, 4), 4);
          ++v;
          std::memcpy(w.b->mem(ctr, 4), &v, 4);
          const std::uint8_t* msg = w.b->mem(ctx.msg_addr, ctx.msg_len);
          ctx.send(ctx.channel, {msg, msg + ctx.msg_len});
          return UpcallManager::Result{us(1.0), true};
        });
      }
      co_await self.sleep_for(us(100000.0));
    });
    w.sim.queue().schedule_at(us(200.0), [&] {
      const std::uint8_t m[] = {1, 2, 3, 4};
      w.dev_a->send(0, m);
    });
    w.sim.run();
    return w.b->kernel_cycles_total();
  };

  const auto ash_cycles = kernel_cycles(true);
  const auto upcall_cycles = kernel_cycles(false);
  EXPECT_LT(ash_cycles + sim::us(10.0), upcall_cycles);
}

TEST(AshSystem, JitInlinedCacheModelBitIdentical) {
  // The JIT inlines the node's direct-mapped cache model when the
  // environment offers it (AshEnv::fast_mem); the interpreter always goes
  // through the virtual mem_cycles hook. Run a memory-heavy handler on two
  // fresh (cold-cache) nodes, one per engine, and require identical
  // simulated results AND identical D-cache hit/miss counters.
  struct Run {
    vcode::ExecResult res;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const auto run_engine = [](bool use_jit) -> Run {
    Builder bld;
    const Reg i = bld.reg(), sum = bld.reg(), v = bld.reg(), p = bld.reg(),
              lim = bld.reg();
    bld.movi(i, 0);
    bld.movi(sum, 0);
    bld.movi(lim, 1024);
    const auto loop = bld.label();
    bld.bind(loop);
    bld.addu(p, kRegArg0, i);  // msg word + a sub-word byte
    bld.lw(v, p, 0);
    bld.addu(sum, sum, v);
    bld.lbu(v, p, 1);
    bld.addu(sum, sum, v);
    bld.addu(p, kRegArg2, i);  // owner scratch: word + halfword store
    bld.sw(sum, p, 0);
    bld.sh(sum, p, 2);
    bld.addiu(i, i, 4);
    bld.bltu(i, lim, loop);
    bld.addiu(kRegArg0, sum, 0);
    bld.halt();

    sim::Simulator s;
    sim::Node& node = s.add_node("n");
    const std::uint32_t seg = 0x100000;
    sandbox::Options sb;
    sb.segment = {seg, 0x100000};
    std::string error;
    auto boxed = sandbox::sandbox(bld.take(), sb, &error);
    EXPECT_TRUE(boxed.has_value()) << error;
    if (!boxed) return {};
    const vcode::Program installed = std::move(boxed->program);

    const std::uint32_t msg = seg + 0x8000;
    const std::uint32_t scratch = seg + 0x4000;
    for (std::uint32_t k = 0; k < 1024; ++k) {
      *node.mem(msg + k, 1) = static_cast<std::uint8_t>(k * 131u + 7u);
    }
    AshEnv::Config ec;
    ec.node = &node;
    ec.owner_seg = {seg, 0x100000};
    ec.msg_addr = msg;
    ec.msg_len = 1024;
    AshEnv env(ec);

    Run out;
    if (use_jit) {
      const vcode::JitBackend jit(installed);
      std::array<std::uint32_t, vcode::kNumRegs> regs{};
      regs[kRegArg0] = msg;
      regs[kRegArg1] = 1024;
      regs[kRegArg2] = scratch;
      out.res = jit.run(env, regs, {});
    } else {
      vcode::Interpreter interp(installed, env);
      interp.set_args(msg, 1024, scratch, 0);
      out.res = interp.run({});
    }
    out.hits = node.dcache().hits();
    out.misses = node.dcache().misses();
    return out;
  };

  const Run interp = run_engine(false);
  const Run jit = run_engine(true);
  ASSERT_EQ(interp.res.outcome, vcode::Outcome::Halted)
      << vcode::to_string(interp.res.outcome);
  EXPECT_EQ(jit.res.outcome, interp.res.outcome);
  EXPECT_EQ(jit.res.insns, interp.res.insns);
  EXPECT_EQ(jit.res.cycles, interp.res.cycles);
  EXPECT_EQ(jit.res.result, interp.res.result);
  EXPECT_EQ(jit.hits, interp.hits);
  EXPECT_EQ(jit.misses, interp.misses);
  // The workload must actually exercise the model on both sides.
  EXPECT_GT(interp.hits, 0u);
  EXPECT_GT(interp.misses, 0u);
}

}  // namespace
}  // namespace ash::core
