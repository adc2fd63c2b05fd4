// Superblock JIT backend: translation-shape checks (superblocks spanning
// conditional branches, constant-folded guards, fused DILP loops), exact
// equivalence of the fused native loop against the interpreter on real
// dilp::Compiler output, budget handoffs out of the native loop, and the
// uniform BackendStats surface.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dilp/compiler.hpp"
#include "dilp/engine.hpp"
#include "dilp/pipe.hpp"
#include "dilp/stdpipes.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "vcode/backend.hpp"
#include "vcode/interp.hpp"
#include "vcode/jit/jit.hpp"
#include "vcode/program.hpp"

namespace ash::vcode {
namespace {

constexpr std::uint32_t kBase = 0x10000;
constexpr std::uint32_t kSize = 0x10000;

/// Flat deterministic environment with a fast-mem window, the same
/// cache-model cost shape the differential harness uses.
class FlatEnv : public Env {
 public:
  FlatEnv() : mem_(kSize) {
    for (std::size_t i = 0; i < mem_.size(); ++i) {
      mem_[i] = static_cast<std::uint8_t>(i * 13 + 7);
    }
  }

  std::vector<std::uint8_t>& memory() { return mem_; }

  bool mem_read(std::uint32_t addr, void* dst, std::uint32_t len) override {
    if (!in_range(addr, len)) return false;
    std::memcpy(dst, mem_.data() + (addr - kBase), len);
    return true;
  }
  bool mem_write(std::uint32_t addr, const void* src,
                 std::uint32_t len) override {
    if (!in_range(addr, len)) return false;
    std::memcpy(mem_.data() + (addr - kBase), src, len);
    return true;
  }
  std::uint64_t mem_cycles(std::uint32_t addr, std::uint32_t len,
                           bool is_write) override {
    return ((addr * 2654435761u) >> 28 & 7u) + len / 4 + (is_write ? 1 : 0);
  }
  bool fast_mem(FastMem* out) override {
    if (!offer_fast_mem_) return false;
    out->mem = mem_.data();
    out->mem_base = kBase;
    out->owner_lo = kBase;
    out->owner_hi = kBase + kSize;
    return true;
  }
  void set_offer_fast_mem(bool on) { offer_fast_mem_ = on; }

 private:
  bool in_range(std::uint32_t addr, std::uint32_t len) const {
    return addr >= kBase && addr - kBase <= mem_.size() - len &&
           len <= mem_.size();
  }
  std::vector<std::uint8_t> mem_;
  bool offer_fast_mem_ = true;
};

/// Run `prog` through the interpreter and the JIT with identical register
/// seeds and assert every observable matches; returns the shared result.
ExecResult expect_jit_matches_interp(
    const Program& prog, const std::array<std::uint32_t, kNumRegs>& seeds,
    const ExecLimits& limits, const std::string& tag) {
  FlatEnv env_a;
  Interpreter interp(prog, env_a);
  for (std::uint32_t r = 1; r < kNumRegs; ++r) {
    interp.set_reg(static_cast<Reg>(r), seeds[r]);
  }
  const ExecResult a = interp.run(limits);

  FlatEnv env_j;
  JitBackend jit(prog);
  std::array<std::uint32_t, kNumRegs> regs = seeds;
  regs[kRegZero] = 0;
  const ExecResult j = jit.run(env_j, regs, limits);

  EXPECT_EQ(static_cast<int>(a.outcome), static_cast<int>(j.outcome))
      << tag << " interp=" << to_string(a.outcome)
      << " jit=" << to_string(j.outcome);
  EXPECT_EQ(a.insns, j.insns) << tag;
  EXPECT_EQ(a.cycles, j.cycles) << tag;
  EXPECT_EQ(a.result, j.result) << tag;
  EXPECT_EQ(a.fault_pc, j.fault_pc) << tag;
  EXPECT_EQ(a.abort_code, j.abort_code) << tag;
  for (std::uint32_t r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(interp.reg(static_cast<Reg>(r)), regs[r]) << tag << " r" << r;
  }
  EXPECT_EQ(env_a.memory(), env_j.memory()) << tag;
  return a;
}

TEST(JitTranslation, SuperblocksContinueThroughConditionalBranches) {
  // A conditional branch does NOT end a superblock on its fall-through
  // side — the region continues straight through — so the lowering forms
  // fewer regions than the program has basic blocks (@0..1, @2..3, @4).
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, 1});
  prog.insns.push_back({Op::Bne, 5, 0, 0, 4});
  prog.insns.push_back({Op::Nop, 0, 0, 0, 0});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});
  prog.insns.push_back({Op::Abort, 0, 0, 0, 9});

  JitBackend jit(prog);
  EXPECT_EQ(jit.superblock_count(), 2u);  // @0..3 and @4

  const std::string d = jit.dump();
  EXPECT_NE(d.find("superblock @0: len=4"), std::string::npos) << d;
  EXPECT_NE(d.find("superblock @4"), std::string::npos) << d;
  EXPECT_NE(d.find("guard:"), std::string::npos) << d;

  std::array<std::uint32_t, kNumRegs> seeds{};
  const ExecResult r =
      expect_jit_matches_interp(prog, seeds, {}, "sb-branch");
  EXPECT_EQ(r.outcome, Outcome::VoluntaryAbort);
  EXPECT_EQ(r.abort_code, 9u);
}

TEST(JitTranslation, ConstFoldedAlignmentGuardFaults) {
  // The base register is provably constant inside the superblock and the
  // word access provably misaligned: the guard folds to a pre-faulted
  // slot with unchanged charging and fault reporting.
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, kBase + 2});
  prog.insns.push_back({Op::Lw, 6, 5, 0, 0});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});

  JitBackend jit(prog);
  EXPECT_GE(jit.folded_guard_count(), 1u);
  EXPECT_NE(jit.dump().find("[folded: align-fault]"), std::string::npos)
      << jit.dump();

  std::array<std::uint32_t, kNumRegs> seeds{};
  const ExecResult r = expect_jit_matches_interp(prog, seeds, {}, "fold-mis");
  EXPECT_EQ(r.outcome, Outcome::AlignFault);
  EXPECT_EQ(r.fault_pc, 1u);

  // Provably aligned variant folds to the check-free template instead.
  Program ok = prog;
  ok.insns[0].imm = kBase + 8;
  JitBackend jit_ok(ok);
  EXPECT_NE(jit_ok.dump().find("[folded: aligned]"), std::string::npos)
      << jit_ok.dump();
  const ExecResult r2 = expect_jit_matches_interp(ok, seeds, {}, "fold-ok");
  EXPECT_EQ(r2.outcome, Outcome::Halted);
}

TEST(JitTranslation, ConstFoldedBranchBecomesJump) {
  // Both branch operands provably constant (the DPF-atom mask+compare
  // shape): the branch folds to a direct jump / fall-through at lowering
  // time, with identical costs and outcomes.
  Program taken;
  taken.insns.push_back({Op::Movi, 5, 0, 0, 3});
  taken.insns.push_back({Op::Movi, 6, 0, 0, 3});
  taken.insns.push_back({Op::Beq, 5, 6, 0, 4});
  taken.insns.push_back({Op::Halt, 0, 0, 0, 0});
  taken.insns.push_back({Op::Abort, 0, 0, 0, 7});

  JitBackend jit(taken);
  EXPECT_GE(jit.folded_guard_count(), 1u);
  EXPECT_NE(jit.dump().find("[folded: taken]"), std::string::npos)
      << jit.dump();

  std::array<std::uint32_t, kNumRegs> seeds{};
  const ExecResult r = expect_jit_matches_interp(taken, seeds, {}, "br-taken");
  EXPECT_EQ(r.outcome, Outcome::VoluntaryAbort);
  EXPECT_EQ(r.abort_code, 7u);

  Program not_taken = taken;
  not_taken.insns[1].imm = 4;  // 3 != 4: never taken
  JitBackend jit_nt(not_taken);
  EXPECT_NE(jit_nt.dump().find("[folded: not-taken]"), std::string::npos)
      << jit_nt.dump();
  const ExecResult r2 =
      expect_jit_matches_interp(not_taken, seeds, {}, "br-not-taken");
  EXPECT_EQ(r2.outcome, Outcome::Halted);
}

TEST(JitTranslation, TrustedCallInvalidatesConstants) {
  // A trusted entry may mutate the bound register file (the DILP
  // persistent-export mechanism), so constant tracking must not fold a
  // guard that depends on a register live across the call. r5 is set to
  // an aligned constant, but TMsgLen intervenes: no fold may survive it.
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, kBase + 8});
  prog.insns.push_back({Op::TMsgLen, 7, 0, 0, 0});
  prog.insns.push_back({Op::Lw, 6, 5, 0, 0});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});

  JitBackend jit(prog);
  EXPECT_EQ(jit.folded_guard_count(), 0u);
  std::array<std::uint32_t, kNumRegs> seeds{};
  expect_jit_matches_interp(prog, seeds, {}, "trusted-invalidate");
}

/// Compile the Fig. 1 composition (checksum + byteswap, write direction)
/// and return the engine; `acc` receives the persistent binding count.
int register_fig1_chain(dilp::Engine& engine) {
  vcode::Reg acc_reg = 0;
  dilp::PipeList pl;
  pl.add(dilp::make_cksum_pipe(&acc_reg));
  pl.add(dilp::make_byteswap_pipe());
  std::string error;
  const int id =
      engine.register_ilp(pl, dilp::Direction::Write, &error);
  EXPECT_GE(id, 0) << error;
  return id;
}

TEST(JitFusedLoop, MatchesDilpCompiledChainExactly) {
  // The real dilp::Compiler word loop (checksum + byteswap + copy) must
  // be recognized as one fused loop, and the native single-pass execution
  // must be bit-identical to the interpreter: memory, persistents,
  // simulated cycles and instruction counts.
  dilp::Engine engine;
  const int id = register_fig1_chain(engine);
  ASSERT_NE(engine.jit_backend(id), nullptr);
  EXPECT_EQ(engine.jit_backend(id)->fused_loop_count(), 1u);

  const std::uint32_t len = 64 * 4;
  const std::uint32_t src = kBase + 0x100;
  const std::uint32_t dst = kBase + 0x2000;

  auto run_with = [&](vcode::Backend be, FlatEnv& env,
                      std::vector<std::uint32_t>* pers) {
    engine.set_backend(be);
    const std::uint32_t seed[] = {0};
    return engine.run(id, env, src, dst, len, seed, pers);
  };

  FlatEnv env_i;
  std::vector<std::uint32_t> pers_i;
  const auto ri = run_with(vcode::Backend::Interp, env_i, &pers_i);
  ASSERT_TRUE(ri.ok());

  FlatEnv env_j;
  std::vector<std::uint32_t> pers_j;
  const auto rj = run_with(vcode::Backend::Jit, env_j, &pers_j);
  ASSERT_TRUE(rj.ok());

  EXPECT_EQ(ri.exec.cycles, rj.exec.cycles);
  EXPECT_EQ(ri.exec.insns, rj.exec.insns);
  EXPECT_EQ(env_i.memory(), env_j.memory());
  EXPECT_EQ(pers_i, pers_j);

  // And the transform is the right one: checksum over raw words, output
  // byteswapped.
  std::uint32_t acc = 0;
  for (std::uint32_t off = 0; off < len; off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, env_i.memory().data() + (src - kBase) + off, 4);
    acc = util::cksum32_accumulate(acc, w);
    std::uint32_t got = 0;
    std::memcpy(&got, env_j.memory().data() + (dst - kBase) + off, 4);
    EXPECT_EQ(got, util::bswap32(w));
  }
  ASSERT_EQ(pers_j.size(), 1u);
  EXPECT_EQ(pers_j[0], acc);
}

TEST(JitFusedLoop, InPlaceAndOverlapSemanticsPreserved) {
  // src == dst (in-place transform) must behave word-at-a-time exactly
  // like the interpreter's loop.
  dilp::Engine engine;
  const int id = register_fig1_chain(engine);

  const std::uint32_t len = 32 * 4;
  const std::uint32_t addr = kBase + 0x400;

  FlatEnv env_i;
  engine.set_backend(vcode::Backend::Interp);
  const auto ri = engine.run(id, env_i, addr, addr, len);
  ASSERT_TRUE(ri.ok());

  FlatEnv env_j;
  engine.set_backend(vcode::Backend::Jit);
  const auto rj = engine.run(id, env_j, addr, addr, len);
  ASSERT_TRUE(rj.ok());

  EXPECT_EQ(ri.exec.cycles, rj.exec.cycles);
  EXPECT_EQ(ri.exec.insns, rj.exec.insns);
  EXPECT_EQ(env_i.memory(), env_j.memory());

  // Overlapping forward copy (dst = src + 4): the interpreter's
  // word-at-a-time order smears the first word; the native loop must too.
  FlatEnv env_i2;
  engine.set_backend(vcode::Backend::Interp);
  const auto ri2 = engine.run(id, env_i2, addr, addr + 4, len);
  ASSERT_TRUE(ri2.ok());
  FlatEnv env_j2;
  engine.set_backend(vcode::Backend::Jit);
  const auto rj2 = engine.run(id, env_j2, addr, addr + 4, len);
  ASSERT_TRUE(rj2.ok());
  EXPECT_EQ(ri2.exec.cycles, rj2.exec.cycles);
  EXPECT_EQ(env_i2.memory(), env_j2.memory());
}

TEST(JitFusedLoop, GenericPathWhenNativePreconditionsFail) {
  // Cycle ceiling armed, fast-mem withheld, or a partial tail: each case
  // must fall back to the generic superblock path (or hand off to the
  // interpreter core) with bit-identical results.
  dilp::Engine engine;
  const int id = register_fig1_chain(engine);
  const Program& loop = engine.get(id)->loop;

  std::array<std::uint32_t, kNumRegs> seeds{};
  seeds[kRegArg0] = kBase + 0x100;   // src
  seeds[kRegArg1] = kBase + 0x2000;  // dst
  seeds[kRegArg2] = 16 * 4;          // len

  // Cycle ceiling sweep across the whole run, including mid-loop exits.
  for (std::uint64_t cap = 1; cap < 400; cap += 13) {
    ExecLimits lim;
    lim.max_cycles = cap;
    expect_jit_matches_interp(loop, seeds, lim,
                              "cap=" + std::to_string(cap));
  }

  // Instruction backstop partial-loop handoff (the engine's own regime:
  // max_cycles == 0), sweeping the boundary across iterations.
  for (std::uint64_t cap = 1; cap < 200; cap += 7) {
    ExecLimits lim;
    lim.max_insns = cap;
    expect_jit_matches_interp(loop, seeds, lim,
                              "insns=" + std::to_string(cap));
  }

  // No fast memory: the generic templates' virtual-Env path.
  {
    FlatEnv env_a;
    env_a.set_offer_fast_mem(false);
    Interpreter interp(loop, env_a);
    for (std::uint32_t r = 1; r < kNumRegs; ++r) {
      interp.set_reg(static_cast<Reg>(r), seeds[r]);
    }
    const ExecResult a = interp.run({});
    FlatEnv env_j;
    env_j.set_offer_fast_mem(false);
    JitBackend jit(loop);
    std::array<std::uint32_t, kNumRegs> regs = seeds;
    const ExecResult j = jit.run(env_j, regs, {});
    EXPECT_EQ(static_cast<int>(a.outcome), static_cast<int>(j.outcome));
    EXPECT_EQ(a.cycles, j.cycles);
    EXPECT_EQ(a.insns, j.insns);
    EXPECT_EQ(env_a.memory(), env_j.memory());
  }
}

TEST(JitFusedLoop, StripedLayoutFallsBackToGenericSuperblocks) {
  // The Ethernet striped-source loop variant has an inner chunk branch;
  // the matcher must reject it (no fused loop), and execution must still
  // be identical through the generic superblock path.
  dilp::Engine engine;
  vcode::Reg acc_reg = 0;
  dilp::PipeList pl;
  pl.add(dilp::make_cksum_pipe(&acc_reg));
  std::string error;
  dilp::LoopLayout layout;
  layout.src_stripe_chunk = 16;
  const int id =
      engine.register_ilp(pl, dilp::Direction::Write, &error, layout);
  ASSERT_GE(id, 0) << error;
  ASSERT_NE(engine.jit_backend(id), nullptr);
  EXPECT_EQ(engine.jit_backend(id)->fused_loop_count(), 0u);

  FlatEnv env_i;
  engine.set_backend(vcode::Backend::Interp);
  const auto ri = engine.run(id, env_i, kBase, kBase + 0x4000, 64);
  FlatEnv env_j;
  engine.set_backend(vcode::Backend::Jit);
  const auto rj = engine.run(id, env_j, kBase, kBase + 0x4000, 64);
  ASSERT_TRUE(ri.ok());
  ASSERT_TRUE(rj.ok());
  EXPECT_EQ(ri.exec.cycles, rj.exec.cycles);
  EXPECT_EQ(ri.exec.insns, rj.exec.insns);
  EXPECT_EQ(env_i.memory(), env_j.memory());
}

TEST(JitStats, UniformBackendStatsSurface) {
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, 7});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});

  JitBackend jit(prog);
  EXPECT_EQ(jit.run_count(), 0u);
  BackendStats s = jit.stats();
  EXPECT_EQ(s.backend, Backend::Jit);
  EXPECT_EQ(s.runs, 0u);
  EXPECT_EQ(s.translations, 1u);
  EXPECT_EQ(s.superblocks, jit.superblock_count());
  EXPECT_EQ(s.superblocks, 1u);
  EXPECT_GT(s.emitted_bytes, 0u);

  FlatEnv env;
  for (int i = 0; i < 3; ++i) {
    std::array<std::uint32_t, kNumRegs> regs{};
    EXPECT_EQ(jit.run(env, regs).outcome, Outcome::Halted);
  }
  EXPECT_EQ(jit.run_count(), 3u);
  EXPECT_EQ(jit.stats().runs, 3u);
}

TEST(JitStats, BackendEnvOverrideParsesKnownNames) {
  Backend be = Backend::Interp;
  ::setenv("ASH_BACKEND", "jit", 1);
  EXPECT_TRUE(backend_env_override(&be));
  EXPECT_EQ(be, Backend::Jit);
  ::setenv("ASH_BACKEND", "INTERP", 1);
  EXPECT_TRUE(backend_env_override(&be));
  EXPECT_EQ(be, Backend::Interp);
  be = Backend::Jit;
  for (const char* retired_or_unknown : {"codecache", "warp-drive"}) {
    ::setenv("ASH_BACKEND", retired_or_unknown, 1);
    EXPECT_FALSE(backend_env_override(&be)) << retired_or_unknown;
    EXPECT_EQ(be, Backend::Jit);  // unknown value leaves *out untouched
  }
  ::unsetenv("ASH_BACKEND");
  EXPECT_FALSE(backend_env_override(&be));
  EXPECT_STREQ(to_string(Backend::Jit), "jit");
  EXPECT_STREQ(to_string(Backend::Interp), "interp");
}

}  // namespace
}  // namespace ash::vcode
