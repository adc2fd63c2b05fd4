// Differential execution: the download-time translated form — the
// superblock JIT — must be bit-identical to the reference interpreter
// (outcome, insns, cycles, result, abort_code, fault_pc, final registers,
// and final memory) on random verified programs (sandboxed and
// unsandboxed) and on handcrafted edge cases around adjacent ALU+memory /
// compare+branch pairs, hoisted budget checks, and indirect jumps. Every
// sweep is an interp-vs-JIT cross-check, including engine-tagged
// trace-event equivalence.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "sandbox/sfi.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vcode/interp.hpp"
#include "vcode/jit/jit.hpp"
#include "vcode/program.hpp"
#include "vcode/verifier.hpp"

namespace ash::vcode {
namespace {

constexpr std::uint32_t kSegBase = 0x10000;
constexpr std::uint32_t kSegSize = 0x10000;

// Deterministic environment: flat memory window, pseudo-random (but
// stateless) cache-model cycles, deterministic trusted entry points that
// exercise the bound-register path, and argument-dependent denials.
class DiffEnv : public Env {
 public:
  explicit DiffEnv(std::uint64_t seed, std::uint32_t base = kSegBase,
                   std::uint32_t size = kSegSize)
      : base_(base), mem_(size) {
    for (std::size_t i = 0; i < mem_.size(); ++i) {
      mem_[i] = static_cast<std::uint8_t>(i * 31 + seed * 7 + 5);
    }
  }

  const std::vector<std::uint8_t>& memory() const { return mem_; }

  void bind_regs(std::uint32_t* regs) override { regs_ = regs; }

  bool mem_read(std::uint32_t addr, void* dst, std::uint32_t len) override {
    if (!in_range(addr, len)) return false;
    std::memcpy(dst, mem_.data() + (addr - base_), len);
    return true;
  }
  bool mem_write(std::uint32_t addr, const void* src,
                 std::uint32_t len) override {
    if (!in_range(addr, len)) return false;
    std::memcpy(mem_.data() + (addr - base_), src, len);
    return true;
  }
  std::uint64_t mem_cycles(std::uint32_t addr, std::uint32_t len,
                           bool is_write) override {
    return ((addr * 2654435761u) >> 28 & 7u) + len / 4 + (is_write ? 1 : 0);
  }
  // Offered on half the differential runs so the JIT is diffed against
  // the interpreter on both its direct and its virtual memory path.
  bool fast_mem(FastMem* out) override {
    if (!offer_fast_mem_) return false;
    out->mem = mem_.data();
    out->mem_base = base_;
    out->owner_lo = base_;
    out->owner_hi = base_ + static_cast<std::uint32_t>(mem_.size());
    return true;
  }
  void set_offer_fast_mem(bool on) { offer_fast_mem_ = on; }

  bool t_msglen(std::uint32_t* len_out, std::uint64_t* cycles) override {
    *len_out = 4096;
    *cycles = 3;
    return true;
  }
  bool t_send(std::uint32_t chan, std::uint32_t addr, std::uint32_t len,
              std::uint32_t* status, std::uint64_t* cycles) override {
    if (chan % 7 == 3) return false;
    *status = chan ^ len ^ (addr >> 4);
    *cycles = 10 + (addr & 3);
    return true;
  }
  bool t_dilp(std::uint32_t id, std::uint32_t src, std::uint32_t dst,
              std::uint32_t len, std::uint32_t* status,
              std::uint64_t* cycles) override {
    if (id % 5 == 4) return false;
    // Touch a persistent register through the bound register file, the
    // way the real DILP engine exports accumulators.
    if (regs_ != nullptr) regs_[48] += len + 1;
    *status = id + src + dst;
    *cycles = 5 + (len & 7);
    return true;
  }
  bool t_usercopy(std::uint32_t dst, std::uint32_t src, std::uint32_t len,
                  std::uint32_t* status, std::uint64_t* cycles) override {
    if (len > 0x1000) return false;
    *status = dst ^ src;
    *cycles = 4 + len % 3;
    return true;
  }
  bool t_msgload(std::uint32_t offset, std::uint32_t* value,
                 std::uint64_t* cycles) override {
    if (offset > 0x100000) return false;
    *value = offset * 2654435761u;
    *cycles = 2 + (offset & 1);
    return true;
  }

 private:
  bool in_range(std::uint32_t addr, std::uint32_t len) const {
    return addr >= base_ && addr - base_ <= mem_.size() - len &&
           len <= mem_.size();
  }
  std::uint32_t base_;
  std::vector<std::uint8_t> mem_;
  std::uint32_t* regs_ = nullptr;
  bool offer_fast_mem_ = true;
};

std::array<std::uint32_t, kNumRegs> seed_regs(util::Rng& rng) {
  std::array<std::uint32_t, kNumRegs> regs{};
  for (std::uint32_t r = 1; r <= 12; ++r) {
    if (rng.chance(1, 2)) {
      regs[r] = kSegBase + (static_cast<std::uint32_t>(rng.next()) &
                            (kSegSize - 4));
    } else {
      regs[r] = static_cast<std::uint32_t>(rng.next());
    }
  }
  return regs;
}

/// One engine-tagged trace-event stream check: exactly one engine-exec
/// record per run (mid-run delegation to the interpreter core must NOT
/// surface as a second event), observables matching the run's result, and
/// the expected engine tag.
void expect_one_exec_event(const std::vector<ash::trace::Event>& ev,
                           ash::trace::Engine engine, const ExecResult& r,
                           const std::string& tag) {
  ASSERT_EQ(ev.size(), 1u) << tag;
  const ash::trace::Event& e = ev[0];
  ASSERT_EQ(static_cast<int>(e.type),
            static_cast<int>(ash::trace::EventType::VcodeExec)) << tag;
  ASSERT_EQ(static_cast<int>(e.engine), static_cast<int>(engine)) << tag;
  ASSERT_EQ(e.arg0, static_cast<std::uint32_t>(r.outcome)) << tag;
  ASSERT_EQ(e.insns, r.insns) << tag;
  ASSERT_EQ(e.cycles, r.cycles) << tag;
}

/// Run `prog` through both engines with identical seeds and compare every
/// observable. `tag` makes failures attributable to a seed/limit combo.
void expect_identical(const Program& prog,
                      const std::array<std::uint32_t, kNumRegs>& seeds,
                      const ExecLimits& limits, std::uint64_t env_seed,
                      const std::string& tag) {
  if (ash::trace::enabled()) ash::trace::global().clear();
  DiffEnv env_a(env_seed);
  Interpreter interp(prog, env_a);
  for (std::uint32_t r = 1; r < kNumRegs; ++r) {
    interp.set_reg(static_cast<Reg>(r), seeds[r]);
  }
  const ExecResult a = interp.run(limits);
  std::vector<ash::trace::Event> ev_a;
  if (ash::trace::enabled()) ev_a = ash::trace::global().all_events();

  if (ash::trace::enabled()) ash::trace::global().clear();
  DiffEnv env_j(env_seed);
  env_j.set_offer_fast_mem(env_seed % 2 == 0);
  JitBackend jit(prog);
  std::array<std::uint32_t, kNumRegs> jregs = seeds;
  jregs[kRegZero] = 0;
  const ExecResult j = jit.run(env_j, jregs, limits);
  std::vector<ash::trace::Event> ev_j;
  if (ash::trace::enabled()) ev_j = ash::trace::global().all_events();

  ASSERT_EQ(static_cast<int>(a.outcome), static_cast<int>(j.outcome))
      << tag << " interp=" << to_string(a.outcome)
      << " jit=" << to_string(j.outcome);
  ASSERT_EQ(a.insns, j.insns) << tag;
  ASSERT_EQ(a.cycles, j.cycles) << tag;
  ASSERT_EQ(a.result, j.result) << tag;
  ASSERT_EQ(a.abort_code, j.abort_code) << tag;
  ASSERT_EQ(a.fault_pc, j.fault_pc) << tag;
  for (std::uint32_t r = 0; r < kNumRegs; ++r) {
    ASSERT_EQ(interp.reg(static_cast<Reg>(r)), jregs[r])
        << tag << " register r" << r;
  }
  ASSERT_EQ(env_a.memory(), env_j.memory()) << tag;

  // With the tracer on, the two engine-tagged event streams must be
  // semantically equivalent: the only difference is the engine tag.
  if (ash::trace::enabled()) {
    expect_one_exec_event(ev_a, ash::trace::Engine::Interp, a, tag);
    expect_one_exec_event(ev_j, ash::trace::Engine::Jit, j, tag);
  }
}

/// Interpreter and JIT results of `prog` run from zeroed registers against
/// identically seeded environments.
struct Pair {
  ExecResult interp;
  ExecResult jit;
};

Pair run_both(const Program& prog, std::uint64_t env_seed) {
  DiffEnv env_a(env_seed);
  Interpreter interp(prog, env_a);
  DiffEnv env_j(env_seed);
  JitBackend jit(prog);
  std::array<std::uint32_t, kNumRegs> jregs{};
  return {interp.run({}), jit.run(env_j, jregs, {})};
}

/// Random verified program over registers r0..r20 (sandbox-compatible).
Program random_program(util::Rng& rng) {
  Program prog;
  const std::uint32_t n = static_cast<std::uint32_t>(rng.range(4, 40));
  auto reg = [&] { return static_cast<std::uint8_t>(rng.below(21)); };
  std::vector<std::uint32_t> targets;

  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    Insn in{};
    const std::uint64_t pick = rng.below(100);
    if (pick < 20) {
      static constexpr Op kAlu3[] = {Op::Addu, Op::Subu, Op::Mulu, Op::And,
                                     Op::Or,   Op::Xor,  Op::Sll,  Op::Srl,
                                     Op::Sra,  Op::Sltu, Op::Slt};
      in.op = kAlu3[rng.below(std::size(kAlu3))];
      in.a = reg();
      in.b = reg();
      in.c = reg();
    } else if (pick < 35) {
      static constexpr Op kAluI[] = {Op::Addiu, Op::Andi, Op::Ori, Op::Xori,
                                     Op::Slli,  Op::Srli, Op::Srai};
      in.op = kAluI[rng.below(std::size(kAluI))];
      in.a = reg();
      in.b = reg();
      in.imm = static_cast<std::uint32_t>(rng.next());
    } else if (pick < 40) {
      in.op = rng.chance(1, 2) ? Op::Movi : Op::Mov;
      in.a = reg();
      in.b = reg();
      in.imm = static_cast<std::uint32_t>(rng.next());
    } else if (pick < 50) {
      static constexpr Op kMem[] = {Op::Lw, Op::Lhu,   Op::Lh,  Op::Lbu,
                                    Op::Lb, Op::Lwu_u, Op::Sw,  Op::Sh,
                                    Op::Sb, Op::Sw_u};
      in.op = kMem[rng.below(std::size(kMem))];
      in.a = reg();
      in.b = reg();
      in.imm = static_cast<std::uint32_t>(rng.below(64));
    } else if (pick < 60) {
      static constexpr Op kBr[] = {Op::Beq, Op::Bne, Op::Bltu,
                                   Op::Bgeu, Op::Blt, Op::Bge};
      in.op = kBr[rng.below(std::size(kBr))];
      in.a = reg();
      in.b = rng.chance(1, 3) ? 0 : reg();  // a third compare with r0
      in.imm = static_cast<std::uint32_t>(rng.below(n));
    } else if (pick < 63) {
      in.op = Op::Jmp;
      in.imm = static_cast<std::uint32_t>(rng.below(n));
    } else if (pick < 65) {
      in.op = Op::Call;
      in.imm = static_cast<std::uint32_t>(rng.below(n));
    } else if (pick < 67) {
      in.op = Op::Ret;
    } else if (pick < 70 && i + 2 < n) {
      // Seeded indirect jump: Movi a, target ; Jr a — usually lands.
      const auto tgt = static_cast<std::uint32_t>(rng.below(n));
      targets.push_back(tgt);
      in.op = Op::Movi;
      in.a = reg();
      in.imm = tgt;
      prog.insns.push_back(in);
      ++i;
      in = Insn{};
      in.op = Op::Jr;
      in.a = prog.insns.back().a;
    } else if (pick < 75) {
      static constexpr Op kNet[] = {Op::Cksum32, Op::Bswap32, Op::Bswap16};
      in.op = kNet[rng.below(std::size(kNet))];
      in.a = reg();
      in.b = reg();
    } else if (pick < 83) {
      static constexpr Op kTrusted[] = {Op::TMsgLen, Op::TSend, Op::TDilp,
                                        Op::TUserCopy, Op::TMsgLoad};
      in.op = kTrusted[rng.below(std::size(kTrusted))];
      in.a = reg();
      in.b = reg();
      in.c = reg();
      in.imm = in.op == Op::TDilp
                   ? static_cast<std::uint32_t>(rng.below(kNumRegs))
                   : static_cast<std::uint32_t>(rng.below(32));
    } else if (pick < 86) {
      in.op = Op::Budget;
      in.imm = static_cast<std::uint32_t>(rng.below(16));
    } else if (pick < 88) {
      in.op = Op::Abort;
      in.imm = static_cast<std::uint32_t>(rng.below(1000));
    } else if (pick < 90) {
      in.op = Op::Halt;
    } else if (pick < 94) {
      in.op = rng.chance(1, 2) ? Op::Divu : Op::Remu;
      in.a = reg();
      in.b = reg();
      in.c = reg();
    } else {
      in.op = Op::Nop;
    }
    prog.insns.push_back(in);
  }
  Insn halt{};
  halt.op = Op::Halt;
  prog.insns.push_back(halt);

  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  prog.indirect_targets = std::move(targets);
  return prog;
}

TEST(BackendDifferential, RandomProgramsMatchInterpreter) {
  // The whole 1200-program sweep runs with the tracer recording: every
  // expect_identical also checks bit-identical results are reported
  // through semantically equivalent engine-tagged event streams.
  ash::trace::Session tracing;

  VerifyPolicy policy;
  policy.allow_trusted = true;
  policy.allow_indirect = true;

  int programs_run = 0;
  std::uint64_t seed = 0;
  while (programs_run < 1200) {
    util::Rng rng(seed++);
    Program prog = random_program(rng);
    if (!verify(prog, policy).ok()) continue;
    ++programs_run;

    const auto seeds = seed_regs(rng);
    const std::uint64_t env_seed = rng.next();
    const std::string tag = "seed=" + std::to_string(seed - 1);

    ExecLimits relaxed;
    relaxed.max_insns = 5000;
    expect_identical(prog, seeds, relaxed, env_seed, tag + " relaxed");

    ExecLimits cycle_capped;
    cycle_capped.max_insns = 5000;
    cycle_capped.max_cycles = rng.range(1, 300);
    expect_identical(prog, seeds, cycle_capped, env_seed, tag + " cycles");

    ExecLimits tight;
    tight.max_insns = rng.range(1, 60);
    tight.software_budget = rng.range(1, 50);
    expect_identical(prog, seeds, tight, env_seed, tag + " tight");

    // Sandboxed variant of the same program, same comparisons.
    sandbox::Options sopts;
    sopts.segment = {kSegBase, kSegSize};
    sopts.mode = rng.chance(1, 5) ? sandbox::Mode::X86Segments
                                  : sandbox::Mode::Mips;
    sopts.software_budget_checks = rng.chance(1, 2);
    sopts.general_epilogue = rng.chance(1, 2);
    std::string err;
    auto sres = sandbox::sandbox(prog, sopts, &err);
    if (!sres.has_value()) continue;
    expect_identical(sres->program, seeds, relaxed, env_seed, tag + " sb");
    expect_identical(sres->program, seeds, cycle_capped, env_seed,
                     tag + " sb-cycles");
    expect_identical(sres->program, seeds, tight, env_seed, tag + " sb-tight");
  }
  EXPECT_GE(programs_run, 1200);
}

// Sweep every instruction/cycle ceiling across a program holding adjacent
// mask+store, add+load, and compare+branch pairs plus a dynamic-cost
// trusted call, so the budget ceiling lands on every instruction of the
// pairs and on every superblock boundary.
TEST(BackendDifferential, BudgetBoundarySweep) {
  Program prog;
  auto add = [&](Op op, std::uint8_t a, std::uint8_t b, std::uint8_t c,
                 std::uint32_t imm) {
    prog.insns.push_back({op, a, b, c, imm});
  };
  add(Op::Movi, 5, 0, 0, 0x8000);
  add(Op::Movi, 6, 0, 0, 0xABCD);
  add(Op::Andi, 7, 5, 0, 0xFFFC);    // mask+store pair
  add(Op::Sw, 6, 7, 0, 0);
  add(Op::Addiu, 7, 7, 0, 4);        // add+load pair
  add(Op::Lw, 8, 7, 0, 0);
  add(Op::Sltu, 9, 8, 6, 0);         // compare+branch pair
  add(Op::Bne, 9, 0, 0, 9);
  add(Op::Nop, 0, 0, 0, 0);
  add(Op::TMsgLen, 10, 0, 0, 0);     // dynamic trusted cycles
  add(Op::Cksum32, 10, 8, 0, 0);
  add(Op::Halt, 0, 0, 0, 0);

  std::array<std::uint32_t, kNumRegs> seeds{};
  // Full flat memory at 0 so the masked addresses stay valid.
  for (std::uint64_t max_insns = 0; max_insns <= 14; ++max_insns) {
    for (std::uint64_t max_cycles = 0; max_cycles <= 40; ++max_cycles) {
      ExecLimits lim;
      lim.max_insns = max_insns;
      lim.max_cycles = max_cycles;

      DiffEnv env_a(1, /*base=*/0, /*size=*/0x10000);
      Interpreter interp(prog, env_a);
      const ExecResult a = interp.run(lim);

      DiffEnv env_j(1, /*base=*/0, /*size=*/0x10000);
      JitBackend jit(prog);
      std::array<std::uint32_t, kNumRegs> jregs = seeds;
      const ExecResult j = jit.run(env_j, jregs, lim);

      ASSERT_EQ(static_cast<int>(a.outcome), static_cast<int>(j.outcome))
          << "insns=" << max_insns << " cycles=" << max_cycles;
      ASSERT_EQ(a.insns, j.insns) << max_insns << "/" << max_cycles;
      ASSERT_EQ(a.cycles, j.cycles) << max_insns << "/" << max_cycles;
      ASSERT_EQ(a.fault_pc, j.fault_pc) << max_insns << "/" << max_cycles;
      ASSERT_EQ(a.result, j.result) << max_insns << "/" << max_cycles;
      for (std::uint32_t r = 0; r < kNumRegs; ++r) {
        ASSERT_EQ(interp.reg(static_cast<Reg>(r)), jregs[r]) << "r" << r;
      }
    }
  }
  // The conditional branch does not end the region, so the program is two
  // superblocks: @0 through the fall-through side of the Bne, and the
  // branch target @9.
  JitBackend jit(prog);
  EXPECT_EQ(jit.superblock_count(), 2u);
}

TEST(BackendDifferential, JrChkUnmappedTargetFaults) {
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, 7});
  prog.insns.push_back({Op::JrChk, 5, 0, 0, 0});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});
  prog.indirect_map = {{3, 2}};
  prog.sandboxed = true;

  const Pair p = run_both(prog, 2);
  EXPECT_EQ(p.interp.outcome, Outcome::IndirectJumpFault);
  EXPECT_EQ(p.jit.outcome, Outcome::IndirectJumpFault);
  EXPECT_EQ(p.interp.fault_pc, 1u);
  EXPECT_EQ(p.jit.fault_pc, 1u);
  EXPECT_EQ(p.interp.insns, p.jit.insns);
  EXPECT_EQ(p.interp.cycles, p.jit.cycles);

  // Mapped variant lands, including through the sparse (out-of-dense-range)
  // side of the shared jump table.
  Program mapped = prog;
  mapped.indirect_map = {{7, 2}};
  const Pair pm = run_both(mapped, 2);
  EXPECT_EQ(pm.interp.outcome, Outcome::Halted);
  EXPECT_EQ(pm.jit.outcome, Outcome::Halted);

  Program sparse = prog;
  const std::uint32_t big = static_cast<std::uint32_t>(kMaxProgramLen) + 123;
  sparse.insns[0].imm = big;
  sparse.indirect_map = {{big, 2}};
  const Pair ps = run_both(sparse, 2);
  EXPECT_EQ(ps.interp.outcome, Outcome::Halted);
  EXPECT_EQ(ps.jit.outcome, Outcome::Halted);
}

TEST(BackendDifferential, FaultInsideFusedPairReportsSecondHalf) {
  // Andi+Sw mask+store pair; the store's address is outside every
  // segment, so the fault must surface at the store's own pc with both
  // halves counted.
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, 0xdead0000});
  prog.insns.push_back({Op::Andi, 6, 5, 0, 0xFFFF0000});
  prog.insns.push_back({Op::Sw, 5, 6, 0, 0});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});

  const Pair p = run_both(prog, 3);
  EXPECT_EQ(p.interp.outcome, Outcome::MemFault);
  EXPECT_EQ(p.jit.outcome, Outcome::MemFault);
  EXPECT_EQ(p.interp.fault_pc, 2u);
  EXPECT_EQ(p.jit.fault_pc, 2u);
  EXPECT_EQ(p.interp.insns, 3u);
  EXPECT_EQ(p.jit.insns, 3u);
  EXPECT_EQ(p.interp.cycles, p.jit.cycles);
}

TEST(BackendDifferential, AbortReachedThroughFusedBranch) {
  // Sltu+Bne compare+branch pair; the taken branch lands on an Abort in
  // another superblock.
  Program prog;
  prog.insns.push_back({Op::Movi, 5, 0, 0, 1});
  prog.insns.push_back({Op::Movi, 6, 0, 0, 2});
  prog.insns.push_back({Op::Sltu, 7, 5, 6, 0});
  prog.insns.push_back({Op::Bne, 7, 0, 0, 5});
  prog.insns.push_back({Op::Halt, 0, 0, 0, 0});
  prog.insns.push_back({Op::Abort, 0, 0, 0, 77});

  const Pair p = run_both(prog, 4);
  EXPECT_EQ(p.interp.outcome, Outcome::VoluntaryAbort);
  EXPECT_EQ(p.jit.outcome, Outcome::VoluntaryAbort);
  EXPECT_EQ(p.interp.abort_code, 77u);
  EXPECT_EQ(p.jit.abort_code, 77u);
  EXPECT_EQ(p.interp.fault_pc, 5u);
  EXPECT_EQ(p.jit.fault_pc, 5u);
  EXPECT_EQ(p.interp.insns, p.jit.insns);
  EXPECT_EQ(p.interp.cycles, p.jit.cycles);
}

}  // namespace
}  // namespace ash::vcode
