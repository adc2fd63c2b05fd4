#include "vcode/jit/jit.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "trace/trace.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "vcode/opcodes.hpp"

namespace ash::vcode {

// Everything the dispatch loop touches during a run. Flat, so the hot
// state stays in host registers.
struct JitBackend::RunCtx {
  std::uint32_t* regs = nullptr;
  Env* env = nullptr;
  const ExecLimits* limits = nullptr;
  const JumpTable* jt = nullptr;
  std::uint32_t n = 0;

  Env::FastMem fm;

  // res.insns / res.cycles hold the exact counters as of the *current
  // superblock entry*, with dynamic (memory/trusted) cycles folded in as
  // they occur; the static per-op charges stay implicit until an exit
  // finalizes them from the op's prefix sums.
  ExecResult res;
  detail::ResumeState rs;  // software budget + call stack (original pcs)

  std::uint32_t exit_pc = 0;
  Outcome exit_outcome = Outcome::Halted;
  bool delegate = false;
};

namespace {

using EInsn = JitBackend::EInsn;
using XOp = JitBackend::XOp;
using RunCtx = JitBackend::RunCtx;
using LoopInfo = JitBackend::LoopInfo;
using BodyOp = JitBackend::BodyOp;

constexpr std::uint32_t kNoTarget = JitBackend::kNoTarget;
constexpr std::uint32_t kNoPost = JitBackend::kNoPost;

float as_float(std::uint32_t bits) noexcept {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

std::uint32_t as_bits(float f) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

/// [addr, addr+len) fully inside [lo, hi)? No-overflow form; also exact
/// for the multi-word ranges of the fused loop.
inline bool in_window(std::uint32_t addr, std::uint32_t len, std::uint32_t lo,
                      std::uint32_t hi) {
  return addr >= lo && addr < hi && hi - addr >= len;
}

/// Inlined direct-mapped cache model (sim::Cache::access semantics),
/// bit-identical to the interpreter's: read miss = penalty + tag fill;
/// write = write_cost hit or miss, never a fill; counters per line.
inline std::uint64_t fm_cycles(const Env::FastMem& fm, std::uint32_t addr,
                               std::uint32_t len, bool is_write) {
  std::uint64_t extra = 0;
  const std::uint32_t first = addr >> fm.dline_shift;
  const std::uint32_t last = (addr + (len - 1)) >> fm.dline_shift;
  for (std::uint32_t line = first; line <= last; ++line) {
    const std::uint32_t idx = line & fm.dline_mask;
    const std::uint32_t tag = line + 1;
    if (fm.dtags[idx] == tag) {
      ++*fm.dhits;
      if (is_write) extra += fm.dwrite_cost;
      continue;
    }
    ++*fm.dmisses;
    if (is_write) {
      extra += fm.dwrite_cost;
      continue;
    }
    extra += fm.dread_miss_penalty;
    fm.dtags[idx] = tag;
  }
  return extra;
}

inline std::uint64_t mem_dyn(RunCtx& c, std::uint32_t addr, std::uint32_t len,
                             bool is_write) {
  return c.fm.dtags != nullptr ? fm_cycles(c.fm, addr, len, is_write)
                               : c.env->mem_cycles(addr, len, is_write);
}

/// Finalize the exact counters at op `t` and set a final outcome.
/// Returns false so memory/trusted helpers can tail it.
inline bool jfail(const EInsn* t, RunCtx& c, Outcome o, std::uint32_t at) {
  c.res.insns += t->sum_insns;
  c.res.cycles += t->sum_cycles;
  c.exit_outcome = o;
  c.exit_pc = at;
  return false;
}

/// Post-dynamic-cost re-check: the hoisted guard's cycle bound goes stale
/// whenever a dynamic cost lands mid-superblock. `post_bound` carries the
/// static cost through this op plus the remaining guarded positions, so
/// c.res.cycles (entry + dynamic so far) + post_bound bounds every
/// remaining precheck the interpreter would perform before the last op.
inline bool jstale(const EInsn* t, RunCtx& c) {
  if (c.limits->max_cycles != 0 && t->post_bound != kNoPost &&
      c.res.cycles + t->post_bound >= c.limits->max_cycles) {
    c.res.insns += t->sum_insns;
    c.res.cycles += t->sum_cycles;
    c.delegate = true;
    c.exit_pc = t->pc + 1;
    return false;
  }
  return true;
}

constexpr std::uint32_t jmem_len(Op m) {
  if (m == Op::Lhu || m == Op::Lh || m == Op::Sh) return 2;
  if (m == Op::Lbu || m == Op::Lb || m == Op::Sb) return 1;
  return 4;
}
constexpr bool jmem_aligned(Op m) { return m != Op::Lwu_u && m != Op::Sw_u; }
constexpr bool jmem_store(Op m) {
  return m == Op::Sw || m == Op::Sh || m == Op::Sb || m == Op::Sw_u;
}

/// Load/store template: alignment check (unless the lowering folded it),
/// inlined fast-mem window checks with the virtual-Env fallback, cache
/// model charge, post-dynamic re-check. Returns false on any exit.
template <Op M>
inline bool mem_do(const EInsn* t, RunCtx& c) {
  const std::uint32_t addr = c.regs[t->b] + t->imm;
  constexpr std::uint32_t len = jmem_len(M);
  if constexpr (jmem_aligned(M) && len > 1) {
    if ((addr & (len - 1)) != 0) {
      return jfail(t, c, Outcome::AlignFault, t->pc);
    }
  }
  if (c.fm.mem != nullptr) {
    const bool owner = in_window(addr, len, c.fm.owner_lo, c.fm.owner_hi);
    if constexpr (jmem_store(M)) {
      if (!owner) return jfail(t, c, Outcome::MemFault, t->pc);
      const std::uint32_t v = c.regs[t->a];
      std::memcpy(c.fm.mem + (addr - c.fm.mem_base), &v, len);
      c.res.cycles += mem_dyn(c, addr, len, /*is_write=*/true);
    } else {
      if (!owner && !in_window(addr, len, c.fm.msg_lo, c.fm.msg_hi)) {
        return jfail(t, c, Outcome::MemFault, t->pc);
      }
      std::uint32_t v = 0;
      std::memcpy(&v, c.fm.mem + (addr - c.fm.mem_base), len);
      c.res.cycles += mem_dyn(c, addr, len, /*is_write=*/false);
      if constexpr (M == Op::Lh) {
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
      }
      if constexpr (M == Op::Lb) {
        v = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
      }
      c.regs[t->a] = v;
      c.regs[kRegZero] = 0;
    }
    return jstale(t, c);
  }
  if constexpr (jmem_store(M)) {
    const std::uint32_t v = c.regs[t->a];
    if (!c.env->mem_write(addr, &v, len)) {
      return jfail(t, c, Outcome::MemFault, t->pc);
    }
    c.res.cycles += c.env->mem_cycles(addr, len, /*is_write=*/true);
  } else {
    std::uint8_t buf[4] = {};
    if (!c.env->mem_read(addr, buf, len)) {
      return jfail(t, c, Outcome::MemFault, t->pc);
    }
    c.res.cycles += c.env->mem_cycles(addr, len, /*is_write=*/false);
    std::uint32_t v = 0;
    std::memcpy(&v, buf, len);  // simulated machine is little-endian
    if constexpr (M == Op::Lh) {
      v = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
    }
    if constexpr (M == Op::Lb) {
      v = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
    }
    c.regs[t->a] = v;
    c.regs[kRegZero] = 0;
  }
  return jstale(t, c);
}

/// Apply a fused loop's register-pure body in source order on the live
/// register file. The matcher admits only non-faulting ops that never
/// touch the loop-carried src/dst/len registers.
inline void apply_body(const LoopInfo& L, std::uint32_t* regs) {
  for (const BodyOp& f : L.body) {
    std::uint32_t v;
    switch (f.op) {
      case Op::Nop: continue;
      case Op::Movi: v = f.imm; break;
      case Op::Mov: v = regs[f.b]; break;
      case Op::Addu:
      case Op::Add: v = regs[f.b] + regs[f.c]; break;
      case Op::Addiu: v = regs[f.b] + f.imm; break;
      case Op::Subu:
      case Op::Sub: v = regs[f.b] - regs[f.c]; break;
      case Op::Mulu: v = regs[f.b] * regs[f.c]; break;
      case Op::And: v = regs[f.b] & regs[f.c]; break;
      case Op::Andi: v = regs[f.b] & f.imm; break;
      case Op::Or: v = regs[f.b] | regs[f.c]; break;
      case Op::Ori: v = regs[f.b] | f.imm; break;
      case Op::Xor: v = regs[f.b] ^ regs[f.c]; break;
      case Op::Xori: v = regs[f.b] ^ f.imm; break;
      case Op::Sll: v = regs[f.b] << (regs[f.c] & 31); break;
      case Op::Slli: v = regs[f.b] << (f.imm & 31); break;
      case Op::Srl: v = regs[f.b] >> (regs[f.c] & 31); break;
      case Op::Srli: v = regs[f.b] >> (f.imm & 31); break;
      case Op::Sra:
        v = static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[f.b]) >>
                                       (regs[f.c] & 31));
        break;
      case Op::Srai:
        v = static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[f.b]) >>
                                       (f.imm & 31));
        break;
      case Op::Sltu: v = regs[f.b] < regs[f.c] ? 1 : 0; break;
      case Op::Slt:
        v = static_cast<std::int32_t>(regs[f.b]) <
                    static_cast<std::int32_t>(regs[f.c])
                ? 1
                : 0;
        break;
      case Op::Fadd: v = as_bits(as_float(regs[f.b]) + as_float(regs[f.c])); break;
      case Op::Fmul: v = as_bits(as_float(regs[f.b]) * as_float(regs[f.c])); break;
      case Op::Cksum32:
        v = util::cksum32_accumulate(regs[f.a], regs[f.b]);
        break;
      case Op::Bswap32: v = util::bswap32(regs[f.b]); break;
      case Op::Bswap16:
        v = util::bswap16(static_cast<std::uint16_t>(regs[f.b]));
        break;
      default: continue;  // unreachable: the matcher filtered the body
    }
    regs[f.a] = v;
    regs[kRegZero] = 0;
  }
}

/// The computed-goto dispatch loop. The label table below must mirror
/// XOp's declaration order exactly.
void exec(const EInsn* code, const std::uint32_t* entry_of,
          const LoopInfo* loops, RunCtx& c) {
  static const void* const kLabel[] = {
      &&x_Guard, &&x_EndFall, &&x_End, &&x_Bad,
      &&x_Halt, &&x_Abort, &&x_Jmp, &&x_Jr, &&x_JrChk, &&x_Call, &&x_Ret,
      &&x_Beq, &&x_Bne, &&x_Bltu, &&x_Bgeu, &&x_Blt, &&x_Bge,
      &&x_Budget,
      &&x_Nop,
      &&x_Movi, &&x_Mov,
      &&x_Addu, &&x_Addiu, &&x_Subu, &&x_Mulu, &&x_Divu, &&x_Remu,
      &&x_And, &&x_Andi, &&x_Or, &&x_Ori, &&x_Xor, &&x_Xori,
      &&x_Sll, &&x_Slli, &&x_Srl, &&x_Srli, &&x_Sra, &&x_Srai,
      &&x_Sltu, &&x_Slt, &&x_Fadd, &&x_Fmul,
      &&x_Lw, &&x_Lhu, &&x_Lh, &&x_Lbu, &&x_Lb, &&x_LwU,
      &&x_Sw, &&x_Sh, &&x_Sb, &&x_SwU,
      &&x_AlignFault,
      &&x_Cksum32, &&x_Bswap32, &&x_Bswap16,
      &&x_Pin, &&x_Pout,
      &&x_TMsgLen, &&x_TSend, &&x_TDilp, &&x_TUserCopy, &&x_TMsgLoad,
      &&x_FusedLoop,
  };
  static_assert(sizeof(kLabel) / sizeof(kLabel[0]) ==
                static_cast<std::size_t>(XOp::kCount));

  std::uint32_t* const regs = c.regs;
  const std::uint64_t max_insns = c.limits->max_insns;
  const std::uint64_t max_cycles = c.limits->max_cycles;
  const EInsn* t = code + entry_of[0];

#define DISPATCH() goto* kLabel[static_cast<std::size_t>(t->op)]
#define NEXT()     \
  do {             \
    ++t;           \
    DISPATCH();    \
  } while (0)
#define JUMP(idx)        \
  do {                   \
    t = code + (idx);    \
    DISPATCH();          \
  } while (0)
#define FINALIZE()                  \
  do {                              \
    c.res.insns += t->sum_insns;    \
    c.res.cycles += t->sum_cycles;  \
  } while (0)
#define EXIT(o, at)          \
  do {                       \
    c.exit_outcome = (o);    \
    c.exit_pc = (at);        \
    return;                  \
  } while (0)
#define FAULT(o)             \
  do {                       \
    FINALIZE();              \
    EXIT(o, t->pc);          \
  } while (0)
#define HANDOFF(at)          \
  do {                       \
    c.delegate = true;       \
    c.exit_pc = (at);        \
    return;                  \
  } while (0)
/* Enter a superblock whose original index is not statically known
   (indirect jumps, returns). Leaders cover every legal value; hand off
   defensively otherwise. */
#define ENTER(idx)                            \
  do {                                        \
    const std::uint32_t ei_ = entry_of[idx];  \
    if (ei_ == kNoTarget) HANDOFF(idx);       \
    JUMP(ei_);                                \
  } while (0)
#define BRANCH(cond)                                       \
  do {                                                     \
    if (cond) {                                            \
      FINALIZE();                                          \
      if (t->target == kNoTarget) {                        \
        EXIT(Outcome::BadInstruction, t->imm);             \
      }                                                    \
      JUMP(t->target);                                     \
    }                                                      \
    NEXT();                                                \
  } while (0)
#define ALU(expr)             \
  do {                        \
    regs[t->a] = (expr);      \
    regs[kRegZero] = 0;       \
    NEXT();                   \
  } while (0)
#define MEM(M)                        \
  do {                                \
    if (!mem_do<M>(t, c)) return;     \
    NEXT();                          \
  } while (0)

  DISPATCH();

x_Guard:
  // One hoisted precheck per superblock: imm = instruction count of the
  // full fall-through path, sum_cycles = its static cost minus the last
  // op. A trip means a ceiling *may* fire inside; counters are already
  // exact here, so hand the state to the interpreter core.
  if (c.res.insns + t->imm - 1 >= max_insns ||
      (max_cycles != 0 && c.res.cycles + t->sum_cycles >= max_cycles)) {
    HANDOFF(t->pc);
  }
  NEXT();

x_EndFall:
  FINALIZE();
  JUMP(t->target);

x_End:
  EXIT(Outcome::BadInstruction, t->pc);

x_Bad:
  FAULT(Outcome::BadInstruction);

x_Halt:
  FAULT(Outcome::Halted);

x_Abort:
  c.res.abort_code = t->imm;
  FAULT(Outcome::VoluntaryAbort);

x_Jmp:
  FINALIZE();
  if (t->target == kNoTarget) EXIT(Outcome::BadInstruction, t->imm);
  JUMP(t->target);

x_Jr: {
  FINALIZE();
  const std::uint32_t tv = regs[t->a];
  if (tv >= c.n) EXIT(Outcome::IndirectJumpFault, t->pc);
  ENTER(tv);
}

x_JrChk: {
  FINALIZE();
  const std::int64_t tr = c.jt->lookup(regs[t->a]);
  if (tr < 0) EXIT(Outcome::IndirectJumpFault, t->pc);
  const std::uint32_t idx = static_cast<std::uint32_t>(tr);
  if (idx >= c.n) EXIT(Outcome::BadInstruction, idx);
  ENTER(idx);
}

x_Call:
  FINALIZE();
  if (c.rs.call_depth >= kMaxCallDepth) {
    EXIT(Outcome::CallDepthExceeded, t->pc);
  }
  c.rs.call_stack[c.rs.call_depth++] = t->pc + 1;
  if (t->target == kNoTarget) EXIT(Outcome::BadInstruction, t->imm);
  JUMP(t->target);

x_Ret: {
  FINALIZE();
  if (c.rs.call_depth == 0) EXIT(Outcome::CallDepthExceeded, t->pc);
  const std::uint32_t rpc = c.rs.call_stack[--c.rs.call_depth];
  if (rpc >= c.n) EXIT(Outcome::BadInstruction, rpc);
  ENTER(rpc);
}

x_Beq: BRANCH(regs[t->a] == regs[t->b]);
x_Bne: BRANCH(regs[t->a] != regs[t->b]);
x_Bltu: BRANCH(regs[t->a] < regs[t->b]);
x_Bgeu: BRANCH(regs[t->a] >= regs[t->b]);
x_Blt:
  BRANCH(static_cast<std::int32_t>(regs[t->a]) <
         static_cast<std::int32_t>(regs[t->b]));
x_Bge:
  BRANCH(static_cast<std::int32_t>(regs[t->a]) >=
         static_cast<std::int32_t>(regs[t->b]));

x_Budget:
  if (c.rs.budget <= t->imm) FAULT(Outcome::BudgetExceeded);
  c.rs.budget -= t->imm;
  NEXT();

x_Nop:
  NEXT();

x_Movi: ALU(t->imm);
x_Mov: ALU(regs[t->b]);
x_Addu: ALU(regs[t->b] + regs[t->c]);
x_Addiu: ALU(regs[t->b] + t->imm);
x_Subu: ALU(regs[t->b] - regs[t->c]);
x_Mulu: ALU(regs[t->b] * regs[t->c]);
x_Divu: {
  const std::uint32_t d = regs[t->c];
  if (d == 0) FAULT(Outcome::DivideByZero);
  ALU(regs[t->b] / d);
}
x_Remu: {
  const std::uint32_t d = regs[t->c];
  if (d == 0) FAULT(Outcome::DivideByZero);
  ALU(regs[t->b] % d);
}
x_And: ALU(regs[t->b] & regs[t->c]);
x_Andi: ALU(regs[t->b] & t->imm);
x_Or: ALU(regs[t->b] | regs[t->c]);
x_Ori: ALU(regs[t->b] | t->imm);
x_Xor: ALU(regs[t->b] ^ regs[t->c]);
x_Xori: ALU(regs[t->b] ^ t->imm);
x_Sll: ALU(regs[t->b] << (regs[t->c] & 31));
x_Slli: ALU(regs[t->b] << (t->imm & 31));
x_Srl: ALU(regs[t->b] >> (regs[t->c] & 31));
x_Srli: ALU(regs[t->b] >> (t->imm & 31));
x_Sra:
  ALU(static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[t->b]) >>
                                 (regs[t->c] & 31)));
x_Srai:
  ALU(static_cast<std::uint32_t>(static_cast<std::int32_t>(regs[t->b]) >>
                                 (t->imm & 31)));
x_Sltu: ALU(regs[t->b] < regs[t->c] ? 1 : 0);
x_Slt:
  ALU(static_cast<std::int32_t>(regs[t->b]) <
              static_cast<std::int32_t>(regs[t->c])
          ? 1
          : 0);
x_Fadd: ALU(as_bits(as_float(regs[t->b]) + as_float(regs[t->c])));
x_Fmul: ALU(as_bits(as_float(regs[t->b]) * as_float(regs[t->c])));

x_Lw: MEM(Op::Lw);
x_Lhu: MEM(Op::Lhu);
x_Lh: MEM(Op::Lh);
x_Lbu: MEM(Op::Lbu);
x_Lb: MEM(Op::Lb);
x_LwU: MEM(Op::Lwu_u);
x_Sw: MEM(Op::Sw);
x_Sh: MEM(Op::Sh);
x_Sb: MEM(Op::Sb);
x_SwU: MEM(Op::Sw_u);

x_AlignFault:
  FAULT(Outcome::AlignFault);

x_Cksum32: ALU(util::cksum32_accumulate(regs[t->a], regs[t->b]));
x_Bswap32: ALU(util::bswap32(regs[t->b]));
x_Bswap16: ALU(util::bswap16(static_cast<std::uint16_t>(regs[t->b])));

x_Pin: {
  std::uint32_t v = 0;
  if (!c.env->pipe_in(t->c, &v)) FAULT(Outcome::StreamFault);
  ALU(v);
}
x_Pout:
  if (!c.env->pipe_out(t->c, regs[t->a])) FAULT(Outcome::StreamFault);
  NEXT();

x_TMsgLen: {
  std::uint32_t len = 0;
  std::uint64_t cyc = 0;
  if (!c.env->t_msglen(&len, &cyc)) FAULT(Outcome::TrustedDenied);
  c.res.cycles += cyc;
  regs[t->a] = len;
  regs[kRegZero] = 0;
  if (!jstale(t, c)) return;
  NEXT();
}
x_TSend: {
  std::uint32_t status = 0;
  std::uint64_t cyc = 0;
  if (!c.env->t_send(regs[t->a], regs[t->b], regs[t->c], &status, &cyc)) {
    FAULT(Outcome::TrustedDenied);
  }
  c.res.cycles += cyc;
  regs[kRegArg0] = status;
  if (!jstale(t, c)) return;
  NEXT();
}
x_TDilp: {
  // imm < kNumRegs is guaranteed by the lowering (else XOp::Bad).
  std::uint32_t status = 0;
  std::uint64_t cyc = 0;
  if (!c.env->t_dilp(regs[t->a], regs[t->b], regs[t->c], regs[t->imm],
                     &status, &cyc)) {
    FAULT(Outcome::TrustedDenied);
  }
  c.res.cycles += cyc;
  regs[kRegArg0] = status;
  if (!jstale(t, c)) return;
  NEXT();
}
x_TUserCopy: {
  std::uint32_t status = 0;
  std::uint64_t cyc = 0;
  if (!c.env->t_usercopy(regs[t->a], regs[t->b], regs[t->c], &status, &cyc)) {
    FAULT(Outcome::TrustedDenied);
  }
  c.res.cycles += cyc;
  regs[kRegArg0] = status;
  if (!jstale(t, c)) return;
  NEXT();
}
x_TMsgLoad: {
  std::uint32_t value = 0;
  std::uint64_t cyc = 0;
  if (!c.env->t_msgload(regs[t->b] + t->imm, &value, &cyc)) {
    FAULT(Outcome::TrustedDenied);
  }
  c.res.cycles += cyc;
  regs[t->a] = value;
  regs[kRegZero] = 0;
  if (!jstale(t, c)) return;
  NEXT();
}

x_FusedLoop: {
  // Native single-pass transfer. Preconditions: no cycle ceiling (the
  // DILP engine's regime — only the instruction backstop applies), host
  // fast memory, a nonzero word-multiple length, and the whole source
  // and destination ranges inside the fast-mem windows. Anything else
  // falls through to the generic superblock (the next slot), including
  // the re-entry of each generically executed iteration.
  if (max_cycles != 0 || c.fm.mem == nullptr) NEXT();
  const LoopInfo& L = loops[t->imm];
  const std::uint32_t lenb = regs[L.r_len];
  if (lenb == 0 || (lenb & 3) != 0) NEXT();
  std::uint32_t src = regs[L.r_src];
  std::uint32_t dst = regs[L.r_dst];
  if (!in_window(src, lenb, c.fm.owner_lo, c.fm.owner_hi) &&
      !in_window(src, lenb, c.fm.msg_lo, c.fm.msg_hi)) {
    NEXT();
  }
  if (!in_window(dst, lenb, c.fm.owner_lo, c.fm.owner_hi)) NEXT();
  // Iterations provably clear of the instruction backstop: running k full
  // iterations needs entry_insns + k*len <= max_insns.
  const std::uint64_t avail =
      max_insns > c.res.insns ? max_insns - c.res.insns : 0;
  const std::uint64_t k_max = avail / L.len;
  if (k_max == 0) NEXT();
  const std::uint64_t iters = lenb / 4u;
  const std::uint64_t k = iters < k_max ? iters : k_max;
  std::uint64_t dyn = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    std::uint32_t w;
    std::memcpy(&w, c.fm.mem + (src - c.fm.mem_base), 4);
    dyn += mem_dyn(c, src, 4, /*is_write=*/false);
    regs[L.load_reg] = w;
    regs[kRegZero] = 0;
    apply_body(L, regs);
    const std::uint32_t v = regs[L.store_reg];
    std::memcpy(c.fm.mem + (dst - c.fm.mem_base), &v, 4);
    dyn += mem_dyn(c, dst, 4, /*is_write=*/true);
    src += 4;
    dst += 4;
  }
  regs[L.r_src] = src;
  regs[L.r_dst] = dst;
  regs[L.r_len] = lenb - static_cast<std::uint32_t>(k * 4);
  c.res.insns += k * L.len;
  c.res.cycles += k * L.cyc_iter + dyn;
  if (k == iters) JUMP(L.fall_target);  // last Bne falls through
  HANDOFF(L.start_pc);  // backstop may fire: counters exact at loop head
}

#undef DISPATCH
#undef NEXT
#undef JUMP
#undef FINALIZE
#undef EXIT
#undef FAULT
#undef HANDOFF
#undef ENTER
#undef BRANCH
#undef ALU
#undef MEM
}

std::uint32_t jbase_cost(Op op) {
  return valid_op(static_cast<std::uint8_t>(op)) ? op_info(op).base_cycles : 0;
}

/// leader[i] = 1 iff original index i begins a superblock. The
/// fall-through successor of a *conditional* branch is not a leader — the
/// superblock continues through it. Unconditional transfers end the
/// region, and every branch/jump/call target, call return site, and
/// translated indirect target begins one. An unchecked Jr degenerates to
/// every-index-is-a-leader.
std::vector<std::uint8_t> superblock_leaders(const Program& prog) {
  const auto n = static_cast<std::uint32_t>(prog.insns.size());
  std::vector<std::uint8_t> leader(static_cast<std::size_t>(n) + 1, 0);
  if (n == 0) return leader;
  leader[0] = 1;
  bool any_jr = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    switch (prog.insns[i].op) {
      case Op::Jmp:
      case Op::Call:
        if (prog.insns[i].imm < n) leader[prog.insns[i].imm] = 1;
        if (i + 1 < n) leader[i + 1] = 1;
        break;
      case Op::Beq:
      case Op::Bne:
      case Op::Bltu:
      case Op::Bgeu:
      case Op::Blt:
      case Op::Bge:
        if (prog.insns[i].imm < n) leader[prog.insns[i].imm] = 1;
        break;
      case Op::Jr:
        any_jr = true;
        [[fallthrough]];
      case Op::JrChk:
      case Op::Ret:
      case Op::Halt:
      case Op::Abort:
        if (i + 1 < n) leader[i + 1] = 1;
        break;
      default:
        break;
    }
  }
  auto mark = [&](std::uint32_t v) {
    if (v < n) leader[v] = 1;
  };
  if (!prog.indirect_map.empty()) {
    for (const auto& [k, v] : prog.indirect_map) mark(v);
  } else {
    for (std::uint32_t tgt : prog.indirect_targets) mark(tgt);
  }
  if (any_jr) std::fill(leader.begin(), leader.begin() + n, 1);
  return leader;
}

/// Ops a fused-loop body may contain: register-pure and non-faulting.
bool body_op_ok(Op op) {
  switch (op) {
    case Op::Nop:
    case Op::Movi:
    case Op::Mov:
    case Op::Addu:
    case Op::Add:
    case Op::Addiu:
    case Op::Subu:
    case Op::Sub:
    case Op::Mulu:
    case Op::And:
    case Op::Andi:
    case Op::Or:
    case Op::Ori:
    case Op::Xor:
    case Op::Xori:
    case Op::Sll:
    case Op::Slli:
    case Op::Srl:
    case Op::Srli:
    case Op::Sra:
    case Op::Srai:
    case Op::Sltu:
    case Op::Slt:
    case Op::Fadd:
    case Op::Fmul:
    case Op::Cksum32:
    case Op::Bswap32:
    case Op::Bswap16:
      return true;
    default:
      return false;
  }
}

/// Recognize the dilp::Compiler word-loop skeleton in superblock [s, e).
/// Layout (see dilp/compiler.cpp): Lwu_u load,(src)+0 ; body... ;
/// Sw_u store,(dst)+0 ; Addiu src,+4 ; Addiu dst,+4 ; Addiu len,-4 ;
/// Bne len,r0 -> s. The body must never read or write src/dst/len (the
/// native pass keeps them in locals), and loads/stores must not use them
/// as data registers either.
bool match_fused_loop(const Program& prog, std::uint32_t s, std::uint32_t e,
                      LoopInfo* out) {
  if (e - s < 6) return false;
  const auto& ins = prog.insns;
  const Insn& bne = ins[e - 1];
  if (bne.op != Op::Bne || bne.b != kRegZero || bne.imm != s) return false;
  const Insn& dec = ins[e - 2];
  if (dec.op != Op::Addiu || dec.a != bne.a || dec.b != bne.a ||
      dec.imm != static_cast<std::uint32_t>(-4)) {
    return false;
  }
  const Insn& ld = ins[s];
  const Insn& st = ins[e - 5];
  const Insn& bsrc = ins[e - 4];
  const Insn& bdst = ins[e - 3];
  if (ld.op != Op::Lwu_u || ld.imm != 0) return false;
  if (st.op != Op::Sw_u || st.imm != 0) return false;
  const std::uint8_t r_src = ld.b;
  const std::uint8_t r_dst = st.b;
  const std::uint8_t r_len = dec.a;
  if (bsrc.op != Op::Addiu || bsrc.a != r_src || bsrc.b != r_src ||
      bsrc.imm != 4) {
    return false;
  }
  if (bdst.op != Op::Addiu || bdst.a != r_dst || bdst.b != r_dst ||
      bdst.imm != 4) {
    return false;
  }
  if (r_src == kRegZero || r_dst == kRegZero || r_len == kRegZero) {
    return false;
  }
  if (r_src == r_dst || r_src == r_len || r_dst == r_len) return false;
  auto pinned = [&](std::uint8_t r) {
    return r == r_src || r == r_dst || r == r_len;
  };
  if (pinned(ld.a) || pinned(st.a)) return false;
  std::vector<BodyOp> body;
  for (std::uint32_t j = s + 1; j + 5 < e; ++j) {
    const Insn& f = ins[j];
    if (!body_op_ok(f.op)) return false;
    const OpInfo& info = op_info(f.op);
    if ((info.writes_a || info.reads_a) && pinned(f.a)) return false;
    if (info.reads_b && pinned(f.b)) return false;
    if (info.reads_c && pinned(f.c)) return false;
    body.push_back({f.op, f.a, f.b, f.c, f.imm});
  }
  out->start_pc = s;
  out->len = e - s;
  out->r_src = r_src;
  out->r_dst = r_dst;
  out->r_len = r_len;
  out->load_reg = ld.a;
  out->store_reg = st.a;
  out->body = std::move(body);
  return true;
}

/// Per-superblock constant tracking for the guard folding: bit r of
/// `known` means regs[r] has the compile-time value val[r] on every path
/// reaching the current position (superblocks are single-entry and
/// straight-line, so fall-through dataflow is exact). Trusted calls and
/// pipe I/O may exchange values through the bound register file, so they
/// invalidate everything; r0 is always known zero.
struct ConstState {
  std::uint64_t known = 1;  // bit 0: r0 == 0
  std::array<std::uint32_t, kNumRegs> val{};

  bool knows(std::uint8_t r) const { return (known >> r) & 1u; }
  void reset() { known = 1; }
  void set(std::uint8_t r, std::uint32_t v) {
    if (r == kRegZero) return;
    known |= 1ull << r;
    val[r] = v;
  }
  void kill(std::uint8_t r) {
    if (r == kRegZero) return;
    known &= ~(1ull << r);
  }

  void update(const Insn& f) {
    if (!valid_op(static_cast<std::uint8_t>(f.op))) return;
    const OpInfo& info = op_info(f.op);
    if (info.is_trusted || f.op == Op::Pin8 || f.op == Op::Pin16 ||
        f.op == Op::Pin32 || f.op == Op::Pout8 || f.op == Op::Pout16 ||
        f.op == Op::Pout32) {
      reset();
      return;
    }
    switch (f.op) {
      case Op::Movi: set(f.a, f.imm); return;
      case Op::Mov:
        knows(f.b) ? set(f.a, val[f.b]) : kill(f.a);
        return;
      case Op::Addiu:
        knows(f.b) ? set(f.a, val[f.b] + f.imm) : kill(f.a);
        return;
      case Op::Andi:
        knows(f.b) ? set(f.a, val[f.b] & f.imm) : kill(f.a);
        return;
      case Op::Ori:
        knows(f.b) ? set(f.a, val[f.b] | f.imm) : kill(f.a);
        return;
      case Op::Xori:
        knows(f.b) ? set(f.a, val[f.b] ^ f.imm) : kill(f.a);
        return;
      case Op::Slli:
        knows(f.b) ? set(f.a, val[f.b] << (f.imm & 31)) : kill(f.a);
        return;
      case Op::Srli:
        knows(f.b) ? set(f.a, val[f.b] >> (f.imm & 31)) : kill(f.a);
        return;
      default:
        break;
    }
    if (info.writes_a) kill(f.a);
  }
};

/// Statically evaluated branch condition; only called with both operands
/// known.
bool branch_taken(Op op, std::uint32_t a, std::uint32_t b) {
  switch (op) {
    case Op::Beq: return a == b;
    case Op::Bne: return a != b;
    case Op::Bltu: return a < b;
    case Op::Bgeu: return a >= b;
    case Op::Blt:
      return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
    case Op::Bge:
      return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
    default: return false;
  }
}

}  // namespace

JitBackend::JitBackend(const Program& prog) : prog_(prog), jt_(prog_) {
  build();
}

void JitBackend::build() {
  const auto n = static_cast<std::uint32_t>(prog_.insns.size());
  const auto leader = superblock_leaders(prog_);

  struct Fixup {
    std::size_t slot;
    std::uint32_t target;
    bool allow_end;  // EndFall may resolve to the synthetic pc==n slot
  };
  std::vector<Fixup> fixups;
  struct LoopFix {
    std::size_t loop;
    std::uint32_t target;
  };
  std::vector<LoopFix> loop_fixups;

  entry_of_.assign(static_cast<std::size_t>(n) + 1, kNoTarget);

  std::vector<std::uint32_t> prefix;
  ConstState cs;
  for (std::uint32_t s = 0; s < n;) {
    std::uint32_t e = s + 1;
    while (e < n && !leader[e]) ++e;
    const std::uint32_t len = e - s;

    // prefix[k] = static cycles of positions s .. s+k-1.
    prefix.assign(static_cast<std::size_t>(len) + 1, 0);
    for (std::uint32_t k = 0; k < len; ++k) {
      prefix[k + 1] = prefix[k] + jbase_cost(prog_.insns[s + k].op);
    }
    const std::uint32_t guard_cycles = prefix[len - 1];

    SbMeta meta;
    meta.start = s;
    meta.len = len;
    meta.first = static_cast<std::uint32_t>(code_.size());

    LoopInfo loop;
    if (match_fused_loop(prog_, s, e, &loop)) {
      loop.cyc_iter = prefix[len];
      meta.loop = static_cast<std::int32_t>(loops_.size());
      EInsn fl;
      fl.op = XOp::FusedLoop;
      fl.imm = static_cast<std::uint32_t>(loops_.size());
      fl.pc = s;
      code_.push_back(fl);
      loop_fixups.push_back({loops_.size(), e});
      loops_.push_back(std::move(loop));
    }
    entry_of_[s] = meta.first;

    EInsn guard;
    guard.op = XOp::Guard;
    guard.imm = len;
    guard.sum_cycles = guard_cycles;
    guard.pc = s;
    code_.push_back(guard);

    cs.reset();
    for (std::uint32_t j = s; j < e; ++j) {
      const Insn& f = prog_.insns[j];
      const std::uint32_t k = j - s;
      EInsn ti;
      ti.a = f.a;
      ti.b = f.b;
      ti.c = f.c;
      ti.imm = f.imm;
      ti.pc = j;
      ti.target = kNoTarget;
      ti.sum_insns = k + 1;
      ti.sum_cycles = prefix[k + 1];
      ti.post_bound = k + 1 < len ? guard_cycles : kNoPost;

      switch (f.op) {
        case Op::Nop: ti.op = XOp::Nop; break;
        case Op::Halt: ti.op = XOp::Halt; break;
        case Op::Abort: ti.op = XOp::Abort; break;
        case Op::Jmp:
          ti.op = XOp::Jmp;
          fixups.push_back({code_.size(), f.imm, false});
          break;
        case Op::Jr: ti.op = XOp::Jr; break;
        case Op::JrChk: ti.op = XOp::JrChk; break;
        case Op::Call:
          ti.op = XOp::Call;
          fixups.push_back({code_.size(), f.imm, false});
          break;
        case Op::Ret: ti.op = XOp::Ret; break;
        case Op::Beq:
        case Op::Bne:
        case Op::Bltu:
        case Op::Bgeu:
        case Op::Blt:
        case Op::Bge:
          if (cs.knows(f.a) && cs.knows(f.b)) {
            // Constant-folded branch guard (the DPF-atom mask+compare
            // shape): the outcome is known at lowering time. Costs and
            // fault semantics are unchanged — an always-taken branch
            // becomes a direct jump, a never-taken one a fall-through.
            ++folded_;
            if (branch_taken(f.op, cs.val[f.a], cs.val[f.b])) {
              ti.op = XOp::Jmp;
              fixups.push_back({code_.size(), f.imm, false});
            } else {
              ti.op = XOp::Nop;
            }
          } else {
            switch (f.op) {
              case Op::Beq: ti.op = XOp::Beq; break;
              case Op::Bne: ti.op = XOp::Bne; break;
              case Op::Bltu: ti.op = XOp::Bltu; break;
              case Op::Bgeu: ti.op = XOp::Bgeu; break;
              case Op::Blt: ti.op = XOp::Blt; break;
              default: ti.op = XOp::Bge; break;
            }
            fixups.push_back({code_.size(), f.imm, false});
          }
          break;
        case Op::Budget: ti.op = XOp::Budget; break;
        case Op::Movi: ti.op = XOp::Movi; break;
        case Op::Mov: ti.op = XOp::Mov; break;
        case Op::Addu:
        case Op::Add: ti.op = XOp::Addu; break;
        case Op::Addiu: ti.op = XOp::Addiu; break;
        case Op::Subu:
        case Op::Sub: ti.op = XOp::Subu; break;
        case Op::Mulu: ti.op = XOp::Mulu; break;
        case Op::Divu: ti.op = XOp::Divu; break;
        case Op::Remu: ti.op = XOp::Remu; break;
        case Op::And: ti.op = XOp::And; break;
        case Op::Andi: ti.op = XOp::Andi; break;
        case Op::Or: ti.op = XOp::Or; break;
        case Op::Ori: ti.op = XOp::Ori; break;
        case Op::Xor: ti.op = XOp::Xor; break;
        case Op::Xori: ti.op = XOp::Xori; break;
        case Op::Sll: ti.op = XOp::Sll; break;
        case Op::Slli: ti.op = XOp::Slli; break;
        case Op::Srl: ti.op = XOp::Srl; break;
        case Op::Srli: ti.op = XOp::Srli; break;
        case Op::Sra: ti.op = XOp::Sra; break;
        case Op::Srai: ti.op = XOp::Srai; break;
        case Op::Sltu: ti.op = XOp::Sltu; break;
        case Op::Slt: ti.op = XOp::Slt; break;
        case Op::Fadd: ti.op = XOp::Fadd; break;
        case Op::Fmul: ti.op = XOp::Fmul; break;
        case Op::Lw:
          // Constant-folded alignment guard: a provably aligned word
          // access lowers to the unaligned-form template (identical
          // semantics once aligned); a provably misaligned one lowers to
          // a pre-faulted slot that still charges exactly.
          if (cs.knows(f.b)) {
            ++folded_;
            ti.op = ((cs.val[f.b] + f.imm) & 3u) != 0 ? XOp::AlignFault
                                                      : XOp::LwU;
          } else {
            ti.op = XOp::Lw;
          }
          break;
        case Op::Sw:
          if (cs.knows(f.b)) {
            ++folded_;
            ti.op = ((cs.val[f.b] + f.imm) & 3u) != 0 ? XOp::AlignFault
                                                      : XOp::SwU;
          } else {
            ti.op = XOp::Sw;
          }
          break;
        case Op::Lhu:
        case Op::Lh:
        case Op::Sh:
          if (cs.knows(f.b) && ((cs.val[f.b] + f.imm) & 1u) != 0) {
            ++folded_;
            ti.op = XOp::AlignFault;
          } else {
            ti.op = f.op == Op::Lhu ? XOp::Lhu
                    : f.op == Op::Lh ? XOp::Lh
                                     : XOp::Sh;
          }
          break;
        case Op::Lbu: ti.op = XOp::Lbu; break;
        case Op::Lb: ti.op = XOp::Lb; break;
        case Op::Lwu_u: ti.op = XOp::LwU; break;
        case Op::Sw_u: ti.op = XOp::SwU; break;
        case Op::Sb: ti.op = XOp::Sb; break;
        case Op::Cksum32: ti.op = XOp::Cksum32; break;
        case Op::Bswap32: ti.op = XOp::Bswap32; break;
        case Op::Bswap16: ti.op = XOp::Bswap16; break;
        case Op::Pin8:
        case Op::Pin16:
        case Op::Pin32:
          ti.op = XOp::Pin;
          ti.c = f.op == Op::Pin8 ? 1 : f.op == Op::Pin16 ? 2 : 4;
          break;
        case Op::Pout8:
        case Op::Pout16:
        case Op::Pout32:
          ti.op = XOp::Pout;
          ti.c = f.op == Op::Pout8 ? 1 : f.op == Op::Pout16 ? 2 : 4;
          break;
        case Op::TMsgLen: ti.op = XOp::TMsgLen; break;
        case Op::TSend: ti.op = XOp::TSend; break;
        case Op::TDilp:
          ti.op = f.imm >= kNumRegs ? XOp::Bad : XOp::TDilp;
          break;
        case Op::TUserCopy: ti.op = XOp::TUserCopy; break;
        case Op::TMsgLoad: ti.op = XOp::TMsgLoad; break;
        case Op::kCount: ti.op = XOp::Bad; break;
      }
      code_.push_back(ti);
      cs.update(f);
    }

    // Unconditional transfers are always the last op of their superblock
    // (their successors are leaders); everything else falls through.
    const Op last = prog_.insns[e - 1].op;
    const bool falls = last != Op::Halt && last != Op::Abort &&
                       last != Op::Jmp && last != Op::Jr &&
                       last != Op::JrChk && last != Op::Call &&
                       last != Op::Ret;
    if (falls) {
      EInsn ef;
      ef.op = XOp::EndFall;
      ef.pc = e;
      ef.sum_insns = len;
      ef.sum_cycles = prefix[len];
      fixups.push_back({code_.size(), e, true});
      code_.push_back(ef);
    }
    meta.count = static_cast<std::uint32_t>(code_.size()) - meta.first;
    sbs_.push_back(meta);
    s = e;
  }

  EInsn end;
  end.op = XOp::End;
  end.pc = n;
  entry_of_[n] = static_cast<std::uint32_t>(code_.size());
  code_.push_back(end);

  for (const auto& fx : fixups) {
    const bool in_range = fx.target < n || (fx.allow_end && fx.target == n);
    code_[fx.slot].target = in_range ? entry_of_[fx.target] : kNoTarget;
  }
  for (const auto& fx : loop_fixups) {
    loops_[fx.loop].fall_target = entry_of_[fx.target];
  }
}

std::size_t JitBackend::emitted_bytes() const noexcept {
  std::size_t bytes = code_.size() * sizeof(EInsn);
  for (const LoopInfo& l : loops_) bytes += l.body.size() * sizeof(BodyOp);
  return bytes;
}

ExecResult JitBackend::run(Env& env, std::array<std::uint32_t, kNumRegs>& regs,
                           const ExecLimits& limits) const {
  ++runs_;
  regs[kRegZero] = 0;
  env.bind_regs(regs.data());

  RunCtx c;
  c.regs = regs.data();
  c.env = &env;
  c.limits = &limits;
  c.jt = &jt_;
  c.n = static_cast<std::uint32_t>(prog_.insns.size());
  c.rs.budget = limits.software_budget;
  if (!env.fast_mem(&c.fm)) c.fm.mem = nullptr;

  exec(code_.data(), entry_of_.data(), loops_.data(), c);

  ExecResult res;
  if (c.delegate) {
    c.rs.pc = c.exit_pc;
    res = detail::run_core(prog_, env, regs.data(), limits, jt_, c.rs, c.res);
  } else {
    res = c.res;
    res.outcome = c.exit_outcome;
    res.fault_pc = c.exit_pc;
    res.result = regs[kRegArg0];
  }
  if (trace::enabled()) {
    trace::global().emit_ctx(trace::EventType::VcodeExec, trace::Engine::Jit,
                             static_cast<std::uint32_t>(res.outcome), 0,
                             res.cycles, res.insns);
  }
  return res;
}

std::string JitBackend::dump() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof line,
                "jit: %zu source insns, %zu superblocks, %zu fused loops, "
                "%zu folded guards, %zu slots\n",
                prog_.insns.size(), sbs_.size(), loops_.size(), folded_,
                code_.size());
  out += line;
  const auto n = static_cast<std::uint32_t>(prog_.insns.size());
  for (const SbMeta& sb : sbs_) {
    // Successor list straight from the source region: every in-region
    // branch contributes an edge, plus the terminator's continuation.
    std::string succs;
    const std::uint32_t e = sb.start + sb.len;
    auto add = [&succs](const std::string& s) {
      if (!succs.empty()) succs += " ";
      succs += s;
    };
    for (std::uint32_t j = sb.start; j < e; ++j) {
      const Insn& f = prog_.insns[j];
      if (!valid_op(static_cast<std::uint8_t>(f.op))) continue;
      const bool branch =
          f.op == Op::Beq || f.op == Op::Bne || f.op == Op::Bltu ||
          f.op == Op::Bgeu || f.op == Op::Blt || f.op == Op::Bge ||
          f.op == Op::Jmp || f.op == Op::Call;
      if (!branch) continue;
      if (f.imm < n) {
        std::snprintf(line, sizeof line, "@%u", f.imm);
      } else {
        std::snprintf(line, sizeof line, "@%u(bad)", f.imm);
      }
      add(line);
    }
    const Op last = prog_.insns[e - 1].op;
    if (last == Op::Halt) {
      add("halt");
    } else if (last == Op::Abort) {
      add("abort");
    } else if (last == Op::Jr || last == Op::JrChk) {
      add("indirect");
    } else if (last == Op::Ret) {
      add("ret");
    } else if (last != Op::Jmp && last != Op::Call) {
      std::snprintf(line, sizeof line, "@%u", e);
      add(line);
    }
    std::snprintf(line, sizeof line, "superblock @%u: len=%u succs=[%s]\n",
                  sb.start, sb.len, succs.c_str());
    out += line;

    for (std::uint32_t ci = sb.first; ci < sb.first + sb.count; ++ci) {
      const EInsn& t = code_[ci];
      switch (t.op) {
        case XOp::FusedLoop: {
          const LoopInfo& l = loops_[t.imm];
          std::snprintf(line, sizeof line,
                        "  fused-loop: %u insns/word, body %zu op(s), "
                        "src=r%u dst=r%u len=r%u\n",
                        l.len, l.body.size(), l.r_src, l.r_dst, l.r_len);
          out += line;
          break;
        }
        case XOp::Guard:
          std::snprintf(line, sizeof line,
                        "  guard: insns=%u static_cycles<=%u\n", t.imm,
                        t.sum_cycles);
          out += line;
          break;
        case XOp::EndFall:
          std::snprintf(line, sizeof line, "  fall-through -> @%u\n", t.pc);
          out += line;
          break;
        default: {
          const Insn& f = prog_.insns[t.pc];
          const char* folded = "";
          if (t.op == XOp::AlignFault) {
            folded = "  [folded: align-fault]";
          } else if (t.op == XOp::LwU && f.op == Op::Lw) {
            folded = "  [folded: aligned]";
          } else if (t.op == XOp::SwU && f.op == Op::Sw) {
            folded = "  [folded: aligned]";
          } else if (t.op == XOp::Jmp && f.op != Op::Jmp) {
            folded = "  [folded: taken]";
          } else if (t.op == XOp::Nop && f.op != Op::Nop) {
            folded = "  [folded: not-taken]";
          }
          std::snprintf(line, sizeof line, "  %4u: %s  [+%u insn, +%u cyc]%s\n",
                        t.pc, to_string(f).c_str(), t.sum_insns, t.sum_cycles,
                        folded);
          out += line;
          break;
        }
      }
    }
  }
  out += "<end>\n";
  return out;
}

}  // namespace ash::vcode
