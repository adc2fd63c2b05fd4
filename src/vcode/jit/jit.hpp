// Superblock JIT backend: download-time lowering of verified VCODE into a
// template-threaded host form.
//
// This is the one translated form of a downloaded handler, built once at
// install (the translate stage between sandbox and attach). The JIT lowers
// each program into *superblocks* — single-entry straight-line regions
// that continue through the fall-through side of conditional branches and
// end only at unconditional control transfers or at the next leader. The
// emitted form is executed by a computed-goto dispatch loop with:
//
//   - one hoisted budget guard per superblock (instruction count and
//     static-cycle bound of the longest fall-through path), with the exact
//     counters materialized lazily on exit via per-op prefix sums;
//   - `Env::fast_mem` two-window checks inlined into the load/store
//     templates, each of which keeps its own alignment check;
//   - fused DILP pipe chains: a superblock matching the dilp::Compiler
//     word-loop skeleton (load, register-pure pipe bodies, store, pointer
//     bumps, back-edge) is additionally lowered to a native single pass
//     over the message. It charges the cache a line at a time through
//     util::line_model (the loop's exact per-word charge, in segments) and
//     keeps the budget semantics; the checksum pipe's body runs as one
//     native checksum-and-move pass, any other body word by word.
//
// Equivalence guarantee: every simulated observable (outcome, insns,
// cycles, result, abort_code, fault_pc, final registers, final memory,
// cache-model state) is bit-identical to vcode::Interpreter on every
// program and limit combination. Whenever a hoisted guard detects that a
// ceiling *may* fire inside a superblock, the engine finalizes the exact
// machine state and hands off to detail::run_core. The interp-vs-JIT
// differential harness (tests/vcode_backend_diff_test.cpp) enforces this.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "vcode/backend.hpp"
#include "vcode/interp.hpp"
#include "vcode/program.hpp"

namespace ash::vcode {

class JitBackend {
 public:
  /// Lower `prog` (copied; the backend is self-contained).
  explicit JitBackend(const Program& prog);

  // Emitted code holds indices into its own storage.
  JitBackend(const JitBackend&) = delete;
  JitBackend& operator=(const JitBackend&) = delete;

  const Program& program() const noexcept { return prog_; }
  std::size_t superblock_count() const noexcept { return sbs_.size(); }
  std::size_t fused_loop_count() const noexcept { return loops_.size(); }
  std::uint64_t run_count() const noexcept { return runs_; }
  std::size_t emitted_bytes() const noexcept;

  BackendStats stats() const noexcept {
    return {Backend::Jit, runs_, 1, sbs_.size(), emitted_bytes()};
  }

  /// Execute against `env` with the caller's register file (imported on
  /// entry, exported on exit). Bit-identical to Interpreter::run on the
  /// same inputs.
  ExecResult run(Env& env, std::array<std::uint32_t, kNumRegs>& regs,
                 const ExecLimits& limits = {}) const;

  /// Human-readable superblock CFG + emitted-form listing for
  /// `ashtool dump-translated`.
  std::string dump() const;

  /// Emitted micro-op. The dispatch loop indexes a label table by this,
  /// so the executor and the lowering must agree on the order.
  enum class XOp : std::uint8_t {
    Guard,    // superblock entry: hoisted insns/cycles precheck
    EndFall,  // finalize counters, continue into the next superblock
    End,      // synthetic pc==n slot (fall off the end -> BadInstruction)
    Bad,      // charge, then BadInstruction at pc (invalid source op)
    Halt, Abort, Jmp, Jr, JrChk, Call, Ret,
    Beq, Bne, Bltu, Bgeu, Blt, Bge,
    Budget,
    Nop,
    Movi, Mov,
    Addu, Addiu, Subu, Mulu, Divu, Remu,
    And, Andi, Or, Ori, Xor, Xori,
    Sll, Slli, Srl, Srli, Sra, Srai,
    Sltu, Slt, Fadd, Fmul,
    Lw, Lhu, Lh, Lbu, Lb, LwU, Sw, Sh, Sb, SwU,
    Cksum32, Bswap32, Bswap16,
    Pin, Pout,   // pipe I/O; width in c
    TMsgLen, TSend, TDilp, TUserCopy, TMsgLoad,
    FusedLoop,   // native single-pass DILP pipe-chain loop; imm = loop id
    kCount,
  };

  static constexpr std::uint32_t kNoTarget = 0xffffffffu;
  static constexpr std::uint32_t kNoPost = 0xffffffffu;

  /// One emitted slot. The per-op prefix sums let the dispatch loop keep
  /// the exact interpreter counters implicit until a superblock exit:
  /// at any op, exact insns/cycles = counters-at-superblock-entry +
  /// sum_insns/sum_cycles (+ dynamic cycles, folded in as they occur).
  struct EInsn {
    XOp op = XOp::Bad;
    std::uint8_t a = 0, b = 0, c = 0;
    std::uint32_t imm = 0;
    std::uint32_t pc = 0;      // original index (superblock start for Guard)
    std::uint32_t target = 0;  // emitted index of the jump destination
    std::uint32_t sum_insns = 0;   // insns retired through this op
    std::uint32_t sum_cycles = 0;  // static cycles charged through this op
    // sum_cycles + static cost of the remaining guarded positions;
    // consulted after dynamic-cost ops only (kNoPost = no re-check).
    std::uint32_t post_bound = 0;
  };

  /// A register-pure op between the load and the store of a fused loop.
  struct BodyOp {
    Op op = Op::Nop;
    std::uint8_t a = 0, b = 0, c = 0;
    std::uint32_t imm = 0;
  };

  /// A recognized dilp::Compiler word loop, executable as one native pass:
  ///   Lwu_u load_reg,(r_src)+0 ; <body> ; Sw_u store_reg,(r_dst)+0 ;
  ///   Addiu r_src,+4 ; Addiu r_dst,+4 ; Addiu r_len,-4 ;
  ///   Bne r_len,r0 -> start_pc
  /// The native pass runs only when no cycle ceiling is armed (the DILP
  /// engine's regime) and the whole transfer is inside the fast-mem
  /// windows, so no exit can occur mid-iteration; everything else takes
  /// the generic superblock path of the same region.
  struct LoopInfo {
    std::uint32_t start_pc = 0;      // loop head (superblock start)
    std::uint32_t len = 0;           // source insns per iteration
    std::uint32_t cyc_iter = 0;      // static cycles per iteration
    std::uint8_t r_src = 0, r_dst = 0, r_len = 0;
    std::uint8_t load_reg = 0, store_reg = 0;
    std::uint32_t fall_target = 0;   // emitted index of the exit guard
    // The checksum pipe's accumulator when the body is exactly
    // `Cksum32 acc, load_reg` and the loaded word is stored unchanged: the
    // pass sums and moves the words natively. r0 = run the body per word.
    std::uint8_t cksum_acc = 0;
    std::vector<BodyOp> body;
  };

  struct RunCtx;

 private:
  struct SbMeta {
    std::uint32_t start = 0;   // original index of the first instruction
    std::uint32_t len = 0;     // source instructions covered
    std::uint32_t first = 0;   // first emitted slot (the Guard/FusedLoop)
    std::uint32_t count = 0;   // emitted slots
    std::int32_t loop = -1;    // index into loops_, or -1
  };

  void build();

  Program prog_;
  JumpTable jt_;
  std::vector<EInsn> code_;
  std::vector<std::uint32_t> entry_of_;  // leader pc -> emitted index
  std::vector<LoopInfo> loops_;
  std::vector<SbMeta> sbs_;
  mutable std::uint64_t runs_ = 0;
};

}  // namespace ash::vcode
