// Cycle-charging VCODE interpreter.
//
// Executes a Program against an execution environment (Env) that supplies
// user memory, trusted kernel entry points, pipe streams, and memory-system
// cycle costs. The interpreter is the stand-in for native execution on the
// simulated 40 MHz MIPS: every instruction charges its base cost, and
// memory instructions additionally charge whatever the environment's cache
// model reports.
//
// Execution is always budgeted (ExecLimits), which implements the paper's
// "bounding execution time" (Section III-B3): in timer mode the interpreter
// itself enforces a cycle ceiling (the two-clock-tick abort); in software-
// check mode the sandbox has inserted Budget instructions and the ceiling
// acts only as a backstop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "vcode/program.hpp"

namespace ash::vcode {

enum class Outcome : std::uint8_t {
  Halted,            // Halt executed; result in r1
  VoluntaryAbort,    // Abort executed (the ASH's own abort code ran)
  MemFault,          // environment rejected a load/store
  AlignFault,        // misaligned Lw/Sw/Lh/Sh
  DivideByZero,      // runtime check on Divu/Remu fired
  BudgetExceeded,    // instruction/cycle ceiling or Budget check fired
  BadInstruction,    // malformed instruction reached dynamically
  IndirectJumpFault, // Jr/JrChk to an illegal target
  CallDepthExceeded, // Call nesting beyond kMaxCallDepth (or Ret underflow)
  StreamFault,       // pipe I/O with no/expired stream bound
  TrustedDenied,     // environment denied a trusted entry point
};

/// Convert an outcome to a short human-readable name.
const char* to_string(Outcome o) noexcept;

/// Number of distinct Outcome values (for per-outcome counter arrays).
inline constexpr std::size_t kOutcomeCount =
    static_cast<std::size_t>(Outcome::TrustedDenied) + 1;

struct ExecLimits {
  /// Maximum dynamic instructions (backstop; always enforced).
  std::uint64_t max_insns = 1u << 20;
  /// Maximum simulated cycles; 0 = no cycle ceiling. This models the
  /// two-clock-tick timer abort of the prototype.
  std::uint64_t max_cycles = 0;
  /// Initial value for the software budget counter consumed by
  /// sandbox-inserted Budget instructions; ignored if no Budget ops run.
  std::uint64_t software_budget = 1u << 20;
};

struct ExecResult {
  Outcome outcome = Outcome::Halted;
  std::uint64_t insns = 0;    // dynamic instruction count
  std::uint64_t cycles = 0;   // simulated cycles consumed
  std::uint32_t result = 0;   // r1 at exit
  std::uint32_t abort_code = 0;
  std::uint32_t fault_pc = 0; // pc of the faulting/final instruction
  bool ok() const noexcept { return outcome == Outcome::Halted; }
};

/// Execution environment: everything the interpreted code can touch.
/// Defaults deny/fault, so a default Env is fully isolated.
class Env {
 public:
  virtual ~Env() = default;

  /// Called once at the start of each Interpreter::run with a pointer to
  /// the live register file (kNumRegs entries, valid for the duration of
  /// the run). Lets trusted entry points exchange values through agreed
  /// registers — the mechanism behind persistent-register export/import
  /// for DILP invocations from ASHs. Default: ignore.
  virtual void bind_regs(std::uint32_t* regs);

  /// User-memory access. Addresses are user virtual addresses; len is
  /// 1, 2, or 4. Return false to fault the program.
  virtual bool mem_read(std::uint32_t addr, void* dst, std::uint32_t len);
  virtual bool mem_write(std::uint32_t addr, const void* src,
                         std::uint32_t len);

  /// Extra cycles for a memory access (the cache model hook).
  virtual std::uint64_t mem_cycles(std::uint32_t addr, std::uint32_t len,
                                   bool is_write);

  /// Optional host fast path for plain (unstriped) memory, used by the
  /// download-time translated form. A provider guarantees:
  ///   * a read of [addr, addr+len) succeeds in mem_read iff the range is
  ///     fully inside the owner window or fully inside the msg window;
  ///   * a write succeeds in mem_write iff fully inside the owner window;
  ///   * an accepted access touches host bytes mem[addr - mem_base ...],
  ///     little-endian, exactly as mem_read/mem_write would;
  ///   * windows are already clamped to backing storage.
  /// mem_cycles is still consulted per access, so simulated time and the
  /// cache model are unchanged. Return false (the default) when the access
  /// rules are not expressible as two windows (striped messages, custom
  /// environments); engines then use mem_read/mem_write.
  struct FastMem {
    std::uint8_t* mem = nullptr;   // host pointer for simulated mem_base
    std::uint32_t mem_base = 0;    // simulated address of mem[0]
    std::uint32_t owner_lo = 0, owner_hi = 0;  // readable + writable [lo,hi)
    std::uint32_t msg_lo = 0, msg_hi = 0;      // readable [lo,hi)
    // Optional inlined cycle accounting: a raw view of a direct-mapped
    // write-through/no-allocate cache model with power-of-two geometry
    // (sim::Cache::Raw semantics). When dtags is null — or the provider
    // cannot guarantee mem_cycles is exactly that model for every accepted
    // access — engines charge through mem_cycles instead.
    std::uint32_t* dtags = nullptr;
    std::uint32_t dline_shift = 0;   // log2(line_bytes)
    std::uint32_t dline_mask = 0;    // n_lines - 1
    std::uint64_t dread_miss_penalty = 0;
    std::uint64_t dwrite_cost = 0;
    std::uint64_t* dhits = nullptr;
    std::uint64_t* dmisses = nullptr;
  };
  virtual bool fast_mem(FastMem* out);

  // Trusted kernel entry points. Return false to deny (involuntary abort).
  // `cycles` is the cost the kernel charges for the call's work.
  virtual bool t_msglen(std::uint32_t* len_out, std::uint64_t* cycles);
  virtual bool t_send(std::uint32_t chan, std::uint32_t addr,
                      std::uint32_t len, std::uint32_t* status,
                      std::uint64_t* cycles);
  virtual bool t_dilp(std::uint32_t id, std::uint32_t src, std::uint32_t dst,
                      std::uint32_t len, std::uint32_t* status,
                      std::uint64_t* cycles);
  virtual bool t_usercopy(std::uint32_t dst, std::uint32_t src,
                          std::uint32_t len, std::uint32_t* status,
                          std::uint64_t* cycles);
  /// Load a 32-bit little-endian word from the message at a *logical*
  /// byte offset (the kernel resolves device striping). Out-of-bounds
  /// offsets set *value to 0 and succeed with the same cost, so handlers
  /// need no extra branch — parse checks bound the offsets anyway.
  virtual bool t_msgload(std::uint32_t offset, std::uint32_t* value,
                         std::uint64_t* cycles);

  // Pipe streams (bound only when running a pipe body standalone).
  virtual bool pipe_in(std::uint32_t width, std::uint32_t* value);
  virtual bool pipe_out(std::uint32_t width, std::uint32_t value);
};

/// O(1) indirect-jump target lookup, shared by the interpreter and the
/// JIT. Built once per program from `indirect_map`
/// (sandboxed: pre-sandbox address -> rewritten index) or from
/// `indirect_targets` (unsandboxed: identity mapping). A program with
/// neither has no legal indirect targets, so every JrChk faults.
///
/// Common keys (< kMaxProgramLen) live in a dense flat table; a hostile
/// program may register arbitrary 32-bit keys, which fall back to a small
/// sorted side vector so the dense table stays bounded.
class JumpTable {
 public:
  JumpTable() = default;
  explicit JumpTable(const Program& prog);

  /// Translated target index for pre-translation address `t`, or a
  /// negative value if `t` is not a registered indirect target.
  std::int64_t lookup(std::uint32_t t) const noexcept {
    if (t < dense_.size()) return dense_[t];
    if (sparse_.empty()) return -1;
    return lookup_sparse(t);
  }

 private:
  std::int64_t lookup_sparse(std::uint32_t t) const noexcept;

  std::vector<std::int64_t> dense_;  // index = key; negative = illegal
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sparse_;
};

namespace detail {

/// Non-result execution state (pc, software budget, call stack), exposed so
/// the JIT can hand a partially executed program back to the exact
/// interpreter core mid-run with bit-identical continuation semantics.
/// Call-stack entries are original instruction indices.
struct ResumeState {
  std::uint32_t pc = 0;
  std::uint64_t budget = 0;
  std::uint32_t call_depth = 0;
  std::array<std::uint32_t, kMaxCallDepth> call_stack{};
};

/// The interpreter core loop, resumable from an arbitrary ResumeState with
/// pre-accumulated counters in `res`. Does NOT touch regs[kRegZero] on
/// entry and does NOT call env.bind_regs — callers do both.
ExecResult run_core(const Program& prog, Env& env, std::uint32_t* regs,
                    const ExecLimits& limits, const JumpTable& jt,
                    ResumeState& rs, ExecResult res);

}  // namespace detail

/// Interpreter with an explicit register file, so callers can import and
/// export persistent registers across runs (the paper's pipe accumulator
/// export/import, Section II-B).
class Interpreter {
 public:
  Interpreter(const Program& prog, Env& env)
      : prog_(&prog), env_(&env), jt_(prog) {}

  void set_reg(Reg r, std::uint32_t v) noexcept {
    if (r != kRegZero && r < kNumRegs) regs_[r] = v;
  }
  std::uint32_t reg(Reg r) const noexcept { return regs_[r]; }

  /// Convenience: set r1..r4.
  void set_args(std::uint32_t a0, std::uint32_t a1 = 0, std::uint32_t a2 = 0,
                std::uint32_t a3 = 0) noexcept {
    set_reg(kRegArg0, a0);
    set_reg(kRegArg1, a1);
    set_reg(kRegArg2, a2);
    set_reg(kRegArg3, a3);
  }

  /// Run from instruction 0 until exit or fault.
  ExecResult run(const ExecLimits& limits = {});

 private:
  const Program* prog_;
  Env* env_;
  JumpTable jt_;
  std::array<std::uint32_t, kNumRegs> regs_{};
};

/// One-shot convenience wrapper.
ExecResult execute(const Program& prog, Env& env, const ExecLimits& limits = {},
                   std::uint32_t a0 = 0, std::uint32_t a1 = 0,
                   std::uint32_t a2 = 0, std::uint32_t a3 = 0);

}  // namespace ash::vcode
