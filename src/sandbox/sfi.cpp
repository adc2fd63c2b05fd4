#include "sandbox/sfi.hpp"

#include <vector>

#include "vcode/verifier.hpp"

namespace ash::sandbox {

using vcode::Insn;
using vcode::Op;
using vcode::op_info;
using vcode::Program;

namespace {

/// Access width of a memory opcode (for alignment forcing).
std::uint32_t access_width(Op op) {
  switch (op) {
    case Op::Lw:
    case Op::Sw:
    case Op::Lwu_u:
    case Op::Sw_u:
      return 4;
    case Op::Lhu:
    case Op::Lh:
    case Op::Sh:
      return 2;
    default:
      return 1;
  }
}

bool aligned_op(Op op) { return op != Op::Lwu_u && op != Op::Sw_u; }

/// Highest register index read or written anywhere in the program.
vcode::Reg max_register(const Program& prog) {
  vcode::Reg hi = 0;
  for (const Insn& insn : prog.insns) {
    const auto& info = op_info(insn.op);
    if (info.reads_a || info.writes_a) hi = std::max(hi, insn.a);
    if (info.reads_b) hi = std::max(hi, insn.b);
    if (info.reads_c) hi = std::max(hi, insn.c);
    if (insn.op == Op::TDilp) {
      hi = std::max(hi, static_cast<vcode::Reg>(insn.imm));
    }
  }
  return hi;
}

}  // namespace

std::optional<SandboxResult> sandbox(const Program& prog, const Options& opts,
                                     std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<SandboxResult> {
    if (error) *error = msg;
    return std::nullopt;
  };

  if (prog.sandboxed) return fail("program is already sandboxed");
  if (opts.mode == Mode::Mips && !opts.segment.valid()) {
    return fail("invalid segment: base must be size-aligned, size a power "
                "of two >= 8");
  }

  // Download-time checks (Section III-B1). Signed arithmetic is admitted
  // here only so that we can convert it below.
  vcode::VerifyPolicy policy;
  policy.allow_fp = false;
  policy.allow_signed_trap = true;
  policy.allow_trusted = true;
  policy.allow_pipe_io = false;
  policy.allow_indirect = true;
  const auto verdict = vcode::verify(prog, policy);
  if (!verdict.ok()) {
    if (error) *error = "verification failed:\n" + verdict.to_string();
    return std::nullopt;
  }
  if (max_register(prog) >= kScratch2) {
    return fail("program uses registers reserved for sandbox scratch");
  }

  SandboxResult result;
  Report& report = result.report;
  report.original_insns = static_cast<std::uint32_t>(prog.insns.size());

  const std::uint32_t n = static_cast<std::uint32_t>(prog.insns.size());
  std::vector<Insn> out;
  out.reserve(prog.insns.size() * 2);
  std::vector<std::uint32_t> new_index(n, 0);

  struct Fixup {
    std::uint32_t out_pos;
    std::uint32_t old_target;
  };
  std::vector<Fixup> fixups;          // branches needing old->new remap
  std::vector<std::uint32_t> exits;   // Jmp positions targeting epilogue

  const std::uint32_t seg_mask = opts.segment.size - 1;
  const bool full_checks = opts.mode == Mode::Mips;

  for (std::uint32_t i = 0; i < n; ++i) {
    new_index[i] = static_cast<std::uint32_t>(out.size());
    Insn insn = prog.insns[i];
    const auto& info = op_info(insn.op);

    // Software budget checks precede every backward control transfer; the
    // charge is the (pessimistic) length of the loop body (Section III-B3).
    if (opts.software_budget_checks && info.is_branch && insn.imm <= i) {
      out.push_back({Op::Budget, 0, 0, 0, i - insn.imm + 1});
      ++report.budget_check_insns;
    }

    if (info.is_branch) {
      fixups.push_back({static_cast<std::uint32_t>(out.size()), insn.imm});
      out.push_back(insn);
      continue;
    }

    switch (insn.op) {
      case Op::Add:
      case Op::Sub:
        if (!opts.convert_signed) {
          return fail("signed overflow-trapping arithmetic rejected");
        }
        insn.op = insn.op == Op::Add ? Op::Addu : Op::Subu;
        ++report.converted_signed;
        out.push_back(insn);
        break;

      case Op::Jr:
        insn.op = Op::JrChk;
        out.push_back(insn);
        break;

      case Op::Halt:
        if (opts.general_epilogue) {
          exits.push_back(static_cast<std::uint32_t>(out.size()));
          out.push_back({Op::Jmp, 0, 0, 0, 0});  // patched to epilogue
        } else {
          out.push_back(insn);
        }
        break;

      default:
        if (info.is_mem && full_checks) {
          // Effective address -> scratch0, masked into the segment and
          // force-aligned to the access width (footnote 2 of the paper).
          const std::uint32_t width = access_width(insn.op);
          std::uint32_t mask = seg_mask;
          if (aligned_op(insn.op)) mask &= ~(width - 1);

          vcode::Reg addr_src = insn.b;
          std::uint32_t inserted = 0;
          if (insn.imm != 0) {
            out.push_back({Op::Addiu, kScratch0, insn.b, 0, insn.imm});
            addr_src = kScratch0;
            ++inserted;
          }
          out.push_back({Op::Andi, kScratch0, addr_src, 0, mask});
          ++inserted;
          if (opts.segment.base != 0) {
            out.push_back({Op::Ori, kScratch0, kScratch0, 0,
                           opts.segment.base});
            ++inserted;
          }
          report.mem_check_insns += inserted;
          insn.b = kScratch0;
          insn.imm = 0;
          out.push_back(insn);
        } else {
          out.push_back(insn);
        }
        break;
    }
  }

  // Generic epilogue: preserve the result register, scrub every register
  // the handler could have tainted, re-run the budget accounting, and
  // halt. Deliberately general — the paper observes that "a large
  // fraction of the added instructions are due to overly general exit
  // code, which could relatively easily be removed"; disabling it models
  // the leaner exit code the authors expected to write.
  const std::uint32_t epilogue = static_cast<std::uint32_t>(out.size());
  if (opts.general_epilogue) {
    const std::uint32_t before = static_cast<std::uint32_t>(out.size());
    out.push_back({Op::Mov, kScratch1, vcode::kRegArg0, 0, 0});
    // Scrub the working registers (r5..r16) so nothing leaks into the
    // kernel's post-handler context.
    for (vcode::Reg r = vcode::kRegArg3 + 1; r <= 16; ++r) {
      out.push_back({Op::Movi, r, 0, 0, 0});
    }
    out.push_back({Op::Movi, kScratch0, 0, 0, 0});
    out.push_back({Op::Movi, kScratch2, 0, 0, 0});
    out.push_back({Op::Budget, 0, 0, 0, 0});
    out.push_back({Op::Mov, vcode::kRegArg0, kScratch1, 0, 0});
    out.push_back({Op::Movi, kScratch1, 0, 0, 0});
    out.push_back({Op::Budget, 0, 0, 0, 0});
    out.push_back({Op::Halt, 0, 0, 0, 0});
    report.epilogue_insns = static_cast<std::uint32_t>(out.size()) - before;
  }

  for (const Fixup& f : fixups) out[f.out_pos].imm = new_index[f.old_target];
  for (std::uint32_t pos : exits) out[pos].imm = epilogue;

  Program& rewritten = result.program;
  rewritten.insns = std::move(out);
  rewritten.indirect_targets = prog.indirect_targets;  // pre-sandbox values
  rewritten.indirect_map.reserve(prog.indirect_targets.size());
  for (std::uint32_t t : prog.indirect_targets) {
    rewritten.indirect_map.emplace_back(t, new_index[t]);
  }
  rewritten.sandboxed = true;
  report.final_insns = static_cast<std::uint32_t>(rewritten.insns.size());
  report.jump_map_entries =
      static_cast<std::uint32_t>(rewritten.indirect_map.size());
  return result;
}

}  // namespace ash::sandbox
