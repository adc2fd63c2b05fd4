// Software fault isolation (SFI) for VCODE programs.
//
// This is the paper's MIPS sandboxing pass (Section III-B), applying the
// code-modification techniques of Wahbe et al. to our IR:
//
//  * every load/store has its effective address masked into the process's
//    memory segment (and force-aligned to the access width — the paper's
//    footnote 2, implemented here);
//  * indirect jumps become checked, translated jumps (JrChk), restricted
//    to the pre-sandbox program's registered labels;
//  * floating point is rejected at download time; signed overflow-trapping
//    arithmetic is converted to the unsigned forms (or rejected);
//  * divide-by-zero remains a runtime check (performed by the machine);
//  * in software-budget mode, every backward branch is preceded by a
//    Budget instruction charging the loop body's length, bounding
//    execution without hardware timer support (Section III-B3);
//  * a deliberately general epilogue is appended and all exits are routed
//    through it — the paper notes its sandboxer's "overly general exit
//    code" accounts for a large fraction of added instructions, and we
//    reproduce that structure (it can be disabled to model the "improved
//    sandboxer" the authors anticipate).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "vcode/program.hpp"

namespace ash::sandbox {

/// The user segment an ASH may touch. `base` must be aligned to `size`,
/// and `size` must be a power of two (SFI masking requires it).
struct Segment {
  std::uint32_t base = 0;
  std::uint32_t size = 0;

  bool valid() const noexcept {
    return size >= 8 && (size & (size - 1)) == 0 && (base & (size - 1)) == 0;
  }
};

enum class Mode : std::uint8_t {
  /// Full software checks (the MIPS implementation of Section III-B).
  Mips,
  /// Hardware segmentation stands in for software checks (the x86
  /// implementation mentioned in Section III-B: "almost no software
  /// checks are needed"). Only indirect jumps are rewritten; memory is
  /// bounded by the execution environment's segment registers.
  X86Segments,
};

struct Options {
  Segment segment;
  Mode mode = Mode::Mips;
  /// Insert Budget checks at backward branches instead of relying on the
  /// hardware timer (Section III-B3's software alternative).
  bool software_budget_checks = false;
  /// Convert Add/Sub to Addu/Subu instead of rejecting them.
  bool convert_signed = true;
  /// Route all exits through a generic epilogue (see header comment).
  bool general_epilogue = true;
};

struct Report {
  std::uint32_t original_insns = 0;
  std::uint32_t final_insns = 0;
  std::uint32_t mem_check_insns = 0;     // inserted for loads/stores
  std::uint32_t budget_check_insns = 0;  // inserted Budget ops
  std::uint32_t epilogue_insns = 0;      // generic exit code
  std::uint32_t converted_signed = 0;    // Add/Sub converted
  /// Translation-stage metadata for the rewritten program: how many
  /// entries the O(1) indirect-jump table carries.
  std::uint32_t jump_map_entries = 0;

  std::uint32_t added() const noexcept { return final_insns - original_insns; }
};

struct SandboxResult {
  vcode::Program program;  // the rewritten, now-sandboxed program
  Report report;
};

/// Sandbox `prog` for execution over `opts.segment`. Returns nullopt and
/// fills `error` when the program is rejected (floating point; signed
/// arithmetic with convert_signed off; structural verification failure;
/// registers colliding with the sandbox's reserved scratch registers;
/// invalid segment).
std::optional<SandboxResult> sandbox(const vcode::Program& prog,
                                     const Options& opts, std::string* error);

/// Registers reserved for sandbox-inserted code. User programs built with
/// vcode::Builder can never allocate them; hand-built programs using them
/// are rejected.
inline constexpr vcode::Reg kScratch0 = vcode::kNumRegs - 1;  // r63
inline constexpr vcode::Reg kScratch1 = vcode::kNumRegs - 2;  // r62
inline constexpr vcode::Reg kScratch2 = vcode::kNumRegs - 3;  // r61

}  // namespace ash::sandbox
