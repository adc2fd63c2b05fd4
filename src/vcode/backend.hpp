// Execution-backend selection for downloaded VCODE.
//
// Two engines can execute a verified+sandboxed program, bit-identical on
// every simulated observable (outcome, insns, cycles, result, registers,
// memory, cache-model state):
//
//   Interp — the cycle-charging reference interpreter;
//   Jit    — the superblock lowering with hoisted budget guards and fused
//            DILP loops (src/vcode/jit/), built once at download.
//
// The backend is chosen per download via AshOptions::backend, and may be
// overridden for a whole process with ASH_BACKEND=interp|jit.
#pragma once

#include <cstdint>

namespace ash::vcode {

enum class Backend : std::uint8_t {
  Interp = 0,
  // Retired, never resolved to; kept because the benchmark harness counts
  // runs per enumerator.
  CodeCache = 1,
  Jit = 2,
};

const char* to_string(Backend b) noexcept;

/// Uniform translation/execution statistics, comparable across backends.
/// The interpreter has no translated form, so its translation fields are
/// zero.
struct BackendStats {
  Backend backend = Backend::Interp;
  std::uint64_t runs = 0;           // completed run() invocations
  std::uint64_t translations = 0;   // translated forms built (0 or 1)
  std::uint64_t superblocks = 0;    // superblocks in the translated form
  std::uint64_t emitted_bytes = 0;  // bytes of emitted host form
};

/// ASH_BACKEND environment override. Returns true and writes *out when the
/// variable names a known backend ("interp"/"interpreter"/"off", "jit");
/// unset, empty, or unknown values leave *out untouched and return false.
bool backend_env_override(Backend* out);

}  // namespace ash::vcode
