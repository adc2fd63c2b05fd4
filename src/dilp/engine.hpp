// The DILP engine: owns compiled integrated-transfer loops and runs them.
//
// This is the component behind the paper's `compile_pl` handle: an
// application (or the TCP library's fast-path handler) registers a pipe
// list once, receives an integer ilp id, and later asks the engine to move
// `len` bytes from `src` to `dst` through the fused loop. The engine
// executes the loop on the VCODE machine against whatever execution
// environment the caller provides — in the full system that environment is
// the simulated kernel's, so every load/store passes through the node's
// cache model and the single-traversal benefit is visible in measured
// cycles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dilp/compiler.hpp"
#include "vcode/backend.hpp"
#include "vcode/interp.hpp"
#include "vcode/jit/jit.hpp"

namespace ash::dilp {

class Engine {
 public:
  /// The engine translates each registered loop with the superblock JIT
  /// at registration time (the same download-time translate stage ASHs
  /// get) and runs through it; the JIT fuses the whole loop (checksum +
  /// byteswap + copy) into one emitted host pass over the message.
  /// ASH_BACKEND overrides the initial setting. Simulated results are
  /// identical on both backends.
  Engine();
  /// Compile and register a pipe composition. Returns the ilp id, or -1
  /// on failure (with `error` filled in). `layout` selects the network-
  /// interface-specific loop variant (e.g. Ethernet striped source).
  int register_ilp(const PipeList& pl, Direction dir, std::string* error,
                   const LoopLayout& layout = {});

  /// Registered compilation, or nullptr for an unknown id.
  const CompiledIlp* get(int id) const noexcept;

  std::size_t size() const noexcept { return ilps_.size(); }

  struct RunResult {
    // Bad id, length not a multiple of 4, or a persistent_out of the
    // wrong size.
    bool invalid_args = false;
    vcode::ExecResult exec;         // outcome/cycles/insns of the fused loop
    bool ok() const noexcept { return !invalid_args && exec.ok(); }
  };

  /// Transfer `len` bytes from `src` to `dst` (user virtual addresses in
  /// `env`) through ilp `id`. `persistent_in` seeds the persistent
  /// registers (in CompiledIlp::persistents order; missing entries default
  /// to 0); `persistent_out`, when not empty, receives their final values
  /// and must hold exactly one entry per persistent.
  RunResult run(int id, vcode::Env& env, std::uint32_t src, std::uint32_t dst,
                std::uint32_t len,
                std::span<const std::uint32_t> persistent_in = {},
                std::span<std::uint32_t> persistent_out = {}) const;

  /// Ablation knob: which engine executes the loops. Translation always
  /// happens at registration; this only selects the execution path for
  /// future run() calls.
  void set_backend(vcode::Backend be) noexcept { backend_ = be; }
  vcode::Backend backend() const noexcept { return backend_; }

  /// The translated form of a registered loop (always built; cheap, and it
  /// keeps the knob a pure execution-path selector).
  const vcode::JitBackend* jit_backend(int id) const noexcept;

 private:
  std::vector<CompiledIlp> ilps_;
  // Parallel to ilps_: the translated loop bodies.
  std::vector<std::unique_ptr<vcode::JitBackend>> jits_;
  vcode::Backend backend_ = vcode::Backend::Jit;
};

}  // namespace ash::dilp
