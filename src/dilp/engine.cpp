#include "dilp/engine.hpp"

#include <array>

namespace ash::dilp {

Engine::Engine() { vcode::backend_env_override(&backend_); }

int Engine::register_ilp(const PipeList& pl, Direction dir,
                         std::string* error, const LoopLayout& layout) {
  auto compiled = compile_pipes(pl, dir, error, layout);
  if (!compiled) return -1;
  ilps_.push_back(std::move(*compiled));
  // Translate stage: the fused loop goes through the same download-time
  // translation ASHs get, once, at registration.
  jits_.push_back(std::make_unique<vcode::JitBackend>(ilps_.back().loop));
  return static_cast<int>(ilps_.size() - 1);
}

const CompiledIlp* Engine::get(int id) const noexcept {
  if (id < 0 || static_cast<std::size_t>(id) >= ilps_.size()) return nullptr;
  return &ilps_[static_cast<std::size_t>(id)];
}

const vcode::JitBackend* Engine::jit_backend(int id) const noexcept {
  if (id < 0 || static_cast<std::size_t>(id) >= jits_.size()) return nullptr;
  return jits_[static_cast<std::size_t>(id)].get();
}

Engine::RunResult Engine::run(int id, vcode::Env& env, std::uint32_t src,
                              std::uint32_t dst, std::uint32_t len,
                              std::span<const std::uint32_t> persistent_in,
                              std::span<std::uint32_t> persistent_out) const {
  RunResult result;
  const CompiledIlp* ilp = get(id);
  if (ilp == nullptr || (len & 3u) != 0 ||
      (!persistent_out.empty() &&
       persistent_out.size() != ilp->persistents.size())) {
    result.invalid_args = true;
    return result;
  }

  vcode::ExecLimits limits;
  // Generous static bound: the loop's own length per word plus slack.
  limits.max_insns =
      64 + static_cast<std::uint64_t>(len / 4 + 1) *
               (ilp->insns_per_word + 8);

  if (backend_ != vcode::Backend::Interp) {
    std::array<std::uint32_t, vcode::kNumRegs> regs{};
    regs[vcode::kRegArg0] = src;
    regs[vcode::kRegArg1] = dst;
    regs[vcode::kRegArg2] = len;
    for (std::size_t i = 0; i < ilp->persistents.size(); ++i) {
      const vcode::Reg r = ilp->persistents[i].loop_reg;
      if (r != vcode::kRegZero && r < vcode::kNumRegs) {
        regs[r] = i < persistent_in.size() ? persistent_in[i] : 0;
      }
    }
    result.exec = jits_[static_cast<std::size_t>(id)]->run(env, regs, limits);
    for (std::size_t i = 0; i < persistent_out.size(); ++i) {
      persistent_out[i] = regs[ilp->persistents[i].loop_reg];
    }
    return result;
  }

  vcode::Interpreter interp(ilp->loop, env);
  interp.set_args(src, dst, len);
  for (std::size_t i = 0; i < ilp->persistents.size(); ++i) {
    const std::uint32_t seed = i < persistent_in.size() ? persistent_in[i] : 0;
    interp.set_reg(ilp->persistents[i].loop_reg, seed);
  }
  result.exec = interp.run(limits);
  for (std::size_t i = 0; i < persistent_out.size(); ++i) {
    persistent_out[i] = interp.reg(ilp->persistents[i].loop_reg);
  }
  return result;
}

}  // namespace ash::dilp
