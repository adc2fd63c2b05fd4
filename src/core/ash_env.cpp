#include "core/ash_env.hpp"

#include <array>
#include <cstring>
#include <span>

#include "core/ash.hpp"
#include "sim/memops.hpp"
#include "trace/trace.hpp"

namespace ash::core {

bool AshEnv::in_owner(std::uint32_t addr, std::uint32_t len) const noexcept {
  const auto& seg = cfg_.owner_seg;
  return addr >= seg.base &&
         static_cast<std::uint64_t>(addr) + len <=
             static_cast<std::uint64_t>(seg.base) + seg.size;
}

bool AshEnv::in_msg(std::uint32_t addr, std::uint32_t len) const noexcept {
  return addr >= cfg_.msg_addr &&
         static_cast<std::uint64_t>(addr) + len <=
             static_cast<std::uint64_t>(cfg_.msg_addr) + cfg_.msg_len;
}

bool AshEnv::mem_read(std::uint32_t addr, void* dst, std::uint32_t len) {
  if (in_msg(addr, len) && cfg_.stripe_chunk != 0) {
    // Logical view of a striped message: destripe per byte.
    auto* out = static_cast<std::uint8_t*>(dst);
    for (std::uint32_t i = 0; i < len; ++i) {
      const std::uint8_t* p = cfg_.node->mem(msg_phys(addr - cfg_.msg_addr + i), 1);
      if (p == nullptr) return false;
      out[i] = *p;
    }
    return true;
  }
  if (!readable(addr, len)) return false;
  const std::uint8_t* p = cfg_.node->mem(addr, len);
  if (p == nullptr) return false;
  if (len != 0) std::memcpy(dst, p, len);  // dst may be null when empty
  return true;
}

bool AshEnv::mem_write(std::uint32_t addr, const void* src,
                       std::uint32_t len) {
  if (!in_owner(addr, len)) return false;  // messages are read-only
  std::uint8_t* p = cfg_.node->mem(addr, len);
  if (p == nullptr) return false;
  std::memcpy(p, src, len);
  return true;
}

bool AshEnv::fast_mem(vcode::Env::FastMem* out) {
  // Striped messages need per-byte address translation in mem_read; only
  // the plain layout is expressible as flat windows.
  if (cfg_.stripe_chunk != 0) return false;
  const std::uint64_t mem_size = cfg_.node->memory_size();
  const auto clamp = [mem_size](std::uint64_t v) {
    return static_cast<std::uint32_t>(v < mem_size ? v : mem_size);
  };
  // Clamping to backing storage folds Node::mem's nullptr rejection into
  // the window check, so acceptance matches mem_read/mem_write exactly.
  out->mem = cfg_.node->mem(0, 0);
  out->mem_base = 0;
  out->owner_lo = clamp(cfg_.owner_seg.base);
  out->owner_hi = clamp(static_cast<std::uint64_t>(cfg_.owner_seg.base) +
                        cfg_.owner_seg.size);
  out->msg_lo = clamp(cfg_.msg_addr);
  out->msg_hi =
      clamp(static_cast<std::uint64_t>(cfg_.msg_addr) + cfg_.msg_len);
  // With a plain (unstriped) layout, mem_cycles is exactly one
  // dcache().access() per access, so the engine may inline the model.
  out->cache = cfg_.node->dcache().raw();
  return out->mem != nullptr;
}

std::uint64_t AshEnv::mem_cycles(std::uint32_t addr, std::uint32_t len,
                                 bool is_write) {
  if (!is_write && cfg_.stripe_chunk != 0 && in_msg(addr, len)) {
    // Charge the cache at the physical (striped) location.
    return cfg_.node->dcache().access(msg_phys(addr - cfg_.msg_addr), len,
                                      false);
  }
  return cfg_.node->dcache().access(addr, len, is_write);
}

bool AshEnv::t_msglen(std::uint32_t* len_out, std::uint64_t* cycles) {
  *len_out = cfg_.msg_len;
  *cycles = 2;
  return true;
}

bool AshEnv::t_send(std::uint32_t chan, std::uint32_t addr, std::uint32_t len,
                    std::uint32_t* status, std::uint64_t* cycles) {
  *cycles = cfg_.tx_cost;
  // `len` is the handler's: range-check before sizing the snapshot.
  if (!readable(addr, len)) {
    *status = 1;  // bad range: the call fails, the handler decides
    return true;
  }
  // Snapshot now (the handler may overwrite the buffer afterwards); the
  // wire transmission is released at handler completion. The snapshot
  // reads through the logical view, so a send from a striped message
  // carries its bytes, not the device's layout.
  std::vector<std::uint8_t> bytes(len);
  if (!mem_read(addr, bytes.data(), len)) {
    *status = 1;  // unbacked memory
    return true;
  }
  sends_.push_back(SendReq{static_cast<int>(chan), std::move(bytes)});
  if (trace::enabled()) {
    trace::global().emit_ctx(trace::EventType::TSendInitiated,
                             trace::Engine::None, len, chan, *cycles, 0);
  }
  *status = 0;
  return true;
}

bool AshEnv::t_dilp(std::uint32_t id, std::uint32_t src, std::uint32_t dst,
                    std::uint32_t len, std::uint32_t* status,
                    std::uint64_t* cycles) {
  *cycles = 2;
  if (cfg_.engine == nullptr) return false;
  const dilp::CompiledIlp* ilp =
      cfg_.engine->get(static_cast<int>(id));
  if (ilp == nullptr || (len & 3u) != 0) {
    *status = 1;
    return true;
  }
  // Access checks aggregated here, once, for the whole transfer. The
  // fused loop reads the message through this environment, which presents
  // it logically (striping resolved in mem_read/mem_cycles).
  if (!readable(src, len) || !in_owner(dst, len)) {
    *status = 1;
    return true;
  }

  // Persistent exchange through the agreed registers (r48...).
  const std::size_t n_persist = ilp->persistents.size();
  if (n_persist > kDilpPersistentMax) {
    *status = 1;
    return true;
  }
  std::array<std::uint32_t, kDilpPersistentMax> seeds{}, finals{};
  std::uint32_t* outer_regs = regs_;
  if (outer_regs != nullptr) {
    for (std::size_t k = 0; k < n_persist; ++k) {
      seeds[k] = outer_regs[kDilpPersistentBase + k];
    }
  }

  const auto run = cfg_.engine->run(
      static_cast<int>(id), *this, src, dst, len,
      std::span(seeds).first(n_persist), std::span(finals).first(n_persist));
  regs_ = outer_regs;  // the nested run rebound the register pointer
  if (!run.ok()) {
    *status = 1;
    *cycles += run.exec.cycles;
    return true;
  }
  if (outer_regs != nullptr) {
    for (std::size_t k = 0; k < n_persist; ++k) {
      outer_regs[kDilpPersistentBase + k] = finals[k];
    }
  }
  *cycles += run.exec.cycles;
  if (trace::enabled()) {
    trace::global().emit_ctx(trace::EventType::DilpRun, trace::Engine::None,
                             len, id, run.exec.cycles, run.exec.insns);
  }
  *status = 0;
  return true;
}

bool AshEnv::t_usercopy(std::uint32_t dst, std::uint32_t src,
                        std::uint32_t len, std::uint32_t* status,
                        std::uint64_t* cycles) {
  *cycles = 2;
  if (!in_owner(dst, len)) {
    *status = 1;
    return true;
  }
  // Copying out of a striped message buffer destripes (the kernel knows
  // the device's DMA layout; the handler addresses logical bytes).
  if (cfg_.stripe_chunk != 0 && in_msg(src, len)) {
    const std::uint32_t logical = src - cfg_.msg_addr;
    if (logical % cfg_.stripe_chunk == 0) {
      *cycles += sim::memops::copy_destripe(
          *cfg_.node, dst, msg_phys(logical), len, cfg_.stripe_chunk);
    } else {
      // Unaligned logical start: per-word destriping copy.
      sim::Node& node = *cfg_.node;
      for (std::uint32_t i = 0; i < len; ++i) {
        *node.mem(dst + i, 1) = *node.mem(msg_phys(logical + i), 1);
      }
      *cycles += static_cast<std::uint64_t>(
          (node.cost().copy_loop_insns_per_word + 2) *
          ((len + 3) / 4));
      *cycles += node.dcache().access(msg_phys(logical), len * 2, false);
      *cycles += node.dcache().access(dst, len, true);
    }
    if (trace::enabled()) {
      trace::global().emit_ctx(trace::EventType::TUserCopy,
                               trace::Engine::None, len, 0, *cycles, 0);
    }
    *status = 0;
    return true;
  }
  if (!readable(src, len)) {
    *status = 1;
    return true;
  }
  *cycles += sim::memops::copy(*cfg_.node, dst, src, len);
  if (trace::enabled()) {
    trace::global().emit_ctx(trace::EventType::TUserCopy,
                             trace::Engine::None, len, 0, *cycles, 0);
  }
  *status = 0;
  return true;
}

bool AshEnv::t_msgload(std::uint32_t offset, std::uint32_t* value,
                       std::uint64_t* cycles) {
  *cycles = 1;
  *value = 0;
  if (static_cast<std::uint64_t>(offset) + 4 > cfg_.msg_len) {
    return true;  // out of bounds reads as zero (documented contract)
  }
  const std::uint32_t c = cfg_.stripe_chunk;
  if (c == 0 || offset % c + 4 <= c) {
    // The word's bytes are physically contiguous: one read.
    const std::uint8_t* p = cfg_.node->mem(msg_phys(offset), 4);
    if (p == nullptr) return false;
    std::memcpy(value, p, 4);
  } else {
    // It straddles a stripe chunk edge: gather the logical bytes.
    std::uint8_t bytes[4];
    for (std::uint32_t i = 0; i < 4; ++i) {
      const std::uint8_t* p = cfg_.node->mem(msg_phys(offset + i), 1);
      if (p == nullptr) return false;
      bytes[i] = *p;
    }
    std::memcpy(value, bytes, 4);
  }
  *cycles += cfg_.node->dcache().access(msg_phys(offset), 4, false);
  return true;
}

}  // namespace ash::core
