#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ash::sim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  // A power-of-two size at least one line long makes the line count a
  // power of two too; anything else would truncate or divide by zero.
  if (!std::has_single_bit(config.line_bytes) ||
      !std::has_single_bit(config.size_bytes) ||
      config.size_bytes < config.line_bytes) {
    throw std::invalid_argument(
        "sim::Cache: line_bytes and size_bytes must be powers of two, "
        "size_bytes >= line_bytes");
  }
  shift_ = static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  index_mask_ = (config.size_bytes >> shift_) - 1;
  tags_.assign(index_mask_ + 1, 0);
}

Cycles Cache::access(std::uint32_t addr, std::uint32_t len, bool is_write) {
  return util::line_model::access(raw(), addr, len, is_write);
}

Cycles Cache::stream(std::uint32_t addr, std::uint32_t len, bool is_write) {
  return util::line_model::stream(raw(), addr, len, is_write);
}

Cycles Cache::stream_ring(std::uint32_t base, std::uint32_t cap,
                          std::uint32_t at, std::uint32_t len,
                          bool is_write) {
  // The words that start before the wrap, then the rest, which land as
  // far past the ring start as they would have landed past `cap`.
  const std::uint32_t head = std::min(len, (cap - at + 3) & ~3u);
  const Cycles first = stream(base + at, head, is_write);
  return first + stream(base + (at + head - cap), len - head, is_write);
}

bool Cache::contains(std::uint32_t addr) const {
  const std::uint32_t line = addr >> shift_;
  return tags_[line & index_mask_] == line + 1;
}

void Cache::flush_all() { tags_.assign(tags_.size(), 0); }

void Cache::invalidate_range(std::uint32_t addr, std::uint32_t len) {
  if (len == 0) return;
  const std::uint32_t first = addr >> shift_;
  const std::uint32_t last = (addr + len - 1) >> shift_;
  if (last - first + 1 >= tags_.size()) {
    flush_all();
    return;
  }
  for (std::uint32_t line = first; line <= last; ++line) {
    std::uint32_t& slot = tags_[line & index_mask_];
    if (slot == line + 1) slot = 0;
  }
}

void Cache::touch_range(std::uint32_t addr, std::uint32_t len) {
  if (len == 0) return;
  const std::uint32_t first = addr >> shift_;
  const std::uint32_t last = (addr + len - 1) >> shift_;
  for (std::uint32_t line = first; line <= last; ++line) {
    tags_[line & index_mask_] = line + 1;
  }
}

}  // namespace ash::sim
