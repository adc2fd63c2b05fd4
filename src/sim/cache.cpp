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
  Cycles extra = 0;
  const std::uint32_t first = addr >> shift_;
  const std::uint32_t last = (addr + (len ? len - 1 : 0)) >> shift_;
  for (std::uint32_t line = first; line <= last; ++line) {
    std::uint32_t& slot = tags_[line & index_mask_];
    if (slot == line + 1) {
      ++hits_;
      if (is_write) extra += config_.write_cost;
      continue;
    }
    if (is_write) {
      // Write-through, no write-allocate: the store goes to memory without
      // fetching the line.
      ++misses_;
      extra += config_.write_cost;
      continue;
    }
    ++misses_;
    extra += config_.read_miss_penalty;
    slot = line + 1;
  }
  return extra;
}

Cycles Cache::stream(std::uint32_t addr, std::uint32_t len, bool is_write) {
  if (len == 0) return 0;
  Cycles extra = 0;
  const std::uint32_t end = addr + len - 1;  // last byte of the run
  const std::uint32_t first = addr >> shift_;
  const std::uint32_t last = end >> shift_;
  const std::uint32_t line_mask = config_.line_bytes - 1;
  for (std::uint32_t line = first;; ++line) {
    // The run's words on this line: from the word holding its first byte
    // here to the word holding its last (offsets from `addr`).
    const std::uint32_t line_lo = line << shift_;
    const std::uint32_t lo = (line == first ? addr : line_lo) - addr;
    const std::uint32_t hi = (line == last ? end : line_lo | line_mask) - addr;
    const std::uint32_t words = (hi >> 2) - (lo >> 2) + 1;
    std::uint32_t& slot = tags_[line & index_mask_];
    if (slot == line + 1) {
      hits_ += words;
      if (is_write) extra += config_.write_cost * words;
    } else if (is_write) {
      misses_ += words;
      extra += config_.write_cost * words;
    } else {
      ++misses_;  // the first word fills the line; the rest hit
      hits_ += words - 1;
      extra += config_.read_miss_penalty;
      slot = line + 1;
    }
    if (line == last) break;
  }
  return extra;
}

Cycles Cache::stream_ring(std::uint32_t base, std::uint32_t cap,
                          std::uint32_t at, std::uint32_t len,
                          bool is_write) {
  // The words that start before the wrap, then the rest, which land as
  // far past the ring start as they would have landed past `cap`.
  const std::uint32_t head = std::min(len, (cap - at + 3) & ~3u);
  return stream(base + at, head, is_write) +
         stream(base + (at + head - cap), len - head, is_write);
}

bool Cache::shares_slots(std::uint32_t a, std::uint32_t alen, std::uint32_t b,
                         std::uint32_t blen) const {
  const std::uint32_t a0 = a >> shift_, b0 = b >> shift_;
  const std::uint64_t an = ((a + alen - 1) >> shift_) - a0 + 1;
  const std::uint64_t bn = ((b + blen - 1) >> shift_) - b0 + 1;
  // Two arcs of the slot circle meet iff one holds the other's start.
  return an + bn > tags_.size() || ((b0 - a0) & index_mask_) < an ||
         ((a0 - b0) & index_mask_) < bn;
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
