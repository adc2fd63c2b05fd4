// Direct-mapped data-cache model of the DECstation 5000/240 (64 KB,
// write-through, no write-allocate).
//
// The paper's throughput experiments (Tables III and IV) are memory-system
// experiments: the win from eliminating copies and from integrated layer
// processing is precisely the cache/memory traffic avoided. This model
// charges a line-fill penalty on read misses and tracks tags so those
// effects emerge from the simulation rather than being hard-coded.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/line_model.hpp"

namespace ash::sim {

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;  // 64 KB D-cache (5000/240)
  std::uint32_t line_bytes = 16;
  /// Cycles to fill a line from memory on a read miss (calibrated so the
  /// canonical 4 KB copy runs at the paper's 20 MB/s on the 40 MHz CPU).
  Cycles read_miss_penalty = 12;
  /// Extra cycles on a write when the write buffer backs up; the 240's
  /// write-through buffer mostly hides stores, so this is small.
  Cycles write_cost = 0;
};

class Cache {
 public:
  /// Throws std::invalid_argument unless `line_bytes` and `size_bytes` are
  /// powers of two and `size_bytes >= line_bytes`: the line count is then
  /// a power of two too, so a shift and a mask index the tags.
  explicit Cache(const CacheConfig& config = {});

  /// Account one access of `len` bytes at `addr`; returns the extra cycles
  /// beyond the instruction's base cost. Reads fill lines; writes are
  /// write-through/no-allocate (they update an already-present line but
  /// do not fetch absent ones).
  Cycles access(std::uint32_t addr, std::uint32_t len, bool is_write);

  /// Account a run of word accesses in one call. Exactly equal, in
  /// cycles, hits, misses and tags, to
  ///
  ///   for (off = 0; off < len; off += 4)
  ///     access(addr + off, min(4, len - off), is_write);
  ///
  /// but walked a line at a time: a read run's first word on a line tests
  /// the tag (filling it on a miss) and the line's other words hit; every
  /// word of a write run sees the same tag, since writes never fill. A
  /// word that straddles two lines counts once on each.
  Cycles stream(std::uint32_t addr, std::uint32_t len, bool is_write);

  /// stream() over the ring [base, base + cap) from offset `at` (< cap),
  /// for `len` <= cap bytes whose words run on across the wrap: word
  /// `off` is charged at base + (at + off) % cap, so a word that starts
  /// before `cap` is charged there in full.
  Cycles stream_ring(std::uint32_t base, std::uint32_t cap, std::uint32_t at,
                     std::uint32_t len, bool is_write);

  /// True if the line containing `addr` is resident.
  bool contains(std::uint32_t addr) const;

  /// Drop every line (the experiments' "cache flush at every iteration").
  void flush_all();

  /// Drop lines overlapping [addr, addr+len) — e.g. after device DMA, the
  /// driver's "software cache flush of the message location".
  void invalidate_range(std::uint32_t addr, std::uint32_t len);

  /// Preload lines for [addr, addr+len) as if read (test setup helper).
  void touch_range(std::uint32_t addr, std::uint32_t len);

  const CacheConfig& config() const noexcept { return config_; }

  // Statistics (cumulative).
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Raw view of the model's state for engines that inline the access
  /// accounting (vcode::Env::FastMem): charging through util::line_model
  /// over it is charging this cache.
  using Raw = util::CacheView;
  Raw raw() noexcept {
    return {tags_.data(),          shift_,
            index_mask_,           config_.read_miss_penalty,
            config_.write_cost,    &hits_,
            &misses_};
  }

 private:
  CacheConfig config_;
  std::uint32_t shift_;       // log2(line_bytes)
  std::uint32_t index_mask_;  // line count - 1
  std::vector<std::uint32_t> tags_;  // tag+1; 0 = invalid
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ash::sim
