// The direct-mapped data-cache model's rules, written once.
//
// sim::Cache keeps the model's state and charges through these functions;
// the VCODE JIT charges through the same functions over the raw view an
// environment offers (vcode links util but not sim). The rules:
//
//   line = addr >> line_shift, tag slot = line & index_mask, tag value =
//   line + 1 (0 = invalid);
//   a read that misses fills the line and costs read_miss_penalty;
//   a write costs write_cost, hit or miss, and never fills
//   (write-through, no write-allocate);
//   hits and misses go up once per line an access touches.
#pragma once

#include <algorithm>
#include <cstdint>

namespace ash::util {

/// Raw view of a direct-mapped cache model's state (sim::Cache::raw()).
/// The tag array holds index_mask + 1 slots; a null `tags` means "no
/// view".
struct CacheView {
  std::uint32_t* tags = nullptr;
  std::uint32_t line_shift = 0;  // log2(line_bytes)
  std::uint32_t index_mask = 0;  // line count - 1
  std::uint64_t read_miss_penalty = 0;
  std::uint64_t write_cost = 0;
  std::uint64_t* hits = nullptr;
  std::uint64_t* misses = nullptr;
};

namespace line_model {

/// Charge `words` word accesses that all touch `line`, one after another:
/// a read run's first word tests the tag (filling it on a miss) and the
/// rest hit; every word of a write run sees the same tag.
inline std::uint64_t line_run(const CacheView& c, std::uint32_t line,
                              std::uint32_t words, bool is_write) {
  std::uint32_t& slot = c.tags[line & c.index_mask];
  if (slot == line + 1) {
    *c.hits += words;
    return is_write ? c.write_cost * words : 0;
  }
  if (is_write) {
    *c.misses += words;
    return c.write_cost * words;
  }
  ++*c.misses;
  *c.hits += words - 1;
  slot = line + 1;
  return c.read_miss_penalty;
}

/// One access of `len` bytes (0 counts as 1) at `addr`: the extra cycles
/// beyond the instruction's base cost.
inline std::uint64_t access(const CacheView& c, std::uint32_t addr,
                            std::uint32_t len, bool is_write) {
  std::uint64_t extra = 0;
  const std::uint32_t first = addr >> c.line_shift;
  const std::uint32_t last = (addr + (len ? len - 1 : 0)) >> c.line_shift;
  for (std::uint32_t line = first; line <= last; ++line) {
    extra += line_run(c, line, 1, is_write);
  }
  return extra;
}

/// A run of word accesses, exactly equal in cycles, hits, misses and tags
/// to
///
///   for (off = 0; off < len; off += 4)
///     access(addr + off, min(4, len - off), is_write);
///
/// but a line at a time. A word that straddles two lines counts once on
/// each. With lines of 4 bytes or more, every interior line of the run
/// holds the same number of words (one more when `addr` is not word
/// aligned), so the interior only counts tag matches, filling on reads,
/// and adds the counters up; the first and last lines take line_run.
inline std::uint64_t stream(const CacheView& c, std::uint32_t addr,
                            std::uint32_t len, bool is_write) {
  if (len == 0) return 0;
  const std::uint32_t end = addr + len - 1;  // last byte of the run
  const std::uint32_t first = addr >> c.line_shift;
  const std::uint32_t last = end >> c.line_shift;
  const std::uint32_t line_mask = (1u << c.line_shift) - 1;
  // The run's words on `line`: from the word holding its first byte there
  // to the word holding its last (offsets from `addr`).
  const auto words_on = [&](std::uint32_t line) {
    const std::uint32_t line_lo = line << c.line_shift;
    const std::uint32_t lo = (line == first ? addr : line_lo) - addr;
    const std::uint32_t hi = (line == last ? end : line_lo | line_mask) - addr;
    return (hi >> 2) - (lo >> 2) + 1;
  };
  std::uint64_t extra = line_run(c, first, words_on(first), is_write);
  if (last == first) return extra;
  if (c.line_shift < 2) {
    for (std::uint32_t line = first + 1; line != last; ++line) {
      extra += line_run(c, line, words_on(line), is_write);
    }
  } else if (last - first > 1) {
    const std::uint64_t lines = last - first - 1;
    const std::uint64_t words =
        (std::uint64_t{1} << (c.line_shift - 2)) + ((addr & 3u) != 0);
    // Walk the interior as runs of consecutive tag slots (it wraps at the
    // end of the array); the locals keep the tag stores from aliasing
    // the view's fields.
    std::uint32_t* const tags = c.tags;
    const std::uint32_t slots = c.index_mask + 1;
    std::uint64_t matched = 0;
    for (std::uint32_t line = first + 1; line != last;) {
      const std::uint32_t at = line & c.index_mask;
      const std::uint32_t n = std::min(last - line, slots - at);
      std::uint32_t* const t = tags + at;
      const std::uint32_t tag = line + 1;
      if (is_write) {
        for (std::uint32_t j = 0; j < n; ++j) matched += t[j] == tag + j;
      } else {
        for (std::uint32_t j = 0; j < n; ++j) {
          matched += t[j] == tag + j;
          t[j] = tag + j;
        }
      }
      line += n;
    }
    if (is_write) {
      *c.hits += matched * words;
      *c.misses += (lines - matched) * words;
      extra += c.write_cost * words * lines;
    } else {
      const std::uint64_t missed = lines - matched;
      *c.hits += lines * (words - 1) + matched;
      *c.misses += missed;
      extra += c.read_miss_penalty * missed;
    }
  }
  return extra + line_run(c, last, words_on(last), is_write);
}

/// True if some line of [a, a+alen) and some line of [b, b+blen) map to
/// the same tag slot (both lengths nonzero).
inline bool shares_slots(const CacheView& c, std::uint32_t a,
                         std::uint32_t alen, std::uint32_t b,
                         std::uint32_t blen) {
  const std::uint32_t a0 = a >> c.line_shift, b0 = b >> c.line_shift;
  const std::uint64_t an = ((a + alen - 1) >> c.line_shift) - a0 + 1;
  const std::uint64_t bn = ((b + blen - 1) >> c.line_shift) - b0 + 1;
  // Two arcs of the slot circle meet iff one holds the other's start.
  return an + bn > std::uint64_t{c.index_mask} + 1 ||
         ((b0 - a0) & c.index_mask) < an || ((a0 - b0) & c.index_mask) < bn;
}

/// A copy loop's charge: per word of `len` bytes, a read of the word at
/// `src + off` and then a write of the word at `dst + off`, in order;
/// exactly equal to that interleaved access() loop.
///
/// It charges in segments of one stream() per side, a segment's reads
/// before its writes. Only reads change tags, and only in the source's
/// slots, so that equals the interleaved loop as long as no write sees a
/// tag that a later read of its segment changes:
///  - when no source line shares a tag slot with a destination line, no
///    write sees any read's change, and the whole copy is one segment;
///  - otherwise a segment ends where the source's line ends. Its first
///    read is then the only one that can change a tag, and it runs before
///    the first write. A source word straddling two lines is a segment of
///    its own: read, then write.
inline std::uint64_t copy(const CacheView& c, std::uint32_t src,
                          std::uint32_t dst, std::uint32_t len) {
  if (len == 0) return 0;
  if (!shares_slots(c, src, len, dst, len)) {
    const std::uint64_t reads = stream(c, src, len, false);
    return reads + stream(c, dst, len, true);
  }
  const std::uint32_t line = 1u << c.line_shift;
  std::uint64_t extra = 0;
  for (std::uint32_t off = 0; off < len;) {
    const std::uint32_t rest = len - off;
    const std::uint32_t room = line - ((src + off) & (line - 1));
    const std::uint32_t n =
        room >= rest ? rest : std::max(room & ~3u, std::min(4u, rest));
    extra += stream(c, src + off, n, false);
    extra += stream(c, dst + off, n, true);
    off += n;
  }
  return extra;
}

}  // namespace line_model
}  // namespace ash::util
