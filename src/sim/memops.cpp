#include "sim/memops.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "sim/node.hpp"

namespace ash::sim::memops {
namespace {

/// One side of a walk: a plain range at `addr`, or, with a nonzero
/// `chunk`, a striped one whose `chunk`-byte data chunks alternate with
/// equal-sized pad chunks (the Ethernet DMA layout).
struct Side {
  std::uint32_t addr;
  std::uint32_t chunk = 0;

  /// Offset of logical byte `i` from `addr`.
  std::uint32_t pos(std::uint32_t i) const {
    return chunk ? (i / chunk) * 2 * chunk + i % chunk : i;
  }
  /// Logical bytes from the word at `off` whose words sit at consecutive
  /// addresses: to the chunk's end, the word that crosses it included (a
  /// word is charged where its first byte lies, for its full length).
  std::uint32_t run(std::uint32_t off) const {
    return chunk ? (chunk - off % chunk + 3) & ~3u
                 : std::numeric_limits<std::uint32_t>::max();
  }
  /// Node memory spanned by `len` logical bytes.
  std::uint32_t span(std::uint32_t len) const { return chunk ? 2 * len : len; }
};

/// Charge the word loop over `len` bytes: `insns_per_word` base cycles
/// per 32-bit word (a byte-serial tail counts as one) plus, per word, the
/// cache cost of reading `src`'s word and then writing `dst`'s. Then run
/// `work`, which does the loop's byte work in one go.
///
/// The cache is charged in segments of one `Cache::stream` call per side:
/// a segment's reads, then its writes. Only reads change tags, and only
/// in the source's slots, so that equals the interleaved loop as long as
/// no write sees a tag that a later read of its segment changes:
///  - when no source line shares a tag slot with a destination line, no
///    write sees any read's change, and the whole walk is one segment;
///  - otherwise a segment ends where the source's line ends. Its first
///    read is then the only one that can change a tag, and it runs before
///    the first write. A source word straddling two lines is a segment of
///    its own: read, then write.
/// A striped side also ends a segment at its chunk edge, where its
/// addresses jump.
template <typename Work>
Cycles walk(Node& node, std::optional<Side> src, std::optional<Side> dst,
            std::uint32_t len, std::uint32_t insns_per_word, Work work) {
  if (len == 0) return 0;
  if (src && node.mem(src->addr, src->span(len)) == nullptr) {
    throw std::out_of_range("memops: source out of bounds");
  }
  if (dst && node.mem(dst->addr, dst->span(len)) == nullptr) {
    throw std::out_of_range("memops: destination out of bounds");
  }
  Cache& cache = node.dcache();
  const std::uint32_t line = cache.config().line_bytes;
  Cycles cycles = Cycles{insns_per_word} * ((len + 3) / 4);
  const bool interleave =
      src && dst &&
      cache.shares_slots(src->addr, src->span(len), dst->addr, dst->span(len));
  for (std::uint32_t off = 0; off < len;) {
    const std::uint32_t rest = len - off;
    std::uint32_t room = rest;
    if (src) room = std::min(room, src->run(off));
    if (dst) room = std::min(room, dst->run(off));
    if (interleave) {
      const std::uint32_t at = src->addr + src->pos(off);
      room = std::min(room, line - (at & (line - 1)));
    }
    const std::uint32_t n =
        room == rest ? rest : std::max(room & ~3u, std::min(4u, rest));
    if (src) cycles += cache.stream(src->addr + src->pos(off), n, false);
    if (dst) cycles += cache.stream(dst->addr + dst->pos(off), n, true);
    off += n;
  }
  work();
  return cycles;
}

/// Run `fn(off, word, n)` over the words of `len` bytes at `p` in order,
/// loading each word just before its call; a short tail is zero-padded.
template <typename Fn>
void for_words(const std::uint8_t* p, std::uint32_t len, Fn fn) {
  std::uint32_t off = 0;
  for (; off + 4 <= len; off += 4) fn(off, util::load_u32(p + off), 4u);
  if (off < len) {
    std::uint32_t w = 0;
    std::memcpy(&w, p + off, len - off);
    fn(off, w, len - off);
  }
}

/// Copy `len` bytes with the word loop's result: one memmove, unless the
/// destination overlaps ahead of the source, where the loop's later words
/// read what its earlier words wrote.
void move_words(std::uint8_t* d, const std::uint8_t* s, std::uint32_t len) {
  const std::uintptr_t ahead = reinterpret_cast<std::uintptr_t>(d) -
                               reinterpret_cast<std::uintptr_t>(s);
  if (ahead >= len) {
    std::memmove(d, s, len);
    return;
  }
  for_words(s, len, [&](std::uint32_t off, std::uint32_t w, std::uint32_t n) {
    std::memcpy(d + off, &w, n);
  });
}

/// Copy `len` logical bytes between a plain and a striped side: one
/// memmove per chunk, or byte by byte in order (the loop's result) when
/// the two ranges overlap.
void move_striped(std::uint8_t* d, Side to, const std::uint8_t* s, Side from,
                  std::uint32_t len) {
  const std::uint32_t chunk = to.chunk ? to.chunk : from.chunk;
  const bool overlap = d < s + from.span(len) && s < d + to.span(len);
  for (std::uint32_t i = 0; i < len;) {
    const std::uint32_t n = overlap ? 1 : std::min(chunk, len - i);
    std::memmove(d + to.pos(i), s + from.pos(i), n);
    i += n;
  }
}

}  // namespace

Cycles copy(Node& node, std::uint32_t dst, std::uint32_t src,
            std::uint32_t len) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src, len);
  return walk(node, Side{src}, Side{dst}, len,
              node.cost().copy_loop_insns_per_word,
              [&] { move_words(d, s, len); });
}

Cycles cksum(Node& node, std::uint32_t addr, std::uint32_t len,
             std::uint32_t* acc) {
  const std::uint8_t* p = node.mem(addr, len);
  return walk(node, Side{addr}, std::nullopt, len,
              node.cost().cksum_loop_insns_per_word, [&] {
                // cksum32_accumulate word by word keeps the sum modulo
                // 2^32 - 1 and reads 0 only while every input so far is
                // 0, so one 64-bit sum reduced at the end is bit-identical.
                std::uint64_t sum = *acc;
                for_words(p, len, [&](std::uint32_t, std::uint32_t w,
                                      std::uint32_t) { sum += w; });
                const std::uint64_t r = sum % 0xffffffffu;
                *acc = sum == 0 ? 0 : r == 0 ? 0xffffffffu
                                             : static_cast<std::uint32_t>(r);
              });
}

Cycles bswap(Node& node, std::uint32_t addr, std::uint32_t len) {
  std::uint8_t* p = node.mem(addr, len);
  return walk(node, Side{addr}, Side{addr}, len,
              node.cost().bswap_loop_insns_per_word, [&] {
                for_words(p, len, [&](std::uint32_t off, std::uint32_t w,
                                      std::uint32_t n) {
                  if (n == 4) util::store_u32(p + off, util::bswap32(w));
                });
              });
}

Cycles copy_cksum(Node& node, std::uint32_t dst, std::uint32_t src,
                  std::uint32_t len, std::uint32_t* acc) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src, len);
  const std::uint32_t per_word = node.cost().copy_loop_insns_per_word +
                                 node.cost().integrated_cksum_extra;
  return walk(node, Side{src}, Side{dst}, len, per_word, [&] {
    for_words(s, len, [&](std::uint32_t off, std::uint32_t w,
                          std::uint32_t n) {
      *acc = util::cksum32_accumulate(*acc, w);
      std::memcpy(d + off, &w, n);
    });
  });
}

Cycles copy_cksum_bswap(Node& node, std::uint32_t dst, std::uint32_t src,
                        std::uint32_t len, std::uint32_t* acc) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src, len);
  const std::uint32_t per_word = node.cost().copy_loop_insns_per_word +
                                 node.cost().integrated_cksum_extra +
                                 node.cost().integrated_bswap_extra;
  return walk(node, Side{src}, Side{dst}, len, per_word, [&] {
    for_words(s, len, [&](std::uint32_t off, std::uint32_t w,
                          std::uint32_t n) {
      *acc = util::cksum32_accumulate(*acc, w);
      if (n == 4) w = util::bswap32(w);
      std::memcpy(d + off, &w, n);
    });
  });
}

Cycles fill(Node& node, std::uint32_t addr, std::uint32_t len,
            std::uint8_t value) {
  std::uint8_t* p = node.mem(addr, len);
  return walk(node, std::nullopt, Side{addr}, len,
              node.cost().copy_loop_insns_per_word - 1,
              [&] { std::memset(p, value, len); });
}

Cycles store(Node& node, std::uint32_t dst,
             std::span<const std::uint8_t> bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  std::uint8_t* d = node.mem(dst, len);
  return walk(node, std::nullopt, Side{dst}, len,
              node.cost().copy_loop_insns_per_word,
              [&] { move_words(d, bytes.data(), len); });
}

Cycles copy_destripe(Node& node, std::uint32_t dst, std::uint32_t src_striped,
                     std::uint32_t len, std::uint32_t chunk) {
  const Side from{src_striped, chunk}, to{dst};
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src_striped, from.span(len));
  // +1 insn per word for the stride bookkeeping.
  return walk(node, from, to, len, node.cost().copy_loop_insns_per_word + 1,
              [&] { move_striped(d, to, s, from, len); });
}

Cycles copy_stripe(Node& node, std::uint32_t dst_striped, std::uint32_t src,
                   std::uint32_t len, std::uint32_t chunk) {
  const Side from{src}, to{dst_striped, chunk};
  std::uint8_t* d = node.mem(dst_striped, to.span(len));
  const std::uint8_t* s = node.mem(src, len);
  return walk(node, from, to, len, node.cost().copy_loop_insns_per_word + 1,
              [&] { move_striped(d, to, s, from, len); });
}

}  // namespace ash::sim::memops
