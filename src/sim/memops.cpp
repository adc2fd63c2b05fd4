#include "sim/memops.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "util/line_model.hpp"
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
/// The charge goes one run at a time. A run ends only at a striped side's
/// chunk edge, where its addresses jump, so a plain walk is one run. A
/// run's words sit at consecutive addresses on each side, so it charges
/// exactly through util::line_model: `copy` for two sides (its comment
/// gives the segment rule), `stream` for one.
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
  const util::CacheView cache = node.dcache().raw();
  Cycles cycles = Cycles{insns_per_word} * ((len + 3) / 4);
  for (std::uint32_t off = 0; off < len;) {
    std::uint32_t n = len - off;
    if (src) n = std::min(n, src->run(off));
    if (dst) n = std::min(n, dst->run(off));
    const std::uint32_t s = src ? src->addr + src->pos(off) : 0;
    const std::uint32_t d = dst ? dst->addr + dst->pos(off) : 0;
    if (src && dst) {
      cycles += util::line_model::copy(cache, s, d, n);
    } else {
      cycles += util::line_model::stream(cache, src ? s : d, n, !src);
    }
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
                *acc = util::cksum32_words(p, len, *acc);
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
