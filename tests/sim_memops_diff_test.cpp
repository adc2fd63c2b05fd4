// Differential test of the line-walking charge under sim::memops (and the
// TCP staging ring's wrapped charge) against the per-word walker it
// replaced.
//
// The oracle is that walker: per 32-bit word (a byte-serial tail counts
// as one), the loop's instruction count, one Cache::access for the word
// read, one for the word written, then the word's byte work. Each call
// runs through memops on one node and through the oracle on a twin node
// with the same geometry, memory and cache state. Cycles, hits, misses,
// every tag, every byte of node memory and the checksum accumulator must
// match after every call. Geometries (256 B-64 KB; 4-64 B lines, and
// 1-2 B lines, where every word straddles lines, in SubWordLines),
// addresses, lengths, alignments, stripe chunks, direct-mapped aliasing
// between source and destination, and overlap in both directions are
// drawn at random.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/memops.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

constexpr std::uint32_t kMem = 128 * 1024;  // node memory per twin

// ---------------------------------------------------------------- oracle

constexpr std::uint32_t striped_off(std::uint32_t i, std::uint32_t chunk) {
  return (i / chunk) * 2 * chunk + (i % chunk);
}

/// Where the word at logical offset `off` lives on one side of a walk;
/// empty for a side the loop does not touch.
using Place = std::function<std::uint32_t(std::uint32_t)>;

Place plain(std::uint32_t addr) {
  return [addr](std::uint32_t off) { return addr + off; };
}
Place striped(std::uint32_t addr, std::uint32_t chunk) {
  return [=](std::uint32_t off) { return addr + striped_off(off, chunk); };
}

Cycles word_walk(Node& node, const Place& src, const Place& dst,
                 std::uint32_t len, std::uint32_t insns_per_word,
                 const std::function<void(std::uint32_t, std::uint32_t)>&
                     word_fn) {
  Cycles cycles = 0;
  for (std::uint32_t off = 0; off < len; off += 4) {
    const std::uint32_t n = std::min(4u, len - off);
    cycles += insns_per_word;
    if (src) cycles += node.dcache().access(src(off), n, false);
    if (dst) cycles += node.dcache().access(dst(off), n, true);
    word_fn(off, n);
  }
  return cycles;
}

/// A word's value as the checksum loops read it: a short tail is
/// zero-padded.
std::uint32_t word_at(const std::uint8_t* p, std::uint32_t n) {
  std::uint32_t w = 0;
  std::memcpy(&w, p, n);
  return w;
}

// ----------------------------------------------------------------- calls

enum class Op {
  Copy,
  Cksum,
  Bswap,
  CopyCksum,
  CopyCksumBswap,
  Fill,
  Store,
  Destripe,
  Stripe,
};
constexpr Op kAllOps[] = {Op::Copy,     Op::Cksum,          Op::Bswap,
                          Op::CopyCksum, Op::CopyCksumBswap, Op::Fill,
                          Op::Store,    Op::Destripe,       Op::Stripe};

const char* name(Op op) {
  switch (op) {
    case Op::Copy: return "copy";
    case Op::Cksum: return "cksum";
    case Op::Bswap: return "bswap";
    case Op::CopyCksum: return "copy_cksum";
    case Op::CopyCksumBswap: return "copy_cksum_bswap";
    case Op::Fill: return "fill";
    case Op::Store: return "store";
    case Op::Destripe: return "copy_destripe";
    case Op::Stripe: return "copy_stripe";
  }
  return "?";
}

/// One memops call. Single-range ops use `src` (cksum, bswap) or `dst`
/// (fill, store).
struct Call {
  Op op;
  std::uint32_t src = 0, dst = 0, len = 0, chunk = 16;
  std::uint32_t acc = 0;
  std::uint8_t value = 0;
  std::vector<std::uint8_t> host;  // store's bytes
};

std::string describe(const Call& c, const CacheConfig& g) {
  std::ostringstream os;
  os << name(c.op) << " src=0x" << std::hex << c.src << " dst=0x" << c.dst
     << std::dec << " len=" << c.len << " chunk=" << c.chunk
     << " | cache " << g.size_bytes << " B, " << g.line_bytes
     << " B lines, miss " << g.read_miss_penalty << ", write "
     << g.write_cost;
  return os.str();
}

Cycles run_memops(Node& node, Call& c) {
  switch (c.op) {
    case Op::Copy: return memops::copy(node, c.dst, c.src, c.len);
    case Op::Cksum: return memops::cksum(node, c.src, c.len, &c.acc);
    case Op::Bswap: return memops::bswap(node, c.src, c.len);
    case Op::CopyCksum:
      return memops::copy_cksum(node, c.dst, c.src, c.len, &c.acc);
    case Op::CopyCksumBswap:
      return memops::copy_cksum_bswap(node, c.dst, c.src, c.len, &c.acc);
    case Op::Fill: return memops::fill(node, c.dst, c.len, c.value);
    case Op::Store: return memops::store(node, c.dst, c.host);
    case Op::Destripe:
      return memops::copy_destripe(node, c.dst, c.src, c.len, c.chunk);
    case Op::Stripe:
      return memops::copy_stripe(node, c.dst, c.src, c.len, c.chunk);
  }
  return 0;
}

Cycles run_oracle(Node& node, Call& c) {
  const CostModel& cost = node.cost();
  std::uint8_t* m = node.mem(0, 0);
  std::uint8_t* s = m + c.src;
  std::uint8_t* d = m + c.dst;
  const std::uint32_t copy = cost.copy_loop_insns_per_word;
  switch (c.op) {
    case Op::Copy:
      return word_walk(node, plain(c.src), plain(c.dst), c.len, copy,
                       [&](std::uint32_t off, std::uint32_t n) {
                         std::memmove(d + off, s + off, n);
                       });
    case Op::Cksum:
      return word_walk(node, plain(c.src), {}, c.len,
                       cost.cksum_loop_insns_per_word,
                       [&](std::uint32_t off, std::uint32_t n) {
                         c.acc = util::cksum32_accumulate(
                             c.acc, word_at(s + off, n));
                       });
    case Op::Bswap:
      return word_walk(node, plain(c.src), plain(c.src), c.len,
                       cost.bswap_loop_insns_per_word,
                       [&](std::uint32_t off, std::uint32_t n) {
                         if (n == 4) {
                           util::store_u32(
                               s + off, util::bswap32(util::load_u32(s + off)));
                         }
                       });
    case Op::CopyCksum:
      return word_walk(node, plain(c.src), plain(c.dst), c.len,
                       copy + cost.integrated_cksum_extra,
                       [&](std::uint32_t off, std::uint32_t n) {
                         c.acc = util::cksum32_accumulate(
                             c.acc, word_at(s + off, n));
                         std::memmove(d + off, s + off, n);
                       });
    case Op::CopyCksumBswap:
      return word_walk(
          node, plain(c.src), plain(c.dst), c.len,
          copy + cost.integrated_cksum_extra + cost.integrated_bswap_extra,
          [&](std::uint32_t off, std::uint32_t n) {
            const std::uint32_t w = word_at(s + off, n);
            c.acc = util::cksum32_accumulate(c.acc, w);
            if (n == 4) {
              util::store_u32(d + off, util::bswap32(w));
            } else {
              std::memmove(d + off, s + off, n);
            }
          });
    case Op::Fill:
      return word_walk(node, {}, plain(c.dst), c.len, copy - 1,
                       [&](std::uint32_t off, std::uint32_t n) {
                         std::memset(d + off, c.value, n);
                       });
    case Op::Store:
      return word_walk(node, {}, plain(c.dst), c.len, copy,
                       [&](std::uint32_t off, std::uint32_t n) {
                         std::memcpy(d + off, c.host.data() + off, n);
                       });
    case Op::Destripe:
      return word_walk(node, striped(c.src, c.chunk), plain(c.dst), c.len,
                       copy + 1, [&](std::uint32_t off, std::uint32_t n) {
                         for (std::uint32_t i = off; i < off + n; ++i) {
                           d[i] = s[striped_off(i, c.chunk)];
                         }
                       });
    case Op::Stripe:
      return word_walk(node, plain(c.src), striped(c.dst, c.chunk), c.len,
                       copy + 1, [&](std::uint32_t off, std::uint32_t n) {
                         for (std::uint32_t i = off; i < off + n; ++i) {
                           d[striped_off(i, c.chunk)] = s[i];
                         }
                       });
  }
  return 0;
}

// ------------------------------------------------------------ generation

CacheConfig draw_geometry(util::Rng& rng, bool sub_word = false) {
  CacheConfig g;
  g.line_bytes = sub_word ? 1u << rng.below(2)  // 1..2 B
                          : 4u << rng.below(5);  // 4..64 B
  g.size_bytes = 256u << rng.below(9);   // 256 B..64 KB
  if (g.size_bytes < g.line_bytes) g.size_bytes = g.line_bytes;
  g.read_miss_penalty = rng.range(1, 20);
  g.write_cost = rng.below(4);  // nonzero makes write hits/misses cost
  return g;
}

std::uint32_t draw_len(util::Rng& rng, std::uint32_t line) {
  switch (rng.below(4)) {
    case 0: return static_cast<std::uint32_t>(rng.below(10));  // 0..9
    case 1: {  // around a line multiple, but not below 0 (1-2 B lines)
      const std::uint64_t n = line * rng.range(1, 8) + rng.range(0, 8);
      return static_cast<std::uint32_t>(n < 4 ? 0 : n - 4);
    }
    default: return static_cast<std::uint32_t>(rng.range(10, 4096));
  }
}

/// Draws a call whose ranges fit node memory. The destination is
/// independent, an alias of the source a whole number of cache sizes
/// away (give or take a few lines), overlapping ahead of or behind it, or
/// the source itself.
Call draw_call(util::Rng& rng, Op op, const CacheConfig& g) {
  constexpr std::uint32_t kChunks[] = {1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64};
  Call c;
  c.op = op;
  c.len = draw_len(rng, g.line_bytes);
  c.chunk = kChunks[rng.below(std::size(kChunks))];
  const std::uint32_t src_span = op == Op::Destripe ? 2 * c.len : c.len;
  const std::uint32_t dst_span = op == Op::Stripe ? 2 * c.len : c.len;
  c.src = static_cast<std::uint32_t>(rng.below(kMem - src_span + 1));
  const auto independent = [&] {
    return static_cast<std::uint32_t>(rng.below(kMem - dst_span + 1));
  };
  std::int64_t dst = independent();
  switch (rng.below(5)) {
    case 0: break;
    case 1: {
      const auto away =
          static_cast<std::int64_t>(g.size_bytes * rng.range(1, 3));
      const std::int64_t skew =
          static_cast<std::int64_t>(rng.range(0, 4 * g.line_bytes)) -
          2 * g.line_bytes;
      dst = c.src + away + skew;
      if (dst < 0 || dst + dst_span > kMem) dst = c.src - away + skew;
      break;
    }
    case 2:
      dst = c.src + static_cast<std::int64_t>(rng.range(1, c.len + 8));
      break;
    case 3:
      dst = c.src - static_cast<std::int64_t>(rng.range(1, c.len + 8));
      break;
    case 4: dst = c.src; break;
  }
  if (dst < 0 || dst + dst_span > kMem) dst = independent();
  c.dst = static_cast<std::uint32_t>(dst);
  switch (rng.below(4)) {
    case 0: c.acc = 0; break;
    case 1: c.acc = 0xffffffffu; break;
    default: c.acc = static_cast<std::uint32_t>(rng.next()); break;
  }
  c.value = static_cast<std::uint8_t>(rng.below(256));
  c.host.resize(c.len);
  for (auto& b : c.host) b = static_cast<std::uint8_t>(rng.below(256));
  return c;
}

// ---------------------------------------------------------------- driver

::testing::AssertionResult same_state(Node& a, Node& b) {
  Cache& ca = a.dcache();
  Cache& cb = b.dcache();
  if (ca.hits() != cb.hits() || ca.misses() != cb.misses()) {
    return ::testing::AssertionFailure()
           << "hits/misses " << ca.hits() << "/" << ca.misses() << " vs "
           << cb.hits() << "/" << cb.misses();
  }
  const Cache::Raw ra = ca.raw(), rb = cb.raw();
  for (std::uint32_t i = 0; i <= ra.index_mask; ++i) {
    if (ra.tags[i] != rb.tags[i]) {
      return ::testing::AssertionFailure()
             << "tag slot " << i << ": " << ra.tags[i] << " vs " << rb.tags[i];
    }
  }
  const std::uint8_t* ma = a.mem(0, kMem);
  const std::uint8_t* mb = b.mem(0, kMem);
  if (std::memcmp(ma, mb, kMem) != 0) {
    std::uint32_t i = 0;
    while (ma[i] == mb[i]) ++i;
    return ::testing::AssertionFailure()
           << "memory byte 0x" << std::hex << i << ": " << int{ma[i]}
           << " vs " << int{mb[i]};
  }
  return ::testing::AssertionSuccess();
}

/// For `geometries` random cache geometries, runs `calls` random calls
/// drawn from `ops` through memops and through the oracle on twin nodes,
/// checking the twins stay identical after every call.
void run_diff(std::uint64_t seed, std::vector<Op> ops, int geometries,
              int calls, bool sub_word = false) {
  util::Rng rng(seed);
  for (int gi = 0; gi < geometries; ++gi) {
    NodeConfig cfg;
    cfg.memory_bytes = kMem;
    cfg.cache = draw_geometry(rng, sub_word);
    Simulator sim;
    Node& line = sim.add_node("line", cfg);
    Node& word = sim.add_node("word", cfg);
    std::uint8_t* ml = line.mem(0, kMem);
    for (std::uint32_t i = 0; i < kMem; ++i) {
      ml[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    // A zeroed stretch: checksums of all-zero words, from an accumulator
    // of 0 or 0xffffffff, are the accumulator's edge cases.
    std::memset(ml, 0, kMem / 8);
    std::memcpy(word.mem(0, kMem), ml, kMem);
    for (int k = 0; k < 400; ++k) {  // warm both caches the same way
      const auto addr = static_cast<std::uint32_t>(rng.below(kMem - 8));
      const auto n = static_cast<std::uint32_t>(rng.range(1, 8));
      const bool write = rng.chance(1, 3);
      line.dcache().access(addr, n, write);
      word.dcache().access(addr, n, write);
    }
    for (int k = 0; k < calls; ++k) {
      Call c = draw_call(rng, ops[rng.below(ops.size())], cfg.cache);
      Call o = c;
      SCOPED_TRACE(describe(c, cfg.cache));
      const Cycles got = run_memops(line, c);
      const Cycles want = run_oracle(word, o);
      ASSERT_EQ(got, want);
      ASSERT_EQ(c.acc, o.acc);
      ASSERT_TRUE(same_state(line, word));
    }
  }
}

constexpr int kGeometries = 24;
constexpr int kCalls = 150;

TEST(MemOpsDiff, StreamEqualsWordAccesses) {
  util::Rng rng(0x5eed);
  for (int gi = 0; gi < 64; ++gi) {
    const CacheConfig g = draw_geometry(rng);
    Cache line(g), word(g);
    for (int k = 0; k < 300; ++k) {
      const auto addr = static_cast<std::uint32_t>(rng.below(1u << 20));
      const std::uint32_t len = draw_len(rng, g.line_bytes);
      const bool write = rng.chance(1, 3);
      SCOPED_TRACE(testing::Message() << "addr " << addr << " len " << len
                                      << " write " << write << " line "
                                      << g.line_bytes << " size "
                                      << g.size_bytes);
      Cycles want = 0;
      for (std::uint32_t off = 0; off < len; off += 4) {
        want += word.access(addr + off, std::min(4u, len - off), write);
      }
      ASSERT_EQ(line.stream(addr, len, write), want);
      ASSERT_EQ(line.hits(), word.hits());
      ASSERT_EQ(line.misses(), word.misses());
      const Cache::Raw rl = line.raw(), rw = word.raw();
      ASSERT_TRUE(std::equal(rl.tags, rl.tags + rl.index_mask + 1, rw.tags));
    }
  }
}

TEST(MemOpsDiff, Copy) { run_diff(1, {Op::Copy}, kGeometries, kCalls); }
TEST(MemOpsDiff, Cksum) { run_diff(2, {Op::Cksum}, kGeometries, kCalls); }
TEST(MemOpsDiff, Bswap) { run_diff(3, {Op::Bswap}, kGeometries, kCalls); }
TEST(MemOpsDiff, CopyCksum) {
  run_diff(4, {Op::CopyCksum}, kGeometries, kCalls);
}
TEST(MemOpsDiff, CopyCksumBswap) {
  run_diff(5, {Op::CopyCksumBswap}, kGeometries, kCalls);
}
TEST(MemOpsDiff, Fill) { run_diff(6, {Op::Fill}, kGeometries, kCalls); }
TEST(MemOpsDiff, Store) { run_diff(7, {Op::Store}, kGeometries, kCalls); }
TEST(MemOpsDiff, Destripe) {
  run_diff(8, {Op::Destripe}, kGeometries, kCalls);
}
TEST(MemOpsDiff, Stripe) { run_diff(9, {Op::Stripe}, kGeometries, kCalls); }

TEST(MemOpsDiff, MixedOpsOnOneCacheState) {
  run_diff(10, {std::begin(kAllOps), std::end(kAllOps)}, kGeometries,
           2 * kCalls);
}

TEST(MemOpsDiff, SubWordLines) {
  run_diff(11, {std::begin(kAllOps), std::end(kAllOps)}, kGeometries,
           kCalls, /*sub_word=*/true);
}

TEST(MemOpsDiff, StreamRingEqualsWrappedWordLoop) {
  // TcpConnection::Host::deliver charges a reassembled segment's store
  // into its staging ring [base, base + cap) from offset `wr` through
  // stream_ring: the loop's words run on across the wrap, word `off` at
  // base + (wr + off) % cap.
  util::Rng rng(11);
  for (int gi = 0; gi < 64; ++gi) {
    const CacheConfig g = draw_geometry(rng);
    Cache line(g), word(g);
    for (int k = 0; k < 200; ++k) {
      const auto base = static_cast<std::uint32_t>(rng.below(1u << 20));
      const auto cap = static_cast<std::uint32_t>(rng.range(1, 9000));
      const auto wr = static_cast<std::uint32_t>(rng.below(cap));
      const auto len = static_cast<std::uint32_t>(
          rng.chance(1, 2) ? rng.below(std::min(cap, 10u) + 1)
                           : rng.range(0, cap));
      const bool write = rng.chance(2, 3);  // the staging store writes
      SCOPED_TRACE(testing::Message() << "base " << base << " cap " << cap
                                      << " wr " << wr << " len " << len
                                      << " write " << write);
      Cycles want = 0;
      for (std::uint32_t off = 0; off < len; off += 4) {
        want += word.access(base + (wr + off) % cap, std::min(4u, len - off),
                            write);
      }
      ASSERT_EQ(line.stream_ring(base, cap, wr, len, write), want);
      ASSERT_EQ(line.hits(), word.hits());
      ASSERT_EQ(line.misses(), word.misses());
      const Cache::Raw rl = line.raw(), rw = word.raw();
      ASSERT_TRUE(std::equal(rl.tags, rl.tags + rl.index_mask + 1, rw.tags));
    }
  }
}

}  // namespace
}  // namespace ash::sim
