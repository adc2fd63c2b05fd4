// Differential: the JIT's fused DILP loop against the interpreter, both
// over a real sim::Cache. The interpreter charges every load and store
// through mem_cycles -> Cache::access; the JIT gets the cache's raw view
// through fast_mem and charges whole runs through util::line_model (a
// third leg runs the JIT without the view, charging mem_cycles per word).
//
// Five chains run: checksum, checksum+byteswap, identity, XOR, and a word
// sum in the checksum pass's shape. Seeded cases cover lines of 1-64 bytes and caches of one line up to
// 64 KB, warm tags, unaligned sources, the destination at, ahead of and
// behind the source by less than the length, ranges whose lines share tag
// slots, sources in the read-only message window, and instruction
// ceilings that hand the loop back to the interpreter part way. Every
// case compares outcome, insns, cycles, result, every register (the
// persistents included), all memory, hits, misses and every tag.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dilp/compiler.hpp"
#include "dilp/pipe.hpp"
#include "dilp/stdpipes.hpp"
#include "sim/cache.hpp"
#include "util/line_model.hpp"
#include "util/rng.hpp"
#include "vcode/interp.hpp"
#include "vcode/jit/jit.hpp"

namespace ash::vcode {
namespace {

constexpr std::uint32_t kBase = 0x40000;   // simulated address of mem[0]
constexpr std::uint32_t kOwner = 0x20000;  // owner window: 128 KB
constexpr std::uint32_t kMsg = 0x4000;     // message window after it
constexpr std::uint32_t kOwnerHi = kBase + kOwner;
constexpr std::uint32_t kMsgHi = kOwnerHi + kMsg;
constexpr int kCasesPerChain = 1800;  // 9,000 cases over five chains

bool inside(std::uint32_t addr, std::uint32_t len, std::uint32_t lo,
            std::uint32_t hi) {
  return addr >= lo && addr < hi && hi - addr >= len;
}

/// Node-like memory with the two fast-mem windows and a real cache model.
class CacheEnv : public Env {
 public:
  CacheEnv(const std::vector<std::uint8_t>& image, const sim::CacheConfig& g,
           bool offer_view)
      : mem_(image), cache_(g), offer_view_(offer_view) {}

  std::vector<std::uint8_t>& memory() { return mem_; }
  sim::Cache& cache() { return cache_; }

  bool mem_read(std::uint32_t addr, void* dst, std::uint32_t len) override {
    if (!inside(addr, len, kBase, kOwnerHi) &&
        !inside(addr, len, kOwnerHi, kMsgHi)) {
      return false;
    }
    std::memcpy(dst, mem_.data() + (addr - kBase), len);
    return true;
  }
  bool mem_write(std::uint32_t addr, const void* src,
                 std::uint32_t len) override {
    if (!inside(addr, len, kBase, kOwnerHi)) return false;
    std::memcpy(mem_.data() + (addr - kBase), src, len);
    return true;
  }
  std::uint64_t mem_cycles(std::uint32_t addr, std::uint32_t len,
                           bool is_write) override {
    return cache_.access(addr, len, is_write);
  }
  bool fast_mem(FastMem* out) override {
    out->mem = mem_.data();
    out->mem_base = kBase;
    out->owner_lo = kBase;
    out->owner_hi = kOwnerHi;
    out->msg_lo = kOwnerHi;
    out->msg_hi = kMsgHi;
    if (offer_view_) out->cache = cache_.raw();
    return true;
  }

 private:
  std::vector<std::uint8_t> mem_;
  sim::Cache cache_;
  bool offer_view_;
};

/// Random bytes, with a zeroed stretch and an all-ones stretch (the
/// checksum's two reduction edges).
std::vector<std::uint8_t> make_image(util::Rng& rng) {
  std::vector<std::uint8_t> image(kOwner + kMsg);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng.next());
  std::fill_n(image.begin() + 0x1000, 0x800, std::uint8_t{0});
  std::fill_n(image.begin() + kOwner + 0x1000, 0x800, std::uint8_t{0xff});
  return image;
}

struct Case {
  sim::CacheConfig geometry;
  std::uint32_t src = 0, dst = 0, len = 0;
  std::array<std::uint32_t, 2> seeds{};
  ExecLimits limits;
  // Warm-up: (addr, len, kind) with kind 0 = touch_range, 1 = read,
  // 2 = write.
  std::vector<std::array<std::uint32_t, 3>> warm;

  std::string describe() const {
    std::ostringstream os;
    os << "line " << geometry.line_bytes << " size " << geometry.size_bytes
       << " penalty " << geometry.read_miss_penalty << " write_cost "
       << geometry.write_cost << " src 0x" << std::hex << src << " dst 0x"
       << dst << std::dec << " len " << len << " seeds " << seeds[0] << ","
       << seeds[1] << " max_insns " << limits.max_insns << " max_cycles "
       << limits.max_cycles << " warm " << warm.size();
    return os.str();
  }
};

std::uint32_t draw_len(util::Rng& rng, std::uint32_t line) {
  switch (rng.below(8)) {
    case 0: return 4 * static_cast<std::uint32_t>(rng.below(4));  // 0..12
    case 1:
    case 2:  // around a line multiple
      return std::max<std::uint32_t>(
          4, (line * static_cast<std::uint32_t>(rng.range(1, 8)) + 3) & ~3u);
    case 3:
    case 4: return 4 * static_cast<std::uint32_t>(rng.range(1, 64));
    case 5:
    case 6: return 4 * static_cast<std::uint32_t>(rng.range(64, 512));
    default: return 4 * static_cast<std::uint32_t>(rng.range(512, 1024));
  }
}

Case draw_case(util::Rng& rng, std::uint32_t insns_per_word) {
  Case c;
  const auto line_shift = static_cast<std::uint32_t>(rng.below(7));  // 1-64 B
  c.geometry.line_bytes = 1u << line_shift;
  c.geometry.size_bytes =
      1u << rng.range(line_shift, 16);  // one line .. 64 KB
  c.geometry.read_miss_penalty = rng.range(0, 20);
  c.geometry.write_cost = rng.below(4);
  const std::uint32_t line = c.geometry.line_bytes;
  const std::uint32_t size = c.geometry.size_bytes;
  c.len = draw_len(rng, line);

  // Sources anywhere in either window (any byte alignment); a few run off
  // its end.
  const bool from_msg = rng.chance(1, 4);
  const std::uint32_t lo = from_msg ? kOwnerHi : kBase;
  const std::uint32_t hi = from_msg ? kMsgHi : kOwnerHi;
  const std::uint32_t room = hi - lo > c.len ? hi - lo - c.len : 0;
  c.src = lo + static_cast<std::uint32_t>(rng.below(room + 1));
  if (rng.chance(1, 64)) c.src = hi - c.len / 2;

  // Less than the length away (at least 1 byte).
  const auto near = static_cast<std::uint32_t>(
      rng.range(1, c.len > 1 ? c.len - 1 : 1));
  switch (rng.below(8)) {
    case 0: c.dst = c.src; break;
    case 1: c.dst = c.src + near; break;  // ahead, overlapping
    case 2: c.dst = c.src - near; break;  // behind, overlapping
    case 3:
    case 4: {  // some line shares a tag slot with a source line
      const std::uint32_t apart =
          size * static_cast<std::uint32_t>(rng.range(1, 3)) +
          static_cast<std::uint32_t>(rng.range(0, 2 * line)) - line;
      c.dst = c.src + apart <= kOwnerHi - c.len ? c.src + apart
                                                : c.src - apart;
      break;
    }
    default:
      c.dst = kBase + static_cast<std::uint32_t>(rng.below(kOwner - c.len));
      break;
  }
  // Keep most destinations writable; a few land outside the owner window
  // (the native pass must decline, the interpreter faults).
  if ((c.dst < kBase || c.dst > kOwnerHi - c.len) && !rng.chance(1, 16)) {
    c.dst = kBase + static_cast<std::uint32_t>(rng.below(kOwner - c.len));
  }

  for (auto& s : c.seeds) {
    switch (rng.below(4)) {
      case 0: s = 0; break;
      case 1: s = 0xffffffffu; break;
      default: s = static_cast<std::uint32_t>(rng.next()); break;
    }
  }

  const std::uint64_t full =
      64 + static_cast<std::uint64_t>(c.len / 4 + 1) * (insns_per_word + 8);
  c.limits.max_insns = full;
  if (rng.chance(1, 5)) {
    // The instruction backstop: the native pass runs what fits, then
    // hands the loop head to the interpreter core.
    c.limits.max_insns = rng.range(1, full);
  }
  if (rng.chance(1, 20)) c.limits.max_cycles = rng.range(1, 40 * full);

  const auto n_warm = rng.below(6);
  for (std::uint64_t i = 0; i < n_warm; ++i) {
    const std::uint32_t at = rng.chance(1, 2) ? c.src : c.dst;
    const auto a = at + static_cast<std::uint32_t>(rng.below(c.len + 64)) - 32;
    const auto l = static_cast<std::uint32_t>(rng.range(1, 4 * line + 64));
    c.warm.push_back({a, l, static_cast<std::uint32_t>(rng.below(3))});
  }
  return c;
}

/// Cases that reach each shape the JIT's native pass must handle. The
/// pass runs when no cycle ceiling is set and both ranges lie in their
/// windows.
struct Coverage {
  int native = 0;
  int aliased = 0;  // some source line shares a tag slot with a dst line
  int same = 0, ahead = 0, behind = 0;  // dst vs src, overlapping
  int unaligned = 0;                     // src not word aligned
  int sub_word_lines = 0;                // lines of 1 or 2 bytes
  int warm = 0;
  int from_msg = 0;
  int handoff = 0;  // the backstop stops the loop part way

  void count(const Case& c, std::uint32_t insns_per_word,
             sim::Cache& cache) {
    const bool src_ok = inside(c.src, c.len, kBase, kOwnerHi) ||
                        inside(c.src, c.len, kOwnerHi, kMsgHi);
    if (c.len == 0 || c.limits.max_cycles != 0 || !src_ok ||
        !inside(c.dst, c.len, kBase, kOwnerHi)) {
      return;
    }
    ++native;
    aliased +=
        util::line_model::shares_slots(cache.raw(), c.src, c.len, c.dst, c.len);
    same += c.dst == c.src;
    ahead += c.dst > c.src && c.dst < c.src + c.len;
    behind += c.dst < c.src && c.src < c.dst + c.len;
    unaligned += (c.src & 3u) != 0;
    sub_word_lines += c.geometry.line_bytes < 4;
    warm += !c.warm.empty();
    from_msg += c.src >= kOwnerHi;
    handoff += c.limits.max_insns <= c.len / 4 * insns_per_word;
  }
};

void warm_up(sim::Cache& cache, const Case& c) {
  for (const auto& [addr, len, kind] : c.warm) {
    if (kind == 0) {
      cache.touch_range(addr, len);
    } else {
      cache.stream(addr, len, kind == 2);
    }
  }
}

::testing::AssertionResult same_run(const ExecResult& a, const ExecResult& b,
                                    const std::uint32_t* ra,
                                    const std::uint32_t* rb, CacheEnv& ea,
                                    CacheEnv& eb) {
  if (a.outcome != b.outcome) {
    return ::testing::AssertionFailure()
           << "outcome " << to_string(a.outcome) << " vs "
           << to_string(b.outcome);
  }
  if (a.insns != b.insns || a.cycles != b.cycles || a.result != b.result ||
      a.fault_pc != b.fault_pc || a.abort_code != b.abort_code) {
    return ::testing::AssertionFailure()
           << "insns " << a.insns << "/" << b.insns << " cycles " << a.cycles
           << "/" << b.cycles << " result " << a.result << "/" << b.result
           << " fault_pc " << a.fault_pc << "/" << b.fault_pc;
  }
  for (std::uint32_t r = 0; r < kNumRegs; ++r) {
    if (ra[r] != rb[r]) {
      return ::testing::AssertionFailure()
             << "r" << r << " " << ra[r] << " vs " << rb[r];
    }
  }
  sim::Cache& ca = ea.cache();
  sim::Cache& cb = eb.cache();
  if (ca.hits() != cb.hits() || ca.misses() != cb.misses()) {
    return ::testing::AssertionFailure()
           << "hits/misses " << ca.hits() << "/" << ca.misses() << " vs "
           << cb.hits() << "/" << cb.misses();
  }
  const sim::Cache::Raw va = ca.raw(), vb = cb.raw();
  for (std::uint32_t i = 0; i <= va.index_mask; ++i) {
    if (va.tags[i] != vb.tags[i]) {
      return ::testing::AssertionFailure()
             << "tag slot " << i << ": " << va.tags[i] << " vs "
             << vb.tags[i];
    }
  }
  const auto [pa, pb] = std::mismatch(ea.memory().begin(), ea.memory().end(),
                                      eb.memory().begin());
  if (pa != ea.memory().end()) {
    return ::testing::AssertionFailure()
           << "memory at 0x" << std::hex
           << kBase + static_cast<std::uint32_t>(pa - ea.memory().begin())
           << ": " << int{*pa} << " vs " << int{*pb};
  }
  return ::testing::AssertionSuccess();
}

/// A word sum in the checksum pass's shape (`Addu acc, w, acc`, the word
/// stored unchanged) with another op: it must run as a body, per word.
dilp::Pipe make_sum_pipe() {
  dilp::PipeBuilder pb("sum", dilp::Gauge::G32, dilp::Gauge::G32,
                       dilp::kCommutative | dilp::kNoMod);
  const Reg acc = pb.persistent_reg();
  const Reg in = pb.temp_reg();
  pb.code().pin32(in);
  pb.code().addu(acc, in, acc);
  pb.code().pout32(in);
  return pb.finish();
}

/// Runs `kCasesPerChain` seeded cases of the chain's fused loop through
/// the interpreter, the JIT with the raw view, and the JIT without it.
void run_chain(std::uint64_t seed, const dilp::PipeList& pl) {
  std::string error;
  const auto ilp = dilp::compile_pipes(pl, dilp::Direction::Write, &error);
  ASSERT_TRUE(ilp.has_value()) << error;
  ASSERT_LE(ilp->persistents.size(), 2u);
  const JitBackend jit(ilp->loop);
  ASSERT_EQ(jit.fused_loop_count(), 1u);

  util::Rng rng(seed);
  const std::vector<std::uint8_t> image = make_image(rng);
  int differing = 0;
  Coverage cov;
  for (int i = 0; i < kCasesPerChain; ++i) {
    const Case c = draw_case(rng, ilp->insns_per_word);
    CacheEnv env_i(image, c.geometry, false);
    cov.count(c, ilp->insns_per_word, env_i.cache());
    warm_up(env_i.cache(), c);
    Interpreter interp(ilp->loop, env_i);
    interp.set_args(c.src, c.dst, c.len);
    for (std::size_t k = 0; k < ilp->persistents.size(); ++k) {
      interp.set_reg(ilp->persistents[k].loop_reg, c.seeds[k]);
    }
    const ExecResult ri = interp.run(c.limits);
    std::array<std::uint32_t, kNumRegs> regs_i{};
    for (std::uint32_t r = 0; r < kNumRegs; ++r) {
      regs_i[r] = interp.reg(static_cast<Reg>(r));
    }

    for (const bool view : {true, false}) {
      CacheEnv env_j(image, c.geometry, view);
      warm_up(env_j.cache(), c);
      std::array<std::uint32_t, kNumRegs> regs_j{};
      regs_j[kRegArg0] = c.src;
      regs_j[kRegArg1] = c.dst;
      regs_j[kRegArg2] = c.len;
      for (std::size_t k = 0; k < ilp->persistents.size(); ++k) {
        regs_j[ilp->persistents[k].loop_reg] = c.seeds[k];
      }
      const ExecResult rj = jit.run(env_j, regs_j, c.limits);
      const auto same =
          same_run(ri, rj, regs_i.data(), regs_j.data(), env_i, env_j);
      if (!same) {
        if (++differing <= 5) {
          ADD_FAILURE() << "case " << i << (view ? " (view)" : " (no view)")
                        << ": " << c.describe() << ": " << same.message();
        }
      }
    }
  }
  EXPECT_EQ(differing, 0) << "of " << 2 * kCasesPerChain << " JIT runs";
  for (const int n : {cov.aliased, cov.native - cov.aliased, cov.same,
                      cov.ahead, cov.behind,
                      cov.unaligned, cov.sub_word_lines, cov.warm,
                      cov.from_msg, cov.handoff}) {
    EXPECT_GE(n, 20) << "native " << cov.native << " aliased " << cov.aliased
                     << " same " << cov.same << " ahead " << cov.ahead
                     << " behind " << cov.behind << " unaligned "
                     << cov.unaligned << " sub-word lines "
                     << cov.sub_word_lines << " warm " << cov.warm
                     << " from msg " << cov.from_msg << " handoff "
                     << cov.handoff;
  }
}

TEST(JitCacheDiff, CksumChain) {
  dilp::PipeList pl;
  pl.add(dilp::make_cksum_pipe(nullptr));
  run_chain(1, pl);
}

TEST(JitCacheDiff, CksumBswapChain) {
  dilp::PipeList pl;
  pl.add(dilp::make_cksum_pipe(nullptr));
  pl.add(dilp::make_byteswap_pipe());
  run_chain(2, pl);
}

TEST(JitCacheDiff, IdentityChain) {
  dilp::PipeList pl;
  pl.add(dilp::make_identity_pipe(dilp::Gauge::G32));
  run_chain(3, pl);
}

TEST(JitCacheDiff, XorChain) {
  dilp::PipeList pl;
  pl.add(dilp::make_xor_pipe(nullptr));
  run_chain(4, pl);
}

TEST(JitCacheDiff, SumChain) {
  dilp::PipeList pl;
  pl.add(make_sum_pipe());
  run_chain(5, pl);
}

/// The JIT listing of one pipe list's fused loop.
std::string fused_listing(const std::vector<dilp::Pipe>& pipes,
                          dilp::Direction dir) {
  dilp::PipeList pl;
  for (const dilp::Pipe& p : pipes) pl.add(p);
  std::string error;
  const auto ilp = dilp::compile_pipes(pl, dir, &error);
  EXPECT_TRUE(ilp.has_value()) << error;
  if (!ilp) return {};
  const JitBackend jit(ilp->loop);
  EXPECT_EQ(jit.fused_loop_count(), 1u);
  return jit.dump();
}

TEST(JitFusedLoop, ChecksumPipeAloneTakesTheNativeChecksumPass) {
  // The pass is chosen from the lowered body's shape: the checksum pipe
  // alone (Cksum32 acc, w with the word stored unchanged; the TCP fast
  // path's chain, which reads) sums and moves natively; a body that also
  // changes the word, has no checksum, or has another op in the
  // checksum's place runs per word.
  const dilp::Pipe cksum = dilp::make_cksum_pipe(nullptr);
  constexpr auto kPass = "checksum pass";
  for (const auto dir : {dilp::Direction::Read, dilp::Direction::Write}) {
    EXPECT_NE(fused_listing({cksum}, dir).find(kPass), std::string::npos);
    for (const auto& other : std::vector<std::vector<dilp::Pipe>>{
             {cksum, dilp::make_byteswap_pipe()},
             {dilp::make_xor_pipe(nullptr)},
             {dilp::make_identity_pipe(dilp::Gauge::G32)},
             {make_sum_pipe()}}) {
      EXPECT_EQ(fused_listing(other, dir).find(kPass), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace ash::vcode
