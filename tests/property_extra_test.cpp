// Second battery of property tests: sandboxed loops, striped DILP
// equivalence, cache invariants, TCP under combined loss+duplication, and
// link-rate conformance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dilp/engine.hpp"
#include "dilp/native.hpp"
#include "dilp/stdpipes.hpp"
#include "proto/an2_link.hpp"
#include "proto/tcp.hpp"
#include "sandbox/sfi.hpp"
#include "sim/cache.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vcode/builder.hpp"
#include "vcode/env_util.hpp"

namespace ash {
namespace {

using sim::us;
using vcode::Builder;
using vcode::FlatMemoryEnv;
using vcode::kRegArg0;
using vcode::kRegZero;
using vcode::Reg;

// ---------------------------------------------------------------- sandbox

/// Random programs WITH loops: a bounded counting loop whose body does
/// in-segment memory traffic and arithmetic. Sandboxed semantics must
/// match unsandboxed exactly.
class SfiLoopEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SfiLoopEquivalence, LoopsPreserved) {
  util::Rng rng(GetParam() + 7000);
  Builder b;
  const Reg i = b.reg();
  const Reg n = b.reg();
  const Reg base = b.reg();
  const Reg acc = b.reg();
  vcode::Label loop = b.label();
  vcode::Label done = b.label();
  const std::uint32_t iters = static_cast<std::uint32_t>(rng.range(1, 24));
  b.movi(i, 0);
  b.movi(n, iters);
  b.movi(base, 0x1000 + 4 * static_cast<std::uint32_t>(rng.below(32)));
  b.movi(acc, static_cast<std::uint32_t>(rng.next()));
  b.bind(loop);
  b.bgeu(i, n, done);
  // Body: store acc, reload, mix.
  const auto off = static_cast<std::int32_t>(4 * rng.below(8));
  b.sw(acc, base, off);
  b.lw(acc, base, off);
  switch (rng.below(3)) {
    case 0: b.addiu(acc, acc, 0x9e37u); break;
    case 1: b.xori(acc, acc, 0x5a5au); break;
    default: b.cksum32(acc, i); break;
  }
  b.addiu(i, i, 1);
  b.jmp(loop);
  b.bind(done);
  b.mov(kRegArg0, acc);
  b.halt();
  const vcode::Program prog = b.take();

  sandbox::Options opts;
  opts.segment = {0x1000, 0x1000};
  opts.software_budget_checks = rng.chance(1, 2);
  std::string error;
  const auto boxed = sandbox::sandbox(prog, opts, &error);
  ASSERT_TRUE(boxed.has_value()) << error;

  FlatMemoryEnv env1(0x10000), env2(0x10000);
  const auto plain = vcode::execute(prog, env1);
  const auto sbx = vcode::execute(boxed->program, env2);
  ASSERT_EQ(plain.outcome, vcode::Outcome::Halted);
  ASSERT_EQ(sbx.outcome, vcode::Outcome::Halted);
  EXPECT_EQ(plain.result, sbx.result);
  EXPECT_EQ(
      0, std::memcmp(env1.memory().data(), env2.memory().data(), 0x10000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SfiLoopEquivalence, ::testing::Range(0, 40));

// ---------------------------------------------------------------- dilp

/// Striped-layout fusion equals destripe-then-contiguous-fusion.
class StripedFusionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(StripedFusionEquivalence, MatchesContiguousReference) {
  util::Rng rng(GetParam() + 8100);
  dilp::PipeList pl;
  std::vector<std::uint32_t> seeds;
  const int n_pipes = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < n_pipes; ++i) {
    switch (rng.below(3)) {
      case 0:
        pl.add(dilp::make_cksum_pipe(nullptr));
        seeds.push_back(0);
        break;
      case 1:
        pl.add(dilp::make_byteswap_pipe());
        break;
      default:
        pl.add(dilp::make_xor_pipe(nullptr));
        seeds.push_back(static_cast<std::uint32_t>(rng.next()));
        break;
    }
  }
  dilp::Engine engine;
  std::string error;
  dilp::LoopLayout striped;
  striped.src_stripe_chunk = 16;
  const int id_striped =
      engine.register_ilp(pl, dilp::Direction::Write, &error, striped);
  const int id_flat = engine.register_ilp(pl, dilp::Direction::Write, &error);
  ASSERT_GE(id_striped, 0);
  ASSERT_GE(id_flat, 0);

  const std::uint32_t len = 16 * static_cast<std::uint32_t>(rng.range(1, 16));
  std::vector<std::uint8_t> logical(len);
  for (auto& v : logical) v = static_cast<std::uint8_t>(rng.next());

  FlatMemoryEnv env(0x10000);
  // Flat copy at 0x800; striped image at 0x2000.
  std::copy(logical.begin(), logical.end(), env.memory().begin() + 0x800);
  for (std::uint32_t i = 0; i < len; ++i) {
    env.memory()[0x2000 + (i / 16) * 32 + (i % 16)] = logical[i];
  }

  std::vector<std::uint32_t> p1(seeds.size()), p2(seeds.size());
  const auto r1 = engine.run(id_flat, env, 0x800, 0x4000, len, seeds, p1);
  const auto r2 =
      engine.run(id_striped, env, 0x2000, 0x6000, len, seeds, p2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(0, std::memcmp(env.memory().data() + 0x4000,
                           env.memory().data() + 0x6000, len));
  EXPECT_EQ(p1, p2);
  // The striped loop pays for its stride bookkeeping.
  EXPECT_GT(r2.exec.insns, r1.exec.insns);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripedFusionEquivalence,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------- cache

struct CacheParams {
  std::uint32_t size;
  std::uint32_t line;
};

class CacheInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheInvariants, StatsAndResidency) {
  const auto [size_kb, line] = GetParam();
  sim::CacheConfig cfg;
  cfg.size_bytes = static_cast<std::uint32_t>(size_kb) * 1024;
  cfg.line_bytes = static_cast<std::uint32_t>(line);
  cfg.read_miss_penalty = 10;
  sim::Cache cache(cfg);

  util::Rng rng(static_cast<std::uint64_t>(size_kb) * 131 +
                static_cast<std::uint64_t>(line));
  std::uint64_t accesses = 0;
  for (int k = 0; k < 2000; ++k) {
    const std::uint32_t addr =
        static_cast<std::uint32_t>(rng.below(1u << 20)) & ~3u;
    const bool write = rng.chance(1, 3);
    cache.access(addr, 4, write);
    // A 4-byte aligned access within one line counts exactly once.
    accesses += (addr % cfg.line_bytes) + 4 > cfg.line_bytes ? 2 : 1;
    if (!write) {
      EXPECT_TRUE(cache.contains(addr));  // reads always leave residency
    }
  }
  EXPECT_EQ(cache.hits() + cache.misses(), accesses);
}

INSTANTIATE_TEST_SUITE_P(Configs, CacheInvariants,
                         ::testing::Combine(::testing::Values(16, 64, 128),
                                            ::testing::Values(16, 32, 64)));

// ---------------------------------------------------------------- wire

TEST(LinkRate, An2NeverExceedsConfiguredBandwidth) {
  // Blast packets back to back; arrival spacing must respect the link
  // rate for every payload size.
  for (const std::uint32_t size : {128u, 1024u, 4096u}) {
    sim::Simulator s;
    sim::Node& a = s.add_node("a");
    sim::Node& b = s.add_node("b");
    net::An2Device da(a), db(b);
    da.connect(db);
    std::vector<sim::Cycles> arrivals;
    b.kernel().spawn("rx", [&](sim::Process& self) -> sim::Task {
      const int vc = db.bind_vc(self);
      for (int i = 0; i < 32; ++i) {
        db.supply_buffer(vc,
                         self.segment().base +
                             4096u * static_cast<std::uint32_t>(i),
                         4096);
      }
      // Timestamp at the driver (delivery time), not at process resume.
      db.set_kernel_hook(vc, [&arrivals, &b](const net::An2Device::RxEvent&) {
        arrivals.push_back(b.now());
        return true;
      });
      co_await self.sleep_for(us(500000.0));
    });
    s.queue().schedule_at(100, [&] {
      std::vector<std::uint8_t> m(size, 1);
      for (int i = 0; i < 16; ++i) da.send(0, m);
    });
    s.run(us(1e6));
    ASSERT_EQ(arrivals.size(), 16u);
    const double min_gap_us =
        size / da.config().bandwidth_mbytes_per_sec;  // serialization only
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      const double gap = sim::to_us(arrivals[i] - arrivals[i - 1]);
      EXPECT_GE(gap + 0.5, min_gap_us) << "size " << size << " gap " << i;
    }
  }
}

// ---------------------------------------------------------------- tcp

/// TCP delivers exactly the sent byte stream under combined loss and
/// duplication, across randomized sizes and fault seeds.
class TcpChaos : public ::testing::TestWithParam<int> {};

TEST_P(TcpChaos, ExactlyOnceInOrder) {
  util::Rng rng(GetParam() + 31337);
  net::An2Config lossy;
  lossy.faults.drop_prob = 0.02 + 0.08 * rng.uniform();
  lossy.faults.dup_prob = 0.02 + 0.15 * rng.uniform();
  lossy.faults.seed = rng.next();

  sim::Simulator s;
  sim::Node& a = s.add_node("a");
  sim::Node& b = s.add_node("b");
  net::An2Device da(a, lossy), db(b, lossy);
  da.connect(db);

  const std::uint32_t total =
      1024 * static_cast<std::uint32_t>(rng.range(4, 24));
  const std::uint64_t pattern_seed = rng.next();
  bool ok = false;

  b.kernel().spawn("rx", [&](sim::Process& self) -> sim::Task {
    proto::An2Link link(self, db, {});
    proto::TcpConfig cfg;
    cfg.local_ip = proto::Ipv4Addr::of(10, 0, 0, 2);
    cfg.remote_ip = proto::Ipv4Addr::of(10, 0, 0, 1);
    cfg.local_port = 5000;
    cfg.remote_port = 4000;
    cfg.iss = 900;
    cfg.rto = us(4000.0);
    proto::TcpConnection conn(link, cfg);
    const bool accepted = co_await conn.accept();
    if (!accepted) co_return;
    const std::uint32_t buf = self.segment().base;
    std::uint32_t got = 0;
    while (got < total) {
      const std::uint32_t n = co_await conn.read_into(buf + got, total - got);
      if (n == 0) break;
      got += n;
    }
    util::Rng check(pattern_seed);
    bool match = got == total;
    const std::uint8_t* p = self.node().mem(buf, total);
    for (std::uint32_t i = 0; i < got && match; ++i) {
      match = p[i] == static_cast<std::uint8_t>(check.next());
    }
    ok = match;
  });
  a.kernel().spawn("tx", [&](sim::Process& self) -> sim::Task {
    proto::An2Link link(self, da, {});
    proto::TcpConfig cfg;
    cfg.local_ip = proto::Ipv4Addr::of(10, 0, 0, 1);
    cfg.remote_ip = proto::Ipv4Addr::of(10, 0, 0, 2);
    cfg.local_port = 4000;
    cfg.remote_port = 5000;
    cfg.iss = 100;
    cfg.rto = us(4000.0);
    cfg.max_retries = 40;
    proto::TcpConnection conn(link, cfg);
    co_await self.sleep_for(us(500.0));
    const bool connected = co_await conn.connect();
    if (!connected) co_return;
    const std::uint32_t buf = self.segment().base;
    util::Rng fill(pattern_seed);
    std::uint8_t* p = self.node().mem(buf, total);
    for (std::uint32_t i = 0; i < total; ++i) {
      p[i] = static_cast<std::uint8_t>(fill.next());
    }
    for (std::uint32_t off = 0; off < total; off += 8192) {
      const bool wrote =
          co_await conn.write_from(buf + off, std::min(8192u, total - off));
      if (!wrote) co_return;
    }
  });
  s.run(us(5e6));
  EXPECT_TRUE(ok) << "drop " << lossy.faults.drop_prob << " dup "
                  << lossy.faults.dup_prob << " total " << total;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcpChaos, ::testing::Range(0, 12));

}  // namespace
}  // namespace ash
