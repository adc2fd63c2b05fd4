// The rule compiler's contract (ISSUE 10's heart): for every rule set the
// generator can produce, the compiled VCODE program and the reference
// interpreter ashc::eval() make identical decisions and produce byte-equal
// outputs — on both execution backends, frame by frame, with the
// state blob evolving in between. A second leg replays rule sets through
// real AN2 devices with the handler NIC-resident vs host-resident and
// asserts bit-equal delivered sets.
//
// 510 randomized rule sets x 2 backends here, plus the four canned
// scenarios; seeds are fixed, so a failure names the exact (seed, frame)
// pair to minimize from. Every rule set also replays through a real
// Ethernet pair, where the handler sees the device's striped kernel
// buffer through the kernel's logical view: decisions, sent bytes and
// state must still equal eval().
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ashc/compile.hpp"
#include "ashc/eval.hpp"
#include "ashc/gen.hpp"
#include "ashc/rule.hpp"
#include "ashc/scenarios.hpp"
#include "core/ash.hpp"
#include "dpf/dpf.hpp"
#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "net/nic_offload.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vcode/backend.hpp"

namespace ash::ashc {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

constexpr int kArrivalChannel = 7;

using Frames = std::vector<std::vector<std::uint8_t>>;
using SendRec = std::pair<int, std::vector<std::uint8_t>>;

struct LegResult {
  bool download_ok = false;
  std::string error;
  std::vector<char> consumed;
  std::vector<std::vector<SendRec>> sends;  // per frame, released only
  std::vector<std::uint8_t> state;
};

/// Ground truth: run eval() over the frames sequentially, state evolving.
LegResult run_eval(const RuleSet& rs, const Frames& frames) {
  LegResult out;
  out.download_ok = true;
  out.state = init_state(rs);
  for (const auto& f : frames) {
    const EvalResult r = eval(rs, f, out.state, kArrivalChannel);
    out.consumed.push_back(r.consumed ? 1 : 0);
    std::vector<SendRec> sends;
    for (const EvalSend& s : r.sends) {
      sends.emplace_back(static_cast<int>(s.channel), s.bytes);
    }
    out.sends.push_back(std::move(sends));
  }
  return out;
}

/// Compiled leg: download through the real kernel path on one backend and
/// invoke() the handler frame by frame.
LegResult run_backend(const RuleSet& rs, const Frames& frames,
                      vcode::Backend be) {
  Simulator sim;
  Node& n = sim.add_node("n");
  core::AshSystem ash(n);

  LegResult out;
  out.consumed.assign(frames.size(), 0);
  out.sends.resize(frames.size());

  std::uint32_t state_addr = 0;
  std::uint32_t frame_addr = 0;
  int id = -1;
  n.kernel().spawn("owner", [&](Process& self) -> Task {
    state_addr = self.segment().base + 0x1000;
    frame_addr = self.segment().base + 0x4000;
    core::AshOptions opts;
    opts.backend = be;
    id = ash.download_rules(self, rs, state_addr, opts, &out.error);
    out.download_ok = id >= 0;
    co_await self.sleep_for(us(1e6));
  });

  for (std::size_t i = 0; i < frames.size(); ++i) {
    sim.queue().schedule_at(us(100.0 + 50.0 * static_cast<double>(i)),
                            [&, i] {
      if (id < 0) return;
      const auto& f = frames[i];
      if (!f.empty()) {
        std::memcpy(n.mem(frame_addr, static_cast<std::uint32_t>(f.size())),
                    f.data(), f.size());
      }
      core::MsgContext m;
      m.addr = frame_addr;
      m.len = static_cast<std::uint32_t>(f.size());
      m.channel = kArrivalChannel;
      m.user_arg = state_addr;
      out.consumed[i] =
          ash.invoke(id, m,
                     [&out, i](int ch, std::span<const std::uint8_t> b) {
                       out.sends[i].emplace_back(
                           ch, std::vector<std::uint8_t>(b.begin(), b.end()));
                       return true;
                     },
                     0)
              ? 1
              : 0;
    });
  }
  sim.run(us(2e6));

  if (id >= 0) {
    const std::uint8_t* p = n.mem(state_addr, rs.limits.state_bytes);
    out.state.assign(p, p + rs.limits.state_bytes);
  }
  return out;
}

/// Ethernet leg: the compiled handler attached with AshSystem::attach to
/// a catch-all DPF endpoint of a real EthernetDevice, so each message is
/// the striped kernel buffer and each send leaves the device as a frame
/// the peer catches. Frames are spaced so one frame's decision, replies
/// and state settle before the next arrives; the wire carries no channel,
/// so recorded sends have channel -1.
LegResult run_ethernet(const RuleSet& rs, const Frames& frames) {
  constexpr double kGapUs = 5000.0;
  constexpr std::uint32_t kBufBytes = 2048;
  constexpr std::uint32_t kPeerBufsPerFrame = 8;
  Simulator sim;
  sim::NodeConfig nc;
  nc.memory_bytes = 4u << 20;  // kernel area + one process segment
  Node& a = sim.add_node("peer", nc);
  Node& b = sim.add_node("server", nc);
  net::EthernetDevice dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash(b);

  LegResult out;
  out.consumed.assign(frames.size(), 0);
  out.sends.resize(frames.size());
  const auto n = static_cast<std::uint32_t>(frames.size());

  std::uint32_t state_addr = 0;
  int id = -1, ep_a = -1;
  b.kernel().spawn("owner", [&](Process& self) -> Task {
    const int ep = dev_b.attach(self, dpf::Filter{});
    for (std::uint32_t i = 0; i < n; ++i) {
      dev_b.supply_buffer(ep, self.segment().base + 0x10000 + kBufBytes * i,
                          kBufBytes);
    }
    state_addr = self.segment().base + 0x1000;
    id = ash.download_rules(self, rs, state_addr, {}, &out.error);
    out.download_ok = id >= 0;
    if (id >= 0) ash.attach(dev_b, ep, id, state_addr);
    co_await self.sleep_for(us(kGapUs * (n + 2)));
  });
  a.kernel().spawn("peer", [&](Process& self) -> Task {
    ep_a = dev_a.attach(self, dpf::Filter{});
    for (std::uint32_t i = 0; i < n * kPeerBufsPerFrame; ++i) {
      dev_a.supply_buffer(ep_a, self.segment().base + kBufBytes * i,
                          kBufBytes);
    }
    co_await self.sleep_for(us(kGapUs * (n + 2)));
  });

  std::uint64_t commits = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double t0 = 100.0 + kGapUs * i;
    sim.queue().schedule_at(us(t0), [&, i] {
      ASSERT_TRUE(dev_a.send(frames[i]));
    });
    sim.queue().schedule_at(us(t0 + kGapUs - 50.0), [&, i] {
      if (id < 0) return;
      const std::uint64_t now_commits = ash.stats(id).commits;
      out.consumed[i] = now_commits > commits ? 1 : 0;
      commits = now_commits;
      while (const auto d = dev_a.poll(ep_a)) {
        const std::uint8_t* p = a.mem(d->addr, d->len);
        out.sends[i].emplace_back(-1,
                                  std::vector<std::uint8_t>(p, p + d->len));
      }
    });
  }
  sim.run(us(kGapUs * (n + 1)));

  EXPECT_EQ(dev_b.drops(), 0u);
  EXPECT_EQ(dev_a.drops(), 0u);
  if (id >= 0) {
    const std::uint8_t* p = b.mem(state_addr, rs.limits.state_bytes);
    out.state.assign(p, p + rs.limits.state_bytes);
  }
  return out;
}

/// `compare_channels` is false only for the Ethernet leg, whose wire
/// carries no channel.
void expect_legs_equal(const LegResult& want, const LegResult& got,
                       const char* leg, std::uint64_t seed,
                       bool compare_channels = true) {
  ASSERT_TRUE(got.download_ok) << leg << " seed " << seed << ": "
                               << got.error;
  ASSERT_EQ(want.consumed.size(), got.consumed.size()) << leg;
  for (std::size_t i = 0; i < want.consumed.size(); ++i) {
    EXPECT_EQ(static_cast<int>(want.consumed[i]),
              static_cast<int>(got.consumed[i]))
        << leg << " seed " << seed << " frame " << i << ": decision";
    ASSERT_EQ(want.sends[i].size(), got.sends[i].size())
        << leg << " seed " << seed << " frame " << i << ": send count";
    for (std::size_t k = 0; k < want.sends[i].size(); ++k) {
      if (compare_channels) {
        EXPECT_EQ(want.sends[i][k].first, got.sends[i][k].first)
            << leg << " seed " << seed << " frame " << i << " send " << k
            << ": channel";
      }
      EXPECT_EQ(want.sends[i][k].second, got.sends[i][k].second)
          << leg << " seed " << seed << " frame " << i << " send " << k
          << ": bytes";
    }
  }
  EXPECT_EQ(want.state, got.state)
      << leg << " seed " << seed << ": final state blob";
}

void diff_rule_set(const RuleSet& rs, const Frames& frames,
                   std::uint64_t seed) {
  const LegResult want = run_eval(rs, frames);
  const struct {
    vcode::Backend be;
    const char* name;
  } legs[] = {{vcode::Backend::Interp, "interp"},
              {vcode::Backend::Jit, "jit"}};
  for (const auto& leg : legs) {
    const LegResult got = run_backend(rs, frames, leg.be);
    expect_legs_equal(want, got, leg.name, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_legs_equal(want, run_ethernet(rs, frames), "ethernet", seed,
                    /*compare_channels=*/false);
}

// ---------------------------------------------------------------- suites

TEST(AshcDiff, GeneratedRuleSetsMatchEvalOnAllBackends) {
  // >= 500 randomized rule sets, each over a fuzz-style frame corpus.
  constexpr std::uint64_t kSeeds = 510;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(0xa5c0'0000u + seed);
    const RuleSet rs = random_rule_set(rng);
    Compiled c = compile(rs);
    ASSERT_TRUE(c.ok) << "seed " << seed << ": " << c.error;
    const auto verdict = vcode::verify(c.program, verify_policy(rs));
    ASSERT_TRUE(verdict.ok())
        << "seed " << seed << ":\n" << verdict.to_string();
    const Frames frames = gen_frames(rng, rs, 10);
    diff_rule_set(rs, frames, seed);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "first divergence at seed " << seed;
    }
  }
}

TEST(AshcDiff, ScenariosMatchEvalOnAllBackends) {
  for (const std::string& name : scenario_names()) {
    const RuleSet rs = scenario(name);
    ASSERT_FALSE(rs.rules.empty()) << name;
    Frames frames = demo_frames(name);
    util::Rng rng(0xfeed'0001u);
    for (auto& f : gen_frames(rng, rs, 40)) frames.push_back(std::move(f));
    diff_rule_set(rs, frames, 0);
    if (::testing::Test::HasFatalFailure()) FAIL() << "scenario " << name;
  }
}

// ------------------------------------------------- NIC offload replay leg

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

struct ReplayResult {
  bool download_ok = false;
  std::map<int, std::vector<std::uint64_t>> client_rx;  // vc -> digests
  std::vector<std::uint64_t> fallback;  // non-consumed, host-delivered
  std::vector<std::uint8_t> state;
  std::uint64_t invocations = 0;
  std::uint64_t nic_executed = 0;
};

/// Replay `frames` into a rules handler attached to a real AN2 VC, with
/// the handler host-resident (offload=false) or NIC-resident.
ReplayResult replay(const RuleSet& rs, const Frames& frames, bool offload) {
  constexpr int kVcs = 5;        // channels 0..3 are steer targets
  constexpr int kAttachVc = 4;   // == the generator's kChannelArrival VC
  constexpr int kBufs = 64;

  Simulator sim;
  Node& a = sim.add_node("client");
  Node& b = sim.add_node("server");
  net::An2Device dev_a(a), dev_b(b);
  dev_a.connect(dev_b);
  core::AshSystem ash(b);

  net::RxQueueSet::Config qc;
  qc.queues = 1;
  net::RxQueueSet rxq(b, qc);
  dev_b.set_rx_queues(&rxq);
  std::unique_ptr<net::NicProcessor> nic;

  ReplayResult out;
  std::uint32_t state_addr = 0;
  int id = -1;
  b.kernel().spawn("server", [&](Process& self) -> Task {
    state_addr = self.segment().base + 0x70000;
    core::AshOptions opts;
    std::string error;
    id = ash.download_rules(self, rs, state_addr, opts, &error);
    EXPECT_GE(id, 0) << error;
    out.download_ok = id >= 0;
    if (offload) {
      nic = std::make_unique<net::NicProcessor>(b, rxq);
      dev_b.set_nic(nic.get());
    }
    for (int v = 0; v < kVcs; ++v) {
      const int vc = dev_b.bind_vc(self);
      for (int i = 0; i < kBufs; ++i) {
        dev_b.supply_buffer(
            vc,
            self.segment().base +
                256u * static_cast<std::uint32_t>(v * kBufs + i),
            256);
      }
    }
    if (id >= 0) {
      const bool resident = ash.attach(dev_b, kAttachVc, id, state_addr);
      EXPECT_EQ(resident, offload);
    }
    co_await self.sleep_for(us(1e6));
  });
  a.kernel().spawn("client", [&](Process& self) -> Task {
    for (int v = 0; v < kVcs; ++v) {
      const int vc = dev_a.bind_vc(self);
      for (int i = 0; i < kBufs; ++i) {
        dev_a.supply_buffer(
            vc,
            self.segment().base +
                256u * static_cast<std::uint32_t>(v * kBufs + i),
            256);
      }
    }
    co_await self.sleep_for(us(1e6));
  });

  for (std::size_t i = 0; i < frames.size(); ++i) {
    sim.queue().schedule_at(us(200.0 + 120.0 * static_cast<double>(i)),
                            [&, i] {
      ASSERT_TRUE(dev_a.send(kAttachVc, frames[i]));
    });
  }
  sim.run(us(1.5e6));

  for (int v = 0; v < kVcs; ++v) {
    while (const auto d = dev_a.poll(v)) {
      const std::uint8_t* p = d->len ? a.mem(d->addr, d->len) : nullptr;
      out.client_rx[v].push_back(fnv1a(p, d->len));
    }
  }
  while (const auto d = dev_b.poll(kAttachVc)) {
    const std::uint8_t* p = d->len ? b.mem(d->addr, d->len) : nullptr;
    out.fallback.push_back(fnv1a(p, d->len));
  }
  if (id >= 0) {
    const std::uint8_t* p = b.mem(state_addr, rs.limits.state_bytes);
    out.state.assign(p, p + rs.limits.state_bytes);
    out.invocations = ash.stats(id).invocations;
  }
  if (nic != nullptr) out.nic_executed = nic->totals().nic_executed;
  return out;
}

TEST(AshcDiff, OffloadReplayBitEqualDeliveredSets) {
  std::uint64_t total_nic_executed = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(0x0ff1'0000u + seed);
    const RuleSet rs = random_rule_set(rng);
    Frames frames = gen_frames(rng, rs, 20);
    // The device path rejects empty payloads; replace, don't skip, so the
    // corpus size is stable.
    for (auto& f : frames) {
      if (f.empty()) f.assign(1, 0x5a);
    }
    const ReplayResult host = replay(rs, frames, false);
    const ReplayResult nic = replay(rs, frames, true);
    ASSERT_TRUE(host.download_ok && nic.download_ok) << "seed " << seed;
    EXPECT_EQ(host.client_rx, nic.client_rx) << "seed " << seed;
    EXPECT_EQ(host.fallback, nic.fallback) << "seed " << seed;
    EXPECT_EQ(host.state, nic.state) << "seed " << seed;
    EXPECT_EQ(host.invocations, nic.invocations) << "seed " << seed;
    EXPECT_EQ(host.invocations, frames.size()) << "seed " << seed;
    total_nic_executed += nic.nic_executed;
  }
  // The offload leg must actually have executed on NIC units.
  EXPECT_GT(total_nic_executed, 0u);
}

}  // namespace
}  // namespace ash::ashc
