// Rule firewall: a kernel-side packet filter declared as rules, not code.
//
//  1. Build a simulated two-node testbed (AN2-connected).
//  2. Declare a default-deny firewall as an ashc::RuleSet: allow TCP:80,
//     TCP:443 and UDP:5000-5100 through to normal delivery; count and
//     silently consume everything else (runts on their own counter).
//  3. download_rules() compiles the rules to VCODE, proves every access
//     stays inside the declared frame/state/send windows (the verifier's
//     bounds-dataflow pass), seeds the state image, and installs the
//     handler like any hand-written ASH.
//  4. Blast a traffic mix at the sleeping owner and read the verdicts:
//     allowed frames land in the receive queue, dropped frames only move
//     the kernel-state counters.
//
// Build & run:  ./build/examples/rule_firewall
#include <cstdio>
#include <cstring>
#include <vector>

#include "ashc/rule.hpp"
#include "core/ash.hpp"
#include "net/an2.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

namespace {

// The firewall, declared. Header layout is IPv4-ish: protocol byte at
// offset 23, big-endian destination port at offset 36.
ashc::RuleSet firewall() {
  ashc::RuleSet rs;
  rs.name = "edge-firewall";
  rs.default_verdict = ashc::Verdict::Deliver;
  rs.rules = {
      {"tcp-http",
       ashc::p_and({ashc::p_atom(ashc::m_eq(23, 1, 6)),
                    ashc::p_or({ashc::p_atom(ashc::m_eq(36, 2, 80)),
                                ashc::p_atom(ashc::m_eq(36, 2, 443))})}),
       {},
       ashc::Verdict::Deliver},
      {"udp-media",
       ashc::p_and({ashc::p_atom(ashc::m_eq(23, 1, 17)),
                    ashc::p_atom(ashc::m_range(36, 2, 5000, 5100))}),
       {},
       ashc::Verdict::Deliver},
      {"drop-runt",
       ashc::p_atom(ashc::m_len_lt(20)),
       {ashc::a_count(0)},
       ashc::Verdict::Accept},
      {"drop-rest",
       ashc::p_and({}),  // empty And matches everything
       {ashc::a_count(4)},
       ashc::Verdict::Accept},
  };
  return rs;
}

std::vector<std::uint8_t> frame(std::uint8_t proto, std::uint16_t port) {
  std::vector<std::uint8_t> f(64, 0);
  f[23] = proto;
  util::store_be16(f.data() + 36, port);
  return f;
}

}  // namespace

int main() {
  sim::Simulator simulator;
  sim::Node& alice = simulator.add_node("alice");
  sim::Node& bob = simulator.add_node("bob");
  net::An2Device nic_a(alice), nic_b(bob);
  nic_a.connect(nic_b);
  core::AshSystem ash_system(bob);

  int ash_id = -1;
  int vc_b = -1;
  std::uint32_t state_addr = 0;
  std::uint32_t delivered = 0;

  // --- bob: declare + download the firewall, then go to sleep ---
  bob.kernel().spawn("bob", [&](Process& self) -> Task {
    vc_b = nic_b.bind_vc(self);
    for (int i = 0; i < 16; ++i) {
      nic_b.supply_buffer(
          vc_b, self.segment().base + 64u * static_cast<std::uint32_t>(i),
          64);
    }
    state_addr = self.segment().base + 0x1000;

    const ashc::RuleSet rs = firewall();
    std::printf("%s", ashc::format(rs).c_str());

    std::string error;
    ash_id = ash_system.download_rules(self, rs, state_addr,
                                       core::AshOptions{}, &error);
    if (ash_id < 0) {
      std::printf("download_rules failed: %s\n", error.c_str());
      co_return;
    }
    ash_system.attach(nic_b, vc_b, ash_id, state_addr);
    std::printf("\nfirewall installed; bob sleeps\n\n");

    // Sleep through the traffic, then count what was actually delivered.
    co_await self.sleep_for(us(5000.0));
    while (nic_b.poll(vc_b)) ++delivered;
  });

  // --- alice: a traffic mix, 2 frames per flavor ---
  alice.kernel().spawn("alice", [&](Process& self) -> Task {
    const int vc_a = nic_a.bind_vc(self);
    co_await self.sleep_for(us(500.0));
    const std::vector<std::vector<std::uint8_t>> mix = {
        frame(6, 80),                       // TCP:80      -> deliver
        frame(6, 443),                      // TCP:443     -> deliver
        frame(17, 5050),                    // UDP:5050    -> deliver
        frame(6, 22),                       // TCP:22      -> drop-rest
        frame(17, 9999),                    // UDP:9999    -> drop-rest
        std::vector<std::uint8_t>(8, 0xee),  // 8-byte runt -> drop-runt
    };
    for (int round = 0; round < 2; ++round) {
      for (const auto& f : mix) {
        nic_a.send(vc_a, f);
        co_await self.sleep_for(us(50.0));
      }
    }
  });

  simulator.run(us(20000.0));

  const std::uint32_t runts = util::load_u32(bob.mem(state_addr, 4));
  const std::uint32_t policy = util::load_u32(bob.mem(state_addr + 4, 4));
  const auto& stats = ash_system.stats(ash_id);
  std::printf("verdicts: %u delivered, %u policy drops, %u runt drops "
              "(12 frames offered)\n",
              delivered, policy, runts);
  std::printf("handler stats: %llu invocations, %llu commits (drops), "
              "%llu deliver fallbacks\n",
              static_cast<unsigned long long>(stats.invocations),
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.voluntary_aborts));
  return (delivered == 6 && policy == 4 && runts == 2) ? 0 : 1;
}
