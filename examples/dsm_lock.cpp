// Distributed shared-memory lock service built on control-initiation ASHs
// — the CRL-style use the paper's conclusion describes.
//
// The lock home node downloads a handler that grants/releases locks at
// message arrival, in kernel context, without ever scheduling the home
// process. Two client nodes contend for the same lock; the trace shows
// grants, busy rejections, and handoff, with the home application asleep
// throughout.
//
// Build & run:  ./build/examples/dsm_lock
#include <cstdio>
#include <vector>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "net/an2.hpp"
#include "proto/an2_link.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

namespace {

constexpr std::uint32_t kOpAcquire = 1;
constexpr std::uint32_t kOpRelease = 2;
constexpr std::uint32_t kNumLocks = 8;

/// One lock-protocol exchange: send [op, lock, who], await the reply,
/// return the status word (1 granted, 0 busy, 2 released).
sim::Sub<std::uint32_t> lock_rpc(proto::An2Link& link, std::uint32_t op,
                                 std::uint32_t lock, std::uint32_t who) {
  std::uint8_t msg[12];
  util::store_u32(msg + 0, op);
  util::store_u32(msg + 4, lock);
  util::store_u32(msg + 8, who);
  const bool sent = co_await link.send_bytes(msg);
  if (!sent) co_return ~0u;
  const net::RxDesc reply = co_await link.recv();
  const std::uint32_t status =
      util::load_u32(link.self().node().mem(reply.addr, 4));
  link.release(reply);
  co_return status;
}

sim::Sub<void> client_main(Process& self, proto::An2Link& link, int who,
                           int* held_total) {
  for (int round = 0; round < 3; ++round) {
    // Spin on acquire until granted (with polite backoff).
    for (;;) {
      const std::uint32_t st = co_await lock_rpc(link, kOpAcquire, 3,
                                                 static_cast<std::uint32_t>(who));
      if (st == 1) break;
      std::printf("[%7.1f us] node %d: lock 3 busy, retrying\n",
                  sim::to_us(self.node().now()), who);
      co_await self.sleep_for(us(150.0));
    }
    std::printf("[%7.1f us] node %d: ACQUIRED lock 3 (round %d)\n",
                sim::to_us(self.node().now()), who, round);
    ++*held_total;
    co_await self.sleep_for(us(400.0));  // critical section
    const std::uint32_t st = co_await lock_rpc(link, kOpRelease, 3,
                                               static_cast<std::uint32_t>(who));
    std::printf("[%7.1f us] node %d: released (status %u)\n",
                sim::to_us(self.node().now()), who, st);
  }
}

}  // namespace

int main() {
  sim::Simulator simulator;
  sim::Node& home = simulator.add_node("home");
  sim::Node& n1 = simulator.add_node("n1");
  sim::Node& n2 = simulator.add_node("n2");

  // Star topology: the home node has one AN2 device per client.
  net::An2Device home_to_1(home), home_to_2(home);
  net::An2Device c1(n1), c2(n2);
  home_to_1.connect(c1);
  home_to_2.connect(c2);
  core::AshSystem ash_system(home);

  home.kernel().spawn("home", [&](Process& self) -> Task {
    // Lock table + reply scratch live in the home process's memory.
    const std::uint32_t locks = self.segment().base + 0x1000;
    std::string error;
    const int id = ash_system.download(
        self, ashlib::make_dsm_lock_handler(kNumLocks), {}, &error);
    if (id < 0) {
      std::printf("download failed: %s\n", error.c_str());
      co_return;
    }
    // The same handler serves both devices (one VC each).
    for (net::An2Device* dev : {&home_to_1, &home_to_2}) {
      const int vc = dev->bind_vc(self);
      for (int i = 0; i < 8; ++i) {
        dev->supply_buffer(vc,
                           self.segment().base +
                               64u * static_cast<std::uint32_t>(
                                         i + (dev == &home_to_2 ? 8 : 0)),
                           64);
      }
      ash_system.attach(*dev, vc, id, locks);
    }
    std::printf("home: DSM lock service installed (%u locks); sleeping\n",
                kNumLocks);
    co_await self.sleep_for(us(1e6));
    const auto& st = ash_system.stats(id);
    std::printf("home handler stats: %llu requests handled in kernel "
                "context, %llu declined\n",
                static_cast<unsigned long long>(st.commits),
                static_cast<unsigned long long>(st.voluntary_aborts));
  });

  int held = 0;
  n1.kernel().spawn("client1", [&](Process& self) -> Task {
    proto::An2Link link(self, c1, {});
    co_await self.sleep_for(us(500.0));
    co_await client_main(self, link, 1, &held);
  });
  n2.kernel().spawn("client2", [&](Process& self) -> Task {
    proto::An2Link link(self, c2, {});
    co_await self.sleep_for(us(520.0));
    co_await client_main(self, link, 2, &held);
  });

  simulator.run(us(1e6));
  std::printf("\ntotal successful acquisitions: %d (expected 6)\n", held);
  return held == 6 ? 0 : 1;
}
