// Quickstart: the whole ASH pipeline in one small program.
//
//  1. Build a simulated two-node testbed (AN2-connected).
//  2. Write a handler in VCODE: it increments an application counter and
//     echoes the message back (message vectoring + control initiation +
//     message initiation, all in kernel context).
//  3. Download it (verify + SFI sandbox + install) and attach it to the
//     receiving process's virtual circuit.
//  4. Ping it from the other node and watch the round trips complete
//     while the owning application sleeps the whole time.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "net/an2.hpp"
#include "proto/an2_link.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"
#include "vcode/program.hpp"

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

int main() {
  // --- testbed: two 40 MHz machines on an AN2 switch ---
  sim::Simulator simulator;
  sim::Node& alice = simulator.add_node("alice");
  sim::Node& bob = simulator.add_node("bob");
  net::An2Device nic_a(alice), nic_b(bob);
  nic_a.connect(nic_b);
  core::AshSystem ash_system(bob);

  int ash_id = -1;
  std::uint32_t counter_addr = 0;

  // --- bob: download the handler, then go to sleep ---
  bob.kernel().spawn("bob", [&](Process& self) -> Task {
    // Bind a virtual circuit and pin receive buffers from our own memory.
    const int vc = nic_b.bind_vc(self);
    for (int i = 0; i < 8; ++i) {
      nic_b.supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    counter_addr = self.segment().base + 0x1000;

    // The handler: a VCODE routine from the handler library. You can also
    // write your own with vcode::Builder — see src/ashlib/handlers.cpp.
    const vcode::Program handler = ashlib::make_remote_increment();
    std::printf("handler: %zu instructions before sandboxing\n",
                handler.insns.size());

    // Download: verify, sandbox (SFI), install.
    std::string error;
    sandbox::Report report;
    ash_id = ash_system.download(self, handler, core::AshOptions{}, &error,
                                 &report);
    if (ash_id < 0) {
      std::printf("download failed: %s\n", error.c_str());
      co_return;
    }
    std::printf("sandboxed: %u -> %u instructions (+%u: %u memory checks, "
                "%u epilogue)\n",
                report.original_insns, report.final_insns, report.added(),
                report.mem_check_insns, report.epilogue_insns);

    // Attach to the VC; r3 of every invocation will hold counter_addr.
    ash_system.attach(nic_b, vc, ash_id, counter_addr);

    // The application now sleeps. Every arriving message is handled
    // entirely in kernel context by the downloaded code.
    co_await self.sleep_for(us(1e6));
  });

  // --- alice: ping bob and time the round trips ---
  simulator.queue().schedule_at(us(100.0), [] {});  // (clock anchor)
  alice.kernel().spawn("alice", [&](Process& self) -> Task {
    proto::An2Link link(self, nic_a, {});
    co_await self.sleep_for(us(500.0));
    const std::uint8_t ping[4] = {42, 0, 0, 0};
    for (int i = 0; i < 5; ++i) {
      const sim::Cycles t0 = self.node().now();
      const bool sent = co_await link.send_bytes(ping);
      if (!sent) co_return;
      const net::RxDesc reply = co_await link.recv();
      const sim::Cycles t1 = self.node().now();
      std::printf("ping %d: %.1f us round trip (reply %u bytes)\n", i,
                  sim::to_us(t1 - t0), reply.len);
      link.release(reply);
    }
  });

  simulator.run(us(2e6));

  const std::uint32_t count = util::load_u32(bob.mem(counter_addr, 4));
  const auto& stats = ash_system.stats(ash_id);
  std::printf("\nbob's counter: %u (incremented by the ASH while bob "
              "slept)\n",
              count);
  std::printf("handler stats: %llu invocations, %llu commits, "
              "%llu aborts, %.1f instructions/run\n",
              static_cast<unsigned long long>(stats.invocations),
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.voluntary_aborts +
                                              stats.involuntary_aborts),
              stats.invocations
                  ? static_cast<double>(stats.insns) / stats.invocations
                  : 0.0);
  return count == 5 ? 0 : 1;
}
