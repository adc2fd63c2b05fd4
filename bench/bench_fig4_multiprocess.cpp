// Fig. 4 — remote-increment round-trip time as the number of competing
// processes on the receiving machine grows, for three configurations:
//  * ASH (in-kernel handling: latency decoupled from scheduling),
//  * user-level under Aegis' round-robin scheduler that is "oblivious to
//    message arrival" (the woken process waits its turn),
//  * user-level under an Ultrix-style scheduler "that raises the priority
//    of a process immediately after a network interrupt".
//
// Optional: --livelock additionally prints the receive-livelock ablation
// (Section VI-4): an ASH flood with and without the per-process quota.
#include "bench_util.hpp"

#include <cstring>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "proto/an2_link.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using sim::Process;
using sim::Task;
using sim::us;

constexpr int kIters = 16;

enum class Mode { Ash, Oblivious, PriorityBoost };

double rtt_us(Mode mode, int competing) {
  sim::NodeConfig node_cfg;
  node_cfg.policy = mode == Mode::PriorityBoost
                        ? sim::SchedPolicy::PriorityBoost
                        : sim::SchedPolicy::RoundRobinOblivious;
  // A 1 ms quantum keeps the experiment's runtime manageable; the paper's
  // qualitative axes (flat ASH, linear oblivious, damped priority-boost)
  // do not depend on the exact timeslice.
  node_cfg.cost.quantum = us(1000.0);
  if (mode == Mode::PriorityBoost) {
    // The paper measured this configuration *under Ultrix*, whose
    // crossings cost an order of magnitude more than Aegis' (Section V):
    // load its per-message user-level path accordingly.
    node_cfg.cost.an2_user_recv_overhead +=
        node_cfg.cost.ultrix_crossing_extra;
    node_cfg.cost.an2_user_send_overhead +=
        node_cfg.cost.ultrix_crossing_extra / 2;
    node_cfg.cost.context_switch += us(25.0);
  }
  An2World w({}, node_cfg);
  core::AshSystem ash_sys(*w.b);
  sim::Cycles t0 = 0, t1 = 0;
  bool done = false;

  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    if (mode == Mode::Ash) {
      const int vc = w.dev_b->bind_vc(self);
      for (int i = 0; i < 32; ++i) {
        w.dev_b->supply_buffer(
            vc, self.segment().base + 64u * static_cast<std::uint32_t>(i),
            64);
      }
      std::string error;
      const int id = ash_sys.download(self, ashlib::make_remote_increment(),
                                      {}, &error);
      ash_sys.attach(*w.dev_b, vc, id, self.segment().base + 0x4000);
      while (!done) co_await self.sleep_for(us(2000.0));
      co_return;
    }
    An2Link::Config cfg;
    cfg.mode = proto::RecvMode::Interrupt;
    An2Link link(self, *w.dev_b, cfg);
    const std::uint32_t ctr = self.segment().base + 0x100;
    for (int i = 0; i < kIters; ++i) {
      const net::RxDesc d = co_await link.recv();
      std::uint8_t* c = self.node().mem(ctr, 4);
      c[0] = static_cast<std::uint8_t>(c[0] + 1);
      co_await self.compute(4);
      const bool sent = co_await link.send_ip(d.addr, d.len);
      (void)sent;
      link.release(d);
    }
  });

  // Competing CPU-bound processes on the receiving machine.
  for (int i = 0; i < competing; ++i) {
    w.b->kernel().spawn("hog", [&done](Process& self) -> Task {
      while (!done) co_await self.compute(2000);
    });
  }

  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    An2Link link(self, *w.dev_a, {});
    co_await self.sleep_for(us(2000.0));
    const std::uint8_t ping[] = {1, 2, 3, 4};
    t0 = self.node().now();
    for (int i = 0; i < kIters; ++i) {
      const bool sent = co_await link.send_bytes(ping);
      (void)sent;
      const net::RxDesc d = co_await link.recv();
      link.release(d);
    }
    t1 = self.node().now();
    done = true;
  });

  w.sim.run(us(2e6 + 2e5 * competing * kIters));
  return sim::to_us(t1 - t0) / kIters;
}

void livelock_ablation() {
  // Flood the server with messages faster than ASHs alone should be
  // allowed to consume CPU; compare handled counts with and without the
  // Section VI-4 quota, and show the victim process still makes progress.
  for (const bool quota : {false, true}) {
    An2World w;
    core::AshSystem ash_sys(*w.b);
    if (quota) ash_sys.set_livelock_quota(64, us(10000.0));
    int ash_id = -1;
    std::uint64_t victim_work = 0;

    w.b->kernel().spawn("owner", [&](Process& self) -> Task {
      const int vc = w.dev_b->bind_vc(self);
      for (int i = 0; i < 64; ++i) {
        w.dev_b->supply_buffer(
            vc, self.segment().base + 64u * static_cast<std::uint32_t>(i),
            64);
      }
      std::string error;
      ash_id = ash_sys.download(self, ashlib::make_remote_increment(), {},
                                &error);
      ash_sys.attach(*w.dev_b, vc, ash_id, self.segment().base + 0x4000);
      // Drain the fallback ring so deferred messages do not starve buffers.
      for (;;) {
        while (w.dev_b->poll(vc).has_value()) {
          co_await self.compute(100);
        }
        co_await self.sleep_for(us(500.0));
        if (self.node().now() > us(90000.0)) co_return;
      }
    });
    w.b->kernel().spawn("victim", [&](Process& self) -> Task {
      while (self.node().now() < us(90000.0)) {
        co_await self.compute(1000);
        ++victim_work;
      }
    });
    w.a->kernel().spawn("flood", [&](Process& self) -> Task {
      const std::uint8_t m[] = {1, 2, 3, 4};
      for (int i = 0; i < 2000; ++i) {
        w.dev_a->send(0, m);
        co_await self.compute(400);  // ~10 us between sends
      }
    });
    w.sim.run(us(1e5));
    const auto& st = ash_sys.stats(ash_id);
    std::printf("  quota %-3s: ash runs %6llu, deferred %6llu, victim "
                "compute slices %llu\n",
                quota ? "on" : "off",
                static_cast<unsigned long long>(st.commits),
                static_cast<unsigned long long>(st.livelock_deferrals),
                static_cast<unsigned long long>(victim_work));
  }
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;
  std::vector<std::pair<double, std::vector<double>>> points;
  for (int n = 0; n <= 7; ++n) {
    points.push_back({static_cast<double>(n),
                      {rtt_us(Mode::Ash, n), rtt_us(Mode::Oblivious, n),
                       rtt_us(Mode::PriorityBoost, n)}});
  }
  print_series("Fig. 4", "remote increment RTT vs competing processes",
               "#processes", {"ASH", "oblivious RR", "priority boost"},
               points, "us/RTT");
  std::printf("paper: ASH stays near-constant; the oblivious scheduler "
              "grows with the process count;\nthe Ultrix-style boosting "
              "scheduler damps but does not eliminate the effect.\n");

  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--livelock") {
      std::printf("\nreceive-livelock quota ablation (Section VI-4):\n");
      livelock_ablation();
    }
  }
  return 0;
}
