// Supervisor containment under a faulting-handler storm.
//
// A misbehaving download (an infinite loop — the worst involuntary abort:
// every invocation burns the full hardware-timer budget before the kernel
// kills it) is stormed with messages while a well-behaved remote-increment
// handler serves request/response traffic on the same machine. Three
// configurations:
//  * no storm          — the healthy traffic's goodput baseline,
//  * storm, no supervisor — every faulting message costs the kernel the
//    full ASH budget; demand exceeds CPU capacity and healthy traffic
//    starves behind the backlog,
//  * storm, supervisor — the quarantine state machine pays for a handful
//    of probe runs, then skips the rest at demux cost.
//
// Acceptance (the PR's bar): the supervised configuration spends >= 10x
// fewer kernel cycles on the faulting handler than supervisor-off, while
// healthy goodput stays within 5% of the no-storm baseline.
//
// Deterministic: no RNG anywhere — the storm is a fixed 5 ms schedule and
// healthy pings a fixed 10 ms schedule (see EXPERIMENTS.md).
#include "bench_util.hpp"

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "vcode/builder.hpp"

namespace ash::bench {
namespace {

using core::AshSystem;
using core::SupervisorConfig;
using sim::Process;
using sim::Task;
using sim::us;
using vcode::Builder;

constexpr double kDeadlineUs = 2e6;       // 2 simulated seconds
constexpr double kPingPeriodUs = 10000.0; // healthy request every 10 ms
constexpr double kStormPeriodUs = 5000.0; // faulting message every 5 ms

/// The nastiest safe handler: verifies and sandboxes cleanly, then spins
/// until the hardware timer kills it (312k cycles per invocation).
vcode::Program evil_handler() {
  Builder b;
  const vcode::Label loop = b.label();
  b.bind(loop);
  b.jmp(loop);
  return b.take();
}

struct StormResult {
  std::uint64_t evil_cycles = 0;    // kernel cycles burned by the evil ASH
  std::uint64_t evil_runs = 0;      // invocations that actually executed
  std::uint64_t evil_skips = 0;     // messages bypassed by the supervisor
  std::uint64_t kernel_cycles = 0;  // receiving node, total
  std::uint64_t healthy_replies = 0;
  const char* evil_state = "-";
};

StormResult run_config(bool storm, bool supervise) {
  An2World w;
  AshSystem ash_sys(*w.b);
  if (supervise) {
    SupervisorConfig sup;  // default policy: 3 faults / 100 ms window,
    sup.enabled = true;    // 50 ms backoff doubling, revoked on trip 4
    ash_sys.set_supervisor(sup);
  }

  int healthy_id = -1, evil_id = -1, evil_vc = -1;
  std::uint64_t replies = 0;

  w.b->kernel().spawn("healthy", [&](Process& self) -> Task {
    const int vc = w.dev_b->bind_vc(self);
    for (int i = 0; i < 64; ++i) {
      w.dev_b->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    std::string error;
    healthy_id =
        ash_sys.download(self, ashlib::make_remote_increment(), {}, &error);
    ash_sys.attach(*w.dev_b, vc, healthy_id,
                       self.segment().base + 0x8000);
    while (self.node().now() < us(kDeadlineUs)) {
      co_await self.sleep_for(us(50000.0));
    }
  });
  w.b->kernel().spawn("evil", [&](Process& self) -> Task {
    evil_vc = w.dev_b->bind_vc(self);
    // Plenty of buffers: every stormed message lands in one (aborted and
    // skipped messages fall back to the notify ring and keep it).
    for (int i = 0; i < 512; ++i) {
      w.dev_b->supply_buffer(
          evil_vc, self.segment().base + 64u * static_cast<std::uint32_t>(i),
          64);
    }
    std::string error;
    evil_id = ash_sys.download(self, evil_handler(), {}, &error);
    ash_sys.attach(*w.dev_b, evil_vc, evil_id);
    while (self.node().now() < us(kDeadlineUs)) {
      co_await self.sleep_for(us(50000.0));
    }
  });

  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    const int vc = w.dev_a->bind_vc(self);
    for (int i = 0; i < 32; ++i) {
      w.dev_a->supply_buffer(
          vc, self.segment().base + 64u * static_cast<std::uint32_t>(i), 64);
    }
    co_await self.sleep_for(us(1000.0));
    const std::uint8_t ping[] = {1, 2, 3, 4};
    int tick = 0;
    while (self.node().now() < us(kDeadlineUs)) {
      if (tick % 10 == 0) {
        co_await self.syscall(w.dev_a->config().tx_kernel_work);
        w.dev_a->send(0, ping);
      }
      while (const auto d = w.dev_a->poll(vc)) {
        ++replies;
        w.dev_a->return_buffer(vc, d->addr, d->len);
      }
      co_await self.sleep_for(us(1000.0));
      ++tick;
    }
  });
  if (storm) {
    w.a->kernel().spawn("storm", [&](Process& self) -> Task {
      co_await self.sleep_for(us(1500.0));
      const std::uint8_t m[] = {0xde, 0xad, 0xbe, 0xef};
      while (self.node().now() < us(kDeadlineUs)) {
        co_await self.syscall(w.dev_a->config().tx_kernel_work);
        w.dev_a->send(evil_vc, m);
        co_await self.sleep_for(us(kStormPeriodUs));
      }
    });
  }

  w.sim.run(us(kDeadlineUs));

  StormResult r;
  r.healthy_replies = replies;
  r.kernel_cycles = w.b->kernel_cycles_total();
  if (evil_id >= 0) {
    const core::AshStats& es = ash_sys.stats(evil_id);
    r.evil_cycles = es.cycles;
    r.evil_runs = es.invocations;
    r.evil_skips = es.quarantine_skips + es.revoked_skips;
    r.evil_state = core::to_string(ash_sys.health(evil_id));
  }
  return r;
}

}  // namespace
}  // namespace ash::bench

int main() {
  using namespace ash::bench;

  const StormResult base = run_config(/*storm=*/false, /*supervise=*/false);
  const StormResult off = run_config(/*storm=*/true, /*supervise=*/false);
  const StormResult on = run_config(/*storm=*/true, /*supervise=*/true);

  print_table(
      "fault storm", "faulting-handler storm vs healthy goodput (2 s)",
      {
          {"no storm: healthy replies", static_cast<double>(base.healthy_replies), -1, "msgs"},
          {"storm, supervisor off: healthy replies", static_cast<double>(off.healthy_replies), -1, "msgs"},
          {"storm, supervisor on: healthy replies", static_cast<double>(on.healthy_replies), -1, "msgs"},
          {"storm, supervisor off: evil ASH cycles", static_cast<double>(off.evil_cycles), -1, "cycles"},
          {"storm, supervisor on: evil ASH cycles", static_cast<double>(on.evil_cycles), -1, "cycles"},
          {"storm, supervisor off: kernel cycles", static_cast<double>(off.kernel_cycles), -1, "cycles"},
          {"storm, supervisor on: kernel cycles", static_cast<double>(on.kernel_cycles), -1, "cycles"},
      });
  std::printf("supervised evil handler: %llu run(s), %llu skipped, final "
              "state %s\n",
              static_cast<unsigned long long>(on.evil_runs),
              static_cast<unsigned long long>(on.evil_skips), on.evil_state);

  bool ok = true;

  const double ratio =
      on.evil_cycles > 0
          ? static_cast<double>(off.evil_cycles) /
                static_cast<double>(on.evil_cycles)
          : 0.0;
  const bool contain_ok = ratio >= 10.0;
  std::printf("containment: evil-handler cycles %.3gM (off) vs %.3gM (on) "
              "= %.1fx  [%s >= 10x]\n",
              off.evil_cycles / 1e6, on.evil_cycles / 1e6, ratio,
              contain_ok ? "PASS" : "FAIL");
  ok = ok && contain_ok;

  const double goodput =
      base.healthy_replies > 0
          ? static_cast<double>(on.healthy_replies) /
                static_cast<double>(base.healthy_replies)
          : 0.0;
  const bool goodput_ok = goodput >= 0.95;
  std::printf("goodput: healthy replies %llu (baseline) vs %llu (supervised "
              "storm) = %.1f%%  [%s >= 95%%]\n",
              static_cast<unsigned long long>(base.healthy_replies),
              static_cast<unsigned long long>(on.healthy_replies),
              100.0 * goodput, goodput_ok ? "PASS" : "FAIL");
  ok = ok && goodput_ok;

  std::printf("(unsupervised storm for contrast: %llu healthy replies)\n",
              static_cast<unsigned long long>(off.healthy_replies));
  return ok ? 0 : 1;
}
