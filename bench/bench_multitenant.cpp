// Multi-tenant isolation — weighted-fair scheduling, per-tenant quotas,
// and the noisy-neighbor gauntlet (DESIGN §"Multi-tenant isolation").
//
// Not a paper figure: the paper's fig. 4 shows throughput holding as
// untrusting processes share a node, but nothing there stops one hostile
// tenant from starving the rest. This bench measures what the tenant
// scheduler buys: per-tenant goodput fairness (Jain index) and queueing
// p99 as the tenant population scales to 1024, and a gauntlet where
// three hostile tenants — a cycle flooder (infinite-loop handler), a
// frame flooder (20x everyone's offered load), and a faulter (handler
// that aborts on every message) — attack a population of victims whose
// goodput must hold.
//
// Setup: two nodes over an over-provisioned AN2 link; every tenant is
// its own server process owning one VC with one sandboxed ASH
// (remote-increment for honest tenants), behind a 4-queue adaptive-
// coalescing receive set wired to a core::TenantScheduler (DRR cycle
// accounts + RX occupancy quotas + install admission), with the
// supervisor revoking repeat faulters. Offered load is open-loop per
// VC; goodput is measured at the CLIENT as reply arrivals per second
// (the client supplies no reply buffers, so the device's per-VC drop
// counter counts arrivals at zero client cost — same trick as
// bench_scaling). The hostile cycle budget is bounded by tightening
// CostModel::ash_max_runtime to 100 us so a runaway handler burns 4000
// cycles per admitted run, not 312k.
//
// Flags: --smoke   two gates, also a ctest target: Jain >= 0.9 across
//                  256 equal tenants at saturating load, and every
//                  gauntlet victim >= 80% of its hostile-free goodput
//                  while each hostile stays inside its cycle quota.
//        --json    emit the full sweep (BENCH_multitenant.json).
#include "bench_util.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/supervisor.hpp"
#include "core/tenant.hpp"
#include "net/rx_queue.hpp"
#include "trace/metrics.hpp"
#include "vcode/builder.hpp"

namespace ash::bench {
namespace {

using sim::Process;
using sim::Task;
using sim::us;

net::An2Config fast_link() {
  net::An2Config cfg;
  cfg.bandwidth_mbytes_per_sec = 1000.0;
  cfg.one_way_latency = us(5.0);
  cfg.per_packet_overhead = us(0.1);
  cfg.tx_kernel_work = us(0.4);
  return cfg;
}

/// The cycle flooder: spins until the budget timer kills it, every run.
vcode::Program spin_ash() {
  vcode::Builder b;
  const vcode::Label loop = b.label();
  b.bind(loop);
  b.jmp(loop);
  return b.take();
}

/// The faulter: divide-by-zero on every message the gauntlet sends it.
vcode::Program div_fault_ash() {
  vcode::Builder b;
  const vcode::Reg v = b.reg();
  const vcode::Reg q = b.reg();
  b.lw(v, vcode::kRegArg0, 0);
  b.divu(q, vcode::kRegArg1, v);
  b.movi(vcode::kRegArg0, 1);
  b.halt();
  return b.take();
}

enum class Kind { Good, Spin, Fault };

struct TenantSpec {
  Kind kind = Kind::Good;
  std::uint32_t weight = 1;
  double offered_kmsgs = 0;  // per-tenant open-loop rate
};

struct RunOut {
  std::vector<double> goodput;        // kmsg/s per tenant, spec order
  std::vector<std::uint64_t> charged; // cycles charged per tenant
  double p50_us = 0, p99_us = 0;
  std::uint64_t cycle_deferrals = 0;
  std::uint64_t rx_quota_drops = 0;
  std::uint64_t rx_overflow_drops = 0;
  std::uint64_t drained = 0;
};

double jain(const std::vector<double>& xs) {
  double sum = 0, sq = 0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0) return 0;
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

/// One run of a tenant mix. Per-tenant quantum: an equal slice of the
/// receive set's aggregate cycle capacity per 1 ms round (4 queue CPUs),
/// scaled by weight — generous when the population is small, the binding
/// fair share when it is large.
RunOut run_mix(const std::vector<TenantSpec>& specs, sim::Cycles window) {
  const std::size_t n = specs.size();

  sim::NodeConfig server_cfg;
  server_cfg.memory_bytes = (n + 8) << 20;  // 1 MB segment per tenant
  server_cfg.cost.ash_max_runtime = us(100.0);  // bound the cycle flooder
  sim::Simulator sim;
  sim::Node& client = sim.add_node("client");
  sim::Node& server = sim.add_node("server", server_cfg);
  net::An2Device dev_c(client, fast_link());
  net::An2Device dev_s(server, fast_link());
  dev_c.connect(dev_s);
  core::AshSystem ash_sys(server);

  core::TenantSchedulerConfig tcfg;
  tcfg.replenish_period = us(1000.0);
  tcfg.quantum_per_weight = std::max<std::uint64_t>(
      64, 4 * static_cast<std::uint64_t>(us(1000.0)) / n);
  tcfg.burst_rounds = 2;
  tcfg.rx_quota_frames = 32;
  core::TenantScheduler tenants(server, tcfg);
  ash_sys.set_tenants(&tenants);

  core::SupervisorConfig sup;
  sup.enabled = true;
  sup.fault_threshold = 8;
  sup.quarantine_base = us(500.0);
  sup.max_quarantines = 4;  // the faulter ends up revoked mid-window
  ash_sys.set_supervisor(sup);

  net::RxQueueSet::Config qc;
  qc.queues = 4;
  qc.steering.mode = net::SteerMode::ChannelHash;
  qc.coalesce.enabled = true;
  qc.coalesce.max_frames = 8;
  qc.coalesce.max_delay = us(50.0);
  qc.coalesce.adaptive = true;
  qc.quota = &tenants;
  net::RxQueueSet rxq(server, qc);
  dev_s.set_rx_queues(&rxq);

  // --- server: one process + VC + handler per tenant ---
  std::vector<int> vc_of(n, -1);
  std::vector<std::uint32_t> pid_of(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    server.kernel().spawn(
        "tenant" + std::to_string(t), [&, t](Process& self) -> Task {
          pid_of[t] = self.pid();
          tenants.set_weight(self, specs[t].weight);
          vcode::Program prog;
          switch (specs[t].kind) {
            case Kind::Good: prog = ashlib::make_remote_increment(); break;
            case Kind::Spin: prog = spin_ash(); break;
            case Kind::Fault: prog = div_fault_ash(); break;
          }
          std::string error;
          const int id = ash_sys.download(self, prog, {}, &error);
          const int vc = dev_s.bind_vc(self);
          vc_of[t] = vc;
          for (int i = 0; i < 32; ++i) {
            dev_s.supply_buffer(
                vc,
                self.segment().base + 64u * static_cast<std::uint32_t>(i),
                64);
          }
          if (id >= 0) {
            ash_sys.attach(dev_s, vc, id,
                               self.segment().base + 0x80000);
          }
          co_await self.sleep_for(us(1e9));
        });
  }

  // --- client: one VC owner process, open-loop per-tenant senders ---
  client.kernel().spawn("client", [&](Process& self) -> Task {
    for (std::size_t t = 0; t < n; ++t) dev_c.bind_vc(self);
    co_await self.sleep_for(us(1e9));
  });

  // Every process start pays a context switch (35 us), so booting n
  // tenants takes ~35n us of simulated time before the last VC is bound.
  const sim::Cycles warmup = us(1000.0 + 60.0 * static_cast<double>(n));
  const sim::Cycles t_start = warmup + us(2000.0);
  const sim::Cycles t_end = warmup + window;
  static const std::uint8_t kGood[4] = {1, 2, 3, 4};
  static const std::uint8_t kBad[4] = {0, 0, 0, 0};
  // Each tenant's stream is a self-rescheduling timer on the client
  // event queue: zero client-CPU cost, so the offered load never
  // back-pressures through the sender.
  struct Stream {
    std::function<void()> tick;
    sim::Cycles next = 0;
    sim::Cycles period = 0;
  };
  std::vector<Stream> streams(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (specs[t].offered_kmsgs <= 0) continue;
    Stream& s = streams[t];
    s.period = us(1000.0 / specs[t].offered_kmsgs);
    s.next = warmup;
    s.tick = [&, t] {
      Stream& st = streams[t];
      // Tenants still starting up (download + bind not yet run) just miss
      // their early slots; measurement starts 2 ms after warmup.
      if (vc_of[t] >= 0) {
        dev_c.send(vc_of[t], specs[t].kind == Kind::Fault ? kBad : kGood);
      }
      st.next += st.period;
      if (st.next < t_end) client.queue().schedule_at(st.next, st.tick);
    };
    client.queue().schedule_at(s.next, s.tick);
  }

  // --- measurement: reply arrivals per VC over [t_start, t_end] ---
  std::vector<std::uint64_t> start_count(n, 0), end_count(n, 0);
  client.queue().schedule_at(t_start, [&] {
    for (std::size_t t = 0; t < n; ++t) {
      start_count[t] = vc_of[t] >= 0 ? dev_c.drops(vc_of[t]) : 0;
    }
  });
  client.queue().schedule_at(t_end, [&] {
    for (std::size_t t = 0; t < n; ++t) {
      end_count[t] = vc_of[t] >= 0 ? dev_c.drops(vc_of[t]) : 0;
    }
  });
  sim.run(t_end + us(50.0));

  RunOut out;
  out.goodput.resize(n);
  out.charged.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    out.goodput[t] = static_cast<double>(end_count[t] - start_count[t]) /
                     sim::to_us(t_end - t_start) * 1000.0;
    const core::TenantAccount* a = tenants.find_account(pid_of[t]);
    if (a == nullptr) continue;
    out.charged[t] = a->cycles_charged;
    out.cycle_deferrals +=
        a->denials[static_cast<std::size_t>(core::TenantDeny::CycleQuota)];
    out.rx_quota_drops += a->rx_quota_drops;
    out.rx_overflow_drops += a->rx_overflow_drops;
    out.drained += a->drained_frames;
  }

  // Queueing latency: merge the per-queue sojourn histograms and walk
  // the merged log2 buckets to the percentile ranks.
  std::uint64_t buckets[trace::Histogram::kBuckets] = {};
  std::uint64_t total = 0;
  for (std::size_t q = 0; q < rxq.size(); ++q) {
    const trace::Histogram& h = rxq.queue(q).sojourn();
    for (std::size_t b = 0; b < trace::Histogram::kBuckets; ++b) {
      buckets[b] += h.bucket(b);
    }
    total += h.count();
  }
  const auto pct = [&](double p) -> double {
    if (total == 0) return 0;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < trace::Histogram::kBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) {
        return sim::to_us(trace::Histogram::bucket_hi(b));
      }
    }
    return 0;
  };
  out.p50_us = pct(50.0);
  out.p99_us = pct(99.0);
  return out;
}

/// Equal-tenant fairness point: n tenants split `total_kmsgs` evenly.
RunOut run_fair(std::size_t n, double total_kmsgs, sim::Cycles window) {
  std::vector<TenantSpec> specs(n);
  for (TenantSpec& s : specs) s.offered_kmsgs = total_kmsgs / n;
  return run_mix(specs, window);
}

constexpr std::size_t kVictims = 16;
constexpr double kVictimLoad = 20.0;  // kmsg/s each: below saturation

/// The gauntlet mix: 16 honest victims plus (when hostile) a cycle
/// flooder, a frame flooder at 20x a victim's load, and a faulter.
std::vector<TenantSpec> gauntlet_specs(bool hostile) {
  std::vector<TenantSpec> specs(kVictims + 3);
  for (std::size_t t = 0; t < kVictims; ++t) {
    specs[t].offered_kmsgs = kVictimLoad;
  }
  specs[kVictims] = {Kind::Spin, 1, hostile ? 100.0 : 0.0};
  specs[kVictims + 1] = {Kind::Good, 1, hostile ? 1000.0 : 0.0};
  specs[kVictims + 2] = {Kind::Fault, 1, hostile ? 200.0 : 0.0};
  return specs;
}

/// Upper bound on what one gauntlet tenant may burn: every round's
/// earnings over the window, the banked burst, and one overdrawn run.
std::uint64_t gauntlet_cycle_cap(sim::Cycles window) {
  const std::uint64_t rounds = window / us(1000.0) + 1;
  const std::uint64_t quantum =
      std::max<std::uint64_t>(64, 4 * us(1000.0) / (kVictims + 3));
  return (rounds + 2) * quantum + us(100.0);
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;
  using ash::sim::us;
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  if (smoke) {
    bool ok = true;
    const ash::sim::Cycles window = us(20000.0);
    const RunOut fair = run_fair(256, 2000.0, window);
    const double j = jain(fair.goodput);
    std::size_t zeros = 0;
    double lo = 1e18, hi = 0;
    for (const double g : fair.goodput) {
      if (g <= 0) ++zeros;
      lo = std::min(lo, g);
      hi = std::max(hi, g);
    }
    std::printf("bench_multitenant --smoke: 256 tenants jain=%.4f "
                "p99=%.1f us deferrals=%llu qdrop=%llu odrop=%llu "
                "zeros=%zu lo=%.2f hi=%.2f\n",
                j, fair.p99_us,
                static_cast<unsigned long long>(fair.cycle_deferrals),
                static_cast<unsigned long long>(fair.rx_quota_drops),
                static_cast<unsigned long long>(fair.rx_overflow_drops),
                zeros, lo, hi);
    if (!(j >= 0.9)) {
      std::printf("FAIL: Jain fairness %.4f < 0.9 at 256 tenants\n", j);
      ok = false;
    }

    const RunOut base = run_mix(gauntlet_specs(false), window);
    const RunOut host = run_mix(gauntlet_specs(true), window);
    double worst = 1e9;
    for (std::size_t t = 0; t < kVictims; ++t) {
      if (base.goodput[t] <= 0) continue;
      worst = std::min(worst, host.goodput[t] / base.goodput[t]);
    }
    std::printf("gauntlet: worst victim retention=%.3f "
                "(rx-quota drops=%llu drained=%llu)\n",
                worst, static_cast<unsigned long long>(host.rx_quota_drops),
                static_cast<unsigned long long>(host.drained));
    if (!(worst >= 0.8)) {
      std::printf("FAIL: a victim fell to %.3f of its hostile-free "
                  "goodput (gate: 0.8)\n", worst);
      ok = false;
    }
    const std::uint64_t cap = gauntlet_cycle_cap(window);
    for (std::size_t h = kVictims; h < kVictims + 3; ++h) {
      std::printf("hostile %zu charged %llu cyc (cap %llu)\n", h,
                  static_cast<unsigned long long>(host.charged[h]),
                  static_cast<unsigned long long>(cap));
      if (host.charged[h] > cap) {
        std::printf("FAIL: hostile %zu burned past its cycle quota\n", h);
        ok = false;
      }
    }
    std::printf(ok ? "PASS\n" : "FAIL\n");
    return ok ? 0 : 1;
  }

  const std::size_t populations[] = {16, 64, 256, 1024};
  const double offered[] = {500.0, 1000.0, 2000.0};
  const ash::sim::Cycles window = us(30000.0);

  struct Point {
    std::size_t n;
    double load, jain_idx, served, p50, p99;
    std::uint64_t deferrals;
  };
  std::vector<Point> grid;
  for (const std::size_t n : populations) {
    for (const double load : offered) {
      const RunOut r = run_fair(n, load, window);
      double served = 0;
      for (const double g : r.goodput) served += g;
      grid.push_back({n, load, jain(r.goodput), served, r.p50_us, r.p99_us,
                      r.cycle_deferrals});
    }
  }

  const RunOut base = run_mix(gauntlet_specs(false), window);
  const RunOut host = run_mix(gauntlet_specs(true), window);
  double worst = 1e9, mean_ret = 0;
  for (std::size_t t = 0; t < kVictims; ++t) {
    const double ret = base.goodput[t] > 0
                           ? host.goodput[t] / base.goodput[t] : 1.0;
    worst = std::min(worst, ret);
    mean_ret += ret / kVictims;
  }

  if (json) {
    std::printf("{\n  \"bench\": \"multitenant\",\n");
    std::printf("  \"fairness\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Point& p = grid[i];
      std::printf("    {\"tenants\": %zu, \"offered_kmsgs\": %.0f, "
                  "\"jain\": %.4f, \"served_kmsgs\": %.1f, "
                  "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                  "\"cycle_deferrals\": %llu}%s\n",
                  p.n, p.load, p.jain_idx, p.served, p.p50, p.p99,
                  static_cast<unsigned long long>(p.deferrals),
                  i + 1 < grid.size() ? "," : "");
    }
    std::printf("  ],\n  \"gauntlet\": {\n");
    std::printf("    \"victims\": %zu, \"victim_load_kmsgs\": %.0f,\n",
                kVictims, kVictimLoad);
    std::printf("    \"worst_victim_retention\": %.4f,\n", worst);
    std::printf("    \"mean_victim_retention\": %.4f,\n", mean_ret);
    std::printf("    \"hostile_charged_cyc\": [%llu, %llu, %llu],\n",
                static_cast<unsigned long long>(host.charged[kVictims]),
                static_cast<unsigned long long>(host.charged[kVictims + 1]),
                static_cast<unsigned long long>(host.charged[kVictims + 2]));
    std::printf("    \"hostile_cycle_cap\": %llu,\n",
                static_cast<unsigned long long>(gauntlet_cycle_cap(window)));
    std::printf("    \"rx_quota_drops\": %llu,\n",
                static_cast<unsigned long long>(host.rx_quota_drops));
    std::printf("    \"drained_frames\": %llu\n  }\n}\n",
                static_cast<unsigned long long>(host.drained));
    return 0;
  }

  std::vector<std::pair<double, std::vector<double>>> points;
  std::vector<std::string> cols = {"jain", "served kmsg/s", "p99 us"};
  for (const Point& p : grid) {
    if (p.load != 2000.0) continue;  // the saturating column
    points.push_back({static_cast<double>(p.n),
                      {p.jain_idx, p.served, p.p99}});
  }
  print_series("Multitenant", "fairness at 2000 kmsg/s offered",
               "tenants", cols, points, "mixed");
  std::printf("\ngauntlet: worst victim retention %.3f, mean %.3f "
              "(gate 0.8)\n", worst, mean_ret);
  return 0;
}
