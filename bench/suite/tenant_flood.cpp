// tenant_flood — 1024 tenants behind the multi-queue receive path, open
// loop.
//
// Every tenant is a server process with its own VC and a sandboxed
// remote-increment ASH, behind 4 adaptive-coalescing RX queues and the DRR
// TenantScheduler (the configuration of bench_multitenant, without its
// hostile-tenant knobs). Arrivals are Poisson per tenant: the merged stream
// is Poisson at the aggregate rate with a uniformly drawn tenant per
// message. The aggregate rate ramps 100 -> 700 kmsg/s in 50 kmsg/s steps,
// each held 40 ms of simulated time after boot; the 300 kmsg/s reference
// step, whose messages give the latency metrics, is held four times as
// long so its p99.9 rests on ~48k samples.
//
// max_rate_kmsgs is the offered rate at which the service-level objective
// (p99 <= 1 ms and >= 99 % served) is crossed, interpolated between the
// highest step that meets it and the step above, so a capacity change
// smaller than one step still moves it.
//
// The generator node has zero device/interrupt costs, and replies are
// timestamped by a zero-cost kernel hook on the generator's VCs that reads
// the echoed sequence number, so latency is measured from each message's
// due time and the generator can never fall behind its schedule
// (gen.late_max_cycles checks that).
//
// A message the handler does not commit (the tenant scheduler defers an
// owner past its cycle share) takes the normal delivery path: the tenant
// process wakes and answers it at user level, as an application behind an
// ASH would. So no message is lost unless a queue or the device drops it.
//
// Handlers are tiny here, so RX-queue, batching, tenant and event-engine
// costs dominate: this is the workload where those layers show.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/tenant.hpp"
#include "harness.hpp"
#include "net/an2.hpp"
#include "net/rx_queue.hpp"
#include "sim/kernel.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"

namespace ashbench {
namespace {

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

constexpr double kRefRate = 300.0;          // kmsg/s: the latency step
constexpr Cycles kSloP99 = us(1000.0);      // p99 limit for max_rate
constexpr std::uint32_t kServedPermille = 990;  // and >= 99 % served
constexpr std::uint32_t kMsgLen = 8;        // [seq | tenant]
constexpr std::uint32_t kCounterOff = 0x80000;

net::An2Config fast_link() {
  net::An2Config cfg;
  cfg.bandwidth_mbytes_per_sec = 1000.0;
  cfg.one_way_latency = us(5.0);
  cfg.per_packet_overhead = us(0.1);
  cfg.tx_kernel_work = us(0.4);
  return cfg;
}

struct Step {
  double rate_kmsgs = 0;
  Cycles start = 0, end = 0;
  std::uint64_t offered = 0, served = 0, arrivals_in_window = 0;
  std::vector<Cycles> latencies;
};

}  // namespace

RepResult run_tenant_flood(const RepConfig& cfg) {
  const std::size_t n = cfg.smoke ? 64 : 1024;
  const Cycles hold = cfg.smoke ? us(4000.0) : us(40000.0);
  constexpr Cycles kRefHolds = 4;
  std::vector<double> rates;
  for (double k = 100.0; k <= 700.0; k += cfg.smoke ? 200.0 : 50.0) {
    rates.push_back(k);
  }
  Rep rep(cfg);
  RepResult& r = rep.result();

  // ---- world ----
  sim::NodeConfig gen_cfg;
  gen_cfg.cost.interrupt_entry = 0;
  gen_cfg.cost.demux_an2 = 0;
  gen_cfg.cost.context_switch = 0;
  gen_cfg.cost.wakeup = 0;
  sim::NodeConfig server_cfg;
  server_cfg.memory_bytes = (n + 8) << 20;  // one 1 MB segment per tenant
  sim::Simulator sim;
  sim::Node& gen = sim.add_node("generator", gen_cfg);
  sim::Node& server = sim.add_node("server", server_cfg);
  net::An2Config gen_link = fast_link();
  gen_link.rx_driver_work = 0;
  gen_link.rx_cache_flush = 0;
  gen_link.tx_kernel_work = 0;
  net::An2Device dev_g(gen, gen_link);
  net::An2Device dev_s(server, fast_link());
  dev_g.connect(dev_s);
  core::AshSystem ash_sys(server);

  core::TenantSchedulerConfig tcfg;
  tcfg.replenish_period = us(1000.0);
  tcfg.quantum_per_weight = std::max<std::uint64_t>(
      64, 4 * static_cast<std::uint64_t>(us(1000.0)) / n);
  tcfg.burst_rounds = 2;
  tcfg.rx_quota_frames = 32;
  core::TenantScheduler tenants(server, tcfg);
  ash_sys.set_tenants(&tenants);

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
  rep.world_ready(sim, static_cast<std::uint32_t>(n),
                  static_cast<std::uint32_t>(n));

  // ---- server: one process + VC + handler per tenant ----
  std::vector<int> vc_of(n, -1), ash_of(n, -1);
  std::vector<std::uint32_t> seg_of(n, 0);
  std::vector<std::uint64_t> user_replies(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    server.kernel().spawn("tenant" + std::to_string(t),
                          [&, t](Process& self) -> Task {
      seg_of[t] = self.segment().base;
      std::string error;
      const int id = rep.download([&] {
        return ash_sys.download(self, ashlib::make_remote_increment(), {},
                                &error);
      });
      r.check(id >= 0, "tenant download: " + error);
      const int vc = dev_s.bind_vc(self);
      for (std::uint32_t i = 0; i < 32; ++i) {
        dev_s.supply_buffer(vc, self.segment().base + 64u * i, 64);
      }
      if (id >= 0) {
        ash_sys.attach_an2(dev_s, vc, id, self.segment().base + kCounterOff);
      }
      ash_of[t] = id;
      vc_of[t] = vc;
      // The user-level path for messages the handler left uncommitted.
      const sim::CostModel& cost = self.node().cost();
      for (;;) {
        co_await dev_s.arrival_channel(vc).wait(self);
        for (;;) {
          const std::optional<net::RxDesc> d = dev_s.poll(vc);
          if (!d.has_value()) break;
          co_await self.compute(cost.an2_user_recv_overhead);
          std::uint8_t* ctr = self.node().mem(seg_of[t] + kCounterOff, 4);
          util::store_u32(ctr, util::load_u32(ctr) + 1);
          co_await self.syscall(dev_s.config().tx_kernel_work +
                                cost.an2_user_send_overhead);
          dev_s.send_from(vc, d->addr, d->len);
          dev_s.return_buffer(vc, d->addr, 64);
          ++user_replies[t];
        }
      }
    });
  }

  // ---- the offered schedule: piecewise Poisson, drawn up front ----
  // Booting n tenants costs ~35 us of context switch each.
  const Cycles t_warm = us(1000.0 + 60.0 * static_cast<double>(n));
  std::vector<Step> steps(rates.size());
  std::vector<Cycles> due;
  std::vector<std::uint32_t> tenant_of_msg, step_of_msg;
  {
    util::Rng rng(cfg.seed * 0xd1b54a32d192ed03ull + 11);
    Cycles t_step = t_warm;
    for (std::size_t k = 0; k < rates.size(); ++k) {
      Step& s = steps[k];
      s.rate_kmsgs = rates[k];
      s.start = t_step;
      s.end = s.start + hold * (rates[k] == kRefRate ? kRefHolds : 1);
      t_step = s.end;
      const double mean_gap = sim::kCpuMhz * 1000.0 / rates[k];  // cycles
      double t = static_cast<double>(s.start);
      for (;;) {
        t += -std::log(1.0 - rng.uniform()) * mean_gap;
        if (t >= static_cast<double>(s.end)) break;
        due.push_back(static_cast<Cycles>(t));
        tenant_of_msg.push_back(static_cast<std::uint32_t>(rng.below(n)));
        step_of_msg.push_back(static_cast<std::uint32_t>(k));
        ++s.offered;
      }
    }
  }
  std::vector<Cycles> reply_at(due.size(), 0);  // 0: no reply (yet)
  std::size_t ref_step = 0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].rate_kmsgs == kRefRate) ref_step = k;
  }

  // ---- generator: one VC per tenant, zero-cost reply hook ----
  // A handler replies on its own VC id, which lands on the generator VC
  // with the same id, so a reply for tenant t arrives on vc_of[t].
  std::vector<int> gen_vcs;
  std::uint64_t replies = 0, bad_replies = 0;
  gen.kernel().spawn("generator", [&](Process& self) -> Task {
    for (std::uint32_t t = 0; t < n; ++t) {
      const int vc = dev_g.bind_vc(self);
      gen_vcs.push_back(vc);
      for (std::uint32_t i = 0; i < 8; ++i) {
        dev_g.supply_buffer(vc, self.segment().base + 64u * (8 * t + i), 64);
      }
      dev_g.set_kernel_hook(vc, [&, vc](const net::An2Device::RxEvent& ev) {
        const std::uint8_t* p = gen.mem(ev.desc.addr, ev.desc.len);
        const std::uint32_t seq =
            ev.desc.len == kMsgLen ? util::load_u32(p) : ~0u;
        const bool valid = seq < due.size() && reply_at[seq] == 0 &&
                           util::load_u32(p + 4) == tenant_of_msg[seq] &&
                           vc == vc_of[tenant_of_msg[seq]];
        if (!valid) {
          ++bad_replies;
          return true;
        }
        const Cycles now = gen.now();
        reply_at[seq] = now;
        // Replies arriving inside a step's window measure its service rate.
        std::size_t k = 0;
        while (k + 1 < steps.size() && now >= steps[k + 1].start) ++k;
        if (now >= steps[k].start && now < steps[k].end) {
          ++steps[k].arrivals_in_window;
        }
        ++replies;
        return true;
      });
    }
    co_await self.sleep_for(us(1e9));
  });

  // The schedule runs as one event chain on the generator's queue; a
  // message goes to the VC its tenant bound at boot.
  Cycles late_max = 0;
  std::size_t next = 0;
  std::function<void()> tick = [&] {
    while (next < due.size() && due[next] <= gen.now()) {
      const std::size_t i = next++;
      late_max = std::max(late_max, gen.now() - due[i]);
      std::uint8_t msg[kMsgLen];
      util::store_u32(msg, static_cast<std::uint32_t>(i));
      util::store_u32(msg + 4, tenant_of_msg[i]);
      const int vc = vc_of[tenant_of_msg[i]];
      if (vc >= 0) dev_g.send(vc, msg);
    }
    if (next < due.size()) gen.queue().schedule_at(due[next], tick);
  };
  if (!due.empty()) gen.queue().schedule_at(due.front(), tick);

  // Busy share over the top step: kernel cycles charged per queue CPU.
  const Step& top = steps.back();
  std::vector<Cycles> busy_at_start(rxq.size(), 0);
  std::vector<Cycles> busy_at_end(rxq.size(), 0);
  const auto snapshot = [&](std::vector<Cycles>& out) {
    for (std::size_t q = 0; q < rxq.size(); ++q) {
      out[q] = rxq.queue(q).cpu().kernel_cycles_total();
    }
  };
  gen.queue().schedule_at(top.start, [&] { snapshot(busy_at_start); });
  gen.queue().schedule_at(top.end, [&] { snapshot(busy_at_end); });
  // Queue sojourn over the reference step, beside its latency metrics.
  SojournBuckets sojourn_at_start{}, sojourn_at_end{};
  gen.queue().schedule_at(steps[ref_step].start,
                          [&] { sojourn_at_start = sojourn_buckets(rxq); });
  gen.queue().schedule_at(steps[ref_step].end,
                          [&] { sojourn_at_end = sojourn_buckets(rxq); });

  // Under overload the queue CPUs carry a backlog of fired batches past
  // the last step; the drain lets every one of them deliver (idle sim time
  // costs no host time).
  rep.boot(sim, t_warm - 1);
  rep.measure(sim, top.end + us(500000.0));

  // ---- per-step results ----
  for (std::size_t i = 0; i < due.size(); ++i) {
    Step& s = steps[step_of_msg[i]];
    if (reply_at[i] == 0) continue;
    ++s.served;
    s.latencies.push_back(reply_at[i] - due[i]);
  }
  // Each step's SLO score: above 1 fails (p99 over the limit, or less
  // than 99 % of its messages served).
  std::uint64_t offered_total = 0;
  std::vector<double> score(steps.size());
  for (std::size_t k = 0; k < steps.size(); ++k) {
    Step& s = steps[k];
    offered_total += s.offered;
    std::sort(s.latencies.begin(), s.latencies.end());
    const Percentile p99 = percentile(s.latencies, 990);
    score[k] = s.served == 0
                   ? HUGE_VAL
                   : std::max(static_cast<double>(p99.cycles) /
                                  static_cast<double>(kSloP99),
                              static_cast<double>(s.offered) *
                                  kServedPermille / 1000.0 /
                                  static_cast<double>(s.served));
    r.sim_state.insert(r.sim_state.end(),
                       {s.offered, s.served, s.arrivals_in_window, p99.cycles});
  }
  std::size_t pass = steps.size();  // highest step meeting the SLO
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (score[k] <= 1.0) pass = k;
  }
  if (pass == steps.size()) {
    r.max_rate_kmsgs = steps.front().rate_kmsgs / score.front();
  } else if (pass + 1 == steps.size() || !std::isfinite(score[pass + 1])) {
    r.max_rate_kmsgs = steps[pass].rate_kmsgs;
  } else {
    // Where log(score) crosses 0 between the passing step and the next.
    const double lo = std::log(score[pass]), hi = std::log(score[pass + 1]);
    r.max_rate_kmsgs = steps[pass].rate_kmsgs +
                       (steps[pass + 1].rate_kmsgs - steps[pass].rate_kmsgs) *
                           -lo / (hi - lo);
  }
  const Step& ref = steps[ref_step];
  r.latencies = ref.latencies;
  r.attempted = ref.offered;
  r.completed = ref.served;
  r.failed = ref.offered - ref.served;
  if (cfg.traced) {
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (step_of_msg[i] == ref_step && reply_at[i] != 0) {
        rep.request_span("msg", i, due[i], reply_at[i]);
      }
    }
  }
  r.msgs = offered_total;
  r.throughput_kmsgs = kmsgs(top.arrivals_in_window, top.end - top.start);
  r.goodput_mbps =
      mbytes_per_s(top.arrivals_in_window * kMsgLen, top.end - top.start);

  // ---- checks ----
  r.check(late_max == 0, "generator ran late");
  r.check(bad_replies == 0,
          std::to_string(bad_replies) + " replies with a wrong payload");
  r.check(r.attempted == r.completed + r.failed,
          "attempted != completed + failed");
  std::vector<AshRef> handlers;
  std::uint64_t commits = 0, fallbacks = 0, dev_drops = 0, by_user = 0;
  std::size_t counter_mismatch = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (ash_of[t] < 0 || vc_of[t] < 0) continue;
    handlers.push_back({&ash_sys, ash_of[t]});
    const core::AshStats& s = ash_sys.stats(ash_of[t]);
    commits += s.commits;
    fallbacks += s.invocations - s.commits + s.tenant_deferrals +
                 s.quarantine_skips + s.revoked_skips + s.livelock_deferrals;
    dev_drops += dev_s.drops(vc_of[t]);
    by_user += user_replies[t];
    if (util::load_u32(server.mem(seg_of[t] + kCounterOff, 4)) !=
        s.commits + user_replies[t]) {
      ++counter_mismatch;
    }
  }
  r.check(handlers.size() == n, "not every tenant booted before the ramp");
  r.check(counter_mismatch == 0,
          "tenant counters != handler commits + user-level replies");
  r.check(commits + by_user == replies,
          "handler commits + user-level replies != replies received");
  r.check(fallbacks == by_user, "a fast-path exit was never answered");
  // Every offered message was dropped by the device or an RX queue
  // (counted per VC), committed by its handler, or left the fast path.
  r.check(offered_total == dev_drops + commits + fallbacks,
          "offered != drops + commits + fast-path exits");
  r.sim_state.insert(r.sim_state.end(), {replies, dev_drops, fallbacks});

  // ---- per-layer ----
  r.layer["gen.late_max_cycles"] = static_cast<double>(late_max);
  const double window = static_cast<double>(top.end - top.start);
  double other_max = 0;
  for (std::size_t q = 0; q < rxq.size(); ++q) {
    const double share =
        static_cast<double>(busy_at_end[q] - busy_at_start[q]) / window;
    if (q == 0) {
      r.layer["net.rx_queue.busy_share_q0"] = share;
    } else {
      other_max = std::max(other_max, share);
    }
    r.sim_state.push_back(busy_at_end[q] - busy_at_start[q]);
  }
  r.layer["net.rx_queue.busy_share_max_other"] = other_max;
  r.layer["net.rx_queue.sojourn_p99_cycles"] =
      static_cast<double>(sojourn_p99(sojourn_at_start, sojourn_at_end));
  read_ash_layers(r, handlers);
  read_rxq_layers(r, rxq);
  read_tenant_layers(r, tenants, handlers);
  std::vector<std::pair<const net::An2Device*, int>> vcs;
  for (std::size_t t = 0; t < n; ++t) {
    if (vc_of[t] >= 0) vcs.emplace_back(&dev_s, vc_of[t]);
  }
  for (const int vc : gen_vcs) vcs.emplace_back(&dev_g, vc);
  read_an2_layers(r, vcs, {&dev_g, &dev_s});
  read_trace_layers(r);
  return rep.finish();
}

}  // namespace ashbench
