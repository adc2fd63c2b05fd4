#include "harness.hpp"

#include <algorithm>
#include <cmath>

#include "core/ash.hpp"
#include "core/tenant.hpp"
#include "net/an2.hpp"
#include "net/rx_queue.hpp"
#include "trace/format.hpp"

namespace ashbench {

using namespace ash;

double seconds_between(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void RepResult::check(bool ok, std::string what) {
  if (!ok) violations.push_back(std::move(what));
}

Rep::Rep(const RepConfig& cfg) : cfg_(cfg), t0_(HostClock::now()) {
  res_.traced = cfg.traced;
}

void Rep::add_host_span(const char* name, HostClock::time_point a,
                        HostClock::time_point b) {
  res_.host_spans.push_back(
      {name, seconds_between(t0_, a) * 1e6, seconds_between(a, b) * 1e6, 0});
}

void Rep::world_ready(const sim::Simulator& sim, std::uint32_t ash_ids,
                      std::uint32_t channels) {
  const HostClock::time_point now = HostClock::now();
  res_.world_s = seconds_between(t0_, now);
  add_host_span("world", t0_, now);
  if (!cfg_.traced) return;
  trace::TracerConfig tc;
  // A small flight recorder: the aggregates are exact regardless of ring
  // size; the ring only feeds the retained-event section of the trace file.
  tc.ring_capacity = 1u << 12;
  tc.max_cpus = std::max<std::uint16_t>(1, sim.cpu_count());
  tc.max_ash_ids = std::max<std::uint32_t>(1, ash_ids);
  tc.max_channels = std::max<std::uint32_t>(1, channels);
  session_.emplace(tc);
}

void Rep::boot(sim::Simulator& sim, Cycles limit) {
  const HostClock::time_point t = HostClock::now();
  res_.setup_events += sim.run(limit);
  const HostClock::time_point done = HostClock::now();
  add_host_span("Simulator::run (set-up)", t, done);
  res_.setup_s = seconds_between(t0_, done);
}

void Rep::measure(sim::Simulator& sim, Cycles limit) {
  const HostClock::time_point t = HostClock::now();
  res_.events += sim.run(limit);
  const HostClock::time_point done = HostClock::now();
  add_host_span("Simulator::run", t, done);
  res_.run_s += seconds_between(t, done);
}

void Rep::request_span(const char* name, std::uint64_t id, Cycles start,
                       Cycles end) {
  if (!cfg_.traced) return;
  res_.request_spans.push_back({name, to_us(start), to_us(end - start), id});
}

RepResult Rep::finish() {
  if (session_.has_value()) {
    res_.tracer_chrome_json = trace::chrome_trace_json(trace::global());
    session_.reset();
  }
  return std::move(res_);
}

// ---- metric definitions ----

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p50_us", "us", "sim", "lower", ""},
      {"latency_p99_us", "us", "sim", "lower", ""},
      {"latency_p999_us", "us", "sim", "lower", ""},
      {"throughput_kmsgs", "kmsg/s", "sim", "higher", ""},
      {"goodput_mbps", "MB/s", "sim", "higher", ""},
      {"max_rate_kmsgs", "kmsg/s", "sim", "higher", ""},
      {"host_ns_per_msg", "ns", "host", "lower", ""},
      {"setup_s", "s", "host", "lower", ""},
      {"peak_rss_mb", "MB", "host", "lower", ""},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // harness
      {"gen.late_max_cycles", "cycles", "sim", "lower",
       "must be 0; validates latency_* (tenant_flood)"},
      {"setup.world_share", "ratio", "host", "lower",
       "setup_s, peak_rss_mb (tenant_flood)"},
      {"setup.download_share", "ratio", "host", "lower",
       "setup_s (tenant_flood, am_mix)"},
      // sim
      {"sim.events_per_msg", "count", "sim", "lower",
       "host_ns_per_msg (tenant_flood, http_c10k)"},
      {"sim.host_ns_per_event", "ns", "host", "lower", "host_ns_per_msg (all)"},
      // net.an2
      {"net.an2.frames_per_msg", "count", "sim", "lower",
       "throughput_kmsgs (tcp_rpc, http_c10k)"},
      {"net.an2.rx_drops", "count", "sim", "lower",
       "failed_ratio (am_mix, tenant_flood)"},
      {"net.an2.fault_drops", "count", "sim", "lower",
       "latency_p99_us (http_c10k)"},
      // net.rx_queue (tenant_flood)
      {"net.rx_queue.frames_per_batch", "count", "sim", "higher",
       "host_ns_per_msg (tenant_flood)"},
      {"net.rx_queue.charged_cycles_per_frame", "cycles", "sim", "lower",
       "max_rate_kmsgs (tenant_flood)"},
      {"net.rx_queue.sojourn_p99_cycles", "cycles", "sim", "lower",
       "latency_p99_us (tenant_flood, reference step); log2-bucket bound"},
      {"net.rx_queue.timer_fire_share", "ratio", "sim", "lower",
       "latency_p50_us (tenant_flood)"},
      {"net.rx_queue.drops", "count", "sim", "lower",
       "failed_ratio (tenant_flood)"},
      {"net.rx_queue.busy_share_q0", "ratio", "sim", "lower",
       "max_rate_kmsgs, throughput_kmsgs (tenant_flood, top step)"},
      {"net.rx_queue.busy_share_max_other", "ratio", "sim", "lower",
       "max_rate_kmsgs, throughput_kmsgs (tenant_flood, top step)"},
      // core
      {"core.exec_cycles_per_msg", "cycles", "sim", "lower",
       "latency_p50_us (am_mix, tcp_rpc)"},
      {"core.dispatch_cycles_per_msg", "cycles", "sim", "lower",
       "latency_p50_us (am_mix); max_rate_kmsgs (tenant_flood)"},
      {"core.insns_per_msg", "count", "sim", "lower",
       "host_ns_per_msg (tcp_rpc)"},
      {"core.commit_ratio", "ratio", "sim", "higher",
       "failed_ratio (am_mix, tcp_rpc)"},
      {"core.fallback_share", "ratio", "sim", "lower",
       "latency_p99_us (tcp_rpc)"},
      {"core.handler_batch_msgs", "count", "sim", "higher",
       "max_rate_kmsgs (tenant_flood)"},
      {"core.sends_per_msg", "count", "sim", "higher", "goodput_mbps (am_mix)"},
      {"core.bytes_vectored_per_msg", "B", "sim", "higher",
       "goodput_mbps (tcp_rpc)"},
      {"core.supervisor_actions", "count", "sim", "lower",
       "must be 0; failed_ratio (am_mix, tcp_rpc, tenant_flood)"},
      // core.tenant (tenant_flood)
      {"core.tenant.cycle_deferrals", "count", "sim", "lower",
       "failed_ratio, max_rate_kmsgs (tenant_flood)"},
      {"core.tenant.rx_quota_drops", "count", "sim", "lower",
       "failed_ratio, max_rate_kmsgs (tenant_flood)"},
      {"core.tenant.cycles_charged_per_msg", "cycles", "sim", "lower",
       "max_rate_kmsgs (tenant_flood)"},
      // vcode
      {"vcode.runs_interp", "count", "sim", "lower",
       "host_ns_per_msg (tcp_rpc)"},
      {"vcode.runs_codecache", "count", "sim", "lower",
       "host_ns_per_msg (tcp_rpc)"},
      {"vcode.runs_jit", "count", "sim", "higher", "host_ns_per_msg (tcp_rpc)"},
      {"vcode.cycles_per_run", "cycles", "sim", "lower",
       "latency_p50_us (tcp_rpc)"},
      {"vcode.translations", "count", "sim", "lower", "setup_s (tenant_flood)"},
      // dilp
      {"dilp.runs_per_msg", "count", "sim", "lower", "goodput_mbps (tcp_rpc)"},
      // proto.tcp (tcp_rpc)
      {"proto.tcp.segments_per_rpc", "count", "sim", "lower",
       "latency_p50_us, host_ns_per_msg (tcp_rpc)"},
      {"proto.tcp.retransmits", "count", "sim", "lower",
       "latency_p99_us (tcp_rpc)"},
      // proto.tcp_engine (http_c10k)
      {"proto.tcp_engine.conns_per_s", "1/s", "sim", "higher",
       "throughput_kmsgs (http_c10k)"},
      {"proto.tcp_engine.peak_concurrent", "count", "sim", "higher",
       "must equal flows per wave; failed_ratio (http_c10k)"},
      {"proto.tcp_engine.rto_timeouts", "count", "sim", "lower",
       "latency_p99_us, goodput_mbps (http_c10k)"},
      {"proto.tcp_engine.retransmits", "count", "sim", "lower",
       "latency_p99_us, goodput_mbps (http_c10k)"},
      {"proto.tcp_engine.fast_retransmits", "count", "sim", "lower",
       "latency_p99_us, goodput_mbps (http_c10k)"},
      {"proto.tcp_engine.ooo_reassembled", "B", "sim", "lower",
       "latency_p99_us (http_c10k)"},
      {"proto.tcp_engine.syn_backlog_drops", "count", "sim", "lower",
       "failed_ratio (http_c10k)"},
      {"proto.tcp_engine.segments_per_request", "count", "sim", "lower",
       "host_ns_per_msg (http_c10k)"},
      // trace
      {"trace.events_per_msg", "count", "sim", "lower",
       "baseline for tracer cost (all)"},
      {"trace.overhead_ratio", "ratio", "host", "lower",
       "traced host time / untraced median (all)"},
  };
  return defs;
}

Percentile percentile(const std::vector<Cycles>& sorted,
                      std::uint32_t per_mille) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  // Nearest rank, in integers so p99.9 of 12000 samples is rank 11988
  // exactly: rank = ceil(n * per_mille / 1000).
  std::size_t rank = (sorted.size() * per_mille + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.cycles = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  p.supported = p.beyond >= 10;
  return p;
}

double to_us(Cycles c) { return sim::to_us(c); }

double kmsgs(std::uint64_t msgs, Cycles elapsed) {
  if (elapsed == 0) return 0;
  return static_cast<double>(msgs) / (sim::to_us(elapsed) / 1e6) / 1e3;
}

double mbytes_per_s(std::uint64_t bytes, Cycles elapsed) {
  if (elapsed == 0) return 0;
  return static_cast<double>(bytes) / (sim::to_us(elapsed) / 1e6) / 1e6;
}

namespace {

/// num / den as a double; 0 when there is nothing to divide by.
template <typename A, typename B>
double ratio(A num, B den) {
  const auto d = static_cast<double>(den);
  return d > 0 ? static_cast<double>(num) / d : 0;
}

}  // namespace

void read_ash_layers(RepResult& r, const std::vector<AshRef>& handlers) {
  std::uint64_t offered = 0, inv = 0, commits = 0, exec = 0, insns = 0;
  std::uint64_t translations = 0;
  std::uint64_t runs[3] = {0, 0, 0};
  for (const AshRef& h : handlers) {
    const core::AshStats& s = h.sys->stats(h.id);
    inv += s.invocations;
    commits += s.commits;
    exec += s.cycles;
    insns += s.insns;
    offered += s.invocations + s.quarantine_skips + s.revoked_skips +
               s.tenant_deferrals + s.livelock_deferrals;
    const vcode::BackendStats bs = h.sys->backend_stats(h.id);
    runs[static_cast<std::size_t>(bs.backend)] += bs.runs;
    translations += bs.translations;
  }
  r.layer["core.exec_cycles_per_msg"] = ratio(exec, inv);
  r.layer["core.insns_per_msg"] = ratio(insns, inv);
  r.layer["core.commit_ratio"] = ratio(commits, inv);
  r.layer["core.fallback_share"] = ratio(offered - commits, offered);
  const auto runs_on = [&](vcode::Backend b) {
    return static_cast<double>(runs[static_cast<std::size_t>(b)]);
  };
  r.layer["vcode.runs_interp"] = runs_on(vcode::Backend::Interp);
  r.layer["vcode.runs_codecache"] = runs_on(vcode::Backend::CodeCache);
  r.layer["vcode.runs_jit"] = runs_on(vcode::Backend::Jit);
  r.layer["vcode.translations"] = static_cast<double>(translations);
  if (!r.traced) return;

  const trace::Tracer& t = trace::global();
  std::uint64_t outcomes = 0, charged = 0, sends = 0, vectored = 0, dilp = 0;
  std::uint64_t batches = 0, batches_run = 0, batched_msgs = 0, sup = 0;
  for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
    const trace::AshMetrics& m = t.ash_metrics(id);
    outcomes += m.outcomes;
    charged += m.cycles;
    sends += m.sends;
    vectored += m.bytes_vectored;
    dilp += m.dilp_runs;
    batches += m.batches;
    batches_run += m.batches - m.batch_msgs.bucket(0);  // ran >= 1 message
    batched_msgs += m.batch_msgs.sum();
    sup += m.supervisor_quarantines + m.supervisor_revokes;
  }
  // An inline run's AshOutcome cycles are its dispatch + exec + timer
  // clear; a batched run's carry dispatch + exec, and the batch pays one
  // timer clear on top. Dispatch is what remains after execution.
  const double clears =
      handlers.empty()
          ? 0
          : static_cast<double>(batches_run) *
                static_cast<double>(
                    handlers.front().sys->node().cost().ash_timer_clear);
  r.layer["core.dispatch_cycles_per_msg"] =
      ratio(static_cast<double>(charged) - static_cast<double>(exec) + clears,
            outcomes);
  // Inline runs are handler entries of one message each.
  r.layer["core.handler_batch_msgs"] =
      ratio(outcomes, batches + outcomes - batched_msgs);
  r.layer["core.sends_per_msg"] = ratio(sends, outcomes);
  r.layer["core.bytes_vectored_per_msg"] = ratio(vectored, outcomes);
  r.layer["dilp.runs_per_msg"] = ratio(dilp, outcomes);
  r.layer["core.supervisor_actions"] = static_cast<double>(sup);
  r.check(sup == 0, "supervisor acted on a healthy handler");

  std::uint64_t engine_runs = 0, engine_cycles = 0;
  for (std::size_t e = 0; e < trace::kEngineCount; ++e) {
    const trace::EngineMetrics& em =
        t.engine_metrics(static_cast<trace::Engine>(e));
    engine_runs += em.runs;
    engine_cycles += em.cycles;
  }
  r.layer["vcode.cycles_per_run"] = ratio(engine_cycles, engine_runs);
}

void read_an2_layers(
    RepResult& r,
    const std::vector<std::pair<const net::An2Device*, int>>& vcs,
    const std::vector<const net::An2Device*>& devices) {
  std::uint64_t drops = 0, fault_drops = 0;
  for (const auto& [dev, vc] : vcs) drops += dev->drops(vc);
  for (const net::An2Device* dev : devices) {
    fault_drops += dev->fault_counters().drops;
  }
  r.layer["net.an2.rx_drops"] = static_cast<double>(drops);
  r.layer["net.an2.fault_drops"] = static_cast<double>(fault_drops);
}

SojournBuckets sojourn_buckets(net::RxQueueSet& rxq) {
  SojournBuckets out{};
  for (std::size_t q = 0; q < rxq.size(); ++q) {
    const trace::Histogram& h = rxq.queue(q).sojourn();
    for (std::size_t b = 0; b < out.size(); ++b) out[b] += h.bucket(b);
  }
  return out;
}

Cycles sojourn_p99(const SojournBuckets& from, const SojournBuckets& to) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < to.size(); ++b) total += to[b] - from[b];
  if (total == 0) return 0;
  const std::uint64_t rank = (total * 99 + 99) / 100;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < to.size(); ++b) {
    seen += to[b] - from[b];
    if (seen >= rank) return trace::Histogram::bucket_hi(b);
  }
  return 0;
}

void read_rxq_layers(RepResult& r, net::RxQueueSet& rxq) {
  std::uint64_t dispatched = 0, batches = 0, drops = 0;
  for (std::size_t q = 0; q < rxq.size(); ++q) {
    const net::RxQueue& queue = rxq.queue(q);
    dispatched += queue.dispatched();
    batches += queue.batches();
    drops += queue.dropped();
    r.check(queue.enqueued() ==
                queue.dispatched() + queue.depth() + queue.dropped(),
            "rx queue " + std::to_string(q) +
                ": enqueued != dispatched + depth + dropped");
  }
  r.layer["net.rx_queue.frames_per_batch"] = ratio(dispatched, batches);
  r.layer["net.rx_queue.drops"] = static_cast<double>(drops);
  if (!r.traced) return;
  const trace::Tracer& t = trace::global();
  std::uint64_t charged = 0, fired_frames = 0, fires = 0, timer_fires = 0;
  for (std::int32_t q = 0; q <= t.max_queue_slot(); ++q) {
    const trace::QueueMetrics& m = t.queue_metrics(q);
    charged += m.charged_cycles;
    fired_frames += m.batch_frames.sum();
    fires += m.batches;
    timer_fires +=
        m.by_reason[static_cast<std::size_t>(net::FireReason::Timer)];
  }
  r.layer["net.rx_queue.charged_cycles_per_frame"] =
      ratio(charged, fired_frames);
  r.layer["net.rx_queue.timer_fire_share"] = ratio(timer_fires, fires);
}

void read_tenant_layers(RepResult& r, const core::TenantScheduler& ts,
                        const std::vector<AshRef>& handlers) {
  std::map<std::uint32_t, std::uint64_t> owned_cycles;
  for (const AshRef& h : handlers) {
    owned_cycles[h.sys->owner(h.id).pid()] += h.sys->stats(h.id).cycles;
  }
  std::uint64_t deferrals = 0, quota_drops = 0, charged = 0, runs = 0;
  std::size_t broken = 0;
  for (const auto& [pid, a] : ts.accounts()) {
    deferrals +=
        a.denials[static_cast<std::size_t>(core::TenantDeny::CycleQuota)];
    quota_drops += a.rx_quota_drops;
    charged += a.cycles_charged;
    runs += a.runs;
    if (a.cycles_charged != owned_cycles[pid]) ++broken;
  }
  r.check(broken == 0, std::to_string(broken) +
                           " tenants: cycles_charged != sum of owned "
                           "AshStats::cycles");
  r.layer["core.tenant.cycle_deferrals"] = static_cast<double>(deferrals);
  r.layer["core.tenant.rx_quota_drops"] = static_cast<double>(quota_drops);
  r.layer["core.tenant.cycles_charged_per_msg"] = ratio(charged, runs);
}

void read_trace_layers(RepResult& r) {
  if (!r.traced) return;
  const trace::Tracer& t = trace::global();
  std::uint64_t frames = 0;
  for (std::int32_t c = 0; c <= t.max_channel_slot(); ++c) {
    frames += t.channel_metrics(c).frames;
  }
  std::uint64_t emitted = 0;
  for (std::uint16_t cpu = 0; cpu < t.cpus(); ++cpu) emitted += t.emitted(cpu);
  r.layer["net.an2.frames_per_msg"] = ratio(frames, r.msgs);
  r.layer["trace.events_per_msg"] = ratio(emitted, r.msgs);
  r.check(t.clamped_cpus() == 0, "tracer clamped a CPU id");
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"am_mix", run_am_mix,
       "paper's inline path: four short handler shapes, 4 B-4 KB messages"},
      {"tcp_rpc", run_tcp_rpc,
       "heaviest handler: TCP fast-path ASH with DILP checksum+copy"},
      {"tenant_flood", run_tenant_flood,
       "1024 tenants, open loop: RX queues, batching, tenant scheduler"},
      {"http_c10k", run_http_c10k,
       "10240 TcpEngine flows at 1% loss, no ASH: TCP and timers"},
  };
  return w;
}

}  // namespace ashbench
