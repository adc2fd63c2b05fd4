// ashbench harness: what every workload shares.
//
// A workload is one function that builds a simulated world, runs a fixed,
// seed-determined amount of traffic through it, checks every reply, and
// returns a RepResult. The harness owns the two clocks:
//
//   * sim clock  — simulated cycles of the modelled 40 MHz DECstation,
//     read from the simulator; deterministic for a given seed;
//   * host clock — std::chrono::steady_clock around the calls the
//     benchmark itself makes (world construction, handler downloads,
//     Simulator::run). Nothing inside src/ is timed.
//
// Every per-layer number is read from outside, through public APIs only
// (AshStats, BackendStats, RxQueue, TenantAccount, TCP stats, device
// counters and trace::Tracer aggregates).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::core {
class AshSystem;
class TenantScheduler;
}  // namespace ash::core
namespace ash::net {
class An2Device;
class RxQueueSet;
}  // namespace ash::net

namespace ashbench {

using ash::sim::Cycles;
using HostClock = std::chrono::steady_clock;

double seconds_between(HostClock::time_point a, HostClock::time_point b);

/// Inputs every workload receives. `smoke` shrinks the traffic so all four
/// workloads and every check run in a few seconds (the ctest target).
struct RepConfig {
  std::uint64_t seed = 1;
  bool smoke = false;
  bool traced = false;
};

/// A span for the trace file: host spans are microseconds since the rep
/// started; request spans are simulated microseconds.
struct Span {
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  std::uint64_t id = 0;
};

/// What one repetition of a workload produced.
struct RepResult {
  bool traced = false;  // tracer aggregates are valid only when set

  // ---- sim clock ----
  std::vector<Cycles> latencies;  // one per timed request
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double throughput_kmsgs = 0;
  double goodput_mbps = 0;  // payload bytes only, MB/s
  double max_rate_kmsgs = 0;
  /// Messages the run moved; the host_ns_per_msg denominator.
  std::uint64_t msgs = 0;
  std::uint64_t events = 0;        // Simulator::run events after set-up
  std::uint64_t setup_events = 0;  // ... and during set-up

  // ---- host clock ----
  double setup_s = 0;  // rep start -> first offered message
  double run_s = 0;    // first offered message -> end of the last run
  double world_s = 0;
  double download_s = 0;

  /// Per-layer values by metric name (see layer_metrics()); unset = 0.
  std::map<std::string, double> layer;
  /// Sim-clock observables beyond the e2e metrics that must repeat bit for
  /// bit across reps (final memory words, counters).
  std::vector<std::uint64_t> sim_state;
  std::vector<std::string> violations;

  std::vector<Span> host_spans;
  std::vector<Span> request_spans;  // kept only on the traced rep
  std::string tracer_chrome_json;   // kept only on the traced rep

  /// Record a violation when `ok` is false.
  void check(bool ok, std::string what);
};

/// One repetition in flight: the host-clock origin, the optional trace
/// session and the bookkeeping for the host-clock spans.
class Rep {
 public:
  explicit Rep(const RepConfig& cfg);
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  RepResult& result() noexcept { return res_; }

  /// The world is constructed: record its host time and, on the traced
  /// rep, open a trace::Session sized so no CPU, handler or channel slot
  /// overflows.
  void world_ready(const ash::sim::Simulator& sim, std::uint32_t ash_ids,
                   std::uint32_t channels);

  /// Time one download call (the benchmark's own call into core).
  template <typename F>
  auto download(F&& fn) {
    const HostClock::time_point t = HostClock::now();
    auto out = fn();
    const HostClock::time_point done = HostClock::now();
    add_host_span("download", t, done);
    res_.download_s += seconds_between(t, done);
    return out;
  }

  /// Run the simulator through set-up (boot, downloads) up to `limit`;
  /// the first message is offered right after. Ends the setup_s window.
  void boot(ash::sim::Simulator& sim, Cycles limit);
  /// Run the measured phase up to `limit` (may be called repeatedly).
  void measure(ash::sim::Simulator& sim, Cycles limit);

  /// A sim-clock span for one request (traced rep only).
  void request_span(const char* name, std::uint64_t id, Cycles start,
                    Cycles end);

  /// Close the rep: snapshot the tracer's retained events and stop
  /// tracing. Call after every layer metric has been read.
  RepResult finish();

 private:
  void add_host_span(const char* name, HostClock::time_point a,
                     HostClock::time_point b);

  RepConfig cfg_;
  HostClock::time_point t0_;
  RepResult res_;
  std::optional<ash::trace::Session> session_;
};

// ---- metric definitions ----

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;   // "sim" or "host"
  const char* better;  // "lower" or "higher"
  const char* moves;   // per-layer: the e2e metric it should move, where
};

/// The end-to-end metrics, in report order.
const std::vector<MetricDef>& e2e_metrics();
/// The per-layer metrics, in report order.
const std::vector<MetricDef>& layer_metrics();

/// Exact nearest-rank percentile over every sample, in sim cycles.
struct Percentile {
  Cycles cycles = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the percentile
  bool supported = false;  // at least 10 samples beyond it
};
/// `per_mille`: 500 = p50, 990 = p99, 999 = p99.9.
Percentile percentile(const std::vector<Cycles>& sorted,
                      std::uint32_t per_mille);

double to_us(Cycles c);
/// Messages per second of simulated time, in thousands.
double kmsgs(std::uint64_t msgs, Cycles elapsed);
/// Bytes per second of simulated time, in MB/s.
double mbytes_per_s(std::uint64_t bytes, Cycles elapsed);

// ---- per-layer readers (public APIs only) ----

/// One downloaded handler.
struct AshRef {
  ash::core::AshSystem* sys = nullptr;
  int id = -1;
};

/// core.*, vcode.*, dilp.*: handler stats for every handler the workload
/// downloaded, plus the tracer's per-handler aggregates on the traced rep
/// (summed over every slot: the session holds only this workload).
void read_ash_layers(RepResult& r, const std::vector<AshRef>& handlers);
/// net.an2.rx_drops / fault_drops over the (device, vc) pairs given.
void read_an2_layers(
    RepResult& r,
    const std::vector<std::pair<const ash::net::An2Device*, int>>& vcs,
    const std::vector<const ash::net::An2Device*>& devices);
/// net.rx_queue.* (all but the sojourn and busy shares, which are read
/// over a window) plus the per-queue conservation check.
void read_rxq_layers(RepResult& r, ash::net::RxQueueSet& rxq);

/// The RX queues' merged sojourn histogram (log2 buckets), for windowed
/// reads: snapshot it at both ends of a window and take sojourn_p99.
using SojournBuckets =
    std::array<std::uint64_t, ash::trace::Histogram::kBuckets>;
SojournBuckets sojourn_buckets(ash::net::RxQueueSet& rxq);
/// Upper bound of the log2 bucket holding the p99 rank of the sojourns
/// recorded between two snapshots (2x resolution).
Cycles sojourn_p99(const SojournBuckets& from, const SojournBuckets& to);
/// core.tenant.* plus the per-tenant cycle-conservation check.
void read_tenant_layers(RepResult& r, const ash::core::TenantScheduler& ts,
                        const std::vector<AshRef>& handlers);
/// Tracer-wide aggregates: AN2 frames per message and trace events per
/// message (traced rep only).
void read_trace_layers(RepResult& r);

// ---- workloads ----

using WorkloadFn = RepResult (*)(const RepConfig&);

RepResult run_am_mix(const RepConfig& cfg);
RepResult run_tcp_rpc(const RepConfig& cfg);
RepResult run_tenant_flood(const RepConfig& cfg);
RepResult run_http_c10k(const RepConfig& cfg);

struct Workload {
  const char* name;
  WorkloadFn fn;
  const char* why;
};
const std::vector<Workload>& workloads();

}  // namespace ashbench
