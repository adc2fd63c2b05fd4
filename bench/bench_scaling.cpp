// Receive scaling — aggregate remote-increment throughput vs offered load
// for the multi-queue receive path (DESIGN §"Receive scaling model").
//
// Not a paper figure: the paper runs every ASH synchronously from the
// driver, one interrupt per message. This bench records how far the
// multi-queue subsystem (per-CPU RX queues + interrupt coalescing +
// batched ASH dispatch) moves the serial receive bottleneck, as the
// repo's first forward-looking BENCH_* trajectory point.
//
// Setup: two nodes over a fast AN2 link (the link is deliberately
// over-provisioned so the server is the bottleneck), 8 VCs on the
// server each attached to one sandboxed remote-increment ASH, a client
// that offers bursty load round-robin across the VCs at a configured
// rate. Columns: the inline (paper) path, 1/2/4/8 queues with adaptive
// coalescing, and "offload" — 8 queues fronted by a smart-NIC processor
// (16 execution units per queue) running the handler on the device, so
// the host CPU never touches a consumed frame. Throughput is measured at
// the CLIENT as reply arrivals per second: replies release only when the
// serving side's charged work completes, so arrival rate is the true
// service rate. The client supplies no reply buffers — the device's
// per-VC drop counter then counts arrivals exactly, costing zero client
// CPU (polling the replies out would perturb the offered load).
//
// Flags: --smoke   two gates in one run: 4 queues must deliver >= 2x the
//                  1-queue throughput at saturating load (the ISSUE-5
//                  gate), and the offload column must deliver >= 5x the
//                  8-queue host ceiling (the ISSUE-9 gate); also a ctest
//                  target.
//        --json    emit the full sweep as JSON (BENCH_scaling.json).
#include "bench_util.hpp"

#include <cstring>
#include <memory>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "net/nic_offload.hpp"
#include "net/rx_queue.hpp"

namespace ash::bench {
namespace {

using sim::Process;
using sim::Task;
using sim::us;

constexpr int kVcs = 8;
constexpr int kBurst = 4;  // frames per VC before moving on (bursty load)

net::An2Config fast_link() {
  // Over-provisioned link AND client: serialization, per-packet, and tx
  // costs small enough that the serving side saturates first at every
  // queue count — including the device-offload column, whose service
  // rate is an order of magnitude past the 8-queue host ceiling.
  net::An2Config cfg;
  cfg.bandwidth_mbytes_per_sec = 1000.0;
  cfg.one_way_latency = us(5.0);
  cfg.per_packet_overhead = us(0.025);
  cfg.tx_kernel_work = us(0.025);
  return cfg;
}

/// One run: offered load in kmsg/s, `queues` == 0 means the inline path,
/// `units` > 0 fronts the queue set with a smart-NIC processor running
/// that many execution units per queue (NIC-resident handlers; the host
/// CPU never sees a consumed frame). Returns served throughput in kmsg/s.
double run_point(double offered_kmsgs, std::size_t queues, std::size_t units,
                 sim::Cycles window) {
  An2World w(fast_link());
  core::AshSystem ash_sys(*w.b);

  std::unique_ptr<net::RxQueueSet> rxq;
  std::unique_ptr<net::NicProcessor> nic;
  if (queues > 0) {
    net::RxQueueSet::Config qc;
    qc.queues = queues;
    qc.steering.mode = net::SteerMode::ChannelHash;
    qc.coalesce.enabled = true;
    qc.coalesce.max_frames = 8;
    qc.coalesce.max_delay = us(50.0);
    qc.coalesce.adaptive = true;
    rxq = std::make_unique<net::RxQueueSet>(*w.b, qc);
    w.dev_b->set_rx_queues(rxq.get());
    if (units > 0) {
      net::NicConfig nc;
      nc.units_per_queue = units;
      nc.queue_capacity = 512;
      nic = std::make_unique<net::NicProcessor>(*w.b, *rxq, nc);
      w.dev_b->set_nic(nic.get());
    }
  }

  // --- server: 8 VCs, one remote-increment ASH attached to each ---
  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    core::AshOptions opts;
    std::string error;
    const int id = ash_sys.download(self, ashlib::make_remote_increment(),
                                    opts, &error);
    const std::uint32_t ctr = self.segment().base + 0x80000;
    for (int v = 0; v < kVcs; ++v) {
      const int vc = w.dev_b->bind_vc(self);
      for (int i = 0; i < 64; ++i) {
        w.dev_b->supply_buffer(
            vc,
            self.segment().base +
                64u * static_cast<std::uint32_t>(v * 64 + i),
            64);
      }
      ash_sys.attach(*w.dev_b, vc, id, ctr);
    }
    co_await self.sleep_for(us(1e9));
  });

  // --- client: open-loop bursty sender, round-robin across VCs ---
  const sim::Cycles warmup = us(1000.0);
  // Fractional-cycle pacing: at the offload column's loads the period is
  // a few cycles, so accumulating a truncated integer period would
  // systematically over-offer.
  const double period = static_cast<double>(sim::us(1000.0)) / offered_kmsgs;
  const sim::Cycles t_end = warmup + window;
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    for (int v = 0; v < kVcs; ++v) w.dev_a->bind_vc(self);
    co_await self.sleep_for(warmup);
    const std::uint8_t ping[4] = {1, 2, 3, 4};
    double next = static_cast<double>(self.node().now());
    int vc = 0;
    int burst = 0;
    while (self.node().now() < t_end) {
      co_await self.compute(w.dev_a->config().tx_kernel_work);
      w.dev_a->send(vc, ping);
      if (++burst == kBurst) {
        burst = 0;
        vc = (vc + 1) % kVcs;
      }
      next += period;
      const auto next_cyc = static_cast<sim::Cycles>(next);
      if (next_cyc > self.node().now()) {
        co_await self.sleep_for(next_cyc - self.node().now());
      }
    }
  });

  // Measurement window: skip a settling prefix, then count reply arrivals
  // (client-side VC drops — see header comment) over the rest.
  const sim::Cycles t_start = warmup + us(2000.0);
  std::uint64_t start_count = 0, end_count = 0;
  const auto arrivals = [&w] {
    std::uint64_t n = 0;
    for (int v = 0; v < kVcs; ++v) n += w.dev_a->drops(v);
    return n;
  };
  w.a->queue().schedule_at(t_start, [&] { start_count = arrivals(); });
  w.a->queue().schedule_at(t_end, [&] { end_count = arrivals(); });
  w.sim.run(t_end + us(1.0));

  return static_cast<double>(end_count - start_count) /
         sim::to_us(t_end - t_start) * 1000.0;
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  if (smoke) {
    // Saturating points; the ISSUE-5 host gate and the ISSUE-9 offload
    // gate in one run.
    const ash::sim::Cycles window = ash::sim::us(20000.0);
    const double q1 = run_point(2000.0, 1, 0, window);
    const double q4 = run_point(2000.0, 4, 0, window);
    std::printf("bench_scaling --smoke: q1=%.1f kmsg/s q4=%.1f kmsg/s "
                "(%.2fx)\n",
                q1, q4, q4 / q1);
    if (!(q4 >= 2.0 * q1)) {
      std::printf("FAIL: expected >= 2x scaling from 1 to 4 queues\n");
      return 1;
    }
    const ash::sim::Cycles offload_window = ash::sim::us(10000.0);
    const double q8 = run_point(2000.0, 8, 0, offload_window);
    const double off = run_point(12000.0, 8, 16, offload_window);
    std::printf("bench_scaling --smoke: q8=%.1f kmsg/s offload=%.1f kmsg/s "
                "(%.2fx)\n",
                q8, off, off / q8);
    if (!(off >= 5.0 * q8)) {
      std::printf("FAIL: expected >= 5x the 8-queue host ceiling from the "
                  "NIC offload path\n");
      return 1;
    }
    std::printf("PASS\n");
    return 0;
  }

  const double offered[] = {100.0,  250.0,  500.0,  1000.0, 2000.0,
                            4000.0, 8000.0, 16000.0, 32000.0};
  const struct {
    const char* name;
    std::size_t queues;
    std::size_t units;
  } cols[] = {{"inline", 0, 0},   {"1 queue", 1, 0}, {"2 queues", 2, 0},
              {"4 queues", 4, 0}, {"8 queues", 8, 0}, {"offload", 8, 16}};

  std::vector<std::pair<double, std::vector<double>>> points;
  for (double load : offered) {
    // Past-saturation host points are pure queue-overflow churn; a
    // shorter window bounds the sweep's wall-clock without moving the
    // measured service rate.
    const ash::sim::Cycles window =
        load >= 4000.0 ? ash::sim::us(10000.0) : ash::sim::us(30000.0);
    std::vector<double> row;
    for (const auto& col : cols) {
      row.push_back(run_point(load, col.queues, col.units, window));
    }
    points.push_back({load, std::move(row)});
  }

  if (json) {
    std::printf("{\n  \"bench\": \"scaling\",\n  \"unit\": \"kmsg/s\",\n");
    std::printf("  \"offered_kmsgs\": [");
    for (std::size_t i = 0; i < std::size(offered); ++i) {
      std::printf("%s%.0f", i ? ", " : "", offered[i]);
    }
    std::printf("],\n  \"series\": {\n");
    for (std::size_t c = 0; c < std::size(cols); ++c) {
      std::printf("    \"%s\": [", cols[c].name);
      for (std::size_t i = 0; i < points.size(); ++i) {
        std::printf("%s%.1f", i ? ", " : "", points[i].second[c]);
      }
      std::printf("]%s\n", c + 1 < std::size(cols) ? "," : "");
    }
    std::printf("  }\n}\n");
    return 0;
  }

  std::vector<std::string> names;
  for (const auto& col : cols) names.push_back(col.name);
  print_series("Scaling", "remote-increment throughput vs offered load",
               "kmsg/s in", names, points, "kmsg/s served");
  return 0;
}
