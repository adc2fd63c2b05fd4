// Fig. 3 — user-level AN2 throughput versus packet size. The paper's curve
// rises with packet size and tops out at 16.11 MB/s for 4 KB packets
// (link max 16.8 MB/s).
#include "bench_util.hpp"

#include "proto/an2_link.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using sim::Process;
using sim::Task;
using sim::us;

/// Send a long train of `size`-byte packets from user level; the receiver
/// polls and recycles buffers. Throughput = payload bytes / elapsed.
double throughput_mbps(std::uint32_t size) {
  constexpr int kPackets = 192;
  An2World w;
  sim::Cycles t0 = 0, t1 = 0;
  int received = 0;

  w.b->kernel().spawn("sink", [&](Process& self) -> Task {
    An2Link::Config cfg;
    cfg.rx_buffers = 64;
    An2Link link(self, *w.dev_b, cfg);
    while (received < kPackets) {
      const net::RxDesc d = co_await link.recv();
      ++received;
      link.release(d);
    }
    t1 = self.node().now();
  });
  w.a->kernel().spawn("source", [&, size](Process& self) -> Task {
    An2Link link(self, *w.dev_a, {});
    co_await self.sleep_for(us(1000.0));
    const std::uint32_t buf = link.tx_alloc_ip(size);
    fill_pattern(self.node(), buf, size, 1);
    t0 = self.node().now();
    for (int i = 0; i < kPackets; ++i) {
      const bool sent = co_await link.send_ip(buf, size);
      (void)sent;
    }
  });
  w.sim.run(us(1e7));
  const double seconds = sim::to_us(t1 - t0) / 1e6;
  return static_cast<double>(size) * kPackets / seconds / 1e6;
}

}  // namespace
}  // namespace ash::bench

int main() {
  using namespace ash::bench;
  std::vector<std::pair<double, std::vector<double>>> points;
  for (std::uint32_t size : {64u, 128u, 256u, 512u, 1024u, 2048u, 3072u,
                             4096u}) {
    points.push_back({static_cast<double>(size), {throughput_mbps(size)}});
  }
  print_series("Fig. 3", "user-level AN2 throughput vs packet size",
               "bytes", {"measured MB/s"}, points, "MB/s");
  std::printf("paper: 16.11 MB/s at 4096 bytes; link max 16.8 MB/s\n");
  return 0;
}
