// Table I — raw 4-byte round-trip latency: in-kernel AN2, user-level AN2,
// and user-level Ethernet (microseconds per round trip).
#include "bench_util.hpp"

#include "proto/an2_link.hpp"
#include "proto/headers.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using sim::Process;
using sim::Task;
using sim::us;

constexpr int kIters = 32;

/// In-kernel AN2: both sides consume and reply from kernel receive hooks —
/// the best hand-written in-kernel path (no scheduling, no crossings).
double in_kernel_an2() {
  An2World w;
  int rtts = 0;
  sim::Cycles t0 = 0, t1 = 0;

  auto setup = [&](sim::Node* node, net::An2Device* dev, bool client) {
    node->kernel().spawn(client ? "client" : "server",
                         [&, node, dev, client](Process& self) -> Task {
      const int vc = dev->bind_vc(self);
      for (int i = 0; i < 32; ++i) {
        dev->supply_buffer(
            vc, self.segment().base + 64u * static_cast<std::uint32_t>(i),
            64);
      }
      dev->set_kernel_hook(vc, [&, node, dev,
                                client](const net::An2Device::RxEvent& ev) {
        if (client) {
          ++rtts;
          if (rtts == kIters) {
            t1 = node->now();
            return true;
          }
        }
        node->kernel_work(dev->config().tx_kernel_work, [dev, ev] {
          dev->send_from(0, ev.desc.addr, ev.desc.len);
        });
        return true;
      });
      co_await self.compute(1);
    });
  };
  setup(w.a, w.dev_a, true);
  setup(w.b, w.dev_b, false);
  w.sim.queue().schedule_at(us(100.0), [&] {
    t0 = w.a->now();
    const std::uint8_t m[] = {1, 2, 3, 4};
    w.dev_a->send(0, m);
  });
  w.sim.run(us(1e6));
  return sim::to_us(t1 - t0) / kIters;
}

/// User-level AN2: raw link access from polling processes with full system
/// calls on the send path.
double user_level_an2() {
  An2World w;
  sim::Cycles t0 = 0, t1 = 0;

  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    An2Link link(self, *w.dev_b, {});
    for (int i = 0; i < kIters; ++i) {
      const net::RxDesc d = co_await link.recv();
      const bool sent = co_await link.send_ip(d.addr, d.len);
      (void)sent;
      link.release(d);
    }
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    An2Link link(self, *w.dev_a, {});
    co_await self.sleep_for(us(1000.0));
    const std::uint8_t ping[] = {1, 2, 3, 4};
    t0 = self.node().now();
    for (int i = 0; i < kIters; ++i) {
      const bool sent = co_await link.send_bytes(ping);
      (void)sent;
      const net::RxDesc d = co_await link.recv();
      link.release(d);
    }
    t1 = self.node().now();
  });
  w.sim.run(us(1e6));
  return sim::to_us(t1 - t0) / kIters;
}

/// User-level Ethernet: raw 4-byte frames through DPF demux, polling.
double user_level_ethernet() {
  EthWorld w;
  sim::Cycles t0 = 0, t1 = 0;
  constexpr std::uint16_t kType = 0x88b5;  // local experimental ethertype

  auto echo = [&](sim::Node* node, net::EthernetDevice* dev, bool client) {
    node->kernel().spawn(client ? "client" : "server",
                         [&, node, dev, client](Process& self) -> Task {
      dpf::Filter f;
      f.atoms = {dpf::atom_be16(12, kType)};
      const int ep = dev->attach(self, f);
      for (int i = 0; i < 8; ++i) {
        dev->supply_buffer(
            ep, self.segment().base + 128u * static_cast<std::uint32_t>(i),
            128);
      }
      std::uint8_t frame[18] = {};
      frame[12] = kType >> 8;
      frame[13] = kType & 0xff;

      if (client) co_await self.sleep_for(us(2000.0));
      if (client) t0 = node->now();
      for (int i = 0; i < kIters; ++i) {
        if (client) {
          co_await self.syscall(dev->config().tx_kernel_work +
                                node->cost().an2_user_send_overhead);
          dev->send(frame);
        }
        const auto d = co_await dev->recv_until(self, ep, sim::kNever);
        dev->return_buffer(ep, d->addr, 128);
        if (!client) {
          co_await self.syscall(dev->config().tx_kernel_work +
                                node->cost().an2_user_send_overhead);
          dev->send(frame);
        }
      }
      if (client) t1 = node->now();
    });
  };
  echo(w.a, w.dev_a, true);
  echo(w.b, w.dev_b, false);
  w.sim.run(us(1e6));
  return sim::to_us(t1 - t0) / kIters;
}

}  // namespace
}  // namespace ash::bench

int main() {
  using namespace ash::bench;
  std::vector<Row> rows;
  rows.push_back({"in-kernel AN2", in_kernel_an2(), 112, "us/RTT"});
  rows.push_back({"user-level AN2", user_level_an2(), 182, "us/RTT"});
  rows.push_back({"Ethernet (user-level)", user_level_ethernet(), 309,
                  "us/RTT"});
  print_table("Table I", "raw 4-byte round-trip latency", rows);
  return 0;
}
