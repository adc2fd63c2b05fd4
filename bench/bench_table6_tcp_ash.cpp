// Table VI — TCP on the AN2 with the common-case receive path run as a
// sandboxed ASH, an unsafe ASH, an upcall, or in the user-level library
// (interrupt-driven or polling): 4-byte ping-pong latency, bulk
// throughput (MSS 3072, 8 KB writes), and small-MSS throughput (MSS 536,
// 4 KB writes).
#include "bench_util.hpp"

#include <algorithm>
#include <memory>

#include "ashlib/tcp_fastpath.hpp"
#include "proto/an2_link.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using proto::Ipv4Addr;
using proto::TcpConfig;
using proto::TcpConnection;
using sim::Process;
using sim::Task;
using sim::us;

const Ipv4Addr kIpA = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::of(10, 0, 0, 2);

enum class Mode { SandboxedAsh, UnsafeAsh, Upcall, UserInterrupt, UserPoll };

TcpConfig tcp_cfg(bool client, std::uint32_t mss) {
  TcpConfig c;
  c.local_ip = client ? kIpA : kIpB;
  c.remote_ip = client ? kIpB : kIpA;
  c.local_port = client ? 4000 : 5000;
  c.remote_port = client ? 5000 : 4000;
  c.iss = client ? 100 : 900;
  c.mss = mss;
  c.checksum = true;
  return c;
}

struct Side {
  std::unique_ptr<An2Link> link;
  std::unique_ptr<TcpConnection> conn;
};

/// Build one side's link+connection and install the fast path per mode.
Side make_side(Process& self, net::An2Device& dev, core::AshSystem& ash_sys,
               core::UpcallManager& upcalls, Mode mode, bool client,
               std::uint32_t mss) {
  Side s;
  An2Link::Config cfg;
  cfg.rx_buffers = 32;
  cfg.mode = mode == Mode::UserInterrupt ? proto::RecvMode::Interrupt
                                         : proto::RecvMode::Polling;
  s.link = std::make_unique<An2Link>(self, dev, cfg);
  s.conn = std::make_unique<TcpConnection>(*s.link, tcp_cfg(client, mss));
  if (mode == Mode::Upcall) {
    ashlib::install_tcp_fastpath_upcall(upcalls, dev, s.link->vc(), *s.conn);
  } else if (mode == Mode::SandboxedAsh || mode == Mode::UnsafeAsh) {
    core::AshOptions opts;
    opts.sandboxed = mode == Mode::SandboxedAsh;
    std::string error;
    const auto fp = ashlib::install_tcp_fastpath(ash_sys, dev, s.link->vc(),
                                                 *s.conn, opts, &error);
    if (!fp.has_value()) std::fprintf(stderr, "install: %s\n", error.c_str());
  }
  return s;
}

double latency_us(Mode mode) {
  constexpr int kIters = 16;
  An2World w;
  core::AshSystem ash_a(*w.a), ash_b(*w.b);
  core::UpcallManager up_a(*w.a), up_b(*w.b);
  sim::Cycles t0 = 0, t1 = 0;

  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    Side s = make_side(self, *w.dev_b, ash_b, up_b, mode, false, 3072);
    const bool ok = co_await s.conn->accept();
    (void)ok;
    const std::uint32_t app = self.segment().base;
    for (int i = 0; i < kIters; ++i) {
      const std::uint32_t n = co_await s.conn->read_into(app, 64);
      const bool sent = co_await s.conn->write_from(app, n);
      (void)sent;
    }
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    Side s = make_side(self, *w.dev_a, ash_a, up_a, mode, true, 3072);
    co_await self.sleep_for(us(500.0));
    const bool ok = co_await s.conn->connect();
    (void)ok;
    const std::uint32_t app = self.segment().base;
    fill_pattern(self.node(), app, 4, 9);
    t0 = self.node().now();
    for (int i = 0; i < kIters; ++i) {
      const bool sent = co_await s.conn->write_from(app, 4);
      (void)sent;
      (void)co_await s.conn->read_into(app + 32, 64);
    }
    t1 = self.node().now();
  });
  w.sim.run(us(5e6));
  return sim::to_us(t1 - t0) / kIters;
}

double throughput_mbps(Mode mode, std::uint32_t mss, std::uint32_t chunk,
                       std::uint32_t total) {
  An2World w;
  core::AshSystem ash_a(*w.a), ash_b(*w.b);
  core::UpcallManager up_a(*w.a), up_b(*w.b);
  sim::Cycles t0 = 0, t1 = 0;

  w.b->kernel().spawn("sink", [&](Process& self) -> Task {
    Side s = make_side(self, *w.dev_b, ash_b, up_b, mode, false, mss);
    const bool ok = co_await s.conn->accept();
    (void)ok;
    const std::uint32_t app = self.segment().base;
    std::uint32_t got = 0;
    while (got < total) {
      const std::uint32_t n = co_await s.conn->read_into(app, total - got);
      if (n == 0) break;
      got += n;
    }
    t1 = self.node().now();
  });
  w.a->kernel().spawn("source", [&](Process& self) -> Task {
    Side s = make_side(self, *w.dev_a, ash_a, up_a, mode, true, mss);
    co_await self.sleep_for(us(500.0));
    const bool ok = co_await s.conn->connect();
    (void)ok;
    const std::uint32_t app = self.segment().base;
    fill_pattern(self.node(), app, chunk, 11);
    t0 = self.node().now();
    for (std::uint32_t off = 0; off < total; off += chunk) {
      const bool sent =
          co_await s.conn->write_from(app, std::min(chunk, total - off));
      (void)sent;
    }
  });
  w.sim.run(us(6e7));
  const double seconds = sim::to_us(t1 - t0) / 1e6;
  return static_cast<double>(total) / seconds / 1e6;
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;
  std::uint32_t total = 2u << 20;  // paper: 10 MB; --full restores it
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--full") total = 10u << 20;
  }

  const struct {
    const char* name;
    Mode mode;
    double paper_lat, paper_thr, paper_small;
  } spec[] = {
      {"Sandboxed ASH", Mode::SandboxedAsh, 394, 4.32, 2.66},
      {"Unsafe ASH", Mode::UnsafeAsh, 348, 4.53, 3.05},
      {"Upcall", Mode::Upcall, 382, 4.27, 2.78},
      {"User-level (interrupt)", Mode::UserInterrupt, 459, 3.92, 2.32},
      {"User-level (polling)", Mode::UserPoll, 384, 4.11, 2.56},
  };

  std::vector<Row> rows;
  for (const auto& s : spec) {
    rows.push_back({std::string(s.name) + "  latency", latency_us(s.mode),
                    s.paper_lat, "us/RTT"});
  }
  for (const auto& s : spec) {
    rows.push_back({std::string(s.name) + "  throughput",
                    throughput_mbps(s.mode, 3072, 8192, total), s.paper_thr,
                    "MB/s"});
  }
  for (const auto& s : spec) {
    rows.push_back({std::string(s.name) + "  throughput (small MSS)",
                    throughput_mbps(s.mode, 536, 4096, total / 2),
                    s.paper_small, "MB/s"});
  }
  print_table("Table VI", "TCP with the fast path as ASH/upcall/library",
              rows);
  return 0;
}
