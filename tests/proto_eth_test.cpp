#include "proto/eth_link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "proto/an2_link.hpp"
#include "proto/tcp.hpp"
#include "proto/udp.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ash::proto {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

const Ipv4Addr kIpA = Ipv4Addr::of(192, 168, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::of(192, 168, 0, 2);
const MacAddr kMacA{{{2, 0, 0, 0, 0, 1}}};
const MacAddr kMacB{{{2, 0, 0, 0, 0, 2}}};

struct EthWorld {
  Simulator sim;
  Node* a;
  Node* b;
  net::EthernetDevice* dev_a;
  net::EthernetDevice* dev_b;

  EthWorld() {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    dev_a = new net::EthernetDevice(*a);
    dev_b = new net::EthernetDevice(*b);
    dev_a->connect(*dev_b);
  }
  ~EthWorld() {
    delete dev_a;
    delete dev_b;
  }

  EthLink::Config link_a() const { return {kMacA, kMacB}; }
  EthLink::Config link_b() const { return {kMacB, kMacA}; }
};

TEST(EthLink, UdpEchoOverEthernet) {
  EthWorld w;
  bool ok = false;
  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_b, w.link_b());
    UdpSocket sock(link, {kIpB, kIpA, 2000, 1000, true});
    for (int i = 0; i < 2; ++i) {
      auto dg = co_await sock.recv_in_place();
      const bool sent = co_await sock.send_from(dg.payload_addr,
                                                dg.payload_len);
      EXPECT_TRUE(sent);
      sock.release(dg);
    }
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_a, w.link_a());
    UdpSocket sock(link, {kIpA, kIpB, 1000, 2000, true});
    co_await self.sleep_for(us(500.0));
    const std::uint8_t ping[] = {0xab, 0xcd, 0xef, 0x01};
    for (int i = 0; i < 2; ++i) {
      const bool sent = co_await sock.send(ping);
      EXPECT_TRUE(sent);
      auto dg = co_await sock.recv_in_place();
      EXPECT_EQ(dg.payload_len, 4u);
      const std::uint8_t* p = w.a->mem(dg.payload_addr, 4);
      ok = p != nullptr && std::memcmp(p, ping, 4) == 0;
      sock.release(dg);
    }
  });
  w.sim.run(us(3e6));
  EXPECT_TRUE(ok);
}

TEST(EthLink, UdpLatencyNearTableII) {
  // Table II Ethernet row: UDP with checksum round trip around 380-400 us
  // (Table I raw Ethernet is 309 us; UDP adds the usual library costs).
  EthWorld w;
  sim::Cycles t0 = 0, t1 = 0;
  constexpr int kIters = 8;
  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_b, w.link_b());
    UdpSocket sock(link, {kIpB, kIpA, 2000, 1000, true});
    for (int i = 0; i < kIters; ++i) {
      auto dg = co_await sock.recv_in_place();
      const bool sent = co_await sock.send_from(dg.payload_addr,
                                                dg.payload_len);
      EXPECT_TRUE(sent);
      sock.release(dg);
    }
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_a, w.link_a());
    UdpSocket sock(link, {kIpA, kIpB, 1000, 2000, true});
    co_await self.sleep_for(us(1000.0));
    t0 = self.node().now();
    const std::uint8_t ping[] = {1, 2, 3, 4};
    for (int i = 0; i < kIters; ++i) {
      const bool sent = co_await sock.send(ping);
      EXPECT_TRUE(sent);
      auto dg = co_await sock.recv_in_place();
      sock.release(dg);
    }
    t1 = self.node().now();
  });
  w.sim.run(us(3e6));
  const double rtt = sim::to_us(t1 - t0) / kIters;
  EXPECT_GT(rtt, 350.0);
  EXPECT_LT(rtt, 460.0);
}

TEST(EthLink, TcpTransferOverEthernet) {
  EthWorld w;
  constexpr std::uint32_t kLen = 48 * 1024;
  bool data_ok = false;

  auto cfg_for = [](Ipv4Addr local, Ipv4Addr remote, std::uint16_t lp,
                    std::uint16_t rp, std::uint32_t iss) {
    TcpConfig c;
    c.local_ip = local;
    c.remote_ip = remote;
    c.local_port = lp;
    c.remote_port = rp;
    c.iss = iss;
    c.mss = 1456;  // fits a 1518-byte frame with all headers, word-aligned
    return c;
  };

  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_b, w.link_b());
    TcpConnection conn(link, cfg_for(kIpB, kIpA, 5000, 4000, 900));
    const bool accepted = co_await conn.accept();
    EXPECT_TRUE(accepted);
    const std::uint32_t buf = self.segment().base;
    std::uint32_t got = 0;
    while (got < kLen) {
      const std::uint32_t n = co_await conn.read_into(buf + got, kLen - got);
      if (n == 0) break;
      got += n;
    }
    util::Rng rng(21);
    bool ok = got == kLen;
    const std::uint8_t* p = w.b->mem(buf, kLen);
    for (std::uint32_t i = 0; i < kLen && ok; ++i) {
      ok = p[i] == static_cast<std::uint8_t>(rng.next());
    }
    data_ok = ok;
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_a, w.link_a());
    TcpConnection conn(link, cfg_for(kIpA, kIpB, 4000, 5000, 100));
    co_await self.sleep_for(us(500.0));
    const bool connected = co_await conn.connect();
    EXPECT_TRUE(connected);
    const std::uint32_t buf = self.segment().base;
    util::Rng rng(21);
    std::uint8_t* p = w.a->mem(buf, kLen);
    for (std::uint32_t i = 0; i < kLen; ++i) {
      p[i] = static_cast<std::uint8_t>(rng.next());
    }
    for (std::uint32_t off = 0; off < kLen; off += 8192) {
      const bool wrote =
          co_await conn.write_from(buf + off, std::min(8192u, kLen - off));
      EXPECT_TRUE(wrote);
    }
  });
  w.sim.run(us(5e6));
  EXPECT_TRUE(data_ok);
}

TEST(EthLink, DpfDemuxesTwoEndpointsByPort) {
  EthWorld w;
  int got_53 = 0, got_80 = 0;
  w.b->kernel().spawn("server", [&](Process& self) -> Task {
    EthLink::Config c53 = w.link_b();
    // UDP dst port lives at frame offset 14 + 20 + 2 = 36.
    c53.extra_atoms = {dpf::atom_be16(36, 53)};
    c53.rx_buffers = 4;
    EthLink link53(self, *w.dev_b, c53);
    EthLink::Config c80 = w.link_b();
    c80.extra_atoms = {dpf::atom_be16(36, 80)};
    c80.rx_buffers = 4;
    EthLink link80(self, *w.dev_b, c80);
    UdpSocket s53(link53, {kIpB, kIpA, 53, 1000, false});
    UdpSocket s80(link80, {kIpB, kIpA, 80, 1000, false});
    auto dg = co_await s53.recv_in_place();
    ++got_53;
    s53.release(dg);
    dg = co_await s80.recv_in_place();
    ++got_80;
    s80.release(dg);
  });
  w.a->kernel().spawn("client", [&](Process& self) -> Task {
    EthLink link(self, *w.dev_a, w.link_a());
    UdpSocket to53(link, {kIpA, kIpB, 1000, 53, false});
    UdpSocket to80(link, {kIpA, kIpB, 1000, 80, false});
    co_await self.sleep_for(us(500.0));
    const std::uint8_t m[] = {1, 2, 3, 4};
    bool sent = co_await to53.send(m);
    EXPECT_TRUE(sent);
    co_await self.sleep_for(us(500.0));
    sent = co_await to80.send(m);
    EXPECT_TRUE(sent);
  });
  w.sim.run(us(3e6));
  EXPECT_EQ(got_53, 1);
  EXPECT_EQ(got_80, 1);
}

// ---- The link contract, on both devices ----

/// Two nodes joined by either device, with a Link factory for each side.
struct LinkWorld {
  explicit LinkWorld(bool ethernet) : eth(ethernet) {
    a = &sim.add_node("a");
    b = &sim.add_node("b");
    if (eth) {
      eth_a = std::make_unique<net::EthernetDevice>(*a);
      eth_b = std::make_unique<net::EthernetDevice>(*b);
      eth_a->connect(*eth_b);
    } else {
      an2_a = std::make_unique<net::An2Device>(*a);
      an2_b = std::make_unique<net::An2Device>(*b);
      an2_a->connect(*an2_b);
    }
  }

  std::unique_ptr<Link> link(Process& self, bool side_a,
                             std::uint32_t rx_buffers = 16,
                             std::uint32_t buf_size = 1536) {
    if (eth) {
      EthLink::Config c = side_a ? EthLink::Config{kMacA, kMacB}
                                 : EthLink::Config{kMacB, kMacA};
      c.rx_buffers = rx_buffers;
      c.buf_size = buf_size;
      return std::make_unique<EthLink>(self, side_a ? *eth_a : *eth_b, c);
    }
    An2Link::Config c;
    c.rx_buffers = rx_buffers;
    c.buf_size = buf_size;
    return std::make_unique<An2Link>(self, side_a ? *an2_a : *an2_b, c);
  }
  net::RxPort& port_b() {
    return eth ? static_cast<net::RxPort&>(*eth_b) : *an2_b;
  }
  /// Bind the next channel on b's device directly.
  int bind_b(Process& self) {
    if (!eth) return an2_b->bind_vc(self);
    dpf::Filter f;
    f.atoms.push_back(dpf::atom_be16(12, kEtherTypeIp));
    return eth_b->attach(self, std::move(f));
  }
  /// The link header b's peer writes in front of each IP packet.
  std::vector<std::uint8_t> header_to_b() const {
    if (!eth) return {};
    std::vector<std::uint8_t> h(kMacB.bytes.begin(), kMacB.bytes.end());
    h.insert(h.end(), kMacA.bytes.begin(), kMacA.bytes.end());
    h.insert(h.end(), {0x08, 0x00});
    return h;
  }

  bool eth;
  Simulator sim;
  Node* a;
  Node* b;
  std::unique_ptr<net::An2Device> an2_a, an2_b;
  std::unique_ptr<net::EthernetDevice> eth_a, eth_b;
};

std::uint32_t midpoint(Process& self) {
  return self.segment().base + self.segment().size / 2;
}

/// Stage `ip_len` bytes of pattern and send them as one IP packet.
sim::Sub<bool> send_pattern(Link& link, std::uint32_t ip_len) {
  const std::uint32_t ip = link.tx_alloc_ip(ip_len);
  std::uint8_t* p = link.self().node().mem(ip, ip_len);
  for (std::uint32_t i = 0; i < ip_len; ++i) {
    p[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const bool sent = co_await link.send_ip(ip, ip_len);
  co_return sent;
}

TEST(Link, PoolRingAndCarveFollowTheSegmentMidpoint) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    bool got = false;
    w.b->kernel().spawn("rx", [&](Process& self) -> Task {
      // 3 x 1000 bytes: the ring starts off the 16-byte grid.
      auto link = w.link(self, false, 3, 1000);
      const std::uint32_t mid = midpoint(self);
      const std::uint32_t ring = mid + 3 * 1000;
      EXPECT_EQ(link->tx_alloc_ip(8), ring + link->rx_ip_offset());
      EXPECT_EQ(link->carve(1), (ring + 64 * 1024 + 15) & ~15u);
      const net::RxDesc d = co_await link->recv();
      EXPECT_EQ(d.addr, mid);
      got = true;
    });
    w.a->kernel().spawn("tx", [&](Process& self) -> Task {
      auto link = w.link(self, true);
      co_await self.sleep_for(us(500.0));
      const bool sent = co_await send_pattern(*link, 20);
      EXPECT_TRUE(sent);
    });
    w.sim.run(us(1e5));
    EXPECT_TRUE(got);
  }
}

TEST(Link, ReleaseOfAnInnerPointerReturnsTheWholeSlot) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    bool got_full = false;
    w.b->kernel().spawn("rx", [&](Process& self) -> Task {
      auto link = w.link(self, false, 1, 1536);
      const net::RxDesc d = co_await link->recv();
      EXPECT_EQ(w.port_b().free_buffers(0), 0u);
      link->release({d.addr + 7, 1});
      EXPECT_EQ(w.port_b().free_buffers(0), 1u);
      // A full-MTU frame only fits if the slot came back whole.
      const auto full = co_await link->recv_for(us(1e4));
      if (full) {
        EXPECT_EQ(full->addr, midpoint(self));
        EXPECT_EQ(full->len, link->rx_ip_offset() + link->ip_mtu());
        got_full = true;
      }
    });
    w.a->kernel().spawn("tx", [&](Process& self) -> Task {
      auto link = w.link(self, true);
      co_await self.sleep_for(us(500.0));
      bool sent = co_await send_pattern(*link, 20);
      EXPECT_TRUE(sent);
      co_await self.sleep_for(us(2000.0));
      sent = co_await send_pattern(*link, link->ip_mtu());
      EXPECT_TRUE(sent);
    });
    w.sim.run(us(1e5));
    EXPECT_TRUE(got_full);
  }
}

TEST(Link, TransmitRingWrapsToItsStart) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    bool ran = false;
    w.a->kernel().spawn("tx", [&](Process& self) -> Task {
      auto link = w.link(self, true);
      const std::uint32_t hdr = link->rx_ip_offset();
      const std::uint32_t first = link->tx_alloc_ip(30000);
      EXPECT_EQ(link->tx_alloc_ip(30000),
                first + ((hdr + 30000 + 3) & ~3u));
      EXPECT_EQ(link->tx_alloc_ip(30000), first);  // 3 x 30000 > 64 KB
      ran = true;
      co_return;
    });
    w.sim.run(us(1e4));
    EXPECT_TRUE(ran);
  }
}

TEST(Link, OversizeRingAllocationAndCarveThrow) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    bool ran = false;
    w.a->kernel().spawn("tx", [&](Process& self) -> Task {
      auto link = w.link(self, true);
      EXPECT_THROW(link->tx_alloc_ip(64 * 1024 + 1), std::length_error);
      EXPECT_THROW(link->carve(self.segment().size / 2), std::length_error);
      ran = true;
      co_return;
    });
    w.sim.run(us(1e4));
    EXPECT_TRUE(ran);
  }
}

TEST(Link, PoolThatDoesNotFitThrowsBeforeBindingAChannel) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    bool ran = false;
    w.b->kernel().spawn("rx", [&](Process& self) -> Task {
      const std::uint32_t too_many = self.segment().size / 2 / 1536 + 1;
      EXPECT_THROW(w.link(self, false, too_many, 1536), std::length_error);
      EXPECT_EQ(w.bind_b(self), 0);
      ran = true;
      co_return;
    });
    w.sim.run(us(1e4));
    EXPECT_TRUE(ran);
  }
}

TEST(Link, FramingOffsetAndMtuPerDevice) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    bool ran = false;
    w.a->kernel().spawn("tx", [&](Process& self) -> Task {
      auto link = w.link(self, true, 16, 2048);
      EXPECT_EQ(link->rx_ip_offset(), eth ? 14u : 0u);
      EXPECT_EQ(link->ip_mtu(), eth ? 1504u : 2048u);
      ran = true;
      co_return;
    });
    w.sim.run(us(1e4));
    EXPECT_TRUE(ran);
  }
}

TEST(Link, PeerReceivesTheLinkHeaderThenThePacket) {
  for (const bool eth : {false, true}) {
    SCOPED_TRACE(eth ? "Ethernet" : "AN2");
    LinkWorld w(eth);
    std::vector<std::uint8_t> frame;
    w.b->kernel().spawn("rx", [&](Process& self) -> Task {
      auto link = w.link(self, false);
      const net::RxDesc d = co_await link->recv();
      const std::uint8_t* p = self.node().mem(d.addr, d.len);
      frame.assign(p, p + d.len);
      link->release(d);
    });
    w.a->kernel().spawn("tx", [&](Process& self) -> Task {
      auto link = w.link(self, true);
      co_await self.sleep_for(us(500.0));
      const bool sent = co_await send_pattern(*link, 64);
      EXPECT_TRUE(sent);
    });
    w.sim.run(us(1e5));
    std::vector<std::uint8_t> want = w.header_to_b();
    for (std::uint32_t i = 0; i < 64; ++i) {
      want.push_back(static_cast<std::uint8_t>(i * 7 + 1));
    }
    EXPECT_EQ(frame, want);
  }
}

}  // namespace
}  // namespace ash::proto
