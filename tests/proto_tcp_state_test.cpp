// TcpFlow state-machine conformance: RST validation in every reachable
// state (RFC 5961 spirit), TIME_WAIT semantics (RFC 1337 RST immunity,
// FIN re-ACK with 2MSL restart, challenge ACKs), SYN_RCVD's answer to a
// retransmitted SYN, simultaneous close, zero-window persist probes
// against a full receiver, and the duplicate/out-of-order counter split.
//
// The raw-peer cases form one table run against both drivers of the
// machine: TcpEngineState.<Case> drives a TcpEngine, TcpConnState.<Case>
// the one-flow TcpConnection library. Sequence-validation cases script
// the peer by hand (a "raw peer" that encodes exact IP+TCP segments),
// because only a misbehaving peer can send what these paths must reject.
// Engine-vs-engine cases drive two TcpEngines over a clean AN2 link.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "proto/an2_link.hpp"
#include "proto/headers.hpp"
#include "proto/tcp.hpp"
#include "proto/tcp_engine.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::proto {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

const Ipv4Addr kIpA = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::of(10, 0, 0, 2);

/// Two nodes joined by a clean AN2 link.
struct World {
  Simulator sim;
  Node& a;
  Node& b;
  net::An2Device dev_a;
  net::An2Device dev_b;

  World() : a(sim.add_node("a")), b(sim.add_node("b")), dev_a(a), dev_b(b) {
    dev_a.connect(dev_b);
  }
};

TcpEngine::Config engine_cfg(Ipv4Addr ip, bool checksum = true) {
  TcpEngine::Config cfg;
  cfg.local_ip = ip;
  cfg.checksum = checksum;
  return cfg;
}

// ------------------------------------------------------------ raw peer

struct RawSeg {
  TcpHeader tcp;
  std::vector<std::uint8_t> payload;
};

/// Receive and decode the next TCP segment, releasing the frame.
sim::Sub<std::optional<RawSeg>> raw_recv(An2Link& link, sim::Cycles timeout) {
  const sim::Cycles deadline = link.self().node().now() + timeout;
  for (;;) {
    const sim::Cycles now = link.self().node().now();
    if (now >= deadline) co_return std::nullopt;
    const auto d = co_await link.recv_for(deadline - now);
    if (!d.has_value()) co_return std::nullopt;
    Node& node = link.self().node();
    const std::uint32_t off = link.rx_ip_offset();
    const std::uint8_t* p = node.mem(d->addr + off, d->len - off);
    const auto ip = decode_ip({p, d->len - off});
    std::optional<RawSeg> out;
    if (ip.has_value() && ip->protocol == kIpProtoTcp) {
      const std::uint32_t seg_len = ip->total_len - kIpHeaderLen;
      const auto tcp = decode_tcp({p + kIpHeaderLen, seg_len});
      if (tcp.has_value()) {
        RawSeg s;
        s.tcp = *tcp;
        s.payload.assign(p + kIpHeaderLen + kTcpHeaderLen,
                         p + kIpHeaderLen + seg_len);
        out = std::move(s);
      }
    }
    link.release(*d);
    if (out.has_value()) co_return out;
  }
}

/// Encode and transmit one hand-built segment with a valid checksum (most
/// cases run with checksum validation off). `corrupt` flips one payload
/// bit after checksumming, as a corrupting link would.
sim::Sub<void> raw_send(An2Link& link, Ipv4Addr src, Ipv4Addr dst,
                        TcpHeader tcp, std::span<const std::uint8_t> payload,
                        bool corrupt = false) {
  Node& node = link.self().node();
  const auto plen = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t total =
      static_cast<std::uint32_t>(kIpHeaderLen + kTcpHeaderLen) + plen;
  const std::uint32_t pkt = link.tx_alloc_ip(total);
  std::uint8_t* p = node.mem(pkt, total);
  tcp.checksum = 0;
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  if (plen > 0) {
    std::memcpy(p + kIpHeaderLen + kTcpHeaderLen, payload.data(), plen);
  }
  tcp.checksum = transport_checksum(src, dst, kIpProtoTcp,
                                    {p + kIpHeaderLen, kTcpHeaderLen + plen});
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  if (corrupt && plen > 0) p[kIpHeaderLen + kTcpHeaderLen + plen / 2] ^= 0x10;
  IpHeader ip;
  ip.protocol = kIpProtoTcp;
  ip.src = src;
  ip.dst = dst;
  ip.total_len = static_cast<std::uint16_t>(total);
  encode_ip({p, kIpHeaderLen}, ip);
  const bool sent = co_await link.send_ip(pkt, total);
  (void)sent;
}

TcpHeader make_seg(std::uint16_t src_port, std::uint16_t dst_port,
                   std::uint32_t seq, std::uint32_t ack, TcpFlags flags,
                   std::uint16_t window = 65535) {
  TcpHeader t;
  t.src_port = src_port;
  t.dst_port = dst_port;
  t.seq = seq;
  t.ack = ack;
  t.flags = flags;
  t.window = window;
  return t;
}

TcpFlags flags_of(bool syn, bool ack, bool fin = false, bool rst = false) {
  TcpFlags f;
  f.syn = syn;
  f.ack = ack;
  f.fin = fin;
  f.rst = rst;
  return f;
}

// ------------------------------------------------- drivers under test
//
// A table case runs the driver on node a (10.0.0.1) with checksums off,
// either connecting to 10.0.0.2:80 from port 4000 or listening on port 80
// (for a peer at port 5555); node b runs the raw peer.

struct Role {
  bool passive = false;
  bool close_on_established = false;  // else hold the flow until it ends
  bool checksum = false;              // turn checksum validation on
  sim::Cycles time_wait = us(10000.0);
  sim::Cycles run_for = us(500000.0);
};

/// What a case sees of the driver under test.
struct Observed {
  bool established = false;
  bool closed = false;
  sim::Cycles closed_at = 0;
  TcpStats stats{};
  /// The flow's state; set only while the driver runs.
  std::function<std::optional<TcpState>()> state;
};

struct EngineDriver {
  static void spawn(World& w, Observed& o, Role r) {
    w.a.kernel().spawn("engine", [&w, &o, r](Process& self) -> Task {
      An2Link link(self, w.dev_a, {});
      TcpEngine::Config cfg = engine_cfg(kIpA, r.checksum);
      cfg.time_wait = r.time_wait;
      TcpEngine eng(link, cfg);
      TcpEngine::ConnId id = 0;
      TcpEngine::Callbacks cbs;
      cbs.on_established = [&](TcpEngine::ConnId cid) {
        id = cid;
        o.established = true;
        if (r.close_on_established) eng.close(cid);
      };
      cbs.on_closed = [&](TcpEngine::ConnId) {
        o.closed = true;
        o.closed_at = w.a.now();
      };
      if (r.passive) {
        TcpEngine::ListenConfig lc;
        lc.callbacks = cbs;
        eng.listen(80, lc);
      } else {
        id = eng.connect(kIpB, 80, 4000, cbs);
        EXPECT_NE(id, 0u);
      }
      o.state = [&] { return eng.state(id); };
      co_await eng.run(o.closed, self.node().now() + r.run_for);
      o.stats = eng.stats();
      o.state = nullptr;
    });
  }
};

struct ConnDriver {
  static void spawn(World& w, Observed& o, Role r) {
    w.a.kernel().spawn("library", [&w, &o, r](Process& self) -> Task {
      An2Link link(self, w.dev_a, {});
      TcpConfig cfg;
      cfg.local_ip = kIpA;
      cfg.remote_ip = kIpB;
      cfg.local_port = r.passive ? 80 : 4000;
      cfg.remote_port = r.passive ? 5555 : 80;
      cfg.checksum = r.checksum;
      cfg.time_wait = r.time_wait;
      TcpConnection conn(link, cfg);
      o.state = [&] { return std::optional<TcpState>(conn.state()); };
      if (r.passive) {
        o.established = co_await conn.accept();
      } else {
        o.established = co_await conn.connect();
      }
      if (o.established && r.close_on_established) {
        co_await conn.close();
      } else if (o.established) {
        for (;;) {
          const std::uint32_t n =
              co_await conn.read_into(self.segment().base, 2048);
          if (n == 0) break;  // EOF or teardown
        }
      }
      o.closed = conn.state() == TcpState::Closed;
      o.closed_at = w.a.now();
      o.stats = conn.stats();
      o.state = nullptr;
    });
  }
};

/// One table row: the case, run against each driver.
#define TCP_STATE_CASE(Name, fn)                       \
  TEST(TcpEngineState, Name) { fn<EngineDriver>(); } \
  TEST(TcpConnState, Name) { fn<ConnDriver>(); }

// --------------------------------------------------------- RST handling

TEST(TcpEngineState, RstTearsDownSynSent) {
  // connect() to a host with no listener: the peer engine answers the
  // SYN with a RST whose ack covers it; the connecting flow must die
  // without ever reporting establishment.
  World w;
  bool established = false, closed = false, stop_b = false;
  TcpEngine::Stats stats_a{}, stats_b{};

  w.a.kernel().spawn("client", [&](Process& self) -> Task {
    An2Link link(self, w.dev_a, {});
    TcpEngine eng(link, engine_cfg(kIpA));
    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId) { established = true; };
    cbs.on_closed = [&](TcpEngine::ConnId) { closed = true; };
    const TcpEngine::ConnId id = eng.connect(kIpB, 80, 4000, cbs);
    EXPECT_NE(id, 0u);
    co_await eng.run(closed, self.node().now() + us(300000.0));
    stats_a = eng.stats();
    stop_b = true;
  });
  w.b.kernel().spawn("deaf-host", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    TcpEngine eng(link, engine_cfg(kIpB));  // no listener on any port
    co_await eng.run(stop_b, self.node().now() + us(400000.0));
    stats_b = eng.stats();
  });
  w.sim.run(us(1e6));

  EXPECT_TRUE(closed);
  EXPECT_FALSE(established);
  EXPECT_EQ(stats_a.rsts_received, 1u);
  EXPECT_EQ(stats_a.conns_closed, 1u);
  EXPECT_EQ(stats_b.unknown_flow_rsts, 1u);
  EXPECT_EQ(stats_b.rsts_sent, 1u);
}

/// Raw-peer side of an active open: take the SYN, answer with a SYN/ACK
/// at sequence 9000, and wait for the handshake ACK. The driver's ISS, or
/// nothing on failure.
sim::Sub<std::optional<std::uint32_t>> raw_accept(An2Link& link) {
  const auto syn = co_await raw_recv(link, us(100000.0));
  if (!syn.has_value() || !syn->tcp.flags.syn) {
    ADD_FAILURE() << "no SYN from the driver";
    co_return std::nullopt;
  }
  const std::uint32_t iss = syn->tcp.seq;
  co_await raw_send(link, kIpB, kIpA,
                    make_seg(80, 4000, 9000, iss + 1, flags_of(true, true)),
                    {});
  const auto hs_ack = co_await raw_recv(link, us(100000.0));
  if (!hs_ack.has_value()) {
    ADD_FAILURE() << "handshake ACK never arrived";
    co_return std::nullopt;
  }
  co_return iss;
}

template <class Driver>
void rst_from_raw_peer_tears_down_syn_sent() {
  // What a host with no listener answers a SYN with: RST|ACK covering
  // the SYN. The connecting flow must die without ever establishing.
  World w;
  Observed o;
  Driver::spawn(w, o, Role{.run_for = us(300000.0)});
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    const auto syn = co_await raw_recv(link, us(100000.0));
    if (!syn.has_value() || !syn->tcp.flags.syn) {
      ADD_FAILURE() << "no SYN from the driver";
      co_return;
    }
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(80, 4000, 0, syn->tcp.seq + 1, flags_of(false, true, false,
                                                        true)),
        {});
  });
  w.sim.run(us(1e6));

  EXPECT_TRUE(o.closed);
  EXPECT_FALSE(o.established);
  EXPECT_EQ(o.stats.rsts_received, 1u);
  EXPECT_EQ(o.stats.aborts, 1u);
}
TCP_STATE_CASE(RawPeerRstTearsDownSynSent,
               rst_from_raw_peer_tears_down_syn_sent)

template <class Driver>
void established_rst_requires_in_window_seq() {
  // Blind-reset protection: a RST outside the receive window is ignored
  // (counted), one at rcv_nxt kills the flow.
  World w;
  Observed o;
  Driver::spawn(w, o, Role{});
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    const auto iss = co_await raw_accept(link);
    if (!iss.has_value()) co_return;

    // Out of window by a wide margin (receive windows are 8-16 KB).
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(80, 4000, 9001 + 40000, 0, flags_of(false, false, false,
                                                     true)),
        {});
    co_await self.sleep_for(us(3000.0));
    EXPECT_TRUE(o.established);
    EXPECT_FALSE(o.closed);

    // Exactly at rcv_nxt: accepted.
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(80, 4000, 9001, 0, flags_of(false, false, false, true)),
        {});
  });
  w.sim.run(us(1e6));

  EXPECT_TRUE(o.established);
  EXPECT_TRUE(o.closed);
  EXPECT_EQ(o.stats.rsts_ignored, 1u);
  EXPECT_EQ(o.stats.rsts_received, 1u);
}
TCP_STATE_CASE(EstablishedRstRequiresInWindowSeq,
               established_rst_requires_in_window_seq)

template <class Driver>
void corrupt_segment_is_dropped_and_counted() {
  // With checksums on, a data segment with one flipped payload bit is
  // dropped before the flow sees it and counted; the intact copy that
  // follows is acknowledged.
  World w;
  Observed o;
  Driver::spawn(w, o, Role{.checksum = true});
  std::optional<std::uint32_t> ack_after_corrupt;
  std::optional<std::uint32_t> ack_after_intact;
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    const auto iss = co_await raw_accept(link);
    if (!iss.has_value()) co_return;
    const std::vector<std::uint8_t> data = {'c', 'h', 'e', 'c', 'k', 's',
                                            'u', 'm', 'm', 'e', 'd'};
    const TcpHeader seg =
        make_seg(80, 4000, 9001, *iss + 1, flags_of(false, true));
    co_await raw_send(link, kIpB, kIpA, seg, data, /*corrupt=*/true);
    const auto none = co_await raw_recv(link, us(20000.0));
    if (none.has_value()) ack_after_corrupt = none->tcp.ack;
    co_await raw_send(link, kIpB, kIpA, seg, data);
    const auto ack = co_await raw_recv(link, us(100000.0));
    if (ack.has_value()) ack_after_intact = ack->tcp.ack;
    const auto end = static_cast<std::uint32_t>(9001 + data.size());
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, end, 0,
                               flags_of(false, false, false, true)),
                      {});
  });
  w.sim.run(us(1e6));

  EXPECT_TRUE(o.established);
  EXPECT_TRUE(o.closed);
  EXPECT_EQ(o.stats.cksum_failures, 1u);
  EXPECT_FALSE(ack_after_corrupt.has_value() && *ack_after_corrupt != 9001u);
  EXPECT_EQ(ack_after_intact, std::optional<std::uint32_t>(9001 + 11));
}
TCP_STATE_CASE(RawPeerCorruptSegmentIsDroppedAndCounted,
               corrupt_segment_is_dropped_and_counted)

template <class Driver>
void syn_rcvd_retransmitted_syn_draws_synack() {
  // The peer's SYN is retransmitted because our SYN/ACK was lost: answer
  // at once with the same SYN/ACK instead of waiting out our RTO.
  World w;
  Observed o;
  Driver::spawn(w, o, Role{.passive = true});
  sim::Cycles synack_delay = 0;
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    co_await self.sleep_for(us(500.0));
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(5555, 80, 7000, 0, flags_of(true, false)), {});
    const auto synack = co_await raw_recv(link, us(100000.0));
    if (!synack.has_value()) {
      ADD_FAILURE() << "no SYN/ACK from the listener";
      co_return;
    }
    const sim::Cycles resent_at = self.node().now();
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(5555, 80, 7000, 0, flags_of(true, false)), {});
    // Well inside the 100 ms initial RTO.
    const auto again = co_await raw_recv(link, us(10000.0));
    if (!again.has_value()) {
      ADD_FAILURE() << "the retransmitted SYN drew no SYN/ACK";
      co_return;
    }
    synack_delay = self.node().now() - resent_at;
    EXPECT_TRUE(again->tcp.flags.syn && again->tcp.flags.ack);
    EXPECT_EQ(again->tcp.seq, synack->tcp.seq);
    EXPECT_EQ(again->tcp.ack, 7001u);

    // Complete the handshake, then reset the flow so the driver stops.
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(5555, 80, 7001, synack->tcp.seq + 1, flags_of(false, true)),
        {});
    co_await self.sleep_for(us(1000.0));
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(5555, 80, 7001, 0, flags_of(false, false, false, true)), {});
  });
  w.sim.run(us(1e6));

  EXPECT_GT(synack_delay, 0u);
  EXPECT_TRUE(o.established);
  EXPECT_TRUE(o.closed);
  EXPECT_EQ(o.stats.dup_segments, 1u);  // the retransmitted SYN
  EXPECT_EQ(o.stats.retransmits, 1u);   // the SYN/ACK it drew
  EXPECT_EQ(o.stats.rto_timeouts, 0u);
}
TCP_STATE_CASE(SynRcvdRetransmittedSynDrawsSynAck,
               syn_rcvd_retransmitted_syn_draws_synack)

TEST(TcpEngineState, SynRcvdRstReleasesTheBacklogSlot) {
  // A reset half-open connection must free its SYN-backlog slot without
  // ever reaching the accept callback.
  World w;
  bool established = false, stop_a = false;
  std::uint64_t closed_upcalls = 0;
  TcpEngine::Stats stats_a{};
  std::uint32_t pending_after = 999;
  std::uint64_t accepted_after = 999;

  w.a.kernel().spawn("listener", [&](Process& self) -> Task {
    An2Link link(self, w.dev_a, {});
    TcpEngine eng(link, engine_cfg(kIpA, /*checksum=*/false));
    TcpEngine::ListenConfig lc;
    lc.callbacks.on_established = [&](TcpEngine::ConnId) {
      established = true;
    };
    lc.callbacks.on_closed = [&](TcpEngine::ConnId) { ++closed_upcalls; };
    TcpEngine::TcpListener& l = eng.listen(80, lc);
    co_await eng.run(stop_a, self.node().now() + us(300000.0));
    stats_a = eng.stats();
    pending_after = l.pending;
    accepted_after = l.accepted;
  });
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    co_await self.sleep_for(us(500.0));
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(5555, 80, 7000, 0, flags_of(true, false)),
                      {});
    const auto synack = co_await raw_recv(link, us(100000.0));
    if (!synack.has_value()) {
      ADD_FAILURE() << "no SYN/ACK from the listener";
      stop_a = true;
      co_return;
    }
    EXPECT_TRUE(synack->tcp.flags.syn && synack->tcp.flags.ack);
    EXPECT_EQ(synack->tcp.ack, 7001u);

    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(5555, 80, 7001, 0, flags_of(false, false, false, true)),
        {});
    co_await self.sleep_for(us(5000.0));
    stop_a = true;
  });
  w.sim.run(us(1e6));

  EXPECT_FALSE(established);
  EXPECT_EQ(closed_upcalls, 1u);
  EXPECT_EQ(stats_a.rsts_received, 1u);
  EXPECT_EQ(stats_a.conns_closed, 1u);
  EXPECT_EQ(stats_a.conns_accepted, 0u);
  EXPECT_EQ(pending_after, 0u);
  EXPECT_EQ(accepted_after, 0u);
}

// ----------------------------------------------------------- TIME_WAIT

/// Raw-peer side of an active close: complete the driver's active open,
/// ACK its FIN (FIN_WAIT_2), send our own FIN and take the final ACK, so
/// the driver sits in TIME_WAIT. The driver's ISS, or nothing on failure.
sim::Sub<std::optional<std::uint32_t>> raw_reach_time_wait(Process& self,
                                                           An2Link& link) {
  const auto syn = co_await raw_recv(link, us(100000.0));
  if (!syn.has_value() || !syn->tcp.flags.syn) {
    ADD_FAILURE() << "no SYN from the driver";
    co_return std::nullopt;
  }
  const std::uint32_t iss = syn->tcp.seq;
  co_await raw_send(link, kIpB, kIpA,
                    make_seg(80, 4000, 9000, iss + 1, flags_of(true, true)),
                    {});
  // The handshake ACK may precede the FIN; skip to the FIN.
  std::optional<RawSeg> fin;
  do {
    fin = co_await raw_recv(link, us(100000.0));
  } while (fin.has_value() && !fin->tcp.flags.fin);
  if (!fin.has_value()) {
    ADD_FAILURE() << "the active closer never sent its FIN";
    co_return std::nullopt;
  }
  co_await raw_send(link, kIpB, kIpA,
                    make_seg(80, 4000, 9001, iss + 2, flags_of(false, true)),
                    {});
  co_await self.sleep_for(us(1000.0));
  co_await raw_send(
      link, kIpB, kIpA,
      make_seg(80, 4000, 9001, iss + 2, flags_of(false, true, true)), {});
  const auto last_ack = co_await raw_recv(link, us(100000.0));
  if (!last_ack.has_value()) {
    ADD_FAILURE() << "our FIN was never ACKed";
    co_return std::nullopt;
  }
  EXPECT_EQ(last_ack->tcp.ack, 9002u);
  co_return iss;
}

template <class Driver>
void time_wait_ignores_rst_re_acks_fin_and_expires() {
  World w;
  Observed o;
  sim::Cycles fin_resent_at = 0;
  bool saw_timewait_under_rst = false;
  const sim::Cycles kTimeWait = us(50000.0);
  Driver::spawn(w, o,
                Role{.close_on_established = true,
                     .time_wait = kTimeWait,
                     .run_for = us(1e6)});
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    const auto iss = co_await raw_reach_time_wait(self, link);
    if (!iss.has_value()) co_return;

    // RFC 1337: a RST must not shorten TIME_WAIT.
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(80, 4000, 9002, 0, flags_of(false, false, false, true)),
        {});
    co_await self.sleep_for(us(3000.0));
    if (o.state) {
      const auto st = o.state();
      saw_timewait_under_rst = st.has_value() && *st == TcpState::TimeWait;
    }

    // Retransmitted FIN (our "lost final ACK"): re-ACKed, 2MSL restarts.
    fin_resent_at = self.node().now();
    co_await raw_send(
        link, kIpB, kIpA,
        make_seg(80, 4000, 9001, *iss + 2, flags_of(false, true, true)), {});
    const auto re_ack = co_await raw_recv(link, us(100000.0));
    if (!re_ack.has_value()) {
      ADD_FAILURE() << "the dup FIN drew no re-ACK";
      co_return;
    }
    EXPECT_EQ(re_ack->tcp.ack, 9002u);

    // Anything else in TIME_WAIT draws a challenge ACK and a counter.
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9002, *iss + 2, flags_of(false, true)),
                      {});
    const auto challenge = co_await raw_recv(link, us(100000.0));
    EXPECT_TRUE(challenge.has_value());
  });
  w.sim.run(us(2e6));

  EXPECT_TRUE(saw_timewait_under_rst);
  EXPECT_TRUE(o.closed);
  EXPECT_GE(o.stats.rsts_ignored, 1u);
  EXPECT_GE(o.stats.timewait_drops, 1u);
  EXPECT_GE(o.stats.dup_segments, 1u);  // the retransmitted FIN
  EXPECT_EQ(o.stats.rsts_received, 0u);
  // The dup FIN restarted 2MSL: destruction happens a full period later.
  EXPECT_GE(o.closed_at, fin_resent_at + kTimeWait);
}
TCP_STATE_CASE(TimeWaitIgnoresRstReAcksFinAndExpires,
               time_wait_ignores_rst_re_acks_fin_and_expires)

template <class Driver>
void time_wait_in_window_segment_draws_ack() {
  // An in-window segment without FIN in TIME_WAIT is dropped, counted
  // once, and answered with an ACK of the peer's FIN.
  World w;
  Observed o;
  Driver::spawn(w, o,
                Role{.close_on_established = true,
                     .time_wait = us(50000.0),
                     .run_for = us(1e6)});
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    const auto iss = co_await raw_reach_time_wait(self, link);
    if (!iss.has_value()) co_return;
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9002, *iss + 2, flags_of(false, true)),
                      {});
    const auto ack = co_await raw_recv(link, us(10000.0));
    if (!ack.has_value()) {
      ADD_FAILURE() << "the in-window segment drew no ACK";
      co_return;
    }
    EXPECT_TRUE(ack->tcp.flags.ack);
    EXPECT_EQ(ack->tcp.ack, 9002u);
  });
  w.sim.run(us(2e6));

  EXPECT_TRUE(o.closed);
  EXPECT_EQ(o.stats.timewait_drops, 1u);
  EXPECT_EQ(o.stats.dup_segments, 0u);
}
TCP_STATE_CASE(TimeWaitInWindowSegmentDrawsAck,
               time_wait_in_window_segment_draws_ack)

// ---------------------------------------------------- simultaneous close

TEST(TcpEngineState, SimultaneousCloseReachesTimeWaitOnBothSides) {
  World w;
  const sim::Cycles kCloseAt = us(5000.0);
  bool est_a = false, est_b = false, closed_a = false, closed_b = false;
  bool timewait_a = false, timewait_b = false;
  TcpEngine::Stats stats_a{}, stats_b{};

  const auto drive = [&](Process& self, TcpEngine& eng, TcpEngine::ConnId& id,
                         bool& est, bool& closed,
                         bool& timewait) -> sim::Sub<void> {
    co_await eng.run(est, self.node().now() + us(100000.0));
    EXPECT_TRUE(est);
    if (!est) co_return;
    // Line both closers up on the same instant with a fine-grained wait,
    // so the FINs cross in flight (one-way latency exceeds the skew).
    while (self.node().now() < kCloseAt) {
      const bool got = co_await eng.step(us(20.0));
      (void)got;
    }
    eng.close(id);
    const sim::Cycles limit = self.node().now() + us(500000.0);
    while (!closed && self.node().now() < limit) {
      const auto st = eng.state(id);
      if (st.has_value() && *st == TcpState::TimeWait) timewait = true;
      const bool got = co_await eng.step(us(500.0));
      (void)got;
    }
  };

  w.a.kernel().spawn("a", [&](Process& self) -> Task {
    An2Link link(self, w.dev_a, {});
    TcpEngine::Config cfg = engine_cfg(kIpA);
    cfg.time_wait = us(20000.0);
    TcpEngine eng(link, cfg);
    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId) { est_a = true; };
    cbs.on_closed = [&](TcpEngine::ConnId) { closed_a = true; };
    TcpEngine::ConnId id = eng.connect(kIpB, 80, 4000, cbs);
    EXPECT_NE(id, 0u);
    co_await drive(self, eng, id, est_a, closed_a, timewait_a);
    stats_a = eng.stats();
  });
  w.b.kernel().spawn("b", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    TcpEngine::Config cfg = engine_cfg(kIpB);
    cfg.time_wait = us(20000.0);
    TcpEngine eng(link, cfg);
    TcpEngine::ConnId id = 0;
    TcpEngine::ListenConfig lc;
    lc.callbacks.on_established = [&](TcpEngine::ConnId cid) {
      id = cid;
      est_b = true;
    };
    lc.callbacks.on_closed = [&](TcpEngine::ConnId) { closed_b = true; };
    eng.listen(80, lc);
    co_await drive(self, eng, id, est_b, closed_b, timewait_b);
    stats_b = eng.stats();
  });
  w.sim.run(us(2e6));

  EXPECT_TRUE(closed_a);
  EXPECT_TRUE(closed_b);
  // Crossing FINs: BOTH sides are active closers, so both must pass
  // through TIME_WAIT (neither takes the CLOSE_WAIT/LAST_ACK path).
  EXPECT_TRUE(timewait_a);
  EXPECT_TRUE(timewait_b);
  EXPECT_EQ(stats_a.aborts, 0u);
  EXPECT_EQ(stats_b.aborts, 0u);
  EXPECT_EQ(stats_a.rsts_sent, 0u);
  EXPECT_EQ(stats_b.rsts_sent, 0u);
  EXPECT_EQ(stats_a.conns_closed, 1u);
  EXPECT_EQ(stats_b.conns_closed, 1u);
}

// ------------------------------------------------- zero-window persist

TEST(TcpEngineState, PersistProbesResolveZeroWindowStall) {
  // An 8 KB write against a 2 KB receiver that stops draining: the
  // sender must probe through the closed window instead of deadlocking,
  // and the receiver's sub-MSS drains must reopen the window (the
  // satellite fix: a window update fires on any 0 -> nonzero transition,
  // not only on full-MSS openings).
  constexpr std::uint32_t kLen = 8192;
  World w;
  bool closed_a = false, server_done = false;
  TcpEngine::Stats stats_a{}, stats_b{};
  std::string got;

  w.a.kernel().spawn("writer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_a, {});
    TcpEngine::Config cfg = engine_cfg(kIpA);
    cfg.rto = us(20000.0);
    cfg.min_rto = us(5000.0);
    cfg.max_retries = 20;
    TcpEngine eng(link, cfg);
    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId cid) {
      std::vector<std::uint8_t> data(kLen);
      for (std::uint32_t i = 0; i < kLen; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7);
      }
      eng.write(cid, data);
      eng.close(cid);  // FIN rides out after the buffer drains
    };
    cbs.on_closed = [&](TcpEngine::ConnId) { closed_a = true; };
    const TcpEngine::ConnId id = eng.connect(kIpB, 80, 4000, cbs);
    EXPECT_NE(id, 0u);
    co_await eng.run(closed_a, self.node().now() + us(3e6));
    stats_a = eng.stats();
  });
  w.b.kernel().spawn("slow-reader", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    TcpEngine::Config cfg = engine_cfg(kIpB);
    cfg.rcv_limit = 2048;
    TcpEngine eng(link, cfg);
    TcpEngine::ConnId id = 0;
    TcpEngine::ListenConfig lc;
    lc.callbacks.on_established = [&](TcpEngine::ConnId cid) { id = cid; };
    eng.listen(80, lc);

    // Let the window slam shut and stay shut long enough for probes.
    const sim::Cycles drain_start = self.node().now() + us(100000.0);
    while (self.node().now() < drain_start) {
      const bool got_frame = co_await eng.step(us(2000.0));
      (void)got_frame;
    }
    // Drain in sub-MSS sips until the whole stream (and EOF) arrives.
    const sim::Cycles limit = self.node().now() + us(3e6);
    while (self.node().now() < limit) {
      std::uint8_t buf[240];
      const std::size_t n = eng.read(id, buf, sizeof buf);
      got.append(reinterpret_cast<const char*>(buf), n);
      const bool eof = got.size() >= kLen && eng.at_eof(id);
      if (eof) break;
      const bool got_frame = co_await eng.step(us(1000.0));
      (void)got_frame;
    }
    eng.close(id);
    while (eng.open_connections() > 0 && self.node().now() < limit) {
      const bool got_frame = co_await eng.step(us(1000.0));
      (void)got_frame;
    }
    stats_b = eng.stats();
    server_done = true;
  });
  w.sim.run(us(4e6));

  ASSERT_TRUE(server_done);
  ASSERT_EQ(got.size(), kLen);
  bool intact = true;
  for (std::uint32_t i = 0; i < kLen; ++i) {
    intact &= static_cast<std::uint8_t>(got[i]) ==
              static_cast<std::uint8_t>(i * 7);
  }
  EXPECT_TRUE(intact);
  EXPECT_TRUE(closed_a);
  EXPECT_GE(stats_a.persist_probes, 1u);   // the window was probed
  EXPECT_GE(stats_b.window_updates, 1u);   // the 0 -> nonzero reopen fired
  EXPECT_GE(stats_b.rcv_overflow_drops, 1u);  // probes hit a full buffer
}

// ----------------------------------- duplicate vs out-of-order counters

TEST(TcpEngineState, DuplicateAndOutOfOrderCountersAreDistinct) {
  World w;
  bool stop_a = false;
  TcpEngine::Stats stats_a{};
  std::string got;

  w.a.kernel().spawn("receiver", [&](Process& self) -> Task {
    An2Link link(self, w.dev_a, {});
    TcpEngine eng(link, engine_cfg(kIpA, /*checksum=*/false));
    TcpEngine::Callbacks cbs;
    cbs.on_readable = [&](TcpEngine::ConnId cid) {
      std::uint8_t buf[2048];
      for (;;) {
        const std::size_t n = eng.read(cid, buf, sizeof buf);
        if (n == 0) break;
        got.append(reinterpret_cast<const char*>(buf), n);
      }
    };
    const TcpEngine::ConnId id = eng.connect(kIpB, 80, 4000, cbs);
    EXPECT_NE(id, 0u);
    co_await eng.run(stop_a, self.node().now() + us(500000.0));
    stats_a = eng.stats();
  });
  w.b.kernel().spawn("raw-peer", [&](Process& self) -> Task {
    An2Link link(self, w.dev_b, {});
    const auto syn = co_await raw_recv(link, us(100000.0));
    if (!syn.has_value() || !syn->tcp.flags.syn) {
      ADD_FAILURE() << "no SYN from the engine";
      co_return;
    }
    const std::uint32_t iss = syn->tcp.seq;
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9000, iss + 1, flags_of(true, true)),
                      {});
    const auto hs_ack = co_await raw_recv(link, us(100000.0));
    if (!hs_ack.has_value()) {
      ADD_FAILURE() << "handshake ACK never arrived";
      co_return;
    }

    std::vector<std::uint8_t> pat(1000);
    for (std::size_t i = 0; i < pat.size(); ++i) {
      pat[i] = static_cast<std::uint8_t>(i * 13);
    }
    const TcpFlags data = flags_of(false, true);

    // Second half first: buffered out of order, answered by a dup-ACK.
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9001 + 500, iss + 1, data),
                      std::span<const std::uint8_t>(pat).subspan(500));
    const auto dup_ack = co_await raw_recv(link, us(100000.0));
    if (!dup_ack.has_value()) {
      ADD_FAILURE() << "the out-of-order segment drew no dup-ACK";
      stop_a = true;
      co_return;
    }
    EXPECT_EQ(dup_ack->tcp.ack, 9001u);  // still asking for the gap

    // The gap: delivered, and the buffered half reassembles behind it.
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9001, iss + 1, data),
                      std::span<const std::uint8_t>(pat).first(500));
    co_await self.sleep_for(us(3000.0));

    // A stale retransmission of the first half: duplicate, not OOO.
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9001, iss + 1, data),
                      std::span<const std::uint8_t>(pat).first(500));
    // Far beyond the receive window: refused outright.
    co_await raw_send(link, kIpB, kIpA,
                      make_seg(80, 4000, 9001 + 40000, iss + 1, data),
                      std::span<const std::uint8_t>(pat).first(500));
    co_await self.sleep_for(us(5000.0));
    stop_a = true;
  });
  w.sim.run(us(1e6));

  ASSERT_EQ(got.size(), 1000u);
  bool intact = true;
  for (std::size_t i = 0; i < got.size(); ++i) {
    intact &= static_cast<std::uint8_t>(got[i]) ==
              static_cast<std::uint8_t>(i * 13);
  }
  EXPECT_TRUE(intact);
  EXPECT_EQ(stats_a.ooo_buffered, 1u);
  EXPECT_EQ(stats_a.ooo_reassembled, 500u);  // bytes pulled from the store
  EXPECT_GE(stats_a.dup_segments, 1u);       // the stale retransmission
  EXPECT_EQ(stats_a.ooo_dropped, 1u);        // the out-of-window segment
}

}  // namespace
}  // namespace ash::proto
