#include "proto/tcp.hpp"

#include <algorithm>
#include <cstring>

#include "sim/memops.hpp"
#include "sim/node.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"

namespace ash::proto {

TcpConnection::TcpConnection(Link& link, const TcpConfig& config)
    : link_(link), cfg_(config) {
  sim::Node& node = link.self().node();
  const std::uint32_t shm_base = link.carve(TcbShm::size_bytes());
  const std::uint32_t stage_cap = 2 * cfg_.window;
  const std::uint32_t stage_base = link.carve(stage_cap);
  const std::uint32_t ack_scratch = link.carve(tcb::kAckBufLen);

  shm_ = TcbShm(node, shm_base);
  for (std::uint32_t w = 0; w < tcb::kWords; ++w) shm_.set(w, 0);
  shm_.set(tcb::kStageBase, stage_base);
  shm_.set(tcb::kStageCap, stage_cap);
  shm_.set(tcb::kLocalPort, cfg_.local_port);
  shm_.set(tcb::kRemotePort, cfg_.remote_port);
  shm_.set(tcb::kLocalIp, cfg_.local_ip.value);
  shm_.set(tcb::kRemoteIp, cfg_.remote_ip.value);
  shm_.set(tcb::kAckScratch, ack_scratch);
  shm_.set(tcb::kChecksumOn, cfg_.checksum ? 1 : 0);
  flow_.init(host_, FlowKey{cfg_.remote_ip, cfg_.remote_port, cfg_.local_port},
             cfg_.iss);
  store_shared();

  // Pre-build the pure-ACK template a downloaded fast-path handler patches
  // and transmits (Section V-B): constant IP header (checksummed) and TCP
  // ports/flags; the handler fills seq/ack/window and the TCP checksum.
  {
    std::uint8_t* t = node.mem(ack_scratch, tcb::kAckBufLen);
    std::memset(t, 0, tcb::kAckBufLen);
    IpHeader aip;
    aip.protocol = kIpProtoTcp;
    aip.src = cfg_.local_ip;
    aip.dst = cfg_.remote_ip;
    aip.total_len = tcb::kAckPacketLen;
    aip.ident = 0;
    encode_ip({t, kIpHeaderLen}, aip);
    TcpHeader ath;
    ath.src_port = cfg_.local_port;
    ath.dst_port = cfg_.remote_port;
    ath.flags.ack = true;
    ath.window = static_cast<std::uint16_t>(cfg_.window);
    encode_tcp({t + kIpHeaderLen, kTcpHeaderLen}, ath);
    // Little-endian-word pseudo-header partial for the handler's checksum
    // arithmetic (it sums packet bytes as little-endian words).
    const std::uint32_t pseudo = util::cksum32_accumulate(
        util::cksum32_accumulate(util::bswap32(cfg_.local_ip.value),
                                 util::bswap32(cfg_.remote_ip.value)),
        0x0600u | (static_cast<std::uint32_t>(util::bswap16(20)) << 16));
    shm_.set(tcb::kAckPseudoSum, pseudo);
  }
}

void TcpConnection::store_shared() {
  shm_.set(tcb::kState, static_cast<std::uint32_t>(flow_.state()));
  shm_.set(tcb::kRcvNxt, flow_.rcv_nxt());
  shm_.set(tcb::kSndUna, flow_.snd_una());
  shm_.set(tcb::kSndNxt, flow_.snd_nxt());
  shm_.set(tcb::kSndWnd, flow_.peer_wnd());
  shm_.set(tcb::kSndCwnd, flow_.cwnd());
}

std::uint32_t TcpConnection::Host::rcv_space() const {
  const std::uint32_t used = c_.shm_.get(tcb::kStageUsed);
  return used >= c_.cfg_.window ? 0 : c_.cfg_.window - used;
}

void TcpConnection::Host::deliver(std::span<const std::uint8_t> bytes,
                                  bool reassembled, sim::Cycles* cycles) {
  sim::Node& node = link.self().node();
  TcbShm& shm = c_.shm_;
  const std::uint32_t base = shm.get(tcb::kStageBase);
  const std::uint32_t cap = shm.get(tcb::kStageCap);
  const std::uint32_t used = shm.get(tcb::kStageUsed);
  std::uint32_t wr = shm.get(tcb::kStageWr);
  if (used == 0) {
    wr = 0;
    shm.set(tcb::kStageRd, 0);
  }
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const std::uint32_t first = std::min(len, cap - wr);
  if (c_.cfg_.in_place || reassembled) {
    // In place, bytes move for simulation fidelity, free of charge.
    // Reassembled bytes live in host memory (copied out of a released
    // rx buffer) and are charged the copy loop the in-order path pays.
    std::memcpy(node.mem(base + wr, first), bytes.data(), first);
    if (first < len) {
      std::memcpy(node.mem(base, len - first), bytes.data() + first,
                  len - first);
    }
    if (!c_.cfg_.in_place) {
      // One store loop over the ring, its words running on across the
      // wrap.
      *cycles += node.cost().copy_loop_insns_per_word * ((len + 3) / 4);
      *cycles += node.dcache().stream_ring(base, cap, wr, len, true);
    }
  } else {
    // `bytes` point into the rx buffer in sim memory: charge the copy.
    const auto src =
        static_cast<std::uint32_t>(bytes.data() - node.mem(0, 1));
    *cycles += sim::memops::copy(node, base + wr, src, first);
    if (first < len) {
      *cycles += sim::memops::copy(node, base, src + first, len - first);
    }
  }
  shm.set(tcb::kStageWr, (wr + len) % cap);
  shm.set(tcb::kStageUsed, used + len);
}

sim::Sub<bool> TcpConnection::transmit(TcpFlow::Frame f) {
  co_await link_.self().compute(f.cycles);
  const bool sent = co_await link_.send_ip(f.pkt, f.len);
  co_return sent;
}

sim::Sub<void> TcpConnection::send_owed() {
  const auto control = [this](TcpFlow& f) { return f.next_control(host_); };
  for (TcpFlow::Frame fr = run(control); fr.len > 0; fr = run(control)) {
    const bool sent = co_await transmit(fr);
    (void)sent;
    if (fr.resent) run([this](TcpFlow& f) { f.rearm(host_); });
  }
  const TcpFlow::Frame fin =
      run([this](TcpFlow& f) { return f.next_fin(host_); });
  if (fin.len > 0) {
    const bool sent = co_await transmit(fin);
    (void)sent;
  }
  const auto ack = [this](TcpFlow& f) { return f.next_ack(host_); };
  for (TcpFlow::Frame fr = run(ack); fr.len > 0; fr = run(ack)) {
    const bool sent = co_await transmit(fr);
    (void)sent;
  }
}

sim::Sub<bool> TcpConnection::service_timers() {
  std::vector<sim::TimerWheel::Expired> fired;
  wheel_.advance(link_.self().node().now(), fired);
  if (fired.empty()) co_return true;
  const std::uint64_t aborts = stats_.aborts;
  for (const auto& t : fired) {
    run([&](TcpFlow& f) {
      f.on_timer(host_, static_cast<TcpFlow::TimerKind>(t.cookie));
    });
  }
  if (flow_.owes()) co_await send_owed();
  co_return stats_.aborts == aborts;
}

sim::Process::PollIdle TcpConnection::poll_idle() {
  // The next check that could differ from this one with no event in
  // between is the one that fires the next timer.
  return link_.self().poll_idle(wheel_.next_deadline().value_or(sim::kNever));
}

sim::Sub<void> TcpConnection::wait_step(sim::Cycles horizon) {
  sim::Node& node = link_.self().node();
  sim::Cycles timeout = horizon;
  const auto nd = wheel_.next_deadline();
  if (nd) {
    const sim::Cycles now = node.now();
    timeout = *nd > now ? std::min(horizon, *nd - now) : 0;
  }
  if (timeout > 0) {
    const auto d = co_await link_.recv_for(timeout);
    if (d) co_await process_packet(*d);
  }
  const bool alive = co_await service_timers();
  (void)alive;
}

sim::Sub<void> TcpConnection::process_packet(const net::RxDesc& d) {
  sim::Node& node = link_.self().node();
  const std::uint32_t ip_off = link_.rx_ip_offset();
  if (d.len < ip_off) {
    link_.release(d);
    co_return;
  }
  const std::uint8_t* p = node.mem(d.addr + ip_off, d.len - ip_off);
  ++stats_.segments_in;

  const auto ip = decode_ip({p, d.len - ip_off});
  std::optional<TcpHeader> tcp;
  std::uint32_t seg_len = 0;
  if (ip && ip->protocol == kIpProtoTcp && ip->dst == cfg_.local_ip) {
    seg_len = ip->total_len - kIpHeaderLen;
    tcp = decode_tcp({p + kIpHeaderLen, seg_len});
  }
  // One flow: a segment from any other host or port is not ours.
  if (!tcp ||
      !(FlowKey{ip->src, tcp->src_port, tcp->dst_port} == flow_.key())) {
    link_.release(d);
    co_return;
  }
  const std::span<const std::uint8_t> seg{p + kIpHeaderLen, seg_len};

  // Header prediction (RFC 1185-style fast path): established, plain
  // ACK(+data), exactly the next expected sequence number.
  const bool predicted =
      flow_.state() == TcpState::Established && tcp->flags.ack &&
      !tcp->flags.syn && !tcp->flags.fin && !tcp->flags.rst &&
      tcp->seq == shm_.get(tcb::kRcvNxt);
  ++(predicted ? stats_.fastpath_hits : stats_.slowpath);
  co_await link_.self().compute(predicted
                                    ? node.cost().tcp_fastpath_overhead
                                    : node.cost().tcp_slowpath_overhead);

  if (cfg_.checksum) {
    std::uint32_t acc = 0;
    const sim::Cycles ck =
        node.cost().udp_cksum_setup +
        sim::memops::cksum(node, d.addr + ip_off + kIpHeaderLen, seg_len,
                           &acc);
    co_await link_.self().compute(ck);
    if (!transport_checksum_ok_le(ip->src, ip->dst, kIpProtoTcp,
                                  static_cast<std::uint16_t>(seg_len), acc)) {
      ++stats_.cksum_failures;
      link_.release(d);
      co_return;
    }
  }

  shm_.set(tcb::kLibBusy, 1);
  sim::Cycles cycles = 0;
  if (flow_.state() != TcpState::Closed) {
    run([&](TcpFlow& f) {
      f.on_segment(host_, *tcp, seg.subspan(kTcpHeaderLen), &cycles);
    });
  } else if (listening_ && tcp->flags.syn && !tcp->flags.ack &&
             !tcp->flags.rst) {
    listening_ = false;  // one flow: this SYN is the one we accept
    run([&](TcpFlow& f) { f.open_passive(host_, *tcp); });
  }
  co_await link_.self().compute(cycles);
  shm_.set(tcb::kLibBusy, 0);
  link_.release(d);
  if (flow_.owes()) co_await send_owed();
}

sim::Sub<bool> TcpConnection::connect() {
  listening_ = false;
  run([this](TcpFlow& f) { f.open_active(host_); });
  co_await send_owed();
  while (flow_.state() != TcpState::Established) {
    if (flow_.state() == TcpState::Closed) co_return false;  // RST or retries
    co_await wait_step(flow_.rto());
  }
  co_return true;
}

sim::Sub<bool> TcpConnection::accept() {
  listening_ = true;
  while (flow_.state() != TcpState::Established) {
    // Closed again after taking a SYN: reset, or out of retries.
    if (flow_.state() == TcpState::Closed && !listening_) co_return false;
    co_await wait_step(flow_.rto());
  }
  co_return true;
}

sim::Sub<bool> TcpConnection::write_from(std::uint32_t app_addr,
                                         std::uint32_t len) {
  sim::Node& node = link_.self().node();
  const std::uint32_t end_seq = flow_.snd_nxt() + len;
  std::uint32_t sent = 0;
  const auto send = [&](std::uint32_t n, bool psh) {
    TcpFlags flags;
    flags.ack = true;
    flags.psh = psh;
    const std::span<const std::uint8_t> data{node.mem(app_addr + sent, n),
                                             n};
    return run([&](TcpFlow& f) { return f.emit(host_, flags, data, true); });
  };

  while (seq_lt(shm_.get(tcb::kSndUna), end_seq)) {
    if (flow_.state() == TcpState::Closed) co_return false;

    // Fill min(peer window, congestion window).
    while (sent < len) {
      const std::uint32_t chunk = std::min(
          run([this](TcpFlow& f) { return f.send_room(host_); }), len - sent);
      if (chunk == 0) break;
      const bool sent_ok = co_await transmit(send(chunk, sent + chunk == len));
      if (!sent_ok) co_return false;
      sent += chunk;
    }

    // Zero-window persist: the peer closed its window with nothing of
    // ours in flight; the probe byte comes from the application buffer.
    if (sent < len && run([this](TcpFlow& f) { return f.probe_due(host_); })) {
      const bool probed = co_await transmit(send(1, false));
      (void)probed;
      sent += 1;
      continue;
    }

    // Wait for ACK progress.
    if (handler_attached_) {
      const std::uint32_t before = shm_.get(tcb::kSndUna);
      const sim::Cycles deadline = node.now() + flow_.rto();
      while (shm_.get(tcb::kSndUna) == before) {
        if (auto d = link_.try_recv()) {
          co_await process_packet(*d);  // handler fallback path
          break;
        }
        if (node.now() >= deadline) break;
        co_await link_.self().poll_idle(deadline);
      }
      const std::uint32_t after = shm_.get(tcb::kSndUna);
      if (after == before) {
        // A segment may have landed between the last poll and the
        // deadline check; process it instead of discarding the dequeued
        // descriptor (which would lose the segment and leak its buffer).
        if (auto d = link_.try_recv()) {
          co_await process_packet(*d);
        } else {
          const bool alive = co_await service_timers();
          if (!alive) co_return false;
          if (wheel_.size() == 0) run([this](TcpFlow& f) { f.rearm(host_); });
        }
      } else if (seq_lt(before, after)) {
        // The downloaded handler consumed the ACKs: reconcile the
        // retransmit queue and grow the congestion window here.
        run([&](TcpFlow& f) { f.acked_unseen(host_, before); });
      }
    } else {
      co_await wait_step(flow_.rto());
    }
  }
  co_return true;
}

sim::Sub<std::uint32_t> TcpConnection::read(std::uint32_t app_addr,
                                            std::uint32_t max_len,
                                            bool copy) {
  sim::Node& node = link_.self().node();
  for (;;) {
    const std::uint32_t used = shm_.get(tcb::kStageUsed);
    if (used > 0) {
      const std::uint32_t base = shm_.get(tcb::kStageBase);
      const std::uint32_t cap = shm_.get(tcb::kStageCap);
      const std::uint32_t rd = shm_.get(tcb::kStageRd);
      const std::uint32_t n = std::min(used, max_len);
      sim::Cycles cycles = 0;
      if (copy) {
        const std::uint32_t first = std::min(n, cap - rd);
        cycles = sim::memops::copy(node, app_addr, base + rd, first);
        if (first < n) {
          cycles += sim::memops::copy(node, app_addr + first, base, n - first);
        }
      }
      shm_.set(tcb::kStageRd, (rd + n) % cap);
      shm_.set(tcb::kStageUsed, used - n);
      if (used - n == 0) {
        shm_.set(tcb::kStageRd, 0);
        shm_.set(tcb::kStageWr, 0);
      }
      if (handler_attached_) {
        cycles += node.cost().tcp_handler_read_overhead *
                  ((n + cfg_.mss - 1) / cfg_.mss);
      }
      co_await link_.self().compute(cycles);
      if (n > 0) run([this](TcpFlow& f) { f.consumed(host_); });
      if (flow_.owes()) co_await send_owed();  // a window update
      co_return n;
    }
    if (flow_.peer_fin() || flow_.state() == TcpState::Closed) co_return 0;

    if (handler_attached_) {
      if (auto d = link_.try_recv()) {
        co_await process_packet(*d);
      } else {
        const bool alive = co_await service_timers();
        if (!alive) co_return 0;
        co_await poll_idle();
      }
    } else {
      co_await wait_step(flow_.rto());
    }
  }
}

sim::Sub<void> TcpConnection::close() {
  run([this](TcpFlow& f) { f.close(host_); });
  co_await send_owed();
  while (flow_.state() != TcpState::Closed) {
    // In TIME_WAIT only the 2MSL clock (or a retransmitted FIN) matters.
    co_await wait_step(flow_.state() == TcpState::TimeWait ? cfg_.time_wait
                                                           : flow_.rto());
  }
}

}  // namespace ash::proto
