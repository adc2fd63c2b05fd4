#include "proto/tcp.hpp"

#include <algorithm>
#include <cstring>

#include "sim/node.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"

namespace ash::proto {

namespace {
constexpr std::uint32_t kSegHdrLen =
    static_cast<std::uint32_t>(kIpHeaderLen + kTcpHeaderLen);
}

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
  shm_.set(tcb::kSndWnd, cfg_.window);

  snd_nxt_ = cfg_.iss;
  shm_.set(tcb::kSndNxt, snd_nxt_);
  set_snd_una(cfg_.iss);
  set_state(TcpState::Closed);
  last_advertised_wnd_ = cfg_.window;

  rtt_ = RttEstimator(cfg_.rto, std::min(cfg_.min_rto, cfg_.rto),
                      cfg_.max_rto);
  rto_cur_ = cfg_.rto;
  cc_.reset(cfg_.mss, cfg_.window);
  shm_.set(tcb::kSndCwnd, cc_.cwnd());

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

void TcpConnection::set_state(TcpState s) {
  state_ = s;
  shm_.set(tcb::kState, static_cast<std::uint32_t>(s));
}

std::uint32_t TcpConnection::advertised_window() const {
  const std::uint32_t used = shm_.get(tcb::kStageUsed);
  return used >= cfg_.window ? 0 : cfg_.window - used;
}

void TcpConnection::cancel_timer(sim::TimerWheel::Id& id) {
  if (id != 0) {
    wheel_.cancel(id);
    id = 0;
  }
}

void TcpConnection::arm_retx_timer() {
  cancel_timer(retx_timer_);
  if (retx_.empty()) return;
  retx_timer_ =
      wheel_.arm(link_.self().node().now() + rto_cur_, kTimerRetx);
}

sim::Sub<bool> TcpConnection::send_segment(
    TcpFlags flags, std::span<const std::uint8_t> payload, bool queue_retx) {
  sim::Node& node = link_.self().node();
  const auto plen = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t total = kSegHdrLen + plen;
  const std::uint32_t pkt = link_.tx_alloc_ip(total);
  std::uint8_t* p = node.mem(pkt, total);

  const std::uint32_t seq = snd_nxt_;
  sim::Cycles cycles = plen > 0 || flags.syn || flags.fin
                           ? node.cost().tcp_send_overhead
                           : node.cost().tcp_ack_overhead;

  if (plen > 0) {
    std::memcpy(p + kSegHdrLen, payload.data(), plen);
    // Staging-copy cost (app buffer -> packet): loop + cache traffic.
    for (std::uint32_t off = 0; off < plen; off += 4) {
      cycles += node.cost().copy_loop_insns_per_word;
      cycles += node.dcache().access(pkt + kSegHdrLen + off,
                                     std::min(4u, plen - off), true);
    }
  }

  TcpHeader tcp;
  tcp.src_port = cfg_.local_port;
  tcp.dst_port = cfg_.remote_port;
  tcp.seq = seq;
  tcp.ack = flags.ack ? rcv_nxt() : 0;
  tcp.flags = flags;
  tcp.window = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(advertised_window(), 0xffff));
  tcp.checksum = 0;
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  last_advertised_wnd_ = advertised_window();

  if (cfg_.checksum) {
    std::uint32_t dummy = 0;
    cycles += node.cost().udp_cksum_setup;
    cycles += sim::memops::cksum(node, pkt + kIpHeaderLen,
                                 kTcpHeaderLen + plen, &dummy);
    tcp.checksum = transport_checksum(
        cfg_.local_ip, cfg_.remote_ip, kIpProtoTcp,
        {p + kIpHeaderLen, kTcpHeaderLen + plen});
    encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  }

  IpHeader ip;
  ip.protocol = kIpProtoTcp;
  ip.src = cfg_.local_ip;
  ip.dst = cfg_.remote_ip;
  ip.total_len = static_cast<std::uint16_t>(total);
  ip.ident = next_ident_++;
  encode_ip({p, kIpHeaderLen}, ip);

  const std::uint32_t consumed = plen + ((flags.syn || flags.fin) ? 1 : 0);
  snd_nxt_ = seq + consumed;
  shm_.set(tcb::kSndNxt, snd_nxt_);

  if (queue_retx && consumed > 0) {
    retx_.push_back(RetxSegment{
        seq, std::vector<std::uint8_t>(payload.begin(), payload.end()),
        flags, 0});
    if (retx_timer_ == 0) arm_retx_timer();
    // Time one segment per flight window (RFC 6298 / Karn): the sample
    // ends when this segment's last byte is acknowledged.
    if (!rtt_pending_) {
      rtt_pending_ = true;
      rtt_seq_ = seq + consumed;
      rtt_sent_at_ = node.now();
    }
  }
  if (plen == 0 && !flags.syn && !flags.fin) ++stats_.acks_sent;

  co_await link_.self().compute(cycles);
  const bool sent = co_await link_.send_ip(pkt, total);
  co_return sent;
}

sim::Sub<bool> TcpConnection::send_ack() {
  TcpFlags flags;
  flags.ack = true;
  const bool sent = co_await send_segment(flags, {}, /*queue_retx=*/false);
  co_return sent;
}

sim::Sub<void> TcpConnection::send_rst(std::uint32_t seq, std::uint32_t ack,
                                       bool with_ack) {
  sim::Node& node = link_.self().node();
  const std::uint32_t pkt = link_.tx_alloc_ip(kSegHdrLen);
  std::uint8_t* p = node.mem(pkt, kSegHdrLen);

  TcpHeader tcp;
  tcp.src_port = cfg_.local_port;
  tcp.dst_port = cfg_.remote_port;
  tcp.seq = seq;
  tcp.ack = with_ack ? ack : 0;
  tcp.flags.rst = true;
  tcp.flags.ack = with_ack;
  tcp.window = 0;
  tcp.checksum = 0;
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  if (cfg_.checksum) {
    tcp.checksum =
        transport_checksum(cfg_.local_ip, cfg_.remote_ip, kIpProtoTcp,
                           {p + kIpHeaderLen, kTcpHeaderLen});
    encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  }
  IpHeader ip;
  ip.protocol = kIpProtoTcp;
  ip.src = cfg_.local_ip;
  ip.dst = cfg_.remote_ip;
  ip.total_len = static_cast<std::uint16_t>(kSegHdrLen);
  ip.ident = next_ident_++;
  encode_ip({p, kIpHeaderLen}, ip);

  ++stats_.rsts_sent;
  co_await link_.self().compute(node.cost().tcp_ack_overhead);
  co_await link_.send_ip(pkt, kSegHdrLen);
}

void TcpConnection::abort_connection() {
  ++stats_.aborts;
  retx_.clear();
  ooo_.clear();
  dup_acks_ = 0;
  rtt_pending_ = false;
  persist_fire_ = false;
  cancel_timer(retx_timer_);
  cancel_timer(persist_timer_);
  cancel_timer(timewait_timer_);
  // Readers must not block waiting for data that can no longer arrive.
  peer_fin_seen_ = true;
  listening_ = false;
  set_state(TcpState::Closed);
}

void TcpConnection::process_rst(const TcpHeader& tcp) {
  bool acceptable = false;
  switch (state_) {
    case TcpState::Closed:
      return;  // nothing to reset
    case TcpState::SynSent:
      // RFC 793: in SYN_SENT a RST is valid only if it acks our SYN.
      acceptable = tcp.flags.ack && tcp.ack == snd_nxt_;
      break;
    case TcpState::TimeWait:
      // RFC 1337: ignore RSTs in TIME_WAIT (TIME-WAIT assassination).
      ++stats_.rsts_ignored;
      return;
    default: {
      // RFC 5961-style: the RST's sequence must fall in the receive
      // window (always at least one sequence number wide).
      const std::uint32_t wnd = std::max(advertised_window(), 1u);
      acceptable =
          seq_le(rcv_nxt(), tcp.seq) && seq_lt(tcp.seq, rcv_nxt() + wnd);
      break;
    }
  }
  if (acceptable) {
    ++stats_.rsts_received;
    abort_connection();
  } else {
    ++stats_.rsts_ignored;
  }
}

void TcpConnection::reap_acked(std::uint32_t ack) {
  bool popped = false;
  while (!retx_.empty()) {
    const RetxSegment& seg = retx_.front();
    const std::uint32_t consumed =
        static_cast<std::uint32_t>(seg.payload.size()) +
        ((seg.flags.syn || seg.flags.fin) ? 1 : 0);
    if (seq_le(seg.seq + consumed, ack)) {
      retx_.pop_front();
      popped = true;
    } else {
      break;
    }
  }
  if (popped || retx_.empty()) arm_retx_timer();
}

sim::Sub<bool> TcpConnection::resend_front(bool count_retry) {
  if (retx_.empty()) co_return true;
  RetxSegment& seg = retx_.front();
  if (count_retry && ++seg.retries > cfg_.max_retries) {
    // Retry budget exhausted: the peer is unreachable. A bare `false`
    // here used to strand a half-open TCB (state Established, segments
    // still queued, shared TCB claiming liveness); tear it all down.
    abort_connection();
    co_return false;
  }
  ++stats_.retransmits;
  rtt_pending_ = false;  // Karn: never time a retransmitted flight

  // Rebuild the segment with its original sequence number.
  sim::Node& node = link_.self().node();
  const auto plen = static_cast<std::uint32_t>(seg.payload.size());
  const std::uint32_t total = kSegHdrLen + plen;
  const std::uint32_t pkt = link_.tx_alloc_ip(total);
  std::uint8_t* p = node.mem(pkt, total);
  if (plen > 0) std::memcpy(p + kSegHdrLen, seg.payload.data(), plen);

  TcpHeader tcp;
  tcp.src_port = cfg_.local_port;
  tcp.dst_port = cfg_.remote_port;
  tcp.seq = seg.seq;
  tcp.ack = seg.flags.ack ? rcv_nxt() : 0;
  tcp.flags = seg.flags;
  tcp.window = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(advertised_window(), 0xffff));
  tcp.checksum = 0;
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  if (cfg_.checksum) {
    tcp.checksum = transport_checksum(
        cfg_.local_ip, cfg_.remote_ip, kIpProtoTcp,
        {p + kIpHeaderLen, kTcpHeaderLen + plen});
    encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  }
  IpHeader ip;
  ip.protocol = kIpProtoTcp;
  ip.src = cfg_.local_ip;
  ip.dst = cfg_.remote_ip;
  ip.total_len = static_cast<std::uint16_t>(total);
  ip.ident = next_ident_++;
  encode_ip({p, kIpHeaderLen}, ip);

  co_await link_.self().compute(link_.self().node().cost().tcp_send_overhead);
  co_await link_.send_ip(pkt, total);
  co_return true;
}

sim::Sub<bool> TcpConnection::service_timers() {
  sim::Node& node = link_.self().node();
  std::vector<sim::TimerWheel::Expired> fired;
  wheel_.advance(node.now(), fired);
  for (const auto& t : fired) {
    switch (t.cookie) {
      case kTimerRetx: {
        retx_timer_ = 0;
        if (retx_.empty()) break;
        ++stats_.rto_timeouts;
        cc_.on_timeout(snd_nxt_ - snd_una());
        shm_.set(tcb::kSndCwnd, cc_.cwnd());
        rto_cur_ = std::min(rto_cur_ * 2, cfg_.max_rto);  // backoff
        dup_acks_ = 0;
        const bool alive = co_await resend_front(/*count_retry=*/true);
        if (!alive) co_return false;
        arm_retx_timer();
        break;
      }
      case kTimerPersist:
        persist_timer_ = 0;
        persist_fire_ = true;  // the writer sends the probe byte
        break;
      case kTimerTimeWait:
        timewait_timer_ = 0;
        if (state_ == TcpState::TimeWait) {
          retx_.clear();
          set_state(TcpState::Closed);
        }
        break;
      default:
        break;
    }
  }
  co_return true;
}

sim::Process::PollIdle TcpConnection::poll_idle() {
  // The next check that could differ from this one with no event in
  // between is the one that fires the next timer.
  return link_.self().poll_idle(wheel_.next_deadline().value_or(sim::kNever));
}

sim::Sub<bool> TcpConnection::wait_step(sim::Cycles horizon) {
  sim::Node& node = link_.self().node();
  sim::Cycles timeout = horizon;
  const auto nd = wheel_.next_deadline();
  if (nd) {
    const sim::Cycles now = node.now();
    timeout = *nd > now ? std::min(horizon, *nd - now) : 0;
  }
  bool got = false;
  if (timeout > 0) {
    auto d = co_await link_.recv_for(timeout);
    if (d) {
      co_await process_packet(*d);
      got = true;
    }
  }
  const bool alive = co_await service_timers();
  co_return got && alive;
}

void TcpConnection::enter_time_wait() {
  cancel_timer(retx_timer_);
  cancel_timer(persist_timer_);
  cancel_timer(timewait_timer_);
  set_state(TcpState::TimeWait);
  timewait_timer_ =
      wheel_.arm(link_.self().node().now() + cfg_.time_wait, kTimerTimeWait);
}

void TcpConnection::maybe_finish_close() {
  if (snd_una() != snd_nxt_) return;  // our FIN not yet acknowledged
  if (state_ == TcpState::FinSent && peer_fin_seen_) {
    enter_time_wait();
  } else if (state_ == TcpState::LastAck) {
    cancel_timer(retx_timer_);
    set_state(TcpState::Closed);
  }
}

void TcpConnection::stage_append(const std::uint8_t* data, std::uint32_t len,
                                 sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  const std::uint32_t base = shm_.get(tcb::kStageBase);
  const std::uint32_t cap = shm_.get(tcb::kStageCap);
  std::uint32_t wr = shm_.get(tcb::kStageWr);
  std::uint32_t used = shm_.get(tcb::kStageUsed);
  if (used == 0) {
    wr = 0;
    shm_.set(tcb::kStageRd, 0);
  }

  // `data` points into sim memory (the rx buffer); compute its sim address
  // from the node's base pointer so the copy is charged properly.
  const std::uint32_t src_addr =
      static_cast<std::uint32_t>(data - node.mem(0, 1));

  std::uint32_t first = std::min(len, cap - wr);
  if (cfg_.in_place) {
    // Zero-copy mode: bytes move for simulation fidelity, free of charge.
    std::memcpy(node.mem(base + wr, first), node.mem(src_addr, first), first);
    if (first < len) {
      std::memcpy(node.mem(base, len - first),
                  node.mem(src_addr + first, len - first), len - first);
    }
  } else {
    *cycles += sim::memops::copy(node, base + wr, src_addr, first);
    if (first < len) {
      *cycles += sim::memops::copy(node, base, src_addr + first, len - first);
    }
  }
  wr = (wr + len) % cap;
  used += len;
  shm_.set(tcb::kStageWr, wr);
  shm_.set(tcb::kStageUsed, used);
}

void TcpConnection::drain_ooo(sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  for (;;) {
    const std::uint32_t used = shm_.get(tcb::kStageUsed);
    const std::uint32_t cap = shm_.get(tcb::kStageCap);
    if (used >= cap) return;
    const bool have = ooo_.contiguous_at(rcv_nxt());
    if (!have) return;
    std::vector<std::uint8_t> run = ooo_.pop_contiguous(rcv_nxt(), cap - used);
    if (run.empty()) return;
    // The bytes live in host memory (they were copied out of a released
    // rx buffer); stage them via a scratch copy in the rx area of sim
    // memory is unnecessary — append directly and charge the same copy
    // cost the in-order path pays.
    const std::uint32_t base = shm_.get(tcb::kStageBase);
    std::uint32_t wr = shm_.get(tcb::kStageWr);
    std::uint32_t u = used;
    if (u == 0) {
      wr = 0;
      shm_.set(tcb::kStageRd, 0);
    }
    const std::uint32_t len = static_cast<std::uint32_t>(run.size());
    const std::uint32_t first = std::min(len, cap - wr);
    std::memcpy(node.mem(base + wr, first), run.data(), first);
    if (first < len) {
      std::memcpy(node.mem(base, len - first), run.data() + first,
                  len - first);
    }
    if (!cfg_.in_place) {
      for (std::uint32_t off = 0; off < len; off += 4) {
        *cycles += node.cost().copy_loop_insns_per_word;
        *cycles += node.dcache().access(base + ((wr + off) % cap),
                                        std::min(4u, len - off), true);
      }
    }
    shm_.set(tcb::kStageWr, (wr + len) % cap);
    shm_.set(tcb::kStageUsed, u + len);
    set_rcv_nxt(rcv_nxt() + len);
    stats_.ooo_reassembled += len;
  }
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
  if (!ip || ip->protocol != kIpProtoTcp || ip->dst != cfg_.local_ip) {
    link_.release(d);
    co_return;
  }
  const std::uint32_t seg_len = ip->total_len - kIpHeaderLen;
  const auto tcp = decode_tcp({p + kIpHeaderLen, seg_len});
  if (!tcp || tcp->dst_port != cfg_.local_port ||
      (state_ != TcpState::Closed && tcp->src_port != cfg_.remote_port)) {
    link_.release(d);
    co_return;
  }
  const std::uint32_t plen =
      seg_len - static_cast<std::uint32_t>(kTcpHeaderLen);

  // Header prediction (RFC 1185-style fast path): established, plain
  // ACK(+data), exactly the next expected sequence number.
  const bool predicted =
      state_ == TcpState::Established && tcp->flags.ack && !tcp->flags.syn &&
      !tcp->flags.fin && !tcp->flags.rst && tcp->seq == rcv_nxt();
  if (predicted) {
    ++stats_.fastpath_hits;
  } else {
    ++stats_.slowpath;
  }
  co_await link_.self().compute(predicted
                                    ? node.cost().tcp_fastpath_overhead
                                    : node.cost().tcp_slowpath_overhead);

  if (cfg_.checksum) {
    std::uint32_t dummy = 0;
    const sim::Cycles ck =
        node.cost().udp_cksum_setup +
        sim::memops::cksum(node, d.addr + ip_off + kIpHeaderLen, seg_len,
                           &dummy);
    co_await link_.self().compute(ck);
    std::uint32_t acc = pseudo_header_sum(
        ip->src, ip->dst, kIpProtoTcp, static_cast<std::uint16_t>(seg_len));
    acc = util::cksum_partial({p + kIpHeaderLen, seg_len}, acc);
    if (util::fold16(acc) != 0xffff) {
      ++stats_.cksum_failures;
      link_.release(d);
      co_return;
    }
  }

  shm_.set(tcb::kLibBusy, 1);

  // --- RST ---
  if (tcp->flags.rst) {
    process_rst(*tcp);
    shm_.set(tcb::kLibBusy, 0);
    link_.release(d);
    co_return;
  }

  bool ack_needed = false;

  // --- ACK processing ---
  if (tcp->flags.ack && state_ != TcpState::Closed) {
    const std::uint32_t una_before = snd_una();
    if (seq_lt(una_before, tcp->ack) && seq_le(tcp->ack, snd_nxt_)) {
      // New data acknowledged.
      set_snd_una(tcp->ack);
      reap_acked(tcp->ack);
      const std::uint32_t acked = tcp->ack - una_before;
      cc_.on_ack(acked);
      shm_.set(tcb::kSndCwnd, cc_.cwnd());
      dup_acks_ = 0;
      if (rtt_pending_ && seq_le(rtt_seq_, tcp->ack)) {
        rtt_.sample(node.now() - rtt_sent_at_);
        rtt_pending_ = false;
      }
      rto_cur_ = rtt_.rto();  // fresh ACK resets any backoff
    } else if (tcp->ack == una_before && plen == 0 && !tcp->flags.syn &&
               !tcp->flags.fin && seq_lt(una_before, snd_nxt_) &&
               state_ == TcpState::Established) {
      // Duplicate ACK with data outstanding: three trigger a fast
      // retransmit of the presumed-lost front segment (RFC 5681).
      if (++dup_acks_ == 3) {
        dup_acks_ = 0;
        cc_.on_fast_retransmit(snd_nxt_ - una_before);
        shm_.set(tcb::kSndCwnd, cc_.cwnd());
        ++stats_.fast_retransmits;
        shm_.set(tcb::kLibBusy, 0);
        link_.release(d);
        if (seq_le(tcp->ack, snd_nxt_)) shm_.set(tcb::kSndWnd, tcp->window);
        co_await resend_front(/*count_retry=*/false);
        arm_retx_timer();
        co_return;
      }
    }
    if (seq_le(tcp->ack, snd_nxt_)) {
      shm_.set(tcb::kSndWnd, tcp->window);
      if (tcp->window > 0) cancel_timer(persist_timer_);
    }
  }

  // --- state transitions ---
  switch (state_) {
    case TcpState::Closed:
      if (listening_ && tcp->flags.syn && !tcp->flags.ack) {
        set_rcv_nxt(tcp->seq + 1);
        set_state(TcpState::SynRcvd);
        TcpFlags synack;
        synack.syn = true;
        synack.ack = true;
        shm_.set(tcb::kLibBusy, 0);
        link_.release(d);
        co_await send_segment(synack, {}, /*queue_retx=*/true);
        co_return;
      }
      if (cfg_.rst_when_closed && !listening_) {
        // No connection state for this segment: answer with RST so the
        // peer tears down instead of retrying into a void (RFC 793).
        const std::uint32_t rseq = tcp->flags.ack ? tcp->ack : 0;
        const std::uint32_t rack =
            tcp->seq + plen + ((tcp->flags.syn || tcp->flags.fin) ? 1 : 0);
        shm_.set(tcb::kLibBusy, 0);
        link_.release(d);
        co_await send_rst(rseq, rack, /*with_ack=*/!tcp->flags.ack);
        co_return;
      }
      break;
    case TcpState::SynSent:
      if (tcp->flags.syn && tcp->flags.ack && tcp->ack == cfg_.iss + 1) {
        set_rcv_nxt(tcp->seq + 1);
        set_state(TcpState::Established);
        ack_needed = true;
      }
      break;
    case TcpState::TimeWait:
      // 2MSL quarantine: re-ACK a retransmitted FIN (the peer's last ACK
      // was lost) and restart the clock; anything out of window is
      // counted and challenged with a bare ACK.
      if (tcp->flags.fin && seq_lt(tcp->seq, rcv_nxt())) {
        ++stats_.dup_segments;
        cancel_timer(timewait_timer_);
        timewait_timer_ =
            wheel_.arm(node.now() + cfg_.time_wait, kTimerTimeWait);
        ack_needed = true;
      } else if (!seq_le(rcv_nxt(), tcp->seq) ||
                 !seq_lt(tcp->seq, rcv_nxt() + std::max(advertised_window(),
                                                        1u))) {
        ++stats_.timewait_drops;
        ack_needed = true;  // challenge ACK re-asserts our view
      }
      break;
    case TcpState::SynRcvd:
      if (tcp->flags.ack && tcp->ack == snd_nxt_) {
        set_state(TcpState::Established);
      }
      [[fallthrough]];
    case TcpState::Established:
    case TcpState::CloseWait:
    case TcpState::LastAck:
    case TcpState::FinSent: {
      // --- data ---
      if (plen > 0 && state_ != TcpState::SynRcvd) {
        const std::uint32_t used = shm_.get(tcb::kStageUsed);
        const std::uint32_t cap = shm_.get(tcb::kStageCap);
        sim::Cycles cycles = 0;
        if (tcp->seq == rcv_nxt() && used + plen <= cap) {
          stage_append(p + kSegHdrLen, plen, &cycles);
          set_rcv_nxt(rcv_nxt() + plen);
          if (cfg_.reassemble) drain_ooo(&cycles);
        } else if (seq_le(tcp->seq + plen, rcv_nxt())) {
          ++stats_.dup_segments;  // retransmission of delivered data
        } else if (tcp->seq == rcv_nxt()) {
          ++stats_.stage_full_drops;  // in order, but nowhere to put it
        } else if (!cfg_.reassemble) {
          ++stats_.ooo_dropped;  // baseline receiver: reorder = drop
        } else {
          const auto r = ooo_.insert(tcp->seq, {p + kSegHdrLen, plen},
                                     rcv_nxt(), cfg_.window, ooo_limit());
          if (r.buffered > 0) {
            ++stats_.ooo_buffered;
          } else if (r.duplicate) {
            ++stats_.dup_segments;
          } else {
            ++stats_.ooo_dropped;  // out of window or store full
          }
        }
        co_await link_.self().compute(cycles);
        ack_needed = true;
      }
      // --- FIN ---
      if (tcp->flags.fin) {
        if (tcp->seq + plen == rcv_nxt()) {
          set_rcv_nxt(rcv_nxt() + 1);
          peer_fin_seen_ = true;
          if (state_ == TcpState::Established) set_state(TcpState::CloseWait);
          ack_needed = true;
        } else if (seq_lt(tcp->seq + plen, rcv_nxt())) {
          ++stats_.dup_segments;  // retransmitted FIN: re-ACK
          ack_needed = true;
        }
        // A FIN beyond rcv_nxt waits for the gap to fill; the peer
        // retransmits it.
      }
      break;
    }
  }

  maybe_finish_close();
  shm_.set(tcb::kLibBusy, 0);
  link_.release(d);
  if (ack_needed) co_await send_ack();
}

sim::Sub<bool> TcpConnection::connect() {
  listening_ = false;
  set_state(TcpState::SynSent);
  TcpFlags syn;
  syn.syn = true;
  co_await send_segment(syn, {}, /*queue_retx=*/true);
  while (state_ != TcpState::Established) {
    if (state_ == TcpState::Closed) co_return false;  // RST or exhaustion
    co_await wait_step(rto_cur_);
  }
  co_return true;
}

sim::Sub<bool> TcpConnection::accept() {
  listening_ = true;
  while (state_ != TcpState::Established) {
    if (state_ == TcpState::Closed && !listening_) co_return false;
    co_await wait_step(rto_cur_);
  }
  listening_ = false;
  co_return true;
}

sim::Sub<bool> TcpConnection::write_from(std::uint32_t app_addr,
                                         std::uint32_t len) {
  sim::Node& node = link_.self().node();
  const std::uint32_t end_seq = snd_nxt_ + len;
  std::uint32_t sent = 0;

  while (seq_lt(snd_una(), end_seq)) {
    if (state_ == TcpState::Closed) co_return false;

    // Fill min(peer window, congestion window).
    while (sent < len) {
      const std::uint32_t inflight = snd_nxt_ - snd_una();
      const std::uint32_t wnd =
          std::min({snd_wnd(), cfg_.window, cc_.cwnd()});
      if (inflight >= wnd) break;
      const std::uint32_t chunk =
          std::min({cfg_.mss, len - sent, wnd - inflight});
      if (chunk == 0) break;
      const std::uint8_t* src = node.mem(app_addr + sent, chunk);
      TcpFlags flags;
      flags.ack = true;
      flags.psh = sent + chunk == len;
      const bool sent_ok =
          co_await send_segment(flags, {src, chunk}, /*queue_retx=*/true);
      if (!sent_ok) co_return false;
      sent += chunk;
    }

    // Zero-window persist: the peer closed its window with nothing of
    // ours in flight — without a probe, a lost window-update ACK would
    // deadlock both sides forever. The probe byte rides the normal
    // retransmission machinery, so follow-up probes back off with it.
    if (sent < len && snd_nxt_ == snd_una() && snd_wnd() == 0) {
      if (persist_fire_) {
        persist_fire_ = false;
        ++stats_.persist_probes;
        const std::uint8_t* src = node.mem(app_addr + sent, 1);
        TcpFlags flags;
        flags.ack = true;
        co_await send_segment(flags, {src, 1}, /*queue_retx=*/true);
        sent += 1;
        continue;
      }
      if (persist_timer_ == 0) {
        persist_timer_ = wheel_.arm(node.now() + rto_cur_, kTimerPersist);
      }
    }

    // Wait for ACK progress.
    if (handler_attached_) {
      const std::uint32_t before = snd_una();
      const sim::Cycles deadline = node.now() + rto_cur_;
      while (snd_una() == before) {
        if (auto d = link_.try_recv()) {
          co_await process_packet(*d);  // handler fallback path
          break;
        }
        if (node.now() >= deadline) break;
        co_await link_.self().poll_idle(deadline);
      }
      const std::uint32_t after = snd_una();
      if (after == before) {
        // A segment may have landed between the last poll and the
        // deadline check; process it instead of discarding the dequeued
        // descriptor (which would lose the segment and leak its buffer).
        if (auto d = link_.try_recv()) {
          co_await process_packet(*d);
        } else {
          const bool alive = co_await service_timers();
          if (!alive) co_return false;
          if (wheel_.size() == 0 && !retx_.empty()) arm_retx_timer();
        }
      } else if (seq_lt(before, after)) {
        // The downloaded handler consumed the ACKs: reconcile the
        // retransmit queue and grow the congestion window here.
        reap_acked(after);
        cc_.on_ack(after - before);
        shm_.set(tcb::kSndCwnd, cc_.cwnd());
        dup_acks_ = 0;
        rtt_pending_ = false;  // the sample's ACK was consumed unseen
        rto_cur_ = rtt_.rto();
      }
    } else {
      co_await wait_step(rto_cur_);
    }
  }
  co_return true;
}

sim::Sub<std::uint32_t> TcpConnection::read_into(std::uint32_t app_addr,
                                                 std::uint32_t max_len) {
  sim::Node& node = link_.self().node();
  for (;;) {
    const std::uint32_t used = shm_.get(tcb::kStageUsed);
    if (used > 0) {
      const std::uint32_t base = shm_.get(tcb::kStageBase);
      const std::uint32_t cap = shm_.get(tcb::kStageCap);
      std::uint32_t rd = shm_.get(tcb::kStageRd);
      const std::uint32_t n = std::min(used, max_len);
      const std::uint32_t first = std::min(n, cap - rd);
      sim::Cycles cycles = sim::memops::copy(node, app_addr, base + rd, first);
      if (first < n) {
        cycles +=
            sim::memops::copy(node, app_addr + first, base, n - first);
      }
      rd = (rd + n) % cap;
      shm_.set(tcb::kStageRd, rd);
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
      // Window update if consumption re-opened it: a full MSS of fresh
      // space, or ANY space after advertising zero (a sub-MSS reader
      // must still un-wedge a persisting peer).
      const std::uint32_t adv = advertised_window();
      if (adv >= last_advertised_wnd_ + cfg_.mss ||
          (last_advertised_wnd_ == 0 && adv > 0)) {
        ++stats_.window_updates;
        co_await send_ack();
      }
      co_return n;
    }
    if (peer_fin_seen_) co_return 0;
    if (state_ == TcpState::Closed) co_return 0;

    if (handler_attached_) {
      if (auto d = link_.try_recv()) {
        co_await process_packet(*d);
      } else {
        const bool alive = co_await service_timers();
        if (!alive) co_return 0;
        co_await poll_idle();
      }
    } else {
      co_await wait_step(rto_cur_);
    }
  }
}

sim::Sub<std::uint32_t> TcpConnection::read_discard(std::uint32_t max_len) {
  sim::Node& node = link_.self().node();
  for (;;) {
    const std::uint32_t used = shm_.get(tcb::kStageUsed);
    if (used > 0) {
      const std::uint32_t cap = shm_.get(tcb::kStageCap);
      std::uint32_t rd = shm_.get(tcb::kStageRd);
      const std::uint32_t n = std::min(used, max_len);
      rd = (rd + n) % cap;
      shm_.set(tcb::kStageRd, rd);
      shm_.set(tcb::kStageUsed, used - n);
      if (used - n == 0) {
        shm_.set(tcb::kStageRd, 0);
        shm_.set(tcb::kStageWr, 0);
      }
      if (handler_attached_) {
        co_await link_.self().compute(node.cost().tcp_handler_read_overhead *
                                      ((n + cfg_.mss - 1) / cfg_.mss));
      }
      const std::uint32_t adv = advertised_window();
      if (adv >= last_advertised_wnd_ + cfg_.mss ||
          (last_advertised_wnd_ == 0 && adv > 0)) {
        ++stats_.window_updates;
        co_await send_ack();
      }
      co_return n;
    }
    if (peer_fin_seen_) co_return 0;
    if (state_ == TcpState::Closed) co_return 0;

    if (handler_attached_) {
      if (auto d = link_.try_recv()) {
        co_await process_packet(*d);
      } else {
        const bool alive = co_await service_timers();
        if (!alive) co_return 0;
        co_await poll_idle();
      }
    } else {
      co_await wait_step(rto_cur_);
    }
  }
}

sim::Sub<void> TcpConnection::close() {
  if (state_ == TcpState::SynSent) {
    // Nothing of ours is established; just delete the half-open TCB.
    abort_connection();
    co_return;
  }
  if (state_ == TcpState::Established || state_ == TcpState::SynRcvd) {
    TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    co_await send_segment(fin, {}, /*queue_retx=*/true);
    set_state(TcpState::FinSent);
  } else if (state_ == TcpState::CloseWait) {
    TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    co_await send_segment(fin, {}, /*queue_retx=*/true);
    set_state(TcpState::LastAck);
  }
  maybe_finish_close();

  int idle_rounds = 0;
  while (state_ != TcpState::Closed) {
    if (state_ == TcpState::TimeWait) {
      // Only the 2MSL clock (or a retransmitted FIN) matters now.
      co_await wait_step(cfg_.time_wait);
      continue;
    }
    const bool got = co_await wait_step(rto_cur_);
    maybe_finish_close();
    if (got) {
      idle_rounds = 0;
    } else if (++idle_rounds > cfg_.max_retries &&
               state_ != TcpState::Closed) {
      // FIN_WAIT_2-style give-up: our FIN is acked but the peer never
      // sends its own. Drop what's left rather than wait forever.
      retx_.clear();
      cancel_timer(retx_timer_);
      cancel_timer(persist_timer_);
      cancel_timer(timewait_timer_);
      set_state(TcpState::Closed);
    }
  }
}

}  // namespace ash::proto
