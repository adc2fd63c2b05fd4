#include "proto/tcp_flow.hpp"

#include <algorithm>
#include <cstring>

#include "sim/memops.hpp"
#include "sim/node.hpp"

namespace ash::proto {

namespace {

constexpr std::uint32_t kSegHdrLen =
    static_cast<std::uint32_t>(kIpHeaderLen + kTcpHeaderLen);
constexpr sim::Cycles kMaxRto = sim::us(2000000.0);
// Half-closed give-up: our FIN is acknowledged but the peer never sends
// its own (FIN_WAIT_2 in RFC terms).
constexpr sim::Cycles kFinWait = sim::us(1000000.0);
// Cap the pure-ACK debt per flow: beyond this the extra dup-ACKs carry
// no more information (fast retransmit triggers at three).
constexpr std::uint32_t kMaxAcksOwed = 4;
// The out-of-order store holds at most this many windows of bytes.
constexpr std::uint32_t kOooWindows = 2;

sim::Node& node_of(TcpFlowHost& h) { return h.link.self().node(); }

std::uint16_t window_field(const TcpFlowHost& h) {
  return static_cast<std::uint16_t>(
      std::min<std::uint32_t>(h.rcv_space(), 0xffff));
}

/// Write the TCP header (checksummed when `checksum`) and the IP header
/// in front of the `plen` payload bytes already staged at `p`.
void seal(std::uint8_t* p, TcpHeader tcp, std::uint32_t plen, Ipv4Addr src,
          Ipv4Addr dst, std::uint16_t ident, bool checksum) {
  tcp.checksum = 0;
  encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  if (checksum) {
    tcp.checksum = transport_checksum(
        src, dst, kIpProtoTcp, {p + kIpHeaderLen, kTcpHeaderLen + plen});
    encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  }
  IpHeader ip;
  ip.protocol = kIpProtoTcp;
  ip.src = src;
  ip.dst = dst;
  ip.total_len = static_cast<std::uint16_t>(kSegHdrLen + plen);
  ip.ident = ident;
  encode_ip({p, kIpHeaderLen}, ip);
}

}  // namespace

void TcpFlow::init(TcpFlowHost& h, const FlowKey& key, std::uint32_t iss) {
  const TcpParams& p = h.params;
  key_ = key;
  snd_nxt_ = iss;
  snd_una_ = iss;
  peer_wnd_ = p.window;
  last_adv_wnd_ = h.rcv_space();
  rtt_ = RttEstimator(p.rto, std::min(p.min_rto, p.rto), kMaxRto);
  rto_cur_ = p.rto;
  cc_.reset(p.mss, p.window);
}

// --------------------------------------------------------------- timers

void TcpFlow::arm(TcpFlowHost& h, sim::TimerWheel::Id& id, TimerKind kind,
                  sim::Cycles delay) {
  cancel(h, id);
  id = h.wheel.arm(node_of(h).now() + delay, h.timer_cookie() | kind);
}

void TcpFlow::cancel(TcpFlowHost& h, sim::TimerWheel::Id& id) {
  if (id != 0) {
    h.wheel.cancel(id);
    id = 0;
  }
}

void TcpFlow::rearm(TcpFlowHost& h) {
  if (retx_.empty()) {
    cancel(h, retx_timer_);
  } else {
    arm(h, retx_timer_, kTimerRetx, rto_cur_);
  }
}

void TcpFlow::on_timer(TcpFlowHost& h, TimerKind kind) {
  switch (kind) {
    case kTimerRetx:
      retx_timer_ = 0;
      if (retx_.empty()) break;
      ++h.stats.rto_timeouts;
      cc_.on_timeout(snd_nxt_ - snd_una_);
      rto_cur_ = std::min(rto_cur_ * 2, kMaxRto);  // backoff
      dup_acks_ = 0;
      retx_fired_ = true;
      h.owe();
      break;
    case kTimerPersist:
      persist_timer_ = 0;
      persist_fire_ = true;  // the sender owes a probe byte
      h.owe();
      break;
    case kTimerTimeWait:
      // 2MSL expiry, or the FIN_WAIT_2 give-up for a peer that never
      // sent its FIN. Either way the flow is done.
      timewait_timer_ = 0;
      teardown(h);
      break;
  }
}

// ----------------------------------------------------- opens and closes

void TcpFlow::open_active(TcpFlowHost& h) {
  state_ = TcpState::SynSent;
  syn_owed_ = true;
  h.owe();
}

void TcpFlow::open_passive(TcpFlowHost& h, const TcpHeader& syn) {
  state_ = TcpState::SynRcvd;
  rcv_nxt_ = syn.seq + 1;
  peer_wnd_ = syn.window;
  synack_owed_ = true;
  h.owe();
}

void TcpFlow::close(TcpFlowHost& h) {
  switch (state_) {
    case TcpState::SynSent:
    case TcpState::SynRcvd:
      teardown(h);  // nothing established to tear down politely
      break;
    case TcpState::Established:
    case TcpState::CloseWait:
      fin_pending_ = true;
      h.owe();
      break;
    default:
      break;  // already closing or closed
  }
}

void TcpFlow::abort(TcpFlowHost& h) {
  ++h.stats.aborts;
  teardown(h);
}

void TcpFlow::teardown(TcpFlowHost& h) {
  cancel(h, retx_timer_);
  cancel(h, persist_timer_);
  cancel(h, timewait_timer_);
  retx_.clear();
  ooo_.clear();
  state_ = TcpState::Closed;
  acks_owed_ = 0;
  syn_owed_ = synack_owed_ = fast_retx_ = retx_fired_ = persist_fire_ = false;
}

void TcpFlow::enter_time_wait(TcpFlowHost& h) {
  cancel(h, retx_timer_);
  cancel(h, persist_timer_);
  state_ = TcpState::TimeWait;
  arm(h, timewait_timer_, kTimerTimeWait, h.params.time_wait);
}

void TcpFlow::finish_close(TcpFlowHost& h) {
  if (!fin_sent_ || snd_una_ != snd_nxt_) return;  // our FIN is unacked
  if (state_ == TcpState::FinSent) {
    if (peer_fin_) {
      enter_time_wait(h);
    } else if (timewait_timer_ == 0) {
      // FIN_WAIT_2: our side is done; give the peer a bounded window to
      // send its FIN before the flow is reclaimed.
      arm(h, timewait_timer_, kTimerTimeWait, kFinWait);
    }
  } else if (state_ == TcpState::LastAck) {
    teardown(h);
  }
}

// -------------------------------------------------------------- receive

void TcpFlow::on_segment(TcpFlowHost& h, const TcpHeader& tcp,
                         std::span<const std::uint8_t> payload,
                         sim::Cycles* cycles) {
  const auto plen = static_cast<std::uint32_t>(payload.size());
  if (tcp.flags.rst) {
    on_rst(h, tcp);
    return;
  }

  switch (state_) {
    case TcpState::Closed:
      return;
    case TcpState::SynSent:
      if (tcp.flags.syn && tcp.flags.ack && tcp.ack == snd_nxt_) {
        rcv_nxt_ = tcp.seq + 1;
        on_ack(h, tcp, plen);
        if (acks_owed_ == 0) acks_owed_ = 1;  // complete the handshake
        state_ = TcpState::Established;
        h.established();
        h.owe();
      }
      // A bare SYN would be a simultaneous open; no peer here does that.
      return;
    case TcpState::SynRcvd:
      if (tcp.flags.syn) {
        // Retransmitted SYN: our SYN/ACK was lost; resend it now.
        ++h.stats.dup_segments;
        if (retx_.empty()) {
          synack_owed_ = true;
        } else {
          fast_retx_ = true;
        }
        h.owe();
        return;
      }
      if (!tcp.flags.ack) return;
      on_ack(h, tcp, plen);
      if (snd_una_ != snd_nxt_) return;  // not our SYN/ACK's ack
      state_ = TcpState::Established;
      h.established();
      break;  // the completing ACK may carry data and/or FIN
    case TcpState::TimeWait:
      // Only a retransmitted FIN is interesting: the peer never saw our
      // last ACK, so re-ACK it and restart 2MSL. Anything else is
      // counted and draws a challenge ACK.
      if (tcp.flags.fin) {
        ++h.stats.dup_segments;
        arm(h, timewait_timer_, kTimerTimeWait, h.params.time_wait);
      } else {
        ++h.stats.timewait_drops;
      }
      owe_ack(h);
      return;
    default:
      if (tcp.flags.ack) on_ack(h, tcp, plen);
      break;
  }
  if (state_ == TcpState::Closed) return;  // an upcall tore the flow down

  if (plen > 0) {
    if (state_ == TcpState::Established || state_ == TcpState::FinSent) {
      on_data(h, tcp, payload, cycles);
    } else {
      ++h.stats.dup_segments;  // data after the peer's FIN: re-ACK
      owe_ack(h);
    }
  }

  if (tcp.flags.fin) {
    const std::uint32_t fin_seq = tcp.seq + plen;
    if (!peer_fin_ && fin_seq == rcv_nxt_) {
      peer_fin_ = true;
      ++rcv_nxt_;
      if (state_ == TcpState::Established) state_ = TcpState::CloseWait;
      owe_ack(h);
      h.readable();  // EOF becomes visible
    } else if (seq_lt(fin_seq, rcv_nxt_)) {
      ++h.stats.dup_segments;  // old FIN (our ACK was lost): re-ACK it
      owe_ack(h);
    }
    // A FIN beyond a sequence gap waits for reassembly to close it.
  }

  finish_close(h);
}

void TcpFlow::on_rst(TcpFlowHost& h, const TcpHeader& tcp) {
  bool acceptable = false;
  switch (state_) {
    case TcpState::Closed:
      return;  // nothing to reset
    case TcpState::SynSent:
      // RFC 793: in SYN_SENT a RST is valid only if it acks our SYN.
      acceptable = tcp.flags.ack && tcp.ack == snd_nxt_;
      break;
    case TcpState::TimeWait:
      break;  // RFC 1337: no TIME-WAIT assassination
    default: {
      // RFC 5961-style: the RST's sequence must fall in the receive
      // window (always at least one sequence number wide).
      const std::uint32_t wnd = std::max(h.rcv_space(), 1u);
      acceptable =
          seq_le(rcv_nxt_, tcp.seq) && seq_lt(tcp.seq, rcv_nxt_ + wnd);
      break;
    }
  }
  if (acceptable) {
    ++h.stats.rsts_received;
    abort(h);
  } else {
    ++h.stats.rsts_ignored;
  }
}

void TcpFlow::on_ack(TcpFlowHost& h, const TcpHeader& tcp,
                     std::uint32_t plen) {
  const std::uint32_t una_before = snd_una_;
  if (seq_lt(una_before, tcp.ack) && seq_le(tcp.ack, snd_nxt_)) {
    snd_una_ = tcp.ack;
    reap(h);
    cc_.on_ack(tcp.ack - una_before);
    dup_acks_ = 0;
    if (rtt_pending_ && seq_le(rtt_seq_, tcp.ack)) {
      rtt_.sample(node_of(h).now() - rtt_sent_at_);
      rtt_pending_ = false;
    }
    rto_cur_ = rtt_.rto();  // a fresh ACK resets any backoff
    h.send_window();
  } else if (tcp.ack == una_before && plen == 0 && !tcp.flags.syn &&
             !tcp.flags.fin && seq_lt(una_before, snd_nxt_) &&
             state_ == TcpState::Established) {
    // Duplicate ACK with data outstanding: three trigger a fast
    // retransmit of the presumed-lost front segment (RFC 5681).
    if (++dup_acks_ == 3) {
      dup_acks_ = 0;
      cc_.on_fast_retransmit(snd_nxt_ - una_before);
      ++h.stats.fast_retransmits;
      fast_retx_ = true;
      h.owe();
    }
  }
  if (seq_le(tcp.ack, snd_nxt_)) {
    peer_wnd_ = tcp.window;
    if (peer_wnd_ > 0) {
      cancel(h, persist_timer_);
      persist_fire_ = false;
      h.send_window();
    }
  }
}

void TcpFlow::reap(TcpFlowHost& h) {
  bool popped = false;
  while (!retx_.empty()) {
    const RetxSegment& seg = retx_.front();
    const std::uint32_t consumed =
        static_cast<std::uint32_t>(seg.payload.size()) +
        ((seg.flags.syn || seg.flags.fin) ? 1 : 0);
    if (!seq_le(seg.seq + consumed, snd_una_)) break;
    retx_.pop_front();
    popped = true;
  }
  if (popped || retx_.empty()) rearm(h);
}

void TcpFlow::acked_unseen(TcpFlowHost& h, std::uint32_t una_before) {
  reap(h);
  cc_.on_ack(snd_una_ - una_before);
  dup_acks_ = 0;
  rtt_pending_ = false;  // the sample's ACK was consumed unseen
  rto_cur_ = rtt_.rto();
}

void TcpFlow::on_data(TcpFlowHost& h, const TcpHeader& tcp,
                      std::span<const std::uint8_t> payload,
                      sim::Cycles* cycles) {
  const auto plen = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t space = h.rcv_space();
  if (tcp.seq == rcv_nxt_) {
    if (plen > space) {
      ++h.stats.rcv_overflow_drops;  // in order, but nowhere to put it
      owe_ack(h);
      return;
    }
    h.deliver(payload, false, cycles);
    rcv_nxt_ += plen;
    // Anything now contiguous in the out-of-order store rides along.
    if (h.params.reassemble && ooo_.contiguous_at(rcv_nxt_)) {
      const std::vector<std::uint8_t> run =
          ooo_.pop_contiguous(rcv_nxt_, h.rcv_space());
      h.deliver(run, true, cycles);
      rcv_nxt_ += static_cast<std::uint32_t>(run.size());
      h.stats.ooo_reassembled += run.size();
    }
    if (acks_owed_ == 0) acks_owed_ = 1;
    h.owe();
    h.readable();
    return;
  }
  if (seq_le(tcp.seq + plen, rcv_nxt_)) {
    ++h.stats.dup_segments;  // retransmission of delivered data
  } else if (!h.params.reassemble) {
    ++h.stats.ooo_dropped;  // baseline receiver: reorder = drop
  } else {
    const auto r = ooo_.insert(tcp.seq, payload, rcv_nxt_, space,
                               kOooWindows * h.params.window);
    if (r.buffered > 0) {
      ++h.stats.ooo_buffered;
    } else if (r.duplicate) {
      ++h.stats.dup_segments;
    } else {
      ++h.stats.ooo_dropped;  // out of window or store full
    }
  }
  owe_ack(h);  // a distinct dup-ACK feeds the peer's fast retransmit
}

void TcpFlow::owe_ack(TcpFlowHost& h) {
  if (acks_owed_ < kMaxAcksOwed) ++acks_owed_;
  h.owe();
}

void TcpFlow::consumed(TcpFlowHost& h) {
  // A sub-MSS reader must still un-wedge a persisting peer.
  const std::uint32_t adv = h.rcv_space();
  if (adv >= last_adv_wnd_ + h.params.mss || (last_adv_wnd_ == 0 && adv > 0)) {
    ++h.stats.window_updates;
    if (acks_owed_ == 0) acks_owed_ = 1;
    h.owe();
  }
}

// ------------------------------------------------------------- transmit

TcpFlow::Frame TcpFlow::emit(TcpFlowHost& h, TcpFlags flags,
                             std::span<const std::uint8_t> payload,
                             bool queue_retx) {
  sim::Node& node = node_of(h);
  const auto plen = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t total = kSegHdrLen + plen;
  const std::uint32_t pkt = h.link.tx_alloc_ip(total);
  std::uint8_t* p = node.mem(pkt, total);

  const std::uint32_t seq = snd_nxt_;
  sim::Cycles cycles = plen > 0 || flags.syn || flags.fin
                           ? node.cost().tcp_send_overhead
                           : node.cost().tcp_ack_overhead;
  // Stage the payload (send buffer -> packet), charged as the copy
  // loop's stores.
  cycles += sim::memops::store(node, pkt + kSegHdrLen, payload);

  TcpHeader tcp;
  tcp.src_port = key_.local_port;
  tcp.dst_port = key_.remote_port;
  tcp.seq = seq;
  tcp.ack = flags.ack ? rcv_nxt_ : 0;
  tcp.flags = flags;
  tcp.window = window_field(h);
  last_adv_wnd_ = h.rcv_space();
  seal(p, tcp, plen, h.local_ip, key_.remote_ip, next_ident_++,
       /*checksum=*/false);
  if (h.params.checksum) {
    // One charged pass over header and payload yields the field.
    std::uint32_t acc = 0;
    const std::uint32_t seg_len = kTcpHeaderLen + plen;
    cycles += node.cost().udp_cksum_setup;
    cycles += sim::memops::cksum(node, pkt + kIpHeaderLen, seg_len, &acc);
    tcp.checksum = transport_checksum_le(
        h.local_ip, key_.remote_ip, kIpProtoTcp,
        static_cast<std::uint16_t>(seg_len), acc);
    encode_tcp({p + kIpHeaderLen, kTcpHeaderLen}, tcp);
  }

  const std::uint32_t consumed = plen + ((flags.syn || flags.fin) ? 1 : 0);
  snd_nxt_ = seq + consumed;
  if (queue_retx && consumed > 0) {
    retx_.push_back(RetxSegment{
        seq, std::vector<std::uint8_t>(payload.begin(), payload.end()),
        flags, 0});
    if (retx_timer_ == 0) rearm(h);
    // Time one segment per flight (RFC 6298 / Karn): the sample ends
    // when this segment's last byte is acknowledged.
    if (!rtt_pending_) {
      rtt_pending_ = true;
      rtt_seq_ = seq + consumed;
      rtt_sent_at_ = node.now();
    }
  }
  ++h.stats.segments_out;
  if (plen == 0 && !flags.syn && !flags.fin) ++h.stats.acks_sent;
  return Frame{pkt, total, cycles};
}

TcpFlow::Frame TcpFlow::resend(TcpFlowHost& h, bool count_retry) {
  if (retx_.empty()) return {};
  RetxSegment& seg = retx_.front();
  if (count_retry && ++seg.retries > h.params.max_retries) {
    // The peer is unreachable: tear everything down rather than strand a
    // half-open TCB.
    abort(h);
    return {};
  }
  ++h.stats.retransmits;
  rtt_pending_ = false;  // Karn: never time a retransmitted flight

  // Rebuild the segment with its original sequence number.
  sim::Node& node = node_of(h);
  const auto plen = static_cast<std::uint32_t>(seg.payload.size());
  const std::uint32_t total = kSegHdrLen + plen;
  const std::uint32_t pkt = h.link.tx_alloc_ip(total);
  std::uint8_t* p = node.mem(pkt, total);
  if (plen > 0) std::memcpy(p + kSegHdrLen, seg.payload.data(), plen);
  TcpHeader tcp;
  tcp.src_port = key_.local_port;
  tcp.dst_port = key_.remote_port;
  tcp.seq = seg.seq;
  tcp.ack = seg.flags.ack ? rcv_nxt_ : 0;
  tcp.flags = seg.flags;
  tcp.window = window_field(h);
  seal(p, tcp, plen, h.local_ip, key_.remote_ip, next_ident_++,
       h.params.checksum);
  ++h.stats.segments_out;
  return Frame{pkt, total, node.cost().tcp_send_overhead, true};
}

TcpFlow::Frame TcpFlow::next_control(TcpFlowHost& h) {
  TcpFlags f;
  if (syn_owed_) {
    syn_owed_ = false;
    f.syn = true;
    return emit(h, f, {}, /*queue_retx=*/true);
  }
  if (synack_owed_) {
    synack_owed_ = false;
    f.syn = true;
    f.ack = true;
    return emit(h, f, {}, /*queue_retx=*/true);
  }
  if (fast_retx_ || retx_fired_) {
    // Fast retransmit costs no retry budget; an RTO resend does.
    const bool count_retry = retx_fired_;
    fast_retx_ = retx_fired_ = false;
    return resend(h, count_retry);
  }
  return {};
}

std::uint32_t TcpFlow::send_room(const TcpFlowHost& h) const {
  if (state_ != TcpState::Established && state_ != TcpState::CloseWait) {
    return 0;
  }
  const std::uint32_t wnd = std::min(peer_wnd_, cc_.cwnd());
  const std::uint32_t in_flight = snd_nxt_ - snd_una_;
  return wnd > in_flight ? std::min(wnd - in_flight, h.params.mss) : 0;
}

bool TcpFlow::probe_due(TcpFlowHost& h) {
  // Without a probe, a window that reopens via a lost ACK would deadlock
  // both sides. The probe byte rides the retransmission machinery, so
  // backoff and retry exhaustion come for free.
  if (peer_wnd_ != 0 || snd_nxt_ != snd_una_) return false;
  if (persist_fire_) {
    persist_fire_ = false;
    ++h.stats.persist_probes;
    return true;
  }
  if (persist_timer_ == 0) arm(h, persist_timer_, kTimerPersist, rto_cur_);
  return false;
}

TcpFlow::Frame TcpFlow::next_fin(TcpFlowHost& h) {
  if (!fin_pending_ || fin_sent_ ||
      (state_ != TcpState::Established && state_ != TcpState::CloseWait)) {
    return {};
  }
  state_ = state_ == TcpState::Established ? TcpState::FinSent
                                           : TcpState::LastAck;
  fin_sent_ = true;
  acks_owed_ = 0;  // the FIN carries the ACK
  TcpFlags f;
  f.fin = true;
  f.ack = true;
  return emit(h, f, {}, /*queue_retx=*/true);
}

TcpFlow::Frame TcpFlow::next_ack(TcpFlowHost& h) {
  if (acks_owed_ == 0) return {};
  --acks_owed_;
  TcpFlags f;
  f.ack = true;
  return emit(h, f, {}, /*queue_retx=*/false);
}

TcpFlow::Frame TcpFlow::encode_rst(Link& link, bool checksum,
                                   Ipv4Addr local_ip, const FlowKey& key,
                                   std::uint32_t seq, std::uint32_t ack,
                                   bool with_ack) {
  sim::Node& node = link.self().node();
  const std::uint32_t pkt = link.tx_alloc_ip(kSegHdrLen);
  TcpHeader tcp;
  tcp.src_port = key.local_port;
  tcp.dst_port = key.remote_port;
  tcp.seq = seq;
  tcp.ack = with_ack ? ack : 0;
  tcp.flags.rst = true;
  tcp.flags.ack = with_ack;
  seal(node.mem(pkt, kSegHdrLen), tcp, 0, local_ip, key.remote_ip, 0,
       checksum);
  return Frame{pkt, kSegHdrLen, node.cost().tcp_ack_overhead};
}

}  // namespace ash::proto
