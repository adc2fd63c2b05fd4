// One TCP flow's protocol machine, shared by both drivers.
//
// TcpFlow owns a flow's transmission control block and makes every
// protocol decision: segment encoding, RST validation (RFC 5961 spirit,
// RFC 1337 in TIME_WAIT), ACK / duplicate-ACK / window processing, the
// SYN_SENT, SYN_RCVD, TIME_WAIT and close rules, in-order delivery and
// out-of-order reassembly, FIN, and the retransmit (RFC 6298 backoff),
// persist, TIME_WAIT and FIN_WAIT_2 timers. It is synchronous: a call
// never suspends, so the drivers own every co_await. A call that owes
// the peer a segment records it; the driver pulls the built frames
// (next_control, emit, next_fin, next_ack) and transmits them when its
// discipline says so.
//
// Two drivers run it: TcpConnection (tcp.hpp), the paper's one-flow
// blocking library with its shared TCB, and TcpEngine (tcp_engine.hpp),
// the event loop multiplexing thousands of flows. What differs between
// them enters only through TcpFlowHost: where received bytes go, when
// owed output is sent, and the flow key.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "proto/headers.hpp"
#include "proto/link.hpp"
#include "proto/tcp_control.hpp"
#include "sim/timer_wheel.hpp"

namespace ash::proto {

// Values 0–5 are shared with the VCODE fast-path handler via tcb::kState;
// new states append only.
enum class TcpState : std::uint32_t {
  Closed = 0,
  SynSent,
  SynRcvd,
  Established,
  FinSent,    // we sent FIN, awaiting its ACK (and possibly peer FIN)
  CloseWait,  // peer sent FIN; we still may send
  TimeWait,   // both FINs done, we closed actively: hold 2MSL
  LastAck,    // passive close: our FIN sent after peer's, awaiting its ACK
};

/// Per-flow parameters; both drivers' configs extend this one set.
struct TcpParams {
  std::uint32_t mss = 3072;     // AN2 default; 1500 Ethernet; 536 WAN
  /// Initial and largest congestion window; the one-flow library also
  /// advertises it as its receive window.
  std::uint32_t window = 8192;
  bool checksum = true;
  sim::Cycles rto = sim::us(100000.0);  // initial RTO before any RTT sample
  /// RTO floor (RFC 6298 G): must exceed the serialization time of a full
  /// window on the slowest modeled link or ACKs race the timer. Clamped
  /// to `rto` so configs that ask for faster recovery get it.
  sim::Cycles min_rto = sim::us(25000.0);
  /// TIME_WAIT hold (2MSL). Sim-scaled: wire MSL here is microseconds,
  /// not minutes; long enough to absorb a retransmitted FIN.
  sim::Cycles time_wait = sim::us(10000.0);
  int max_retries = 8;
  std::uint32_t iss = 1000;  // initial send sequence (deterministic)
  /// Buffer out-of-order segments for reassembly. Off = the
  /// drop-everything receiver (kept as the soak baseline).
  bool reassemble = true;
};

/// Counters of one driver, summed over its flows.
struct TcpStats {
  std::uint64_t segments_in = 0;
  std::uint64_t segments_out = 0;
  std::uint64_t fastpath_hits = 0;  // header-predicted (one-flow library)
  std::uint64_t slowpath = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_timeouts = 0;
  std::uint64_t dup_segments = 0;     // entirely below rcv_nxt
  std::uint64_t ooo_buffered = 0;     // segments parked for reassembly
  std::uint64_t ooo_reassembled = 0;  // bytes later drained in order
  /// Unbufferable arrivals: out of window, or the out-of-order store was
  /// full (with reassembly off: every segment not exactly in order).
  std::uint64_t ooo_dropped = 0;
  std::uint64_t rsts_received = 0;  // acceptable RSTs (tore the flow down)
  std::uint64_t rsts_ignored = 0;   // RSTs failing sequence validation
  std::uint64_t rsts_sent = 0;
  std::uint64_t persist_probes = 0;  // zero-window probes sent
  std::uint64_t window_updates = 0;  // reopen ACKs from the read path
  std::uint64_t cksum_failures = 0;
  std::uint64_t aborts = 0;  // torn down on retry exhaustion or RST
  std::uint64_t conns_opened = 0;    // active opens issued (engine)
  std::uint64_t conns_accepted = 0;  // passive opens established (engine)
  std::uint64_t conns_closed = 0;    // TCBs destroyed, any cause (engine)
  std::uint64_t syn_backlog_drops = 0;
  std::uint64_t unknown_flow_rsts = 0;
  std::uint64_t rcv_overflow_drops = 0;  // in order, but no receive room
  std::uint64_t timewait_drops = 0;      // non-FIN segments in TIME_WAIT
};

/// A flow's identity on its host. The local IP is host-wide.
struct FlowKey {
  Ipv4Addr remote_ip;
  std::uint16_t remote_port = 0;
  std::uint16_t local_port = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// What a driver lends the machine for one call.
class TcpFlowHost {
 public:
  TcpFlowHost(Link& l, const TcpParams& p, TcpStats& s, sim::TimerWheel& w,
              Ipv4Addr ip)
      : link(l), params(p), stats(s), wheel(w), local_ip(ip) {}

  Link& link;
  const TcpParams& params;
  TcpStats& stats;
  sim::TimerWheel& wheel;
  Ipv4Addr local_ip;

  /// Timer cookie base; the machine ORs a TcpFlow::TimerKind into it.
  virtual std::uint64_t timer_cookie() const { return 0; }
  /// Receive window to advertise: free room in the driver's buffer.
  virtual std::uint32_t rcv_space() const = 0;
  /// Take in-order bytes: straight from the received segment, or (when
  /// `reassembled`) drained from the out-of-order store in host memory.
  virtual void deliver(std::span<const std::uint8_t> bytes, bool reassembled,
                       sim::Cycles* cycles) = 0;
  /// The flow owes the peer a segment.
  virtual void owe() {}
  /// New data was acknowledged or the peer's window opened.
  virtual void send_window() {}
  virtual void established() {}
  /// New bytes are readable, or the peer's FIN arrived.
  virtual void readable() {}

 protected:
  ~TcpFlowHost() = default;
};

class TcpFlow {
 public:
  enum TimerKind : std::uint64_t {
    kTimerRetx = 0,
    kTimerPersist = 1,
    kTimerTimeWait = 2,  // also the FIN_WAIT_2 give-up
  };

  /// A segment built in the link's transmit staging, ready to charge and
  /// send. `len == 0` means nothing is owed.
  struct Frame {
    std::uint32_t pkt = 0;
    std::uint32_t len = 0;
    sim::Cycles cycles = 0;
    bool resent = false;  // a retransmission: call rearm() once it is sent
  };

  void init(TcpFlowHost& h, const FlowKey& key, std::uint32_t iss);

  const FlowKey& key() const noexcept { return key_; }
  TcpState state() const noexcept { return state_; }
  std::uint32_t rcv_nxt() const noexcept { return rcv_nxt_; }
  std::uint32_t snd_una() const noexcept { return snd_una_; }
  std::uint32_t snd_nxt() const noexcept { return snd_nxt_; }
  std::uint32_t peer_wnd() const noexcept { return peer_wnd_; }
  std::uint32_t cwnd() const noexcept { return cc_.cwnd(); }
  sim::Cycles rto() const noexcept { return rto_cur_; }
  bool peer_fin() const noexcept { return peer_fin_; }
  /// close() was called (a FIN is owed or already sent).
  bool closing() const noexcept { return fin_pending_; }
  /// Output is owed now: next_control, next_fin or next_ack would build
  /// a segment.
  bool owes() const noexcept {
    return syn_owed_ || synack_owed_ || fast_retx_ || retx_fired_ ||
           acks_owed_ > 0 ||
           (fin_pending_ && !fin_sent_ &&
            (state_ == TcpState::Established ||
             state_ == TcpState::CloseWait));
  }
  /// Segments awaiting acknowledgement (none once torn down).
  std::size_t retx_depth() const noexcept { return retx_.size(); }

  /// Take the words a fast-path handler may have advanced since the last
  /// call (the one-flow library's shared TCB).
  void adopt(std::uint32_t rcv_nxt, std::uint32_t snd_una,
             std::uint32_t peer_wnd) noexcept {
    rcv_nxt_ = rcv_nxt;
    snd_una_ = snd_una;
    peer_wnd_ = peer_wnd;
  }

  // ---- events ----
  void open_active(TcpFlowHost& h);
  /// Passive open from an acceptable SYN.
  void open_passive(TcpFlowHost& h, const TcpHeader& syn);
  /// Orderly close: a half-open flow is simply torn down, an open one
  /// owes a FIN once its unsent data drains.
  void close(TcpFlowHost& h);
  /// Tear down now (no RST; the driver sends one if it wants).
  void abort(TcpFlowHost& h);
  void on_segment(TcpFlowHost& h, const TcpHeader& tcp,
                  std::span<const std::uint8_t> payload, sim::Cycles* cycles);
  void on_timer(TcpFlowHost& h, TimerKind kind);
  /// The application consumed received bytes: owe a window update if
  /// that reopened a full MSS, or any room after advertising zero.
  void consumed(TcpFlowHost& h);
  /// A handler acknowledged data up to snd_una without the machine seeing
  /// the ACKs: reap, grow cwnd, and reset the backoff.
  void acked_unseen(TcpFlowHost& h, std::uint32_t una_before);

  // ---- output ----
  /// The next owed SYN, SYN/ACK or retransmission. A retransmission that
  /// exhausts the retry budget aborts the flow instead.
  Frame next_control(TcpFlowHost& h);
  /// Re-arm the retransmit timer after a retransmission went out.
  void rearm(TcpFlowHost& h);
  /// Data bytes the windows allow in the next segment (at most one MSS).
  std::uint32_t send_room(const TcpFlowHost& h) const;
  /// Build a segment at snd_nxt; data, SYN and FIN join the retransmit
  /// queue when `queue_retx`.
  Frame emit(TcpFlowHost& h, TcpFlags flags,
             std::span<const std::uint8_t> payload, bool queue_retx);
  /// Data segments went out carrying the owed ACKs.
  void acked_by_data() noexcept { acks_owed_ = 0; }
  /// Zero-window persist for a sender with unsent bytes: true when a
  /// one-byte probe is due now; otherwise arms the persist timer.
  bool probe_due(TcpFlowHost& h);
  /// The FIN, once close() was called and the send buffer drained.
  Frame next_fin(TcpFlowHost& h);
  Frame next_ack(TcpFlowHost& h);

  /// A bare RST for `key` (answers segments no flow owns).
  static Frame encode_rst(Link& link, bool checksum, Ipv4Addr local_ip,
                          const FlowKey& key, std::uint32_t seq,
                          std::uint32_t ack, bool with_ack);

 private:
  struct RetxSegment {
    std::uint32_t seq = 0;
    std::vector<std::uint8_t> payload;
    TcpFlags flags;
    int retries = 0;
  };

  void arm(TcpFlowHost& h, sim::TimerWheel::Id& id, TimerKind kind,
           sim::Cycles delay);
  void cancel(TcpFlowHost& h, sim::TimerWheel::Id& id);
  void owe_ack(TcpFlowHost& h);
  void on_rst(TcpFlowHost& h, const TcpHeader& tcp);
  void on_ack(TcpFlowHost& h, const TcpHeader& tcp, std::uint32_t plen);
  void on_data(TcpFlowHost& h, const TcpHeader& tcp,
               std::span<const std::uint8_t> payload, sim::Cycles* cycles);
  /// Pop retransmit segments covered by snd_una; re-arm the timer.
  void reap(TcpFlowHost& h);
  /// FIN_WAIT -> TIME_WAIT (or the FIN_WAIT_2 give-up timer), LAST_ACK ->
  /// CLOSED, once our FIN is acknowledged.
  void finish_close(TcpFlowHost& h);
  void enter_time_wait(TcpFlowHost& h);
  void teardown(TcpFlowHost& h);
  Frame resend(TcpFlowHost& h, bool count_retry);

  FlowKey key_;
  TcpState state_ = TcpState::Closed;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::uint32_t peer_wnd_ = 0;
  std::uint32_t last_adv_wnd_ = 0;
  std::uint16_t next_ident_ = 1;

  std::deque<RetxSegment> retx_;
  OooBuffer ooo_;

  // Adaptive retransmission (RFC 6298) + congestion control (RFC 5681).
  RttEstimator rtt_;
  CongestionWindow cc_;
  sim::Cycles rto_cur_ = 0;
  std::uint32_t dup_acks_ = 0;
  std::uint32_t rtt_seq_ = 0;  // an ACK covering this ends the sample
  sim::Cycles rtt_sent_at_ = 0;

  sim::TimerWheel::Id retx_timer_ = 0;
  sim::TimerWheel::Id persist_timer_ = 0;
  sim::TimerWheel::Id timewait_timer_ = 0;

  std::uint32_t acks_owed_ = 0;  // distinct pure ACKs to emit
  bool rtt_pending_ = false;     // a timed segment is in flight
  bool syn_owed_ = false;
  bool synack_owed_ = false;
  bool fast_retx_ = false;   // three duplicate ACKs: resend the front
  bool retx_fired_ = false;  // RTO expired: resend and count a retry
  bool persist_fire_ = false;
  bool fin_pending_ = false;  // close() called; FIN after unsent data
  bool fin_sent_ = false;
  bool peer_fin_ = false;
};

}  // namespace ash::proto
