// User-level TCP — a library implementation of RFC 793 structured like
// the paper's (Section IV-D): connection establishment and teardown, a
// sliding window (8 KB in the experiments), configurable MSS, and a
// header-prediction fast path. Where the paper's stack stopped at a
// coarse fixed retransmission timeout and dropped every out-of-order
// segment, this one is production-shaped: RFC 6298 adaptive RTO with
// exponential backoff, duplicate-ACK fast retransmit, a minimal RFC 5681
// congestion window, zero-window persist probes, inbound RST handling,
// TIME_WAIT, and out-of-order reassembly (tcp_control.hpp) — all driven
// by a per-connection timer wheel (sim/timer_wheel.hpp) instead of the
// old fixed `pump(rto)` rounds.
//
// write() is synchronous: it returns once every byte has been
// acknowledged — the paper calls this out as the source of TCP's extra
// ping-pong latency over UDP, and we inherit the behaviour deliberately.
//
// The receive fast path reads and writes the shared TCB block (tcb_shm.hpp)
// so the exact same state can instead be maintained by a downloaded
// ASH/upcall handler; when one is attached, the library's read path simply
// watches the shared staging ring and only runs protocol code for packets
// the handler declined (aborted on).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "proto/an2_link.hpp"
#include "proto/link.hpp"
#include "proto/headers.hpp"
#include "proto/tcb_shm.hpp"
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

struct TcpConfig {
  Ipv4Addr local_ip;
  Ipv4Addr remote_ip;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  std::uint32_t mss = 3072;      // AN2 default; 1500 Ethernet; 536 WAN
  std::uint32_t window = 8192;   // fixed, as in the experiments
  bool checksum = true;
  /// "In place" receive (Table II): the application uses data where the
  /// network put it, so the library's network-buffer-to-read-buffer copy
  /// is never paid. (The bytes still move for simulation correctness;
  /// they just cost nothing — the zero-copy path.)
  bool in_place = false;
  sim::Cycles rto = sim::us(100000.0);  // initial RTO before any RTT sample
  /// RTO floor (RFC 6298 G): must exceed the serialization time of a full
  /// window on the slowest modeled link or ACKs race the timer. Clamped
  /// to `rto` at construction so configs that ask for faster recovery
  /// (tests, benches) get it.
  sim::Cycles min_rto = sim::us(25000.0);
  sim::Cycles max_rto = sim::us(2000000.0);
  /// TIME_WAIT hold (2MSL). Sim-scaled: wire MSL here is microseconds,
  /// not minutes; long enough to absorb a retransmitted FIN.
  sim::Cycles time_wait = sim::us(10000.0);
  int max_retries = 8;
  std::uint32_t iss = 1000;      // initial send sequence (deterministic)
  /// Buffer out-of-order segments for reassembly. Off = the pre-refactor
  /// drop-everything receiver (kept as the soak baseline).
  bool reassemble = true;
  /// Byte cap on the out-of-order store (0 = 2 * window).
  std::uint32_t ooo_limit = 0;
  /// Answer segments that arrive while Closed (and not listening) with a
  /// RST, like a real host. Off by default: library connections are
  /// created before their peer speaks, and a SYN racing construction
  /// must get silence (and a retransmit), not a reset.
  bool rst_when_closed = false;
};

class TcpConnection {
 public:
  TcpConnection(Link& link, const TcpConfig& config);

  Link& link() noexcept { return link_; }
  TcpState state() const noexcept { return state_; }
  const TcpConfig& config() const noexcept { return cfg_; }
  TcbShm& shm() noexcept { return shm_; }

  /// Active open: SYN -> SYN/ACK -> ACK. False on timeout/failure.
  sim::Sub<bool> connect();

  /// Passive open: await SYN, reply SYN/ACK, await ACK.
  sim::Sub<bool> accept();

  /// Send `len` bytes from application memory, segmented at the MSS,
  /// honoring min(peer window, congestion window); returns once all
  /// bytes are ACKed.
  sim::Sub<bool> write_from(std::uint32_t app_addr, std::uint32_t len);

  /// Read up to `max_len` bytes into application memory; blocks until at
  /// least one byte (or connection teardown — then returns 0).
  sim::Sub<std::uint32_t> read_into(std::uint32_t app_addr,
                                    std::uint32_t max_len);

  /// Consume up to `max_len` buffered bytes without copying them anywhere
  /// (the experiments' "throw away the application data" receiver, and
  /// the natural read for in-place consumers).
  sim::Sub<std::uint32_t> read_discard(std::uint32_t max_len);

  /// Orderly close: full RFC 793 teardown — active close passes through
  /// FIN_WAIT/TIME_WAIT, passive close through LAST_ACK.
  sim::Sub<void> close();

  /// When a kernel handler (ASH/upcall) maintains the shared TCB, the
  /// library must not consume packets greedily: read_into watches the
  /// staging ring and polls the notify ring only for handler fallbacks.
  void set_handler_attached(bool on) noexcept { handler_attached_ = on; }

  struct Stats {
    std::uint64_t segments_in = 0;
    std::uint64_t fastpath_hits = 0;
    std::uint64_t slowpath = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t cksum_failures = 0;
    std::uint64_t acks_sent = 0;
    /// Genuinely unbufferable arrivals: out of window, or the OOO store
    /// was full (with reassembly off: every non-in-order segment).
    std::uint64_t ooo_dropped = 0;
    std::uint64_t aborts = 0;  // torn down on retry exhaustion or RST
    // Split from the old ooo_dropped catch-all: retransmission noise
    // (already-delivered data) vs. genuine reordering.
    std::uint64_t dup_segments = 0;    // entirely below rcv_nxt
    std::uint64_t ooo_buffered = 0;    // segments parked for reassembly
    std::uint64_t ooo_reassembled = 0; // bytes later drained in order
    std::uint64_t rsts_received = 0;   // acceptable RSTs (tore us down)
    std::uint64_t rsts_ignored = 0;    // RSTs failing seq validation
    std::uint64_t rsts_sent = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t rto_timeouts = 0;
    std::uint64_t persist_probes = 0;  // zero-window probes sent
    std::uint64_t window_updates = 0;  // reopen ACKs from the read path
    std::uint64_t stage_full_drops = 0;  // in-order but staging ring full
    std::uint64_t timewait_drops = 0;  // out-of-window segs in TIME_WAIT
  };
  const Stats& stats() const noexcept { return stats_; }

  /// Segments awaiting acknowledgement (empty after teardown — a torn
  /// down connection keeps nothing to retransmit).
  std::size_t retx_depth() const noexcept { return retx_.size(); }

  /// Current retransmission timeout (adaptive; backs off exponentially).
  sim::Cycles current_rto() const noexcept { return rto_cur_; }
  std::uint32_t cwnd() const noexcept { return cc_.cwnd(); }

 private:
  struct RetxSegment {
    std::uint32_t seq;
    std::vector<std::uint8_t> payload;
    TcpFlags flags;
    int retries = 0;
  };

  enum TimerKind : std::uint64_t {
    kTimerRetx = 1,
    kTimerPersist = 2,
    kTimerTimeWait = 3,
  };

  // ---- shared-TCB convenience ----
  std::uint32_t rcv_nxt() const { return shm_.get(tcb::kRcvNxt); }
  void set_rcv_nxt(std::uint32_t v) { shm_.set(tcb::kRcvNxt, v); }
  std::uint32_t snd_una() const { return shm_.get(tcb::kSndUna); }
  void set_snd_una(std::uint32_t v) { shm_.set(tcb::kSndUna, v); }
  std::uint32_t snd_wnd() const { return shm_.get(tcb::kSndWnd); }
  void set_state(TcpState s);

  std::uint32_t advertised_window() const;
  std::uint32_t ooo_limit() const {
    return cfg_.ooo_limit ? cfg_.ooo_limit : 2 * cfg_.window;
  }

  /// Transmit one segment (flags + optional payload from app memory or a
  /// retransmit buffer). Appends to the retransmit queue when it carries
  /// data or SYN/FIN.
  sim::Sub<bool> send_segment(TcpFlags flags,
                              std::span<const std::uint8_t> payload,
                              bool queue_retx);

  sim::Sub<bool> send_ack();

  /// Raw RST (optionally carrying an ACK) at an explicit sequence —
  /// answers segments for which no connection state exists.
  sim::Sub<void> send_rst(std::uint32_t seq, std::uint32_t ack,
                          bool with_ack);

  /// Process one raw packet from the link (any state). Updates shared and
  /// private state, sends ACKs as needed.
  sim::Sub<void> process_packet(const net::RxDesc& d);

  /// Inbound RST: RFC 5961-style sequence validation, then teardown.
  void process_rst(const TcpHeader& tcp);

  /// Wait for a packet or the next timer deadline (whichever is sooner,
  /// capped at `horizon`), then service expired timers. Returns true if
  /// a packet was processed and the connection is still alive.
  sim::Sub<bool> wait_step(sim::Cycles horizon);

  /// Fire expired wheel timers: retransmission (with backoff), persist
  /// probes, TIME_WAIT expiry. False when a retransmission exhausted the
  /// retry budget (the connection is then fully torn down).
  sim::Sub<bool> service_timers();
  /// Empty poll iterations up to the next timer deadline (or event).
  [[nodiscard]] sim::Process::PollIdle poll_idle();

  /// Retransmit the oldest unacked segment. `count_retry` burns retry
  /// budget (RTO path); fast retransmit passes false. False when retries
  /// are exhausted — the connection is then fully torn down (state
  /// Closed, retransmit queue cleared, shared TCB in agreement).
  sim::Sub<bool> resend_front(bool count_retry);

  /// Retry budget exhausted or RST: tear the connection down instead of
  /// leaving a half-open TCB.
  void abort_connection();

  /// Pop retransmit segments fully covered by `ack` (also reconciles
  /// handler-driven kSndUna advances) and re-arm the retx timer.
  void reap_acked(std::uint32_t ack);

  void arm_retx_timer();
  void cancel_timer(sim::TimerWheel::Id& id);
  void enter_time_wait();
  /// FIN_WAIT -> TIME_WAIT / LAST_ACK -> CLOSED once our FIN is acked.
  void maybe_finish_close();

  void stage_append(const std::uint8_t* data, std::uint32_t len,
                    sim::Cycles* cycles);
  /// Drain bytes now contiguous at rcv_nxt from the OOO store into the
  /// staging ring.
  void drain_ooo(sim::Cycles* cycles);

  Link& link_;
  TcpConfig cfg_;
  TcbShm shm_;
  TcpState state_ = TcpState::Closed;

  std::uint32_t snd_nxt_ = 0;
  std::uint32_t last_advertised_wnd_ = 0;
  bool peer_fin_seen_ = false;
  bool handler_attached_ = false;
  bool listening_ = false;

  std::deque<RetxSegment> retx_;
  std::uint16_t next_ident_ = 1;

  // Adaptive retransmission (RFC 6298) + congestion control (RFC 5681).
  RttEstimator rtt_;
  CongestionWindow cc_;
  sim::Cycles rto_cur_ = 0;
  std::uint32_t dup_acks_ = 0;
  bool rtt_pending_ = false;     // a timed segment is in flight
  std::uint32_t rtt_seq_ = 0;    // ack covering this ends the sample
  sim::Cycles rtt_sent_at_ = 0;

  // Out-of-order reassembly.
  OooBuffer ooo_;

  // Timer wheel: retransmission, persist, TIME_WAIT.
  sim::TimerWheel wheel_;
  sim::TimerWheel::Id retx_timer_ = 0;
  sim::TimerWheel::Id persist_timer_ = 0;
  sim::TimerWheel::Id timewait_timer_ = 0;
  bool persist_fire_ = false;    // persist timer expired; writer must probe

  Stats stats_;
};

}  // namespace ash::proto
