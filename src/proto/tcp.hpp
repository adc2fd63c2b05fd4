// User-level TCP: the paper's one-flow library (Section IV-D) over the
// per-flow TcpFlow machine (tcp_flow.hpp), which makes every protocol
// decision. The library keeps what makes it the paper's stack:
//
//  * a blocking API: connect/accept, a write() that returns once every
//    byte is acknowledged (the paper names this as the source of TCP's
//    extra ping-pong latency over UDP), and reads that wait on the link;
//  * a shared TCB (tcb_shm.hpp) holding the words the receive fast path
//    reads and writes, so a downloaded ASH/upcall handler can run it
//    (Section V-B). The machine's copies of those words are loaded
//    before each call and stored after it; a call never suspends, so no
//    handler runs in between. With a handler attached, the read path
//    watches the shared staging ring and runs protocol code only for
//    segments the handler declined;
//  * the staging ring as its receive buffer, with a charged copy unless
//    the receive is "in place", and the header-prediction charge;
//  * immediate transmission: an owed ACK, SYN/ACK or retransmission goes
//    out right after the segment or timer that owed it;
//  * one flow key: segments from any other host or port are ignored.
#pragma once

#include <cstdint>
#include <span>

#include "proto/an2_link.hpp"
#include "proto/link.hpp"
#include "proto/headers.hpp"
#include "proto/tcb_shm.hpp"
#include "proto/tcp_flow.hpp"
#include "sim/timer_wheel.hpp"

namespace ash::proto {

struct TcpConfig : TcpParams {
  Ipv4Addr local_ip;
  Ipv4Addr remote_ip;
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  /// "In place" receive (Table II): the application uses data where the
  /// network put it, so the library's network-buffer-to-read-buffer copy
  /// is never paid. (The bytes still move for simulation correctness;
  /// they just cost nothing — the zero-copy path.)
  bool in_place = false;
};

class TcpConnection {
 public:
  TcpConnection(Link& link, const TcpConfig& config);

  Link& link() noexcept { return link_; }
  TcpState state() const noexcept { return flow_.state(); }
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
                                    std::uint32_t max_len) {
    return read(app_addr, max_len, /*copy=*/true);
  }

  /// Consume up to `max_len` buffered bytes without copying them anywhere
  /// (the experiments' "throw away the application data" receiver, and
  /// the natural read for in-place consumers).
  sim::Sub<std::uint32_t> read_discard(std::uint32_t max_len) {
    return read(0, max_len, /*copy=*/false);
  }

  /// Orderly close: full RFC 793 teardown — active close passes through
  /// FIN_WAIT/TIME_WAIT, passive close through LAST_ACK.
  sim::Sub<void> close();

  /// When a kernel handler (ASH/upcall) maintains the shared TCB, the
  /// library must not consume packets greedily: reads watch the staging
  /// ring and poll the notify ring only for handler fallbacks.
  void set_handler_attached(bool on) noexcept { handler_attached_ = on; }

  using Stats = TcpStats;
  const Stats& stats() const noexcept { return stats_; }

  /// Segments awaiting acknowledgement (empty after teardown — a torn
  /// down connection keeps nothing to retransmit).
  std::size_t retx_depth() const noexcept { return flow_.retx_depth(); }

 private:
  /// The library's side of the flow: the staging ring is its receive
  /// buffer.
  class Host final : public TcpFlowHost {
   public:
    explicit Host(TcpConnection& c)
        : TcpFlowHost(c.link_, c.cfg_, c.stats_, c.wheel_, c.cfg_.local_ip),
          c_(c) {}
    std::uint32_t rcv_space() const override;
    void deliver(std::span<const std::uint8_t> bytes, bool reassembled,
                 sim::Cycles* cycles) override;

   private:
    TcpConnection& c_;
  };

  /// Run one machine call with the shared-TCB words loaded before it and
  /// stored after it.
  template <class F>
  decltype(auto) run(F&& call) {
    flow_.adopt(shm_.get(tcb::kRcvNxt), shm_.get(tcb::kSndUna),
                shm_.get(tcb::kSndWnd));
    struct Store {
      TcpConnection& c;
      ~Store() { c.store_shared(); }
    } store{*this};
    return call(flow_);
  }
  void store_shared();

  sim::Sub<std::uint32_t> read(std::uint32_t app_addr, std::uint32_t max_len,
                               bool copy);
  sim::Sub<bool> transmit(TcpFlow::Frame f);
  /// Send what the machine owes right now: SYN, SYN/ACK, a
  /// retransmission, the FIN, pure ACKs.
  sim::Sub<void> send_owed();

  /// Process one raw packet from the link (any state).
  sim::Sub<void> process_packet(const net::RxDesc& d);

  /// Wait for a packet or the next timer deadline (whichever is sooner,
  /// capped at `horizon`), then service expired timers.
  sim::Sub<void> wait_step(sim::Cycles horizon);

  /// Fire expired wheel timers and send what they owe. False when a
  /// retransmission exhausted the retry budget (the connection is then
  /// fully torn down).
  sim::Sub<bool> service_timers();
  /// Empty poll iterations up to the next timer deadline (or event).
  [[nodiscard]] sim::Process::PollIdle poll_idle();

  Link& link_;
  TcpConfig cfg_;
  TcbShm shm_;
  TcpStats stats_;
  sim::TimerWheel wheel_;
  TcpFlow flow_;
  Host host_{*this};
  bool handler_attached_ = false;
  bool listening_ = false;
};

}  // namespace ash::proto
