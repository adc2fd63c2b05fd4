// Event-driven multi-connection TCP: one process, one link, many flows.
//
// TcpConnection (tcp.hpp) is the paper's shape: one process per
// connection, a blocking API, and a shared TCB for a downloaded
// fast-path handler. Every process owns a fixed 1 MB segment and a node
// holds 16 MB, so ten thousand blocking connections cannot fit inside the
// simulator. TcpEngine is the classic answer, an event loop that drives
// one TcpFlow machine (tcp_flow.hpp) per connection over a single link
// binding. The machine makes every protocol decision; the engine keeps
// what multiplexing needs:
//
//  * a connection table sharded by the same flow hash the multi-queue
//    receive path steers on (net::SteeringPolicy::flow_channel), so an
//    RX queue's segments land in a shard owned by that queue's CPU;
//  * a TcpListener with a SYN backlog that spawns a flow per acceptable
//    inbound SYN;
//  * per-flow byte buffers in host memory (the sim charges the copy
//    cycles, the bytes never occupy the 1 MB segment), which is what
//    makes ten thousand concurrent flows fit;
//  * one shared timer wheel for every flow's timers, cookie-keyed by
//    (conn id << 2 | kind);
//  * a RST for every segment no flow or listener owns;
//  * batched output: flows that owe segments are flushed once per step,
//    with at most a few distinct pure ACKs owed per flow;
//  * callbacks, and flow destruction deferred to the end of a step.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/rx_queue.hpp"
#include "proto/headers.hpp"
#include "proto/link.hpp"
#include "proto/tcp_flow.hpp"
#include "sim/timer_wheel.hpp"

namespace ash::proto {

/// The flow label the receive path and the connection table share: both
/// sides hash the 4-tuple the same way, so SteeringPolicy::pick sends a
/// flow's segments to the RX queue that owns the flow's table shard.
inline int flow_channel(Ipv4Addr local_ip, const FlowKey& key) {
  return net::SteeringPolicy::flow_channel(local_ip.value,
                                           key.remote_ip.value,
                                           key.local_port, key.remote_port);
}

class TcpEngine {
 public:
  using ConnId = std::uint32_t;

  struct Config : TcpParams {
    Config() {
      mss = 1456;
      iss = 1;  // per-flow ISS derives from this
    }
    Ipv4Addr local_ip;
    /// Host-side receive buffer cap per connection; doubles as the
    /// advertised window bound.
    std::uint32_t rcv_limit = 16384;
    /// Connection-table shards; align with the RX queue count so each
    /// queue's flows hash into its own shard.
    std::size_t shards = 4;
    net::SteeringPolicy steering{};
    /// Max frames drained per step before timers/output run again.
    std::uint32_t rx_batch = 64;
  };

  /// Per-connection upcalls. All fire from within step(); they may call
  /// back into the data-plane API (write/read/close) freely.
  struct Callbacks {
    std::function<void(ConnId)> on_established;
    /// New bytes are readable, or EOF arrived (readable()==0 + eof()).
    std::function<void(ConnId)> on_readable;
    /// The TCB is gone (orderly close, RST, or retry exhaustion); the id
    /// is invalid after this returns.
    std::function<void(ConnId)> on_closed;
  };

  struct ListenConfig {
    Callbacks callbacks;
    /// Connections allowed in SYN_RCVD at once; SYNs beyond it dropped.
    std::uint32_t backlog = 128;
  };

  /// Passive-open endpoint: spawns a TCB per acceptable inbound SYN.
  struct TcpListener {
    std::uint16_t port = 0;
    ListenConfig cfg;
    std::uint32_t pending = 0;        // TCBs currently in SYN_RCVD
    std::uint64_t accepted = 0;       // reached ESTABLISHED
    std::uint64_t backlog_drops = 0;  // SYNs dropped at full backlog
  };

  using Stats = TcpStats;

  TcpEngine(Link& link, const Config& config);
  ~TcpEngine();
  TcpEngine(const TcpEngine&) = delete;
  TcpEngine& operator=(const TcpEngine&) = delete;

  Link& link() noexcept { return link_; }
  const Config& config() const noexcept { return cfg_; }
  const Stats& stats() const noexcept { return stats_; }

  // ---- control plane ----

  /// Start listening on `port`. One listener per port.
  TcpListener& listen(std::uint16_t port, ListenConfig cfg);

  /// Active open: queues a SYN (sent by the next step()) and returns the
  /// new connection's id immediately. 0 on failure (port collision).
  ConnId connect(Ipv4Addr remote_ip, std::uint16_t remote_port,
                 std::uint16_t local_port, Callbacks callbacks);

  /// Graceful close: FIN once the send buffer drains.
  void close(ConnId id);
  /// Abortive close: RST now, TCB destroyed this step.
  void abort(ConnId id);

  // ---- data plane (host-side byte streams) ----

  /// Append bytes to the connection's send buffer; transmitted as window
  /// allows. False if the id is unknown or past its sending states.
  bool write(ConnId id, std::span<const std::uint8_t> data);

  /// Copy up to `max_len` received bytes out (host memory). Reopening
  /// the receive window may queue a window-update ACK.
  std::size_t read(ConnId id, std::uint8_t* out, std::size_t max_len);

  std::size_t readable(ConnId id) const;
  /// True once the peer's FIN is processed and the buffer is drained.
  bool at_eof(ConnId id) const;
  std::optional<TcpState> state(ConnId id) const;
  std::size_t unsent(ConnId id) const;

  // ---- event loop ----

  /// One iteration: flush pending output, wait up to `max_wait` for a
  /// frame (bounded by the next timer deadline), drain a batch, service
  /// timers, flush again. Returns true if any frame was processed.
  sim::Sub<bool> step(sim::Cycles max_wait);

  /// Run step() until `done` is set or `deadline` (absolute sim time,
  /// 0 = no deadline) passes.
  sim::Sub<void> run(const bool& done, sim::Cycles deadline = 0,
                     sim::Cycles idle_wait = sim::us(500.0));

  // ---- introspection ----

  std::size_t open_connections() const noexcept { return by_id_.size(); }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of(ConnId id) const;
  std::vector<std::size_t> shard_sizes() const;

 private:
  class FlowHost;

  struct Tcb {
    ConnId id = 0;
    std::size_t shard = 0;
    TcpListener* listener = nullptr;  // set on passive opens until est.
    Callbacks cbs;
    TcpFlow flow;
    std::deque<std::uint8_t> sndbuf;  // queued, not yet segmented
    std::deque<std::uint8_t> rcvbuf;  // in-order, not yet read
    bool readable_eof_signaled = false;
    bool dirty = false;  // queued on the flush list
    bool dead = false;   // queued for destruction
  };

  struct FlowHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return static_cast<std::size_t>(net::SteeringPolicy::flow_channel(
          0, k.remote_ip.value, k.local_port, k.remote_port));
    }
  };

  Tcb* find(ConnId id) noexcept;
  const Tcb* find(ConnId id) const noexcept;
  Tcb* lookup(const FlowKey& key) noexcept;
  Tcb& create_tcb(const FlowKey& key, Callbacks cbs);
  /// Destroy the flow once its machine has closed it (deferred: marks it
  /// dead, reaped per step). True when the flow is dead.
  bool settle(Tcb& t);
  void reap_dead();
  void mark_dirty(Tcb& t);

  /// Parse + dispatch one frame. Pure state mutation: all transmission
  /// is deferred to the flush pass (segments batch per step).
  void process_frame(const net::RxDesc& d, sim::Cycles* cycles);
  void handle_syn(const FlowKey& key, const TcpHeader& tcp);
  void enter_established(Tcb& t);
  void signal_readable(Tcb& t);

  void service_timers();
  sim::Sub<void> flush();
  sim::Sub<void> pump_tcb(Tcb& t);
  sim::Sub<bool> transmit(TcpFlow::Frame f);

  /// RST owed to a segment that matched no flow (and no listener).
  struct RawRst {
    FlowKey key;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    bool with_ack = false;
  };

  Link& link_;
  Config cfg_;
  Stats stats_;

  std::vector<std::unordered_map<FlowKey, std::unique_ptr<Tcb>, FlowHash>>
      shards_;
  std::unordered_map<ConnId, Tcb*> by_id_;
  std::unordered_map<std::uint16_t, TcpListener> listeners_;
  ConnId next_id_ = 1;

  sim::TimerWheel wheel_;
  std::vector<ConnId> dirty_;
  std::vector<ConnId> dead_;
  std::vector<RawRst> raw_rsts_;  // unknown-flow RSTs, sent during flush
};

}  // namespace ash::proto
