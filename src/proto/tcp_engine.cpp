#include "proto/tcp_engine.hpp"

#include <algorithm>

#include "sim/memops.hpp"
#include "sim/node.hpp"

namespace ash::proto {

namespace {
constexpr sim::Cycles kWheelGranularity = sim::us(1000.0);
constexpr std::size_t kWheelBuckets = 256;
}  // namespace

/// The engine's side of one flow: host-deque buffers, the dirty list,
/// callbacks, and the (id << 2 | kind) timer cookies.
class TcpEngine::FlowHost final : public TcpFlowHost {
 public:
  FlowHost(TcpEngine& e, Tcb& t)
      : TcpFlowHost(e.link_, e.cfg_, e.stats_, e.wheel_, e.cfg_.local_ip),
        e_(e),
        t_(t) {}

  std::uint64_t timer_cookie() const override {
    return static_cast<std::uint64_t>(t_.id) << 2;
  }
  std::uint32_t rcv_space() const override {
    const auto used = static_cast<std::uint32_t>(t_.rcvbuf.size());
    return used >= e_.cfg_.rcv_limit ? 0 : e_.cfg_.rcv_limit - used;
  }
  void deliver(std::span<const std::uint8_t> bytes, bool,
               sim::Cycles* cycles) override {
    t_.rcvbuf.insert(t_.rcvbuf.end(), bytes.begin(), bytes.end());
    // Network-buffer-to-socket-buffer copy, charged per word.
    *cycles += (bytes.size() + 3) / 4 *
               link.self().node().cost().copy_loop_insns_per_word;
  }
  void owe() override { e_.mark_dirty(t_); }
  void send_window() override {
    if (!t_.sndbuf.empty() || t_.flow.closing()) e_.mark_dirty(t_);
  }
  void established() override { e_.enter_established(t_); }
  void readable() override { e_.signal_readable(t_); }

 private:
  TcpEngine& e_;
  Tcb& t_;
};

TcpEngine::TcpEngine(Link& link, const Config& config)
    : link_(link), cfg_(config), wheel_(kWheelGranularity, kWheelBuckets) {
  shards_.resize(std::max<std::size_t>(1, cfg_.shards));
}

TcpEngine::~TcpEngine() = default;

// --------------------------------------------------------------- lookup

TcpEngine::Tcb* TcpEngine::find(ConnId id) noexcept {
  const auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second->dead) return nullptr;
  return it->second;
}

const TcpEngine::Tcb* TcpEngine::find(ConnId id) const noexcept {
  const auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second->dead) return nullptr;
  return it->second;
}

TcpEngine::Tcb* TcpEngine::lookup(const FlowKey& key) noexcept {
  const std::size_t shard = cfg_.steering.pick(
      flow_channel(cfg_.local_ip, key), nullptr, shards_.size());
  auto& map = shards_[shard];
  const auto it = map.find(key);
  return it == map.end() ? nullptr : it->second.get();
}

TcpEngine::Tcb& TcpEngine::create_tcb(const FlowKey& key, Callbacks cbs) {
  const std::size_t shard = cfg_.steering.pick(
      flow_channel(cfg_.local_ip, key), nullptr, shards_.size());
  auto tcb = std::make_unique<Tcb>();
  Tcb& t = *tcb;
  t.id = next_id_++;
  t.shard = shard;
  t.cbs = std::move(cbs);
  // Distinct ISS per flow keeps sequence spaces from aliasing in traces.
  FlowHost h(*this, t);
  t.flow.init(h, key, cfg_.iss + t.id * 0x01000000u);
  shards_[shard].emplace(key, std::move(tcb));
  by_id_.emplace(t.id, &t);
  return t;
}

bool TcpEngine::settle(Tcb& t) {
  if (t.dead) return true;
  if (t.flow.state() != TcpState::Closed) return false;
  t.dead = true;
  if (t.listener != nullptr) --t.listener->pending;  // died in SYN_RCVD
  t.sndbuf.clear();
  dead_.push_back(t.id);
  return true;
}

void TcpEngine::reap_dead() {
  while (!dead_.empty()) {
    std::vector<ConnId> batch;
    batch.swap(dead_);
    for (const ConnId id : batch) {
      const auto it = by_id_.find(id);
      if (it == by_id_.end()) continue;
      Tcb* t = it->second;
      // The upcall sees the id one last time; the TCB is unreachable
      // through the public API already (find() skips dead flows).
      if (t->cbs.on_closed) t->cbs.on_closed(id);
      ++stats_.conns_closed;
      by_id_.erase(it);
      shards_[t->shard].erase(t->flow.key());  // frees *t
    }
  }
}

void TcpEngine::mark_dirty(Tcb& t) {
  if (t.dirty || t.dead) return;
  t.dirty = true;
  dirty_.push_back(t.id);
}

void TcpEngine::service_timers() {
  std::vector<sim::TimerWheel::Expired> fired;
  wheel_.advance(link_.self().node().now(), fired);
  for (const auto& e : fired) {
    Tcb* t = find(static_cast<ConnId>(e.cookie >> 2));
    if (t == nullptr) continue;
    FlowHost h(*this, *t);
    t->flow.on_timer(h, static_cast<TcpFlow::TimerKind>(e.cookie & 3));
    settle(*t);
  }
}

// -------------------------------------------------------- control plane

TcpEngine::TcpListener& TcpEngine::listen(std::uint16_t port,
                                          ListenConfig cfg) {
  TcpListener& l = listeners_[port];
  l.port = port;
  l.cfg = std::move(cfg);
  return l;
}

TcpEngine::ConnId TcpEngine::connect(Ipv4Addr remote_ip,
                                     std::uint16_t remote_port,
                                     std::uint16_t local_port,
                                     Callbacks callbacks) {
  const FlowKey key{remote_ip, remote_port, local_port};
  if (lookup(key) != nullptr) return 0;  // 4-tuple already in use
  Tcb& t = create_tcb(key, std::move(callbacks));
  ++stats_.conns_opened;
  FlowHost h(*this, t);
  t.flow.open_active(h);
  return t.id;
}

void TcpEngine::close(ConnId id) {
  Tcb* t = find(id);
  if (t == nullptr) return;
  FlowHost h(*this, *t);
  t->flow.close(h);
  settle(*t);
}

void TcpEngine::abort(ConnId id) {
  Tcb* t = find(id);
  if (t == nullptr) return;
  const TcpFlow& f = t->flow;
  if (f.state() != TcpState::Closed) {
    raw_rsts_.push_back(RawRst{f.key(), f.snd_nxt(), f.rcv_nxt(), true});
  }
  FlowHost h(*this, *t);
  t->flow.abort(h);
  settle(*t);
}

// ----------------------------------------------------------- data plane

bool TcpEngine::write(ConnId id, std::span<const std::uint8_t> data) {
  Tcb* t = find(id);
  if (t == nullptr || t->flow.closing()) return false;
  const TcpState st = t->flow.state();
  switch (st) {
    case TcpState::SynSent:
    case TcpState::SynRcvd:
    case TcpState::Established:
    case TcpState::CloseWait:
      break;
    default:
      return false;
  }
  t->sndbuf.insert(t->sndbuf.end(), data.begin(), data.end());
  if (st == TcpState::Established || st == TcpState::CloseWait) {
    mark_dirty(*t);
  }
  return true;
}

std::size_t TcpEngine::read(ConnId id, std::uint8_t* out,
                            std::size_t max_len) {
  Tcb* t = find(id);
  if (t == nullptr) return 0;
  const std::size_t n = std::min(max_len, t->rcvbuf.size());
  const auto end = t->rcvbuf.begin() + static_cast<std::ptrdiff_t>(n);
  std::copy(t->rcvbuf.begin(), end, out);
  t->rcvbuf.erase(t->rcvbuf.begin(), end);
  if (n > 0) {
    FlowHost h(*this, *t);
    t->flow.consumed(h);
  }
  return n;
}

std::size_t TcpEngine::readable(ConnId id) const {
  const Tcb* t = find(id);
  return t == nullptr ? 0 : t->rcvbuf.size();
}

bool TcpEngine::at_eof(ConnId id) const {
  const Tcb* t = find(id);
  if (t == nullptr) return true;
  return t->flow.peer_fin() && t->rcvbuf.empty();
}

std::optional<TcpState> TcpEngine::state(ConnId id) const {
  const Tcb* t = find(id);
  if (t == nullptr) return std::nullopt;
  return t->flow.state();
}

std::size_t TcpEngine::unsent(ConnId id) const {
  const Tcb* t = find(id);
  return t == nullptr ? 0 : t->sndbuf.size();
}

std::size_t TcpEngine::shard_of(ConnId id) const {
  const Tcb* t = find(id);
  return t == nullptr ? 0 : t->shard;
}

std::vector<std::size_t> TcpEngine::shard_sizes() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) out.push_back(s.size());
  return out;
}

// -------------------------------------------------------------- receive

void TcpEngine::signal_readable(Tcb& t) {
  if (!t.cbs.on_readable) return;
  if (t.rcvbuf.empty() && t.flow.peer_fin()) {
    if (t.readable_eof_signaled) return;
    t.readable_eof_signaled = true;
  }
  t.cbs.on_readable(t.id);
}

void TcpEngine::enter_established(Tcb& t) {
  if (t.listener != nullptr) {
    --t.listener->pending;
    ++t.listener->accepted;
    ++stats_.conns_accepted;
    t.listener = nullptr;
  }
  if (!t.sndbuf.empty() || t.flow.closing()) mark_dirty(t);
  if (t.cbs.on_established) t.cbs.on_established(t.id);
}

void TcpEngine::process_frame(const net::RxDesc& d, sim::Cycles* cycles) {
  sim::Node& node = link_.self().node();
  const std::uint32_t ip_off = link_.rx_ip_offset();
  if (d.len < ip_off) return;
  const std::uint8_t* p = node.mem(d.addr + ip_off, d.len - ip_off);
  ++stats_.segments_in;

  const auto ip = decode_ip({p, d.len - ip_off});
  if (!ip || ip->protocol != kIpProtoTcp || ip->dst != cfg_.local_ip) {
    return;
  }
  const std::uint32_t seg_len = ip->total_len - kIpHeaderLen;
  const std::span<const std::uint8_t> seg{p + kIpHeaderLen, seg_len};
  const auto tcp = decode_tcp(seg);
  if (!tcp) return;
  const std::uint32_t plen =
      seg_len - static_cast<std::uint32_t>(kTcpHeaderLen);

  *cycles += node.cost().tcp_slowpath_overhead;
  if (cfg_.checksum) {
    std::uint32_t acc = 0;
    *cycles += node.cost().udp_cksum_setup;
    *cycles += sim::memops::cksum(node, d.addr + ip_off + kIpHeaderLen,
                                  seg_len, &acc);
    if (!transport_checksum_ok_le(ip->src, ip->dst, kIpProtoTcp,
                                  static_cast<std::uint16_t>(seg_len), acc)) {
      ++stats_.cksum_failures;
      return;
    }
  }

  const FlowKey key{ip->src, tcp->src_port, tcp->dst_port};
  Tcb* t = lookup(key);
  if (t != nullptr && !t->dead) {
    FlowHost h(*this, *t);
    t->flow.on_segment(h, *tcp, seg.subspan(kTcpHeaderLen), cycles);
    settle(*t);
    return;
  }

  // No flow state. A fresh SYN may match a listener; anything else is
  // answered with a RST (RFC 793 CLOSED rules), never with one for an
  // inbound RST (no RST storms).
  if (tcp->flags.syn && !tcp->flags.ack) {
    handle_syn(key, *tcp);
    return;
  }
  if (tcp->flags.rst) return;
  ++stats_.unknown_flow_rsts;
  if (tcp->flags.ack) {
    raw_rsts_.push_back(RawRst{key, tcp->ack, 0, false});
  } else {
    raw_rsts_.push_back(RawRst{
        key, 0,
        tcp->seq + plen + (tcp->flags.syn ? 1 : 0) + (tcp->flags.fin ? 1 : 0),
        true});
  }
}

void TcpEngine::handle_syn(const FlowKey& key, const TcpHeader& tcp) {
  const auto lit = listeners_.find(key.local_port);
  if (lit == listeners_.end()) {
    ++stats_.unknown_flow_rsts;
    raw_rsts_.push_back(RawRst{key, 0, tcp.seq + 1, true});
    return;
  }
  TcpListener& l = lit->second;
  if (l.pending >= l.cfg.backlog) {
    // Full backlog: drop silently — the client's SYN retransmit is the
    // retry path, exactly like a kernel with a full SYN queue.
    ++l.backlog_drops;
    ++stats_.syn_backlog_drops;
    return;
  }
  Tcb& t = create_tcb(key, l.cfg.callbacks);
  t.listener = &l;
  ++l.pending;
  FlowHost h(*this, t);
  t.flow.open_passive(h, tcp);
}

// ------------------------------------------------------------- transmit

sim::Sub<bool> TcpEngine::transmit(TcpFlow::Frame f) {
  co_await link_.self().compute(f.cycles);
  const bool sent = co_await link_.send_ip(f.pkt, f.len);
  co_return sent;
}

sim::Sub<void> TcpEngine::pump_tcb(Tcb& t) {
  if (t.dead) co_return;
  FlowHost h(*this, t);
  TcpFlow& f = t.flow;

  // Handshake segments, then loss recovery: fast retransmit, or an RTO
  // resend that charges the retry budget and may tear the flow down.
  for (TcpFlow::Frame fr = f.next_control(h); fr.len > 0;
       fr = f.next_control(h)) {
    const bool sent = co_await transmit(fr);
    (void)sent;
    if (fr.resent) f.rearm(h);
  }
  if (settle(t)) co_return;

  // Data, segmented at the MSS under min(peer window, cwnd).
  bool sent_data = false;
  while (!t.sndbuf.empty()) {
    const std::uint32_t n = std::min<std::uint32_t>(
        f.send_room(h), static_cast<std::uint32_t>(t.sndbuf.size()));
    if (n == 0) break;
    std::vector<std::uint8_t> seg(t.sndbuf.begin(), t.sndbuf.begin() + n);
    t.sndbuf.erase(t.sndbuf.begin(), t.sndbuf.begin() + n);
    TcpFlags fl;
    fl.ack = true;
    fl.psh = t.sndbuf.empty();
    const bool sent = co_await transmit(f.emit(h, fl, seg, true));
    (void)sent;
    sent_data = true;
  }
  if (sent_data) f.acked_by_data();

  if (!t.sndbuf.empty() && f.probe_due(h)) {
    std::uint8_t probe = t.sndbuf.front();
    t.sndbuf.pop_front();
    TcpFlags fl;
    fl.ack = true;
    const bool sent = co_await transmit(f.emit(h, fl, {&probe, 1}, true));
    (void)sent;
  }

  if (t.sndbuf.empty()) {
    const TcpFlow::Frame fin = f.next_fin(h);
    if (fin.len > 0) {
      const bool sent = co_await transmit(fin);
      (void)sent;
    }
  }

  // Pure ACKs: each owed ACK goes out separately (out-of-order arrivals
  // owe distinct duplicates — they feed the peer's fast retransmit).
  for (TcpFlow::Frame fr = f.next_ack(h); fr.len > 0; fr = f.next_ack(h)) {
    const bool sent = co_await transmit(fr);
    (void)sent;
  }
}

sim::Sub<void> TcpEngine::flush() {
  while (!dirty_.empty() || !raw_rsts_.empty()) {
    std::vector<RawRst> rsts;
    rsts.swap(raw_rsts_);
    for (const RawRst& r : rsts) {
      ++stats_.rsts_sent;
      ++stats_.segments_out;
      const bool sent = co_await transmit(TcpFlow::encode_rst(
          link_, cfg_.checksum, cfg_.local_ip, r.key, r.seq, r.ack,
          r.with_ack));
      (void)sent;
    }
    std::vector<ConnId> work;
    work.swap(dirty_);
    for (const ConnId id : work) {
      const auto it = by_id_.find(id);
      if (it == by_id_.end()) continue;
      Tcb& t = *it->second;
      t.dirty = false;
      if (t.dead) continue;
      co_await pump_tcb(t);
    }
  }
}

// ------------------------------------------------------------ event loop

sim::Sub<bool> TcpEngine::step(sim::Cycles max_wait) {
  sim::Node& node = link_.self().node();
  co_await flush();
  reap_dead();

  sim::Cycles timeout = max_wait;
  const auto nd = wheel_.next_deadline();
  if (nd) {
    const sim::Cycles now = node.now();
    timeout = *nd > now ? std::min(max_wait, *nd - now) : 0;
  }

  bool got = false;
  sim::Cycles cycles = 0;
  if (timeout > 0) {
    auto d = co_await link_.recv_for(timeout);
    if (d) {
      process_frame(*d, &cycles);
      link_.release(*d);
      got = true;
      // Drain the burst that arrived behind the first frame, bounded so
      // timers and transmissions interleave under sustained load.
      for (std::uint32_t i = 1; i < cfg_.rx_batch; ++i) {
        auto m = link_.try_recv();
        if (!m) break;
        cycles += node.cost().poll_iteration;
        process_frame(*m, &cycles);
        link_.release(*m);
      }
    }
  }
  if (cycles > 0) {
    co_await link_.self().compute(cycles);
  }

  service_timers();
  co_await flush();
  reap_dead();
  co_return got;
}

sim::Sub<void> TcpEngine::run(const bool& done, sim::Cycles deadline,
                              sim::Cycles idle_wait) {
  sim::Node& node = link_.self().node();
  while (!done) {
    if (deadline != 0 && node.now() >= deadline) break;
    sim::Cycles wait = idle_wait;
    if (deadline != 0) {
      wait = std::min(wait, deadline - node.now());
    }
    const bool got = co_await step(wait);
    (void)got;
  }
  co_await flush();
  reap_dead();
}

}  // namespace ash::proto
