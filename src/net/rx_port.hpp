// The port both network devices share: its transmit tail and its receive
// side (Section III-C).
//
// In the paper, the two drivers differ only in how a frame lands: the AN2
// DMAs it into the VC's pinned buffer, the Ethernet stripes it into a
// scarce kernel buffer and runs DPF. Everything else is one mechanism, and
// it lives here, once:
//
//  * the transmit tail (the wire model): serialization behind earlier
//    frames, latency, and the link direction's fault injector;
//  * the per-channel table (an AN2 virtual circuit or an Ethernet/DPF
//    endpoint): owner, free and notification rings, arrival channel,
//    interrupt mode, and the channel's hook — a handler binding or a
//    per-frame kernel hook. It is the one record of what runs on a
//    channel: a smart NIC holds a channel resident exactly while it is
//    bound, and its units run the binding;
//  * the arrival trace and the steer tail of delivery: a smart-NIC offer
//    first, then the multi-queue receive set, else the inline path;
//  * the dispatch session over bound channels, hook invocation, and the
//    fallback of frames no hook consumed, for inline arrivals (a session
//    of one on the node's main CPU), fired RX queue batches, and NIC
//    punts alike.
//
// A device keeps only what really differs: its refusal checks, wire
// formula and latency, where a sent frame goes, how a frame lands, the
// stripe geometry the kernel hides from handlers, buffer recycling, and
// how a declined frame reaches and wakes its owner.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/fault.hpp"
#include "net/rx_queue.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"

namespace ash::trace {
enum class NicKind : std::uint8_t;
}  // namespace ash::trace

namespace ash::net {

class NicProcessor;

/// Where a received message landed.
struct RxDesc {
  std::uint32_t addr = 0;
  std::uint32_t len = 0;
};

class RxHandlers;
class RxPort;

/// One ASH dispatch session (DESIGN §7b): the bound runs of one fired RX
/// queue batch, or one inline arrival, on one CPU. The port opens it,
/// hands it to RxHandlers::run_in_session for each bound same-channel
/// run in arrival order, and ends it with RxHandlers::close_session. The
/// fields are the handler layer's running account of the session; the
/// port only carries them.
struct RxSession {
  sim::KernelCpu cpu;
  int first = -1;                       // first offered handler
  std::uint32_t offered = 0;            // messages offered to handlers
  std::uint32_t executed = 0;           // messages that ran a handler
  const sim::Process* owner = nullptr;  // owner of the last one that ran
  sim::Cycles charged = 0;              // the whole charge so far
  std::uint64_t insns = 0;
  bool cleared = false;                 // the exit charge is paid
};

/// A channel's handler binding: the handler id and argument attach gave.
struct RxBinding {
  RxHandlers* handlers = nullptr;  // null: not bound
  int handler = -1;
  std::uint32_t user_arg = 0;
};

/// The handler layer behind a port's bound channels. core::AshSystem
/// implements it (net cannot depend on core, as with RxQuota).
class RxHandlers {
 public:
  virtual ~RxHandlers() = default;
  /// Run `b`'s handler over `frames` (one channel) inside `s`, in kernel
  /// context on s.cpu: set consumed[i] for each committed frame, and
  /// charge the run on s.cpu with its replies released when that charge
  /// completes. `last`: no run follows in this session, so a run that
  /// charges anything also carries the session's exit charge.
  virtual void run_in_session(RxSession& s, RxPort& port,
                              const RxBinding& b,
                              std::span<const RxFrame> frames, bool last,
                              bool* consumed) = 0;
  /// End `s` once its last run has settled: pay the exit charge if no
  /// run carried it.
  virtual void close_session(RxSession& s) = 0;
  /// The NIC memory-window footprint of `handler`: what binding it on a
  /// port with a NicProcessor reserves there.
  virtual std::uint32_t nic_footprint(int handler) const = 0;
  /// Run `b`'s handler over one NIC-resident frame on `unit`, charging
  /// the unit under the NIC cost model (the unit releases its replies).
  virtual NicExecResult run_on_nic(RxPort& port, const RxBinding& b,
                                   const RxFrame& frame,
                                   NicExecUnit& unit) = 0;
};

class RxPort : public RxSink {
 public:
  // Receive-path callbacks and hooks hold the port's address.
  RxPort(const RxPort&) = delete;
  RxPort& operator=(const RxPort&) = delete;

  /// Event delivered to a per-frame kernel receive hook. `desc` is the
  /// message as the device laid it out: on a striped port
  /// (stripe_chunk() != 0) it points at the striped kernel buffer and
  /// `len` is the logical frame length.
  struct RxEvent {
    int channel;
    RxDesc desc;
    sim::Process* owner;
  };
  /// Runs in kernel context once the frame's driver pass is done. Return
  /// true if the message was consumed; false falls back to the owner.
  using KernelHook = std::function<bool(const RxEvent&)>;

  sim::Node& node() noexcept { return node_; }

  // ---- what the ASH layer needs to know about the device ----

  /// Nonzero: the device stripes messages in chunks of this many bytes
  /// followed by as many padding bytes (Section III-C).
  virtual std::uint32_t stripe_chunk() const noexcept = 0;
  /// Transmit `bytes` on `channel` (a device without channels ignores
  /// it). Wire time only; the caller charges tx_kernel_work(). false: the
  /// device refused it (a frame lost to a fault still counts as sent).
  virtual bool send(int channel, std::span<const std::uint8_t> bytes) = 0;
  /// Send `len` bytes at `addr` in this node's memory; false if the range
  /// is bad or send() refuses.
  bool send_from(int channel, std::uint32_t addr, std::uint32_t len) {
    const std::uint8_t* p = node_.mem(addr, len);
    return p != nullptr && send(channel, {p, len});
  }
  /// Kernel-side CPU work per transmit.
  virtual sim::Cycles tx_kernel_work() const noexcept = 0;

  /// Per-fault-class event counts for this port's transmit direction.
  const FaultCounters& fault_counters() const noexcept {
    return faults_.counters();
  }
  /// Swap the fault schedule mid-run (loss sweeps, link-heal tests).
  void set_faults(const FaultConfig& faults) { faults_.set_config(faults); }

  // ---- channels ----

  /// Supply a receive buffer in the owner's memory.
  void supply_buffer(int channel, std::uint32_t addr, std::uint32_t len);
  /// Return a consumed buffer to the free ring (its full original length).
  void return_buffer(int channel, std::uint32_t addr, std::uint32_t len) {
    supply_buffer(channel, addr, len);
  }
  std::size_t free_buffers(int channel) const;

  /// Poll the notification ring: pop the next arrival, if any. Free — the
  /// caller charges poll-iteration cycles itself, and the contract is
  /// check-then-charge: charge poll_iteration only AFTER an empty poll,
  /// and charge the receive-processing overhead INSTEAD of — never in
  /// addition to — a poll_iteration on the iteration that finds a frame.
  /// A frame arriving mid-iteration is discovered by the next check at no
  /// extra poll charge; pinned by tests/net_poll_charge_test.cpp. A loop
  /// may charge its empty iterations with Process::poll_idle, which
  /// charges them exactly as one compute(poll_iteration) each.
  std::optional<RxDesc> poll(int channel);

  /// The receive loop both links share, run by the channel's owner
  /// `self`: check the ring; on a hit charge an2_user_recv_overhead and
  /// return the frame; once now >= `deadline` return nullopt; otherwise
  /// wait — poll_idle(deadline) in polling mode, or block on the arrival
  /// channel in interrupt mode (timed unless `deadline` is sim::kNever) —
  /// and check again.
  sim::Sub<std::optional<RxDesc>> recv_until(sim::Process& self,
                                             int channel,
                                             sim::Cycles deadline);

  /// Channel notified on arrivals (token semantics).
  sim::WaitChannel& arrival_channel(int channel);

  /// Interrupt mode: arrivals perform kernel work and wake the owner.
  /// Off (default): the owner polls.
  void set_interrupt_mode(int channel, bool on);

  /// Install the channel's per-frame kernel hook. A channel has one hook,
  /// a per-frame hook or a handler binding: installing either replaces
  /// the other, and a null hook or an empty binding clears it
  /// (detach/revocation) — arrivals then take the device's normal
  /// delivery path. Both calls keep the channel's NIC residency in step:
  /// the port's NicProcessor holds a channel only while it is bound.
  void set_kernel_hook(int channel, KernelHook hook);
  /// Bind the channel to a handler (the ASH attachment point). Its frames
  /// then run through `b.handlers` inside a dispatch session; the frames
  /// carry the same layout as RxEvent::desc in `addr`/`len`. With a NIC
  /// set, this reserves the handler's footprint there (see set_nic).
  void bind(int channel, const RxBinding& b);
  /// Clear every binding that names `handler` of `handlers`.
  void unbind(const RxHandlers* handlers, int handler);
  const RxBinding& binding(int channel) const;
  bool has_kernel_hook(int channel) const;

  /// Frames dropped on `channel`, and on the whole port (the latter also
  /// counts frames lost before demux named a channel).
  std::uint64_t drops(int channel) const;
  std::uint64_t drops() const noexcept { return drops_; }

  /// Steer arrivals through a multi-queue receive set instead of the
  /// inline per-frame path; nullptr (default) restores the inline path.
  /// The set must outlive the port's traffic.
  void set_rx_queues(RxQueueSet* queues) noexcept { rxq_ = queues; }
  RxQueueSet* rx_queues() const noexcept { return rxq_; }

  /// Put a smart-NIC handler processor in front of the queue set: frames
  /// for NIC-resident channels are offered to it at steer time. Requires
  /// set_rx_queues; nullptr restores the pure host path. The processor
  /// must outlive the port's traffic. Set it before binding the channels
  /// it should hold: residency is reserved when a channel is bound.
  void set_nic(NicProcessor* nic) noexcept { nic_ = nic; }
  NicProcessor* nic() const noexcept { return nic_; }

  // RxSink:
  void rx_batch(std::span<const RxFrame> frames,
                const sim::KernelCpu& cpu) final;
  void rx_drop(const RxFrame& frame) final;
  NicExecResult nic_run(const RxFrame& frame, NicExecUnit& unit) final;
  void nic_consumed(const RxFrame& frame) final;
  void nic_punt(const RxFrame& frame, const sim::KernelCpu& cpu) final;

 protected:
  struct Channel {
    sim::Process* owner = nullptr;
    std::deque<RxDesc> free_bufs;
    std::deque<RxDesc> notify_ring;
    sim::WaitChannel arrival;
    KernelHook hook;
    RxBinding binding;
    bool interrupt_mode = false;
    std::uint64_t drops = 0;

    bool hooked() const noexcept { return hook || binding.handlers; }
  };

  RxPort(sim::Node& node, trace::NicKind kind, const FaultConfig& faults)
      : node_(node), kind_(kind), faults_(faults) {}

  /// The transmit tail: serialize behind earlier frames for `wire` cycles
  /// (from the untruncated length), let the fault injector judge a copy of
  /// `bytes`, and unless it drops it, schedule `land(copy)` at the end of
  /// serialization + `latency` + the injector's delay, after a duplicate's
  /// landing dup_delay later. The one place a sent frame's vector is made.
  template <typename Land>
  void transmit(std::span<const std::uint8_t> bytes, sim::Cycles wire,
                sim::Cycles latency, const Land& land) {
    const sim::Cycles now = node_.now();
    tx_free_at_ = (now > tx_free_at_ ? now : tx_free_at_) + wire;
    std::vector<std::uint8_t> frame(bytes.begin(), bytes.end());
    const FaultInjector::Decision fault = faults_.inject(frame);
    if (fault.drop) return;  // vanished on the wire
    const sim::Cycles at = tx_free_at_ + latency + fault.extra_delay;
    if (fault.duplicate) {
      node_.queue().schedule_at(
          at + faults_.config().dup_delay,
          [land, frame]() mutable { land(std::move(frame)); });
    }
    node_.queue().schedule_at(at, [land, frame = std::move(frame)]() mutable {
      land(std::move(frame));
    });
  }

  /// Trace a frame that landed, and the demux decision that named its
  /// channel (< 0: none): FrameArrival, then DemuxDecision with the
  /// classifier nodes `visited` and the `demux` cycles charged.
  void trace_arrival(int channel, std::uint32_t len, std::uint32_t visited,
                     sim::Cycles demux) const;

  /// Bind a new channel owned by `owner`; returns its id.
  int add_channel(sim::Process& owner);
  bool valid_channel(int channel) const noexcept {
    return channel >= 0 &&
           static_cast<std::size_t>(channel) < channels_.size();
  }
  /// Unchecked: `channel` came from the port itself.
  Channel& chan(int channel) noexcept {
    return channels_[static_cast<std::size_t>(channel)];
  }
  /// Count a lost frame (channel < 0: lost before demux).
  void count_drop(int channel);

  /// The steer tail of delivery for a landed frame whose channel is
  /// known: NIC offer, then the RX queue set, else the inline path (the
  /// interrupt entry plus the frame's driver pass on the main CPU, then
  /// the channel's hook in a session of one).
  void steer(RxFrame frame);

  /// The frame's receive buffer is free again (consumed or dropped).
  virtual void recycle(const RxFrame& frame) = 0;
  /// Hand a frame no hook consumed to its owner's notification ring,
  /// charging any copy on `cpu`. false: it was dropped (and recycled).
  virtual bool post(const RxFrame& frame, const sim::KernelCpu& cpu) = 0;
  /// Wake the owner once a run has settled. `posted`: some frame reached
  /// the owner. `ring_batch`: the run came from a fired queue batch and
  /// took the per-frame path (a per-frame hook, or none). Default: the
  /// normal wake() if a frame was posted.
  virtual void wake_owner(int channel, const sim::KernelCpu& cpu,
                          bool posted, bool ring_batch) {
    (void)ring_batch;
    if (posted) wake(channel, cpu);
  }
  /// The normal wake: in interrupt mode charge `wakeup` on `cpu` and
  /// notify when it completes; otherwise post a token (no CPU work).
  void wake(int channel, const sim::KernelCpu& cpu);

  sim::Node& node_;

 private:
  const Channel& chan_at(int channel) const;
  Channel& chan_at(int channel);
  /// Complete frames whose driver pass is done, on `cpu`: walk their
  /// consecutive same-channel runs in order. A bound run goes to its
  /// handlers inside the one dispatch session of this call; another run
  /// goes frame by frame to the per-frame hook, if any. Each run settles
  /// — every frame recycled or handed to the owner, the owner woken once
  /// — before the next run's handlers execute. `queued`: a fired RX queue
  /// batch, whose runs count as attached (unconsumed frames are traced
  /// fallbacks) if their channel is hooked now; an inline arrival passes
  /// `attached` as decided when it landed.
  void complete(std::span<const RxFrame> frames, const sim::KernelCpu& cpu,
                bool queued, bool attached);
  /// One unconsumed frame of an attached channel: trace, then post.
  bool fall_back(const RxFrame& frame, const sim::KernelCpu& cpu);

  trace::NicKind kind_;
  FaultInjector faults_;
  sim::Cycles tx_free_at_ = 0;  // link serialization pipeline
  std::vector<Channel> channels_;
  std::unique_ptr<bool[]> consumed_;  // a bound run's flags, reused
  std::size_t consumed_cap_ = 0;
  RxQueueSet* rxq_ = nullptr;
  NicProcessor* nic_ = nullptr;
  std::uint64_t drops_ = 0;
};

}  // namespace ash::net
