#include "net/rx_port.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/nic_offload.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

int RxPort::add_channel(sim::Process& owner) {
  channels_.emplace_back();
  channels_.back().owner = &owner;
  return static_cast<int>(channels_.size() - 1);
}

RxPort::Channel& RxPort::chan_at(int channel) {
  if (!valid_channel(channel)) {
    throw std::out_of_range("RxPort: bad channel");
  }
  return chan(channel);
}

const RxPort::Channel& RxPort::chan_at(int channel) const {
  return const_cast<RxPort*>(this)->chan_at(channel);
}

void RxPort::supply_buffer(int channel, std::uint32_t addr,
                           std::uint32_t len) {
  Channel& c = chan_at(channel);
  if (node_.mem(addr, len) == nullptr) {
    throw std::out_of_range("RxPort: buffer outside node memory");
  }
  c.free_bufs.push_back({addr, len});
}

std::size_t RxPort::free_buffers(int channel) const {
  return chan_at(channel).free_bufs.size();
}

std::optional<RxDesc> RxPort::poll(int channel) {
  Channel& c = chan_at(channel);
  if (c.notify_ring.empty()) return std::nullopt;
  const RxDesc d = c.notify_ring.front();
  c.notify_ring.pop_front();
  return d;
}

sim::Sub<std::optional<RxDesc>> RxPort::recv_until(sim::Process& self,
                                                   int channel,
                                                   sim::Cycles deadline) {
  for (;;) {
    if (auto d = poll(channel)) {
      co_await self.compute(node_.cost().an2_user_recv_overhead);
      co_return d;
    }
    if (node_.now() >= deadline) co_return std::nullopt;
    Channel& c = chan(channel);
    if (!c.interrupt_mode) {
      co_await self.poll_idle(deadline);
    } else if (deadline == sim::kNever) {
      co_await c.arrival.wait(self);
    } else {
      const bool got_token =
          co_await c.arrival.wait_for(self, deadline - node_.now());
      if (!got_token) co_return std::nullopt;
    }
  }
}

sim::WaitChannel& RxPort::arrival_channel(int channel) {
  return chan_at(channel).arrival;
}

void RxPort::set_interrupt_mode(int channel, bool on) {
  chan_at(channel).interrupt_mode = on;
}

void RxPort::set_kernel_hook(int channel, KernelHook hook) {
  bind(channel, {});  // the binding, and any NIC residency, go
  chan(channel).hook = std::move(hook);
}

void RxPort::bind(int channel, const RxBinding& b) {
  Channel& c = chan_at(channel);
  c.binding = b;
  c.hook = nullptr;
  if (nic_ == nullptr) return;
  if (b.handlers != nullptr) {
    nic_->attach(this, channel, b.handlers->nic_footprint(b.handler));
  } else {
    nic_->detach(this, channel);
  }
}

void RxPort::unbind(const RxHandlers* handlers, int handler) {
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    const RxBinding& b = channels_[ch].binding;
    if (b.handlers == handlers && b.handler == handler) {
      bind(static_cast<int>(ch), {});
    }
  }
}

const RxBinding& RxPort::binding(int channel) const {
  return chan_at(channel).binding;
}

bool RxPort::has_kernel_hook(int channel) const {
  return chan_at(channel).hooked();
}

std::uint64_t RxPort::drops(int channel) const {
  return chan_at(channel).drops;
}

void RxPort::count_drop(int channel) {
  if (valid_channel(channel)) ++chan(channel).drops;
  ++drops_;
}

void RxPort::trace_arrival(int channel, std::uint32_t len,
                           std::uint32_t visited, sim::Cycles demux) const {
  if (!trace::enabled()) return;
  const auto kind = static_cast<std::uint32_t>(kind_);
  trace::global().emit(trace::make_event(trace::EventType::FrameArrival,
                                         node_.cpu_id(), node_.now(),
                                         channel, len, kind));
  trace::global().emit(trace::make_event(trace::EventType::DemuxDecision,
                                         node_.cpu_id(), node_.now(),
                                         channel, visited, kind, demux));
}

void RxPort::steer(RxFrame frame) {
  frame.sink = this;
  if (rxq_ != nullptr) {
    // Steering is the board's demux result (free); all kernel work
    // happens when the queue's batch fires, on the queue's CPU. Frames
    // for NIC-resident channels never reach a host queue: the processor
    // runs the handler on a device unit (false means "host path").
    if (nic_ != nullptr && nic_->offer(frame)) return;
    rxq_->steer(frame.channel, frame.owner).enqueue(frame);
    return;
  }
  // Inline: interrupt entry plus the frame's driver pass on the main CPU,
  // then the hook runs in kernel context in a session of one.
  const bool attached = chan(frame.channel).hooked();
  node_.kernel_work(node_.cost().interrupt_entry + frame.driver_cycles,
                    [this, frame, attached] {
                      complete({&frame, 1}, sim::KernelCpu(node_),
                               /*queued=*/false, attached);
                    });
}

void RxPort::rx_batch(std::span<const RxFrame> frames,
                      const sim::KernelCpu& cpu) {
  complete(frames, cpu, /*queued=*/true, /*attached=*/false);
}

void RxPort::complete(std::span<const RxFrame> frames,
                      const sim::KernelCpu& cpu, bool queued, bool attached) {
  RxSession session{cpu};
  RxHandlers* open = nullptr;  // whose session is open, if anyone's
  for (std::size_t i = 0; i < frames.size();) {
    const int ch = frames[i].channel;
    std::size_t j = i + 1;
    while (j < frames.size() && frames[j].channel == ch) ++j;
    const std::span<const RxFrame> run = frames.subspan(i, j - i);
    i = j;

    Channel& c = chan(ch);
    // A queued run's hook is checked now, at delivery: the supervisor may
    // have revoked it while the batch sat in the queue.
    const bool hook_path = queued ? c.hooked() : attached;
    bool posted = false;
    const auto settle = [&](const RxFrame& f, bool consumed) {
      if (consumed) {
        recycle(f);  // the handler copied out what it wanted
      } else if (hook_path ? fall_back(f, cpu) : post(f, cpu)) {
        posted = true;
      }
    };

    const RxBinding b = c.binding;
    if (b.handlers != nullptr) {
      if (open != b.handlers) {
        if (open != nullptr) open->close_session(session);
        session = RxSession{cpu};
        open = b.handlers;
      }
      if (run.size() > consumed_cap_) {
        consumed_cap_ = run.size();
        consumed_ = std::make_unique<bool[]>(consumed_cap_);
      }
      std::fill_n(consumed_.get(), run.size(), false);
      open->run_in_session(session, *this, b, run, i == frames.size(),
                           consumed_.get());
      for (std::size_t k = 0; k < run.size(); ++k) {
        settle(run[k], consumed_[k]);
      }
    } else {
      // Per-frame hook (or none): each frame settles before the next
      // runs, so a copy-out's cache and CPU effects precede the next hook.
      for (const RxFrame& f : run) {
        settle(f, c.hook && c.hook(RxEvent{ch, RxDesc{f.addr, f.len},
                                           f.owner}));
      }
    }

    // One wake per run (vs one per frame when each arrives alone).
    wake_owner(ch, cpu, posted, queued && b.handlers == nullptr);
  }
  if (open != nullptr) open->close_session(session);
}

bool RxPort::fall_back(const RxFrame& frame, const sim::KernelCpu& cpu) {
  // An attached channel's frame taking the normal delivery path: the
  // handler declined, was denied, or was detached mid-flight.
  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::UpcallFallback, cpu.cpu_id(), node_.now(),
        frame.channel, static_cast<std::uint32_t>(kind_)));
  }
  return post(frame, cpu);
}

void RxPort::wake(int channel, const sim::KernelCpu& cpu) {
  Channel& c = chan(channel);
  if (c.interrupt_mode) {
    cpu.kernel_work(node_.cost().wakeup,
                    [this, channel] { chan(channel).arrival.notify(true); });
  } else {
    c.arrival.notify(/*boost=*/false);
  }
}

void RxPort::rx_drop(const RxFrame& frame) {
  recycle(frame);
  count_drop(frame.channel);
}

NicExecResult RxPort::nic_run(const RxFrame& frame, NicExecUnit& unit) {
  // The processor holds only bound channels resident, so the binding is
  // set: run whatever it names now.
  const RxBinding b = chan(frame.channel).binding;
  return b.handlers->run_on_nic(*this, b, frame, unit);
}

void RxPort::nic_consumed(const RxFrame& frame) {
  // The handler committed on-device: the buffer is free again with no
  // host cycles.
  recycle(frame);
}

void RxPort::nic_punt(const RxFrame& frame, const sim::KernelCpu& cpu) {
  // Hand-back from the device: charge the host's per-frame receive pass
  // on the steered queue's CPU, then deliver through the fallback path.
  // The handler is NOT re-run — it already executed at most once,
  // on-device.
  const sim::Cycles host_pass =
      cpu.node().cost().interrupt_entry + frame.driver_cycles;
  cpu.kernel_work(host_pass, [this, frame, cpu] {
    wake_owner(frame.channel, cpu, fall_back(frame, cpu),
               /*ring_batch=*/false);
  });
}

}  // namespace ash::net
