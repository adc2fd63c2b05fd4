#include "net/rx_port.hpp"

#include <memory>
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
  Channel& c = chan_at(channel);
  c.hook = std::move(hook);
  c.batch_hook = nullptr;
}

void RxPort::set_kernel_batch_hook(int channel, KernelBatchHook hook) {
  Channel& c = chan_at(channel);
  c.batch_hook = std::move(hook);
  c.hook = nullptr;
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
  // then the hook runs in kernel context on a batch of one.
  const bool attached = chan(frame.channel).hooked();
  node_.kernel_work(node_.cost().interrupt_entry + frame.driver_cycles,
                    [this, frame, attached] {
                      complete({&frame, 1}, sim::KernelCpu(node_), attached,
                               /*queued=*/false);
                    });
}

void RxPort::rx_batch(std::span<const RxFrame> frames,
                      const sim::KernelCpu& cpu) {
  if (frames.empty()) return;
  // The queue groups by (sink, channel). Hooks are re-checked here, at
  // delivery time: the supervisor may have revoked one while the batch
  // sat in the queue.
  complete(frames, cpu, chan(frames.front().channel).hooked(),
           /*queued=*/true);
}

void RxPort::complete(std::span<const RxFrame> frames,
                      const sim::KernelCpu& cpu, bool attached, bool queued) {
  const int ch = frames.front().channel;
  Channel& c = chan(ch);
  const bool batch_form = static_cast<bool>(c.batch_hook);
  bool posted = false;
  const auto settle = [&](const RxFrame& f, bool consumed) {
    if (consumed) {
      recycle(f);  // the handler copied out what it wanted
    } else if (attached ? fall_back(f, cpu) : post(f, cpu)) {
      posted = true;
    }
  };

  if (batch_form) {
    // A batch of one (every inline arrival) keeps its flag on the stack;
    // only a coalesced batch allocates.
    bool one = false;
    std::unique_ptr<bool[]> many;
    bool* consumed = &one;
    if (frames.size() > 1) {
      many.reset(new bool[frames.size()]());
      consumed = many.get();
    }
    c.batch_hook(frames, cpu, consumed);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      settle(frames[i], consumed[i]);
    }
  } else {
    // Per-frame form (or no hook): each frame settles before the next
    // runs, so a copy-out's cache and CPU effects precede the next hook.
    for (const RxFrame& f : frames) {
      settle(f, c.hook && c.hook(RxEvent{ch, RxDesc{f.addr, f.len},
                                         f.owner}));
    }
  }

  // One wake per run (vs one per frame when each arrives alone).
  wake_owner(ch, cpu, posted, queued && !batch_form);
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
