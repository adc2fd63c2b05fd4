#include "net/an2.hpp"

#include <cstring>
#include <stdexcept>

#include "net/an2_switch.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

An2Device::An2Device(sim::Node& node, const An2Config& config)
    : RxPort(node, trace::NicKind::An2, config.faults), config_(config) {}

void An2Device::connect(An2Device& peer) {
  if (peer_ != nullptr || peer.peer_ != nullptr || switch_ != nullptr ||
      peer.switch_ != nullptr) {
    throw std::logic_error("An2Device: already connected");
  }
  peer_ = &peer;
  peer.peer_ = this;
}

void An2Device::attach_switch(An2Switch& sw) {
  if (peer_ != nullptr || switch_ != nullptr) {
    throw std::logic_error("An2Device: already connected");
  }
  switch_ = &sw;
  switch_port_ = static_cast<int>(sw.ports_.size());
  sw.ports_.push_back(this);
}

sim::Cycles An2Device::tx_wire_cycles(std::uint32_t len) const {
  const double cycles_per_byte =
      sim::kCpuMhz / config_.bandwidth_mbytes_per_sec;
  return config_.per_packet_overhead +
         static_cast<sim::Cycles>(cycles_per_byte * len);
}

bool An2Device::send(int dst_vc, std::span<const std::uint8_t> bytes) {
  if (peer_ == nullptr && switch_ == nullptr) return false;
  // One landing serves the switched and point-to-point paths, so every
  // fault class (duplication included) behaves identically on both.
  transmit(bytes, tx_wire_cycles(static_cast<std::uint32_t>(bytes.size())),
           config_.one_way_latency,
           [sw = switch_, port = switch_port_, peer = peer_,
            dst_vc](std::vector<std::uint8_t> frame) {
             if (sw != nullptr) {
               sw->forward(port, dst_vc, std::move(frame));
             } else {
               peer->deliver(dst_vc, std::move(frame));
             }
           });
  return true;
}

void An2Device::deliver(int vc_id, std::vector<std::uint8_t> bytes) {
  if (!valid_channel(vc_id)) return;
  Channel& vc = chan(vc_id);

  // On the AN2, the VC identifier IS the demux decision (hardware
  // steering, no classifier walk): zero nodes visited, fixed cost.
  trace_arrival(vc_id, static_cast<std::uint32_t>(bytes.size()), 0,
                node_.cost().demux_an2);

  if (vc.free_bufs.empty()) {
    count_drop(vc_id);
    return;
  }
  const RxDesc buf = vc.free_bufs.front();
  if (bytes.size() > buf.len) {
    // Message larger than the supplied buffer: the real board would scatter
    // across buffers; we model single-buffer VCs and drop oversize frames.
    count_drop(vc_id);
    return;
  }
  vc.free_bufs.pop_front();

  // DMA: payload lands in the owner's pinned memory; the cached copies of
  // those lines are now stale. Zero-length messages are legal on the VC
  // (an empty AAL5 payload) and must not touch memory at all.
  if (!bytes.empty()) {
    std::uint8_t* dst =
        node_.mem(buf.addr, static_cast<std::uint32_t>(bytes.size()));
    std::memcpy(dst, bytes.data(), bytes.size());
    node_.dcache().invalidate_range(buf.addr,
                                    static_cast<std::uint32_t>(bytes.size()));
  }
  const RxDesc desc{buf.addr, static_cast<std::uint32_t>(bytes.size())};

  if (rx_queues() == nullptr && !vc.hooked()) {
    // Normal path: the board posts the notification ring entry directly
    // (visible to a polling process immediately, no kernel work).
    vc.notify_ring.push_back(desc);
    if (vc.interrupt_mode) {
      const sim::Cycles driver = node_.cost().interrupt_entry +
                                 config_.rx_driver_work +
                                 node_.cost().demux_an2 + node_.cost().wakeup;
      node_.kernel_work(driver, [this, vc_id] {
        chan(vc_id).arrival.notify(/*boost=*/true);
      });
    } else {
      // Pure polling: no CPU involvement. Still post a token so
      // coroutines that mix poll-and-wait do not race.
      vc.arrival.notify(/*boost=*/false);
    }
    return;
  }

  // Kernel receive path (a hook is attached, or a queue set steers): the
  // driver pass is interrupt work + demux + the software cache flush of
  // the message location, after which the hook runs. A consumed message's
  // buffer is recycled at once — the handler copied out what it wanted.
  RxFrame f;
  f.channel = vc_id;
  f.addr = desc.addr;
  f.len = desc.len;
  f.buf_len = buf.len;
  f.owner = vc.owner;
  f.driver_cycles =
      config_.rx_driver_work + node_.cost().demux_an2 + config_.rx_cache_flush;
  steer(f);
}

void An2Device::recycle(const RxFrame& frame) {
  // The pinned receive buffer goes back at its full original length.
  chan(frame.channel).free_bufs.push_back(RxDesc{frame.addr, frame.buf_len});
}

bool An2Device::post(const RxFrame& frame, const sim::KernelCpu& cpu) {
  // The payload is already in the owner's buffer: post the ring entry.
  (void)cpu;
  chan(frame.channel).notify_ring.push_back(RxDesc{frame.addr, frame.len});
  return true;
}

void An2Device::wake_owner(int vc, const sim::KernelCpu& cpu, bool posted,
                           bool ring_batch) {
  if (ring_batch) {
    // The board's ring path wakes once per batch; a per-frame hook in
    // front of it only filters, so the wake stands even if it consumed
    // every frame.
    wake(vc, cpu);
  } else if (posted) {
    // A frame the hook path declined was already paid for by its driver
    // pass: the owner is notified (boosted) with no wakeup charge.
    chan(vc).arrival.notify(/*boost=*/true);
  }
}

}  // namespace ash::net
