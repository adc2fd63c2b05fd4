// The AN2 ATM network interface (Section IV-A).
//
// Digital's AN2 is modelled the way the paper uses it:
//  * processes bind to a virtual circuit and supply pinned receive buffers
//    from their own memory; the device DMAs arriving payloads directly
//    into those buffers ("can DMA messages into any location in physical
//    memory" — the zero-copy path);
//  * kernel and user share a per-VC notification ring: a polling process
//    discovers arrivals by reading the ring, with no kernel involvement;
//  * alternatively a VC can run in interrupt mode (blocked owner is woken
//    by driver work) or have a kernel receive hook installed — the hook is
//    how the ASH system attaches ("ASHs are invoked directly from the AN2
//    device driver, just after it performs a software cache flush of the
//    message location");
//  * link timing: fixed one-way board/switch latency plus serialization at
//    the payload rate plus a fixed per-packet DMA/cell-framing overhead —
//    calibrated so a 4-byte hardware round trip costs the paper's 96 us
//    and a 4 KB train tops out near 16.1 MB/s (Fig. 3). The port's
//    transmit tail applies it (RxPort::transmit).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/rx_port.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"

namespace ash::net {

class An2Switch;

struct An2Config {
  /// Maximum payload rate ("about 16.8 Mbytes/s per link").
  double bandwidth_mbytes_per_sec = 16.8;
  /// Fixed one-way hardware latency (boards + switch + DMA). Together
  /// with per_packet_overhead this gives a tiny message a one-way
  /// hardware cost of ~48 us — the paper's 96 us hardware RTT.
  sim::Cycles one_way_latency = sim::us(37.8);
  /// Per-packet fixed transmit overhead (DMA setup, AAL5 framing) — this
  /// is what keeps a 4 KB train at 16.1 rather than 16.8 MB/s (Fig. 3).
  sim::Cycles per_packet_overhead = sim::us(10.0);
  /// Driver work per received packet when the kernel is involved
  /// (interrupt entry handled separately via CostModel).
  sim::Cycles rx_driver_work = sim::us(1.0);
  /// Software cache flush of the message location after DMA.
  sim::Cycles rx_cache_flush = sim::us(0.5);
  /// Kernel-side transmit work (descriptor + board register writes).
  sim::Cycles tx_kernel_work = sim::us(4.0);
  /// Injected faults for protocol testing (defaults: a perfect link).
  /// Applied on this port's transmit tail, so each link direction has
  /// its own deterministic fault schedule.
  FaultConfig faults;
};

class An2Device final : public RxPort {
 public:
  An2Device(sim::Node& node, const An2Config& config = {});

  /// Connect both directions to a peer device (point-to-point). May be
  /// called once per device pair; exclusive with attach_switch().
  void connect(An2Device& peer);

  /// Attach this device to a switch instead of a point-to-point peer;
  /// sends are then routed by the switch's circuit table.
  void attach_switch(An2Switch& sw);

  const An2Config& config() const noexcept { return config_; }

  // ---- virtual circuits (the port's channels) ----

  /// Bind a VC owned by `owner`. Returns the VC id. Buffers, polling,
  /// interrupt mode and kernel hooks are the RxPort's: a hook runs in
  /// kernel context right after the driver's cache flush.
  int bind_vc(sim::Process& owner) { return add_channel(owner); }

  // ---- transmit ----

  /// Send a byte string to VC `dst_vc` (the peer's, or the one the
  /// switch's circuit table routes). Refused when not connected; the
  /// port's transmit tail times the rest with tx_wire_cycles and
  /// one_way_latency and lands it at the peer or the switch.
  bool send(int dst_vc, std::span<const std::uint8_t> bytes) override;

  /// Serialization + fixed per-packet cost for `len` bytes (for benches).
  sim::Cycles tx_wire_cycles(std::uint32_t len) const;

  // RxPort: AN2 DMAs straight into the owner's memory, unstriped.
  std::uint32_t stripe_chunk() const noexcept override { return 0; }
  sim::Cycles tx_kernel_work() const noexcept override {
    return config_.tx_kernel_work;
  }

 private:
  friend class An2Switch;

  void deliver(int vc, std::vector<std::uint8_t> bytes);
  void recycle(const RxFrame& frame) override;
  bool post(const RxFrame& frame, const sim::KernelCpu& cpu) override;
  void wake_owner(int vc, const sim::KernelCpu& cpu, bool posted,
                  bool ring_batch) override;

  An2Config config_;
  An2Device* peer_ = nullptr;
  An2Switch* switch_ = nullptr;
  int switch_port_ = -1;
};

}  // namespace ash::net
