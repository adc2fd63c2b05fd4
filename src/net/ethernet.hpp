// The 10 Mb/s Ethernet interface (Section IV-A).
//
// Modelled after the DECstation's LANCE as the paper characterizes it:
//  * the device DMAs frames into a small pool of kernel receive buffers —
//    and stripes them: "our Ethernet DMA engine stripes an N-byte
//    contiguous packet into a 2N-byte buffer, alternating 16 bytes of data
//    and 16 bytes of padding" (Section III-C);
//  * buffers are scarce, so "a message must not stay in them very long. In
//    this case, at least one copy is always necessary" (Section V-A1) —
//    the kernel (or an ASH) must copy the frame out promptly or new frames
//    are dropped;
//  * demultiplexing runs DPF (the compiled engine) over the frame in the
//    interrupt handler; the winning endpoint's receive path (default
//    copy-out, or its ASH hook) then runs in kernel context.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dpf/dpf.hpp"
#include "net/rx_port.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"

namespace ash::net {

struct EthernetConfig {
  double bandwidth_mbits_per_sec = 10.0;
  /// Preamble + interframe gap, charged per frame on the wire.
  std::uint32_t framing_bytes = 20;
  std::uint32_t min_frame_bytes = 64;
  std::uint32_t max_frame_bytes = 1518;
  /// One-way latency through the (thin) wire + board.
  sim::Cycles one_way_latency = sim::us(10.0);
  /// Number of kernel receive buffers (the scarce on-board/ring pool).
  std::size_t rx_buffers = 8;
  /// Interrupt-handler driver work per frame, beyond DPF and the copy
  /// (the LANCE is a slow device to program over the TURBOchannel).
  sim::Cycles rx_driver_work = sim::us(12.0);
  sim::Cycles tx_kernel_work = sim::us(20.0);
  /// Injected faults for protocol testing (defaults: a perfect link).
  /// Same surface as An2Config::faults — one injector per link direction,
  /// on the port's transmit tail.
  FaultConfig faults;
};

class EthernetDevice final : public RxPort {
 public:
  /// The DMA engine's stripe: this many data bytes, then as many padding
  /// bytes, repeated.
  static constexpr std::uint32_t kStripeChunk = 16;

  /// Kernel receive buffers live in the node's kernel area (segment 0).
  /// Each holds one striped frame (2 x max_frame_bytes).
  EthernetDevice(sim::Node& node, const EthernetConfig& config = {});

  void connect(EthernetDevice& peer);

  const EthernetConfig& config() const noexcept { return config_; }

  // ---- endpoints (the port's channels) ----

  /// Attach an endpoint: frames matching `filter` (DPF) belong to `owner`.
  /// Returns the endpoint id. Supplied buffers receive the kernel's
  /// default (destriped) copy-out. A kernel hook sees the STRIPED kernel
  /// buffer (use memops::copy_destripe or a striping-aware DILP loop to
  /// move it) and must finish with the data copied out: the buffer is
  /// recycled when it returns.
  int attach(sim::Process& owner, dpf::Filter filter);

  /// Frames no endpoint matched (counted and dropped inline).
  std::uint64_t unmatched() const noexcept { return unmatched_; }

  /// Kernel receive buffers currently held by in-flight receive paths.
  /// Zero once all deliveries have drained — the fuzz harness's
  /// kernel-buffer leak check.
  std::size_t kernel_bufs_in_use() const noexcept {
    std::size_t n = 0;
    for (const KernelBuf& kb : kernel_bufs_) n += kb.in_use ? 1 : 0;
    return n;
  }

  // ---- transmit ----

  /// Send one frame to the peer (Ethernet carries no channel on the wire,
  /// so `channel` is ignored). Refused when not connected or longer than
  /// max_frame_bytes; the port's transmit tail times the rest with
  /// tx_wire_cycles and one_way_latency.
  bool send(int channel, std::span<const std::uint8_t> bytes) override;
  bool send(std::span<const std::uint8_t> bytes) { return send(-1, bytes); }
  sim::Cycles tx_wire_cycles(std::uint32_t len) const;

  std::uint32_t stripe_chunk() const noexcept override {
    return kStripeChunk;
  }
  sim::Cycles tx_kernel_work() const noexcept override {
    return config_.tx_kernel_work;
  }

 private:
  struct KernelBuf {
    std::uint32_t addr;
    bool in_use = false;
  };

  void deliver(std::vector<std::uint8_t> bytes);
  void release_kernel_buf(std::uint32_t addr);
  void recycle(const RxFrame& frame) override {
    release_kernel_buf(frame.addr);
  }
  bool post(const RxFrame& frame, const sim::KernelCpu& cpu) override;

  EthernetConfig config_;
  EthernetDevice* peer_ = nullptr;
  std::vector<KernelBuf> kernel_bufs_;
  dpf::CompiledEngine demux_;
  std::uint64_t unmatched_ = 0;
};

}  // namespace ash::net
