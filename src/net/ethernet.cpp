#include "net/ethernet.hpp"

#include <stdexcept>

#include "sim/kernel.hpp"
#include "sim/memops.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

namespace {
/// Kernel receive buffers are carved from the node's kernel area
/// (segment 0, below the first process segment), starting here.
constexpr std::uint32_t kKernelBufBase = 0x8000;
}  // namespace

EthernetDevice::EthernetDevice(sim::Node& node, const EthernetConfig& config)
    : RxPort(node, trace::NicKind::Ethernet, config.faults),
      config_(config) {
  const std::uint32_t buf_bytes = 2 * config_.max_frame_bytes;
  for (std::size_t i = 0; i < config_.rx_buffers; ++i) {
    const std::uint32_t addr =
        kKernelBufBase + static_cast<std::uint32_t>(i) * buf_bytes;
    if (node_.mem(addr, buf_bytes) == nullptr) {
      throw std::length_error("EthernetDevice: kernel area too small");
    }
    kernel_bufs_.push_back({addr, false});
  }
}

void EthernetDevice::connect(EthernetDevice& peer) {
  if (peer_ != nullptr || peer.peer_ != nullptr) {
    throw std::logic_error("EthernetDevice: already connected");
  }
  peer_ = &peer;
  peer.peer_ = this;
}

int EthernetDevice::attach(sim::Process& owner, dpf::Filter filter) {
  const int id = add_channel(owner);
  demux_.insert(std::move(filter), id);
  return id;
}

sim::Cycles EthernetDevice::tx_wire_cycles(std::uint32_t len) const {
  std::uint32_t wire_len = len + config_.framing_bytes;
  const std::uint32_t min_wire =
      config_.min_frame_bytes + config_.framing_bytes;
  if (wire_len < min_wire) wire_len = min_wire;
  const double cycles_per_byte =
      sim::kCpuMhz * 8.0 / config_.bandwidth_mbits_per_sec;
  return static_cast<sim::Cycles>(cycles_per_byte * wire_len);
}

bool EthernetDevice::send(int /*channel*/,
                          std::span<const std::uint8_t> bytes) {
  if (peer_ == nullptr || bytes.size() > config_.max_frame_bytes) {
    return false;
  }
  transmit(bytes, tx_wire_cycles(static_cast<std::uint32_t>(bytes.size())),
           config_.one_way_latency,
           [peer = peer_](std::vector<std::uint8_t> frame) {
             peer->deliver(std::move(frame));
           });
  return true;
}

void EthernetDevice::release_kernel_buf(std::uint32_t addr) {
  for (KernelBuf& kb : kernel_bufs_) {
    if (kb.addr == addr) {
      kb.in_use = false;
      return;
    }
  }
}

void EthernetDevice::deliver(std::vector<std::uint8_t> bytes) {
  // Grab a kernel receive buffer; the pool is small, and an exhausted pool
  // means the frame is lost — the pressure that makes the prompt copy-out
  // (and ASH-directed placement) matter.
  KernelBuf* kb = nullptr;
  for (KernelBuf& candidate : kernel_bufs_) {
    if (!candidate.in_use) {
      kb = &candidate;
      break;
    }
  }
  if (kb == nullptr) {
    count_drop(-1);
    return;
  }
  kb->in_use = true;

  // DMA, striped: 16 bytes of data, 16 bytes of padding, repeated.
  const auto len = static_cast<std::uint32_t>(bytes.size());
  std::uint8_t* buf = node_.mem(kb->addr, 2 * len);
  for (std::uint32_t i = 0; i < len; ++i) {
    buf[(i / kStripeChunk) * 2 * kStripeChunk + (i % kStripeChunk)] =
        bytes[i];
  }
  node_.dcache().invalidate_range(kb->addr, 2 * len);

  // Interrupt handler: DPF demux, then the endpoint's receive path.
  dpf::MatchStats stats;
  const int ep_id = demux_.match(bytes, &stats);
  const sim::Cycles demux_cost =
      stats.nodes_visited * node_.cost().dpf_node_cost;
  trace_arrival(ep_id, len, stats.nodes_visited, demux_cost);

  const std::uint32_t buf_addr = kb->addr;
  if (ep_id < 0) {
    // No endpoint to steer by: counted and dropped inline, in the
    // interrupt handler.
    node_.kernel_work(
        node_.cost().interrupt_entry + config_.rx_driver_work + demux_cost,
        [this, buf_addr] {
          ++unmatched_;
          release_kernel_buf(buf_addr);
        });
    return;
  }

  // The endpoint's receive path: its hook directs (and pays for) the one
  // copy itself; otherwise — or when the hook declines — the kernel's
  // default copy-out (post) runs, still holding the kernel buffer.
  RxFrame f;
  f.channel = ep_id;
  f.addr = buf_addr;  // striped kernel buffer
  f.len = len;
  f.buf_len = len;
  f.owner = chan(ep_id).owner;
  f.driver_cycles = config_.rx_driver_work + demux_cost;
  steer(f);
}

bool EthernetDevice::post(const RxFrame& frame, const sim::KernelCpu& cpu) {
  // Default path: the kernel copies the frame out of the scarce buffer
  // into the endpoint's supplied app buffer, destriping as it goes, then
  // recycles the kernel buffer.
  Channel& ep = chan(frame.channel);
  if (ep.free_bufs.empty() || ep.free_bufs.front().len < frame.len) {
    count_drop(frame.channel);
    release_kernel_buf(frame.addr);
    return false;
  }
  const RxDesc dst = ep.free_bufs.front();
  ep.free_bufs.pop_front();
  cpu.kernel_work(sim::memops::copy_destripe(node_, dst.addr, frame.addr,
                                             frame.len, kStripeChunk));
  release_kernel_buf(frame.addr);
  ep.notify_ring.push_back({dst.addr, frame.len});
  return true;
}

}  // namespace ash::net
