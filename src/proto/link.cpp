#include "proto/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/memops.hpp"
#include "sim/node.hpp"

namespace ash::proto {

Link::Link(sim::Process& self, net::RxPort& port, std::uint32_t rx_buffers,
           std::uint32_t buf_size, std::vector<std::uint8_t> header,
           std::uint32_t ip_mtu)
    : self_(self),
      port_(port),
      rx_buffers_(rx_buffers),
      buf_size_(buf_size),
      pool_base_(self.segment().base + self.segment().size / 2),
      tx_base_(pool_base_ + rx_buffers * buf_size),
      carve_next_(tx_base_ + kTxRingBytes),
      header_(std::move(header)),
      ip_mtu_(ip_mtu) {
  if (rx_buffers * buf_size + kTxRingBytes > self.segment().size / 2) {
    throw std::length_error("Link: buffer pool exceeds segment half");
  }
}

void Link::open(int channel, int tx_channel, RecvMode mode) {
  channel_ = channel;
  tx_channel_ = tx_channel;
  for (std::uint32_t i = 0; i < rx_buffers_; ++i) {
    port_.supply_buffer(channel_, pool_base_ + i * buf_size_, buf_size_);
  }
  port_.set_interrupt_mode(channel_, mode == RecvMode::Interrupt);
}

sim::Sub<net::RxDesc> Link::recv() {
  const auto d = co_await port_.recv_until(self_, channel_, sim::kNever);
  co_return *d;
}

sim::Sub<std::optional<net::RxDesc>> Link::recv_for(sim::Cycles timeout) {
  return port_.recv_until(self_, channel_, self_.node().now() + timeout);
}

void Link::release(const net::RxDesc& d) {
  // The descriptor's buffer is returned at its pool-slot size.
  const std::uint32_t slot = (d.addr - pool_base_) / buf_size_;
  port_.return_buffer(channel_, pool_base_ + slot * buf_size_, buf_size_);
}

std::uint32_t Link::tx_alloc_ip(std::uint32_t len) {
  const std::uint32_t total = rx_ip_offset() + len;
  if (total > kTxRingBytes) {
    throw std::length_error("Link: tx_alloc_ip too large");
  }
  if (tx_next_ + total > kTxRingBytes) tx_next_ = 0;
  const std::uint32_t frame = tx_base_ + tx_next_;
  tx_next_ += (total + 3) & ~3u;
  return frame + rx_ip_offset();
}

sim::Sub<bool> Link::send_ip(std::uint32_t ip_addr, std::uint32_t ip_len) {
  const std::uint32_t frame = ip_addr - rx_ip_offset();
  const std::uint32_t len = rx_ip_offset() + ip_len;
  std::uint8_t* f = self_.node().mem(frame, len);
  if (f == nullptr) co_return false;
  std::copy(header_.begin(), header_.end(), f);
  co_await self_.syscall(port_.tx_kernel_work() +
                         self_.node().cost().an2_user_send_overhead);
  co_return port_.send(tx_channel_, {f, len});
}

sim::Sub<bool> Link::send_bytes(std::span<const std::uint8_t> bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const std::uint32_t addr = tx_alloc_ip(len);
  co_await self_.compute(sim::memops::store(self_.node(), addr, bytes));
  const bool sent = co_await send_ip(addr, len);
  co_return sent;
}

std::uint32_t Link::carve(std::uint32_t len) {
  const std::uint32_t addr = (carve_next_ + 15) & ~15u;  // line-aligned
  const sim::MemSegment& seg = self_.segment();
  if (static_cast<std::uint64_t>(addr) + len > seg.base + seg.size) {
    throw std::length_error("Link: carve exhausted the segment");
  }
  carve_next_ = addr + len;
  return addr;
}

}  // namespace ash::proto
