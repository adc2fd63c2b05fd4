#include "proto/an2_link.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sim/node.hpp"

namespace ash::proto {

An2Link::An2Link(sim::Process& self, net::An2Device& dev,
                 const Config& config)
    : self_(self), dev_(dev), cfg_(config) {
  const sim::MemSegment& seg = self.segment();
  const std::uint32_t rx_bytes = cfg_.rx_buffers * cfg_.buf_size;
  tx_size_ = 64 * 1024;
  if (rx_bytes + tx_size_ > seg.size / 2) {
    throw std::length_error("An2Link: buffer pool exceeds segment half");
  }
  // Upper half of the segment: rx pool, then tx staging ring.
  const std::uint32_t pool_base = seg.base + seg.size / 2;
  vc_ = dev.bind_vc(self);
  for (std::uint32_t i = 0; i < cfg_.rx_buffers; ++i) {
    dev.supply_buffer(vc_, pool_base + i * cfg_.buf_size, cfg_.buf_size);
  }
  tx_base_ = pool_base + rx_bytes;
  carve_next_ = tx_base_ + tx_size_;
  dev.set_interrupt_mode(vc_, cfg_.mode == RecvMode::Interrupt);
}

std::uint32_t An2Link::carve(std::uint32_t len) {
  const std::uint32_t addr = (carve_next_ + 15) & ~15u;  // line-aligned
  const sim::MemSegment& seg = self_.segment();
  if (static_cast<std::uint64_t>(addr) + len > seg.base + seg.size) {
    throw std::length_error("An2Link: carve exhausted the segment");
  }
  carve_next_ = addr + len;
  return addr;
}

void An2Link::set_mode(RecvMode mode) {
  cfg_.mode = mode;
  dev_.set_interrupt_mode(vc_, mode == RecvMode::Interrupt);
}

sim::Sub<net::RxDesc> An2Link::recv() {
  const auto d = co_await dev_.recv_until(self_, vc_, sim::kNever);
  co_return *d;
}

sim::Sub<std::optional<net::RxDesc>> An2Link::recv_for(sim::Cycles timeout) {
  return dev_.recv_until(self_, vc_, self_.node().now() + timeout);
}

void An2Link::release(const net::RxDesc& d) {
  // The descriptor's buffer is returned at its pool-slot size.
  const std::uint32_t slot =
      (d.addr - (self_.segment().base + self_.segment().size / 2)) /
      cfg_.buf_size;
  const std::uint32_t base = self_.segment().base + self_.segment().size / 2 +
                             slot * cfg_.buf_size;
  dev_.return_buffer(vc_, base, cfg_.buf_size);
}

std::uint32_t An2Link::tx_alloc(std::uint32_t len) {
  if (len > tx_size_) throw std::length_error("An2Link: tx_alloc too large");
  if (tx_next_ + len > tx_size_) tx_next_ = 0;
  const std::uint32_t addr = tx_base_ + tx_next_;
  tx_next_ += (len + 3) & ~3u;
  return addr;
}

sim::Sub<bool> An2Link::send(std::uint32_t addr, std::uint32_t len) {
  co_await self_.syscall(dev_.config().tx_kernel_work +
                         self_.node().cost().an2_user_send_overhead);
  co_return dev_.send_from(cfg_.remote_vc, addr, len);
}

sim::Sub<bool> An2Link::send_bytes(std::span<const std::uint8_t> bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const std::uint32_t addr = tx_alloc(len);
  std::uint8_t* p = self_.node().mem(addr, len);
  std::memcpy(p, bytes.data(), bytes.size());
  // Charge the staging stores (one copy loop's store half).
  sim::Cycles cycles = 0;
  sim::Node& node = self_.node();
  for (std::uint32_t off = 0; off < len; off += 4) {
    cycles += node.cost().copy_loop_insns_per_word;
    cycles += node.dcache().access(addr + off, std::min(4u, len - off), true);
  }
  co_await self_.compute(cycles);
  const bool sent = co_await send(addr, len);
  co_return sent;
}

}  // namespace ash::proto
