#include "proto/eth_link.hpp"

#include <stdexcept>

#include "proto/headers.hpp"
#include "sim/node.hpp"

namespace ash::proto {

EthLink::EthLink(sim::Process& self, net::EthernetDevice& dev,
                 const Config& config)
    : self_(self), dev_(dev), cfg_(config) {
  const sim::MemSegment& seg = self.segment();
  const std::uint32_t rx_bytes = cfg_.rx_buffers * cfg_.buf_size;
  tx_size_ = 64 * 1024;
  if (rx_bytes + tx_size_ > seg.size / 2) {
    throw std::length_error("EthLink: buffer pool exceeds segment half");
  }
  pool_base_ = seg.base + seg.size / 2;

  dpf::Filter filter;
  filter.atoms.push_back(dpf::atom_be16(12, kEtherTypeIp));
  for (const auto& atom : cfg_.extra_atoms) filter.atoms.push_back(atom);
  endpoint_ = dev.attach(self, std::move(filter));

  for (std::uint32_t i = 0; i < cfg_.rx_buffers; ++i) {
    dev.supply_buffer(endpoint_, pool_base_ + i * cfg_.buf_size,
                      cfg_.buf_size);
  }
  tx_base_ = pool_base_ + rx_bytes;
  carve_next_ = tx_base_ + tx_size_;
  dev.set_interrupt_mode(endpoint_, cfg_.mode == RecvMode::Interrupt);
}

sim::Sub<net::RxDesc> EthLink::recv() {
  const auto d = co_await dev_.recv_until(self_, endpoint_, sim::kNever);
  co_return *d;
}

sim::Sub<std::optional<net::RxDesc>> EthLink::recv_for(sim::Cycles timeout) {
  return dev_.recv_until(self_, endpoint_, self_.node().now() + timeout);
}

void EthLink::release(const net::RxDesc& d) {
  const std::uint32_t slot = (d.addr - pool_base_) / cfg_.buf_size;
  dev_.return_buffer(endpoint_, pool_base_ + slot * cfg_.buf_size,
                     cfg_.buf_size);
}

std::uint32_t EthLink::tx_alloc_ip(std::uint32_t len) {
  const std::uint32_t total =
      static_cast<std::uint32_t>(kEthHeaderLen) + len;
  if (total > tx_size_) throw std::length_error("EthLink: tx_alloc too large");
  if (tx_next_ + total > tx_size_) tx_next_ = 0;
  const std::uint32_t frame = tx_base_ + tx_next_;
  tx_next_ += (total + 3) & ~3u;
  return frame + static_cast<std::uint32_t>(kEthHeaderLen);
}

sim::Sub<bool> EthLink::send_ip(std::uint32_t ip_addr, std::uint32_t ip_len) {
  const std::uint32_t frame =
      ip_addr - static_cast<std::uint32_t>(kEthHeaderLen);
  std::uint8_t* f = self_.node().mem(
      frame, static_cast<std::uint32_t>(kEthHeaderLen) + ip_len);
  if (f == nullptr) co_return false;
  EthHeader h;
  h.dst = cfg_.peer_mac;
  h.src = cfg_.local_mac;
  h.ethertype = kEtherTypeIp;
  encode_eth({f, kEthHeaderLen}, h);
  co_await self_.syscall(dev_.config().tx_kernel_work +
                         self_.node().cost().an2_user_send_overhead);
  co_return dev_.send_from(frame,
                           static_cast<std::uint32_t>(kEthHeaderLen) + ip_len);
}

std::uint32_t EthLink::carve(std::uint32_t len) {
  const std::uint32_t addr = (carve_next_ + 15) & ~15u;
  const sim::MemSegment& seg = self_.segment();
  if (static_cast<std::uint64_t>(addr) + len > seg.base + seg.size) {
    throw std::length_error("EthLink: carve exhausted the segment");
  }
  carve_next_ = addr + len;
  return addr;
}

}  // namespace ash::proto
