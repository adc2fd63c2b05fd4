#include "proto/eth_link.hpp"

#include <utility>

#include "proto/headers.hpp"

namespace ash::proto {
namespace {

std::vector<std::uint8_t> eth_header(const EthLink::Config& cfg) {
  std::vector<std::uint8_t> h(kEthHeaderLen);
  encode_eth(h, {cfg.peer_mac, cfg.local_mac, kEtherTypeIp});
  return h;
}

}  // namespace

EthLink::EthLink(sim::Process& self, net::EthernetDevice& dev,
                 const Config& config)
    : Link(self, dev, config.rx_buffers, config.buf_size, eth_header(config),
           dev.config().max_frame_bytes -
               static_cast<std::uint32_t>(kEthHeaderLen)) {
  dpf::Filter filter;
  filter.atoms.push_back(dpf::atom_be16(12, kEtherTypeIp));
  for (const auto& atom : config.extra_atoms) filter.atoms.push_back(atom);
  const int ep = dev.attach(self, std::move(filter));
  // Ethernet carries no channel on the wire: the port ignores tx_channel.
  open(ep, ep, config.mode);
}

}  // namespace ash::proto
