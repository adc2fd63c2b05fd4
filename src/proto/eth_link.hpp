// The Link over 10 Mb/s Ethernet with DPF demux (Section IV's second
// device).
//
// The endpoint's DPF filter claims IPv4 frames for this process (callers
// can narrow it with extra atoms, e.g. by transport port, when several
// endpoints share the device). The kernel's default receive path has
// already destriped the frame into one of our supplied buffers by the time
// recv() returns, so the IP header follows the 14-byte Ethernet header
// that send_ip() writes in front of every packet. ARP resolution is the
// ArpService's job; this link takes a static peer MAC (the experiments
// run host-to-host).
#pragma once

#include <cstdint>
#include <vector>

#include "dpf/dpf.hpp"
#include "net/ethernet.hpp"
#include "proto/link.hpp"
#include "proto/wire.hpp"

namespace ash::proto {

class EthLink final : public Link {
 public:
  struct Config {
    Config() = default;
    Config(const MacAddr& local, const MacAddr& peer)
        : local_mac(local), peer_mac(peer) {}

    MacAddr local_mac;
    MacAddr peer_mac;
    std::uint32_t rx_buffers = 16;
    std::uint32_t buf_size = 1536;
    RecvMode mode = RecvMode::Polling;
    /// Additional DPF atoms beyond the IPv4 ethertype match (e.g. a
    /// destination-port discriminator).
    std::vector<dpf::Atom> extra_atoms;
  };

  EthLink(sim::Process& self, net::EthernetDevice& dev, const Config& config);

  int endpoint() const noexcept { return channel(); }
};

}  // namespace ash::proto
