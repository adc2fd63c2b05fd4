// The Link over an AN2 virtual circuit: IP datagrams ride bare in AN2
// frames, so the link header is empty and the MTU is the receive buffer
// size. The constructor binds a VC for the process and transmits to the
// peer's `remote_vc`.
#pragma once

#include <cstdint>

#include "net/an2.hpp"
#include "proto/link.hpp"

namespace ash::proto {

class An2Link final : public Link {
 public:
  struct Config {
    std::uint32_t rx_buffers = 16;
    std::uint32_t buf_size = 4096;
    RecvMode mode = RecvMode::Polling;
    int remote_vc = 0;  // peer VC to address transmissions to
  };

  An2Link(sim::Process& self, net::An2Device& dev, const Config& config)
      : Link(self, dev, config.rx_buffers, config.buf_size, {},
             config.buf_size) {
    open(dev.bind_vc(self), config.remote_vc, config.mode);
  }

  int vc() const noexcept { return channel(); }
};

}  // namespace ash::proto
