// User-level UDP (RFC 768) over the AN2 link.
//
// A straightforward library implementation, structured like the paper's
// (Section IV-D): the application links the library; send allocates a
// packet in the process's transmit staging area, fills IP and UDP headers,
// optionally computes the Internet checksum, and issues one send system
// call. Receive demultiplexes "using only the virtual circuit index" (the
// VC is the connection), validates headers, optionally verifies the
// checksum, and either hands the application a pointer into the receive
// buffer ("in place" — the zero-copy variant of Table II) or copies the
// payload into an application buffer.
//
// Matching the paper's measurement note, the copy and the checksum here
// are deliberately NOT integrated ("unlike their numbers, our checksum and
// memory copy are not integrated for this measurement") — integration is
// what the ASH/DILP fast path adds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "proto/an2_link.hpp"
#include "proto/link.hpp"
#include "proto/headers.hpp"

namespace ash::proto {

class UdpSocket {
 public:
  struct Options {
    Ipv4Addr local_ip;
    Ipv4Addr remote_ip;
    std::uint16_t local_port = 0;
    std::uint16_t remote_port = 0;
    bool checksum = true;  // end-to-end Internet checksum
  };

  UdpSocket(Link& link, const Options& options)
      : link_(link), opt_(options) {}

  Link& link() noexcept { return link_; }

  /// Datagram as received. `payload_addr` points into this process's
  /// memory; `desc` must be released via release() (in-place consumers
  /// release after using the data; copying consumers release immediately
  /// on return from recv()).
  struct Datagram {
    std::uint32_t payload_addr = 0;
    std::uint16_t payload_len = 0;
    std::uint16_t src_port = 0;
    net::RxDesc desc;
  };

  /// Send `payload` from application memory at `app_addr`. Builds the
  /// packet in transmit staging (one copy, charged), fills headers,
  /// computes the checksum if enabled, sends.
  sim::Sub<bool> send_from(std::uint32_t app_addr, std::uint16_t len);

  /// Send literal bytes (convenience for small control messages).
  sim::Sub<bool> send(std::span<const std::uint8_t> payload);

  /// Receive one datagram "in place": zero copies; the application uses
  /// the payload where it landed and must release() it afterwards.
  /// Malformed or checksum-failing packets are dropped and the wait
  /// continues.
  sim::Sub<Datagram> recv_in_place();

  /// Receive and copy the payload to `app_addr` (the traditional
  /// read-interface variant: one additional copy, charged; checksum — if
  /// enabled — is a separate pass, also charged).
  sim::Sub<Datagram> recv_copy(std::uint32_t app_addr,
                               std::uint16_t max_len);

  void release(const Datagram& d) { link_.release(d.desc); }

  std::uint64_t checksum_failures() const noexcept { return cksum_fail_; }

 private:
  /// Validate headers/checksum of a raw message; nullopt = drop.
  std::optional<Datagram> parse(const net::RxDesc& d);

  /// Build a full IP/UDP packet around `len` payload bytes already staged
  /// behind the headers in packet buffer `pkt_addr`, checksumming it if
  /// enabled. Returns the checksum pass's cycles (0 when disabled).
  sim::Cycles finish_packet(std::uint32_t pkt_addr, std::uint16_t len);

  Link& link_;
  Options opt_;
  std::uint16_t next_ident_ = 1;
  std::uint64_t cksum_fail_ = 0;
};

}  // namespace ash::proto
