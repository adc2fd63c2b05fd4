// ARP / RARP as a user-level library over the Ethernet device (part of
// the paper's protocol inventory: "ARP/RARP, IP, UDP, TCP, HTTP, and NFS
// as user-level libraries").
//
// The service owns one DPF endpoint on the ARP ethertype; RARP opcodes
// ride in ARP-ethertype frames, so it serves both protocols.
// It answers requests for its own bindings, learns peer bindings from any
// ARP traffic it sees, and resolves addresses on demand (broadcast
// request + bounded wait). RARP reverse-resolution is served from a
// static table the owner seeds (the usual boot-server arrangement).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ethernet.hpp"
#include "proto/headers.hpp"
#include "proto/wire.hpp"
#include "sim/process.hpp"

namespace ash::proto {

class ArpService {
 public:
  struct Config {
    MacAddr local_mac;
    Ipv4Addr local_ip;
    std::uint32_t rx_buffers = 8;
  };

  ArpService(sim::Process& self, net::EthernetDevice& dev,
             const Config& config);

  /// Look up `ip`, broadcasting an ARP request and processing replies
  /// until resolved or `timeout` elapses. Cached entries return
  /// immediately. nullopt = unresolved.
  sim::Sub<std::optional<MacAddr>> resolve(Ipv4Addr ip, sim::Cycles timeout);

  /// RARP: ask who `mac` is; nullopt on timeout.
  sim::Sub<std::optional<Ipv4Addr>> rarp_resolve(MacAddr mac,
                                                 sim::Cycles timeout);

  /// Serve incoming ARP/RARP traffic for `duration` (a responder loop for
  /// server-style processes; resolve() also serves while it waits).
  sim::Sub<void> serve(sim::Cycles duration);

  /// Seed a static binding (also the RARP answer table).
  void add_static(Ipv4Addr ip, MacAddr mac);

  /// Cached binding, if any (no traffic).
  std::optional<MacAddr> lookup(Ipv4Addr ip) const;

  std::uint64_t requests_answered() const noexcept { return answered_; }

 private:
  /// Handle one received frame: learn, and reply to requests addressed to
  /// us. Returns the packet if it was a reply/advertisement (callers
  /// waiting in resolve use it), else nullopt.
  sim::Sub<std::optional<ArpPacket>> process_one(sim::Cycles timeout);

  sim::Sub<void> send_packet(const ArpPacket& pkt, std::uint16_t ethertype,
                             MacAddr dst);

  sim::Process& self_;
  net::EthernetDevice& dev_;
  Config cfg_;
  int endpoint_;
  std::uint32_t pool_base_;
  std::uint32_t tx_base_;
  std::unordered_map<std::uint32_t, MacAddr> cache_;  // ip -> mac
  std::uint64_t answered_ = 0;
};

}  // namespace ash::proto
