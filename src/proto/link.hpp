// The per-process link binding the UDP and TCP libraries run over.
//
// A Link owns one channel of a net::RxPort (an AN2 virtual circuit or an
// Ethernet/DPF endpoint), a pool of pinned receive buffers carved from the
// process segment, a transmit staging ring, and the receive discipline
// (polling, as in most of the paper's experiments, or interrupt-driven
// wakeup). All CPU costs — poll iterations, send syscalls, staging
// stores — are charged here, so protocol layers above just move bytes.
//
// The protocol library runs unchanged over both devices of the testbed
// (Section IV-D), and so does this binding: An2Link and EthLink only bind
// the channel and fix the link header and the MTU.
//
// Layout, from the segment midpoint up: rx_buffers receive buffers of
// buf_size bytes, the 64 KB transmit ring, then the carve region up to
// the segment end.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/rx_port.hpp"
#include "sim/process.hpp"

namespace ash::proto {

enum class RecvMode : std::uint8_t {
  Polling,    // busy-poll the notification ring (no kernel involvement)
  Interrupt,  // block; driver wakes the process on arrival
};

class Link {
 public:
  // Virtual so that either device's link can be owned as a Link.
  virtual ~Link() = default;
  // Receive loops and protocol objects hold references to the link.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  sim::Process& self() noexcept { return self_; }

  // ---- receive ----

  /// Wait for the next frame (polling or blocking per the receive mode).
  /// Returns where it landed in this process's memory; the caller must
  /// release() it when done.
  sim::Sub<net::RxDesc> recv();
  /// recv with a deadline; nullopt on timeout.
  sim::Sub<std::optional<net::RxDesc>> recv_for(sim::Cycles timeout);
  /// Non-blocking notification-ring check (free; callers charge their own
  /// poll-iteration cost).
  std::optional<net::RxDesc> try_recv() { return port_.poll(channel_); }
  /// Return the pool slot holding `d` (which may point anywhere inside
  /// it) to the free ring. Cheap: a shared-ring write, no syscall.
  void release(const net::RxDesc& d);

  /// Byte offset of the IP header within a received frame.
  std::uint32_t rx_ip_offset() const noexcept {
    return static_cast<std::uint32_t>(header_.size());
  }
  /// Largest IP packet this link can carry.
  std::uint32_t ip_mtu() const noexcept { return ip_mtu_; }

  // ---- transmit ----

  /// Reserve transmit staging for an IP packet of `len` bytes; returns the
  /// address where the IP header should be built (the link header goes
  /// before it). The ring holds 64 KB and restarts at its base when a
  /// frame does not fit, so staged bytes survive until it wraps over
  /// them. Throws std::length_error if the frame exceeds the ring.
  std::uint32_t tx_alloc_ip(std::uint32_t len);

  /// Transmit the IP packet staged at `ip_addr`: write the link header in
  /// front of it, then charge one send system call plus the driver's
  /// transmit work. false if the device refuses the frame, and false
  /// before any charge if the frame is not in node memory.
  sim::Sub<bool> send_ip(std::uint32_t ip_addr, std::uint32_t ip_len);

  /// Stage `bytes` as an IP packet (charged as a copy loop's store half)
  /// and send it.
  sim::Sub<bool> send_bytes(std::span<const std::uint8_t> bytes);

  /// Bump-allocate `len` bytes of long-lived, 16-aligned scratch memory
  /// after the transmit ring (TCP staging rings, shared TCB blocks...).
  /// Throws std::length_error when the segment is exhausted.
  std::uint32_t carve(std::uint32_t len);

 protected:
  /// Lay out the pool in the upper half of `self`'s segment. Throws
  /// std::length_error if it does not fit — before the caller binds a
  /// channel, which it then hands to open().
  Link(sim::Process& self, net::RxPort& port, std::uint32_t rx_buffers,
       std::uint32_t buf_size, std::vector<std::uint8_t> header,
       std::uint32_t ip_mtu);

  /// Receive on `channel`, just bound for self(): supply the pool and set
  /// the receive mode. Transmit on `tx_channel`.
  void open(int channel, int tx_channel, RecvMode mode);

  int channel() const noexcept { return channel_; }

 private:
  static constexpr std::uint32_t kTxRingBytes = 64 * 1024;

  sim::Process& self_;
  net::RxPort& port_;
  int channel_ = -1;
  int tx_channel_ = -1;
  const std::uint32_t rx_buffers_;
  const std::uint32_t buf_size_;
  const std::uint32_t pool_base_;  // the segment midpoint
  const std::uint32_t tx_base_;    // right after the rx buffers
  std::uint32_t tx_next_ = 0;      // offset into the transmit ring
  std::uint32_t carve_next_;       // scratch bump allocator
  const std::vector<std::uint8_t> header_;  // written before each packet
  const std::uint32_t ip_mtu_;
};

}  // namespace ash::proto
