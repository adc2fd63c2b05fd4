// Wire-format encode/decode for Ethernet, ARP, IPv4, UDP, and TCP headers.
//
// All encoders write network byte order into caller-supplied buffers and
// all decoders validate lengths (and, where applicable, checksums), so the
// protocol layers above never touch raw offsets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "proto/wire.hpp"

namespace ash::proto {

// ---------------------------------------------------------------- Ethernet

struct EthHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = 0;
};

void encode_eth(std::span<std::uint8_t> out, const EthHeader& h);
std::optional<EthHeader> decode_eth(std::span<const std::uint8_t> frame);

// ---------------------------------------------------------------- ARP

struct ArpPacket {
  std::uint16_t opcode = 0;  // 1 request, 2 reply, 3 rarp-request, 4 reply
  MacAddr sender_mac;
  Ipv4Addr sender_ip;
  MacAddr target_mac;
  Ipv4Addr target_ip;
};

inline constexpr std::size_t kArpPacketLen = 28;
inline constexpr std::uint16_t kArpOpRequest = 1;
inline constexpr std::uint16_t kArpOpReply = 2;
inline constexpr std::uint16_t kRarpOpRequest = 3;
inline constexpr std::uint16_t kRarpOpReply = 4;

void encode_arp(std::span<std::uint8_t> out, const ArpPacket& p);
std::optional<ArpPacket> decode_arp(std::span<const std::uint8_t> data);

// ---------------------------------------------------------------- IPv4

struct IpHeader {
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t total_len = 0;   // header + payload
  std::uint16_t ident = 0;
  bool more_fragments = false;
  std::uint16_t frag_offset = 0;  // in 8-byte units
};

/// Encode a 20-byte IPv4 header (computes the header checksum).
void encode_ip(std::span<std::uint8_t> out, const IpHeader& h);

/// Decode and validate (version, header length, header checksum,
/// total_len <= datagram length).
std::optional<IpHeader> decode_ip(std::span<const std::uint8_t> datagram);

// ---------------------------------------------------------------- UDP

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;    // header + payload
  std::uint16_t checksum = 0;  // 0 = not computed
};

void encode_udp(std::span<std::uint8_t> out, const UdpHeader& h);
std::optional<UdpHeader> decode_udp(std::span<const std::uint8_t> segment);

/// UDP/TCP pseudo-header partial sum (RFC 768 / RFC 793): src, dst,
/// protocol, and transport length, as an unfolded accumulator to be
/// combined with the segment sum.
std::uint32_t pseudo_header_sum(Ipv4Addr src, Ipv4Addr dst,
                                std::uint8_t protocol,
                                std::uint16_t transport_len);

/// Compute the transport checksum field value for a UDP/TCP segment whose
/// checksum field is currently zero.
std::uint16_t transport_checksum(Ipv4Addr src, Ipv4Addr dst,
                                 std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment);

/// Inbound check of a received UDP/TCP segment, checksum field included:
/// the sum over pseudo-header and segment folds to 0xffff when intact.
bool transport_checksum_ok(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                           std::span<const std::uint8_t> segment);

/// The same two from a `segment_len`-byte segment already summed as
/// little-endian 32-bit words (memops::cksum's accumulator, a short tail
/// zero-padded), so a charged checksum pass needs no second host pass
/// over the bytes.
std::uint16_t transport_checksum_le(Ipv4Addr src, Ipv4Addr dst,
                                    std::uint8_t protocol,
                                    std::uint16_t segment_len,
                                    std::uint32_t le_word_sum);
bool transport_checksum_ok_le(Ipv4Addr src, Ipv4Addr dst,
                              std::uint8_t protocol,
                              std::uint16_t segment_len,
                              std::uint32_t le_word_sum);

// ---------------------------------------------------------------- TCP

struct TcpFlags {
  bool fin = false;
  bool syn = false;
  bool rst = false;
  bool psh = false;
  bool ack = false;

  friend bool operator==(const TcpFlags&, const TcpFlags&) = default;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpFlags flags;
  std::uint16_t window = 0;
  std::uint16_t checksum = 0;
};

void encode_tcp(std::span<std::uint8_t> out, const TcpHeader& h);
std::optional<TcpHeader> decode_tcp(std::span<const std::uint8_t> segment);

/// Sequence-number arithmetic (wraparound-safe).
constexpr std::int32_t seq_diff(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b);
}
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return seq_diff(a, b) < 0;
}
constexpr bool seq_le(std::uint32_t a, std::uint32_t b) noexcept {
  return seq_diff(a, b) <= 0;
}

}  // namespace ash::proto
