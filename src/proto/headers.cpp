#include "proto/headers.hpp"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "util/byteorder.hpp"
#include "util/checksum.hpp"

namespace ash::proto {

using util::load_be16;
using util::load_be32;
using util::store_be16;
using util::store_be32;

std::string Ipv4Addr::to_string() const {
  char buf[20];
  const int n = std::snprintf(buf, sizeof buf, "%u.%u.%u.%u",
                              (value >> 24) & 0xff, (value >> 16) & 0xff,
                              (value >> 8) & 0xff, value & 0xff);
  return std::string(buf, static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------- Ethernet

void encode_eth(std::span<std::uint8_t> out, const EthHeader& h) {
  assert(out.size() >= kEthHeaderLen);
  std::memcpy(out.data(), h.dst.bytes.data(), 6);
  std::memcpy(out.data() + 6, h.src.bytes.data(), 6);
  store_be16(out.data() + 12, h.ethertype);
}

std::optional<EthHeader> decode_eth(std::span<const std::uint8_t> frame) {
  if (frame.size() < kEthHeaderLen) return std::nullopt;
  EthHeader h;
  std::memcpy(h.dst.bytes.data(), frame.data(), 6);
  std::memcpy(h.src.bytes.data(), frame.data() + 6, 6);
  h.ethertype = load_be16(frame.data() + 12);
  return h;
}

// ---------------------------------------------------------------- ARP

void encode_arp(std::span<std::uint8_t> out, const ArpPacket& p) {
  assert(out.size() >= kArpPacketLen);
  store_be16(out.data() + 0, 1);       // htype: Ethernet
  store_be16(out.data() + 2, kEtherTypeIp);
  out[4] = 6;                          // hlen
  out[5] = 4;                          // plen
  store_be16(out.data() + 6, p.opcode);
  std::memcpy(out.data() + 8, p.sender_mac.bytes.data(), 6);
  store_be32(out.data() + 14, p.sender_ip.value);
  std::memcpy(out.data() + 18, p.target_mac.bytes.data(), 6);
  store_be32(out.data() + 24, p.target_ip.value);
}

std::optional<ArpPacket> decode_arp(std::span<const std::uint8_t> data) {
  if (data.size() < kArpPacketLen) return std::nullopt;
  if (load_be16(data.data()) != 1 || load_be16(data.data() + 2) != kEtherTypeIp ||
      data[4] != 6 || data[5] != 4) {
    return std::nullopt;
  }
  ArpPacket p;
  p.opcode = load_be16(data.data() + 6);
  std::memcpy(p.sender_mac.bytes.data(), data.data() + 8, 6);
  p.sender_ip.value = load_be32(data.data() + 14);
  std::memcpy(p.target_mac.bytes.data(), data.data() + 18, 6);
  p.target_ip.value = load_be32(data.data() + 24);
  return p;
}

// ---------------------------------------------------------------- IPv4

void encode_ip(std::span<std::uint8_t> out, const IpHeader& h) {
  assert(out.size() >= kIpHeaderLen);
  out[0] = 0x45;  // version 4, IHL 5
  out[1] = 0;     // TOS
  store_be16(out.data() + 2, h.total_len);
  store_be16(out.data() + 4, h.ident);
  std::uint16_t frag = h.frag_offset & 0x1fff;
  if (h.more_fragments) frag |= 0x2000;
  store_be16(out.data() + 6, frag);
  out[8] = h.ttl;
  out[9] = h.protocol;
  store_be16(out.data() + 10, 0);  // checksum placeholder
  store_be32(out.data() + 12, h.src.value);
  store_be32(out.data() + 16, h.dst.value);
  const std::uint16_t ck =
      util::internet_checksum({out.data(), kIpHeaderLen});
  store_be16(out.data() + 10, ck);
}

std::optional<IpHeader> decode_ip(std::span<const std::uint8_t> datagram) {
  if (datagram.size() < kIpHeaderLen) return std::nullopt;
  if (datagram[0] != 0x45) return std::nullopt;  // no options supported
  if (!util::checksum_ok({datagram.data(), kIpHeaderLen})) {
    return std::nullopt;
  }
  IpHeader h;
  h.total_len = load_be16(datagram.data() + 2);
  if (h.total_len < kIpHeaderLen || h.total_len > datagram.size()) {
    return std::nullopt;
  }
  h.ident = load_be16(datagram.data() + 4);
  const std::uint16_t frag = load_be16(datagram.data() + 6);
  h.more_fragments = (frag & 0x2000) != 0;
  h.frag_offset = frag & 0x1fff;
  h.ttl = datagram[8];
  h.protocol = datagram[9];
  h.src.value = load_be32(datagram.data() + 12);
  h.dst.value = load_be32(datagram.data() + 16);
  return h;
}

// ---------------------------------------------------------------- UDP

void encode_udp(std::span<std::uint8_t> out, const UdpHeader& h) {
  assert(out.size() >= kUdpHeaderLen);
  store_be16(out.data() + 0, h.src_port);
  store_be16(out.data() + 2, h.dst_port);
  store_be16(out.data() + 4, h.length);
  store_be16(out.data() + 6, h.checksum);
}

std::optional<UdpHeader> decode_udp(std::span<const std::uint8_t> segment) {
  if (segment.size() < kUdpHeaderLen) return std::nullopt;
  UdpHeader h;
  h.src_port = load_be16(segment.data() + 0);
  h.dst_port = load_be16(segment.data() + 2);
  h.length = load_be16(segment.data() + 4);
  h.checksum = load_be16(segment.data() + 6);
  if (h.length < kUdpHeaderLen || h.length > segment.size()) {
    return std::nullopt;
  }
  return h;
}

std::uint32_t pseudo_header_sum(Ipv4Addr src, Ipv4Addr dst,
                                std::uint8_t protocol,
                                std::uint16_t transport_len) {
  std::uint32_t acc = 0;
  acc = util::cksum32_accumulate(acc, (src.value >> 16) << 16 |
                                          (src.value & 0xffffu));
  acc = util::cksum32_accumulate(acc, dst.value);
  acc = util::cksum32_accumulate(
      acc, (static_cast<std::uint32_t>(protocol) << 16) | transport_len);
  return acc;
}

namespace {

/// The field value for a finished pseudo-header + segment sum.
std::uint16_t checksum_field(std::uint32_t acc) {
  const std::uint16_t ck = static_cast<std::uint16_t>(~util::fold16(acc));
  return ck == 0 ? 0xffff : ck;  // 0 is reserved for "no checksum" (UDP)
}

/// Pseudo-header plus a little-endian word sum of the segment.
std::uint32_t le_segment_sum(Ipv4Addr src, Ipv4Addr dst,
                             std::uint8_t protocol, std::uint16_t segment_len,
                             std::uint32_t le_word_sum) {
  return util::cksum32_accumulate(
      pseudo_header_sum(src, dst, protocol, segment_len),
      util::fold16_le_word_sum(le_word_sum));
}

}  // namespace

std::uint16_t transport_checksum(Ipv4Addr src, Ipv4Addr dst,
                                 std::uint8_t protocol,
                                 std::span<const std::uint8_t> segment) {
  const std::uint32_t acc = pseudo_header_sum(
      src, dst, protocol, static_cast<std::uint16_t>(segment.size()));
  return checksum_field(util::cksum_partial(segment, acc));
}

bool transport_checksum_ok(Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                           std::span<const std::uint8_t> segment) {
  const std::uint32_t acc = pseudo_header_sum(
      src, dst, protocol, static_cast<std::uint16_t>(segment.size()));
  return util::fold16(util::cksum_partial(segment, acc)) == 0xffff;
}

std::uint16_t transport_checksum_le(Ipv4Addr src, Ipv4Addr dst,
                                    std::uint8_t protocol,
                                    std::uint16_t segment_len,
                                    std::uint32_t le_word_sum) {
  return checksum_field(
      le_segment_sum(src, dst, protocol, segment_len, le_word_sum));
}

bool transport_checksum_ok_le(Ipv4Addr src, Ipv4Addr dst,
                              std::uint8_t protocol,
                              std::uint16_t segment_len,
                              std::uint32_t le_word_sum) {
  return util::fold16(le_segment_sum(src, dst, protocol, segment_len,
                                     le_word_sum)) == 0xffff;
}

// ---------------------------------------------------------------- TCP

void encode_tcp(std::span<std::uint8_t> out, const TcpHeader& h) {
  assert(out.size() >= kTcpHeaderLen);
  store_be16(out.data() + 0, h.src_port);
  store_be16(out.data() + 2, h.dst_port);
  store_be32(out.data() + 4, h.seq);
  store_be32(out.data() + 8, h.ack);
  out[12] = 5 << 4;  // data offset: 5 words, no options
  std::uint8_t flags = 0;
  if (h.flags.fin) flags |= 0x01;
  if (h.flags.syn) flags |= 0x02;
  if (h.flags.rst) flags |= 0x04;
  if (h.flags.psh) flags |= 0x08;
  if (h.flags.ack) flags |= 0x10;
  out[13] = flags;
  store_be16(out.data() + 14, h.window);
  store_be16(out.data() + 16, h.checksum);
  store_be16(out.data() + 18, 0);  // urgent pointer
}

std::optional<TcpHeader> decode_tcp(std::span<const std::uint8_t> segment) {
  if (segment.size() < kTcpHeaderLen) return std::nullopt;
  if ((segment[12] >> 4) != 5) return std::nullopt;  // options unsupported
  TcpHeader h;
  h.src_port = load_be16(segment.data() + 0);
  h.dst_port = load_be16(segment.data() + 2);
  h.seq = load_be32(segment.data() + 4);
  h.ack = load_be32(segment.data() + 8);
  const std::uint8_t flags = segment[13];
  h.flags.fin = flags & 0x01;
  h.flags.syn = flags & 0x02;
  h.flags.rst = flags & 0x04;
  h.flags.psh = flags & 0x08;
  h.flags.ack = flags & 0x10;
  h.window = load_be16(segment.data() + 14);
  h.checksum = load_be16(segment.data() + 16);
  return h;
}

}  // namespace ash::proto
