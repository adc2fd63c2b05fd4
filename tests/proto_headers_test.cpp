#include "proto/headers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/memops.hpp"
#include "sim/simulator.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace ash::proto {
namespace {

TEST(Headers, EthRoundTrip) {
  EthHeader h;
  h.dst = {{{1, 2, 3, 4, 5, 6}}};
  h.src = {{{7, 8, 9, 10, 11, 12}}};
  h.ethertype = kEtherTypeIp;
  std::vector<std::uint8_t> buf(kEthHeaderLen);
  encode_eth(buf, h);
  const auto back = decode_eth(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dst, h.dst);
  EXPECT_EQ(back->src, h.src);
  EXPECT_EQ(back->ethertype, kEtherTypeIp);
  EXPECT_FALSE(decode_eth({buf.data(), 13}).has_value());
}

TEST(Headers, ArpRoundTrip) {
  ArpPacket p;
  p.opcode = kArpOpRequest;
  p.sender_mac = {{{1, 2, 3, 4, 5, 6}}};
  p.sender_ip = Ipv4Addr::of(10, 0, 0, 1);
  p.target_mac = MacAddr::broadcast();
  p.target_ip = Ipv4Addr::of(10, 0, 0, 2);
  std::vector<std::uint8_t> buf(kArpPacketLen);
  encode_arp(buf, p);
  const auto back = decode_arp(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->opcode, kArpOpRequest);
  EXPECT_EQ(back->sender_ip, p.sender_ip);
  EXPECT_EQ(back->target_ip, p.target_ip);
  EXPECT_TRUE(back->target_mac.is_broadcast());
}

TEST(Headers, IpRoundTripAndChecksum) {
  IpHeader h;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Addr::of(192, 168, 1, 1);
  h.dst = Ipv4Addr::of(192, 168, 1, 2);
  h.total_len = 48;
  h.ident = 0x1234;
  std::vector<std::uint8_t> buf(48, 0xab);
  encode_ip({buf.data(), kIpHeaderLen}, h);
  const auto back = decode_ip(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src, h.src);
  EXPECT_EQ(back->dst, h.dst);
  EXPECT_EQ(back->total_len, 48);
  EXPECT_EQ(back->protocol, kIpProtoUdp);

  buf[13] ^= 1;  // corrupt a source-address byte
  EXPECT_FALSE(decode_ip(buf).has_value());
}

TEST(Headers, IpRejectsBadTotalLen) {
  IpHeader h;
  h.total_len = 100;  // longer than the datagram we hand in
  std::vector<std::uint8_t> buf(40, 0);
  encode_ip({buf.data(), kIpHeaderLen}, h);
  EXPECT_FALSE(decode_ip(buf).has_value());
}

TEST(Headers, IpFragmentFields) {
  IpHeader h;
  h.total_len = 28;
  h.more_fragments = true;
  h.frag_offset = 0x123;
  std::vector<std::uint8_t> buf(28, 0);
  encode_ip({buf.data(), kIpHeaderLen}, h);
  const auto back = decode_ip(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->more_fragments);
  EXPECT_EQ(back->frag_offset, 0x123);
}

TEST(Headers, UdpRoundTrip) {
  UdpHeader h;
  h.src_port = 5353;
  h.dst_port = 53;
  h.length = 20;
  h.checksum = 0xbeef;
  std::vector<std::uint8_t> buf(20, 0);
  encode_udp(buf, h);
  const auto back = decode_udp(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_port, 5353);
  EXPECT_EQ(back->dst_port, 53);
  EXPECT_EQ(back->length, 20);
  EXPECT_EQ(back->checksum, 0xbeef);
}

TEST(Headers, TcpRoundTripAllFlags) {
  TcpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.seq = 0xdeadbeef;
  h.ack = 0x01020304;
  h.flags = {.fin = true, .syn = false, .rst = true, .psh = false,
             .ack = true};
  h.window = 8192;
  std::vector<std::uint8_t> buf(kTcpHeaderLen);
  encode_tcp(buf, h);
  const auto back = decode_tcp(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, h.seq);
  EXPECT_EQ(back->ack, h.ack);
  EXPECT_EQ(back->flags, h.flags);
  EXPECT_EQ(back->window, 8192);
}

TEST(Headers, TransportChecksumVerifies) {
  util::Rng rng(3);
  const Ipv4Addr src = Ipv4Addr::of(10, 0, 0, 1);
  const Ipv4Addr dst = Ipv4Addr::of(10, 0, 0, 2);
  std::vector<std::uint8_t> seg(kUdpHeaderLen + 33);
  for (auto& b : seg) b = static_cast<std::uint8_t>(rng.next());
  seg[6] = seg[7] = 0;  // checksum field zero
  const std::uint16_t ck = transport_checksum(src, dst, kIpProtoUdp, seg);
  seg[6] = static_cast<std::uint8_t>(ck >> 8);
  seg[7] = static_cast<std::uint8_t>(ck);

  std::uint32_t acc = pseudo_header_sum(
      src, dst, kIpProtoUdp, static_cast<std::uint16_t>(seg.size()));
  acc = util::cksum_partial(seg, acc);
  EXPECT_EQ(util::fold16(acc), 0xffff);

  seg[10] ^= 0x40;  // flip a payload bit
  acc = pseudo_header_sum(src, dst, kIpProtoUdp,
                          static_cast<std::uint16_t>(seg.size()));
  acc = util::cksum_partial(seg, acc);
  EXPECT_NE(util::fold16(acc), 0xffff);
  seg[10] ^= 0x40;

  // The inbound check accepts the intact UDP segment and a TCP segment
  // checksummed by its sender, and rejects every single-bit flip of
  // either, or a segment claimed by another source address.
  std::vector<std::uint8_t> tcp(kTcpHeaderLen + 29);
  for (auto& b : tcp) b = static_cast<std::uint8_t>(rng.next());
  TcpHeader th;
  th.src_port = 4000;
  th.dst_port = 80;
  th.seq = 0x12345678;
  th.flags.ack = true;
  th.window = 8192;
  encode_tcp({tcp.data(), kTcpHeaderLen}, th);
  th.checksum = transport_checksum(src, dst, kIpProtoTcp, tcp);
  encode_tcp({tcp.data(), kTcpHeaderLen}, th);
  for (const auto& [proto, bytes] :
       {std::pair{kIpProtoUdp, seg}, std::pair{kIpProtoTcp, tcp}}) {
    std::vector<std::uint8_t> b = bytes;
    EXPECT_TRUE(transport_checksum_ok(src, dst, proto, b));
    EXPECT_FALSE(transport_checksum_ok(Ipv4Addr::of(10, 0, 0, 9), dst,
                                       proto, b));
    int accepted = 0;
    for (std::size_t bit = 0; bit < 8 * b.size(); ++bit) {
      b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      accepted += transport_checksum_ok(src, dst, proto, b) ? 1 : 0;
      b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_EQ(accepted, 0) << "protocol " << int{proto};
  }

  // The field and the check from a charged pass's little-endian word sum
  // (memops::cksum over node memory) equal the byte-sum ones at every
  // segment length, odd lengths and a zero-padded tail included.
  sim::Simulator sim;
  sim::Node& node = sim.add_node("n");
  constexpr std::uint32_t kAt = 0x1000;
  for (std::uint32_t len = 0; len <= 1500; ++len) {
    std::vector<std::uint8_t> b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    if (len >= kTcpHeaderLen) b[16] = b[17] = 0;
    const Ipv4Addr s = Ipv4Addr{static_cast<std::uint32_t>(rng.next())};
    const Ipv4Addr d = Ipv4Addr{static_cast<std::uint32_t>(rng.next())};
    const auto seg_len = static_cast<std::uint16_t>(len);
    std::copy(b.begin(), b.end(), node.mem(kAt, len));
    std::uint32_t acc = 0;
    sim::memops::cksum(node, kAt, len, &acc);
    const std::uint16_t ck = transport_checksum_le(s, d, kIpProtoTcp,
                                                   seg_len, acc);
    ASSERT_EQ(ck, transport_checksum(s, d, kIpProtoTcp, b)) << "len " << len;
    if (len < kTcpHeaderLen) continue;
    b[16] = static_cast<std::uint8_t>(ck >> 8);
    b[17] = static_cast<std::uint8_t>(ck);
    std::copy(b.begin(), b.end(), node.mem(kAt, len));
    acc = 0;
    sim::memops::cksum(node, kAt, len, &acc);
    EXPECT_TRUE(transport_checksum_ok_le(s, d, kIpProtoTcp, seg_len, acc));
    EXPECT_TRUE(transport_checksum_ok(s, d, kIpProtoTcp, b));
    node.mem(kAt, len)[len - 1] ^= 0x01;
    acc = 0;
    sim::memops::cksum(node, kAt, len, &acc);
    EXPECT_FALSE(transport_checksum_ok_le(s, d, kIpProtoTcp, seg_len, acc))
        << "len " << len;
  }
}

TEST(Headers, SeqArithmeticWrapsCorrectly) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));   // across the wrap
  EXPECT_FALSE(seq_lt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_le(5, 5));
  EXPECT_EQ(seq_diff(10, 3), 7);
  EXPECT_EQ(seq_diff(3, 10), -7);
}

}  // namespace
}  // namespace ash::proto
