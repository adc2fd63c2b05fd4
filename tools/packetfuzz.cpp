// packetfuzz — deterministic, structure-aware packet fuzzer for the
// user-level protocol stack and the kernel demux paths.
//
//   packetfuzz --target headers|dpf|reassembler|tcp|all
//              [--iters N] [--seed S]
//
// Each target starts from structurally valid frames (built with the real
// encoders), applies seeded mutations (bit flips, byte stomps,
// truncation, extension, length-field lies, byte swaps), and feeds the
// result into a parser or receive path. The invariants are:
//
//   * no crash / no sanitizer finding (run under ASan+UBSan in CI);
//   * the two DPF engines agree on every mutated frame;
//   * the Ethernet device leaks no kernel receive buffer, whatever the
//     frame contents;
//   * IpReassembler buffering stays inside its configured bounds;
//   * the TCP receive path survives arbitrary segments without wedging
//     its TCB into an inconsistent state.
//
// Exit status 0 = corpus clean; 1 = an invariant failed (details on
// stderr); 2 = usage error. Same seed -> same corpus, so any failure
// reproduces exactly.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ashc/compile.hpp"
#include "ashc/eval.hpp"
#include "ashc/gen.hpp"
#include "ashc/rule.hpp"
#include "core/ash.hpp"
#include "dpf/dpf.hpp"
#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "proto/an2_link.hpp"
#include "proto/headers.hpp"
#include "proto/ip_frag.hpp"
#include "proto/tcp.hpp"
#include "proto/wire.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vcode/backend.hpp"
#include "vcode/verifier.hpp"

namespace {

using ash::util::Rng;
namespace proto = ash::proto;
namespace net = ash::net;
namespace dpf = ash::dpf;
namespace ashc = ash::ashc;

int g_failures = 0;

#define FUZZ_CHECK(cond, ...)                         \
  do {                                                \
    if (!(cond)) {                                    \
      std::fprintf(stderr, "packetfuzz: " __VA_ARGS__); \
      std::fprintf(stderr, "\n");                     \
      ++g_failures;                                   \
    }                                                 \
  } while (0)

// ------------------------------------------------------------ mutation

/// Apply 1..4 structure-aware mutations in place. Deterministic in rng.
void mutate(std::vector<std::uint8_t>& f, Rng& rng) {
  const std::uint64_t n = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (f.empty()) {
      f.push_back(static_cast<std::uint8_t>(rng.next()));
      continue;
    }
    switch (rng.below(6)) {
      case 0:  // flip one bit
        f[rng.below(f.size())] ^= static_cast<std::uint8_t>(1 << rng.below(8));
        break;
      case 1:  // stomp one byte
        f[rng.below(f.size())] = static_cast<std::uint8_t>(rng.next());
        break;
      case 2:  // truncate (possibly to zero)
        f.resize(rng.below(f.size() + 1));
        break;
      case 3: {  // extend with noise
        const std::uint64_t extra = 1 + rng.below(32);
        for (std::uint64_t k = 0; k < extra; ++k) {
          f.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      }
      case 4: {  // lie in a 16-bit field (length/offset/port-shaped)
        if (f.size() >= 2) {
          const std::size_t at = rng.below(f.size() - 1);
          const std::uint16_t v = static_cast<std::uint16_t>(rng.next());
          f[at] = static_cast<std::uint8_t>(v >> 8);
          f[at + 1] = static_cast<std::uint8_t>(v);
        }
        break;
      }
      default: {  // swap two bytes
        const std::size_t a = rng.below(f.size());
        const std::size_t b = rng.below(f.size());
        std::swap(f[a], f[b]);
        break;
      }
    }
  }
}

const proto::Ipv4Addr kSrc = proto::Ipv4Addr::of(10, 0, 0, 1);
const proto::Ipv4Addr kDst = proto::Ipv4Addr::of(10, 0, 0, 2);

/// A structurally valid IP datagram (optionally a fragment) with payload.
std::vector<std::uint8_t> build_ip(Rng& rng, std::uint8_t protocol,
                                   std::uint32_t payload_len,
                                   std::uint16_t ident, bool more,
                                   std::uint16_t frag_off_blocks) {
  std::vector<std::uint8_t> d(proto::kIpHeaderLen + payload_len);
  proto::IpHeader h;
  h.protocol = protocol;
  h.src = kSrc;
  h.dst = kDst;
  h.total_len = static_cast<std::uint16_t>(d.size());
  h.ident = ident;
  h.more_fragments = more;
  h.frag_offset = frag_off_blocks;
  proto::encode_ip({d.data(), proto::kIpHeaderLen}, h);
  for (std::uint32_t i = 0; i < payload_len; ++i) {
    d[proto::kIpHeaderLen + i] = static_cast<std::uint8_t>(rng.next());
  }
  return d;
}

/// A structurally valid TCP segment inside an IP datagram; checksummed
/// correctly half the time so mutations reach the post-checksum paths.
std::vector<std::uint8_t> build_tcp_segment(Rng& rng) {
  const std::uint32_t plen = static_cast<std::uint32_t>(rng.below(256));
  const std::uint32_t seg = static_cast<std::uint32_t>(proto::kTcpHeaderLen) + plen;
  std::vector<std::uint8_t> d(proto::kIpHeaderLen + seg);

  proto::TcpHeader t;
  t.src_port = static_cast<std::uint16_t>(rng.chance(1, 2) ? 5000 : rng.next());
  t.dst_port = static_cast<std::uint16_t>(rng.chance(1, 2) ? 4000 : rng.next());
  t.seq = static_cast<std::uint32_t>(rng.next());
  t.ack = static_cast<std::uint32_t>(rng.next());
  t.flags.syn = rng.chance(1, 3);
  t.flags.ack = rng.chance(2, 3);
  t.flags.fin = rng.chance(1, 5);
  t.flags.rst = rng.chance(1, 8);
  t.flags.psh = rng.chance(1, 3);
  t.window = static_cast<std::uint16_t>(rng.next());
  t.checksum = 0;
  proto::encode_tcp({d.data() + proto::kIpHeaderLen, proto::kTcpHeaderLen}, t);
  for (std::uint32_t i = 0; i < plen; ++i) {
    d[proto::kIpHeaderLen + proto::kTcpHeaderLen + i] =
        static_cast<std::uint8_t>(rng.next());
  }
  if (rng.chance(1, 2)) {
    t.checksum = proto::transport_checksum(
        kSrc, kDst, proto::kIpProtoTcp,
        {d.data() + proto::kIpHeaderLen, seg});
    proto::encode_tcp({d.data() + proto::kIpHeaderLen, proto::kTcpHeaderLen},
                      t);
  }

  proto::IpHeader ip;
  ip.protocol = proto::kIpProtoTcp;
  ip.src = kSrc;
  ip.dst = kDst;
  ip.total_len = static_cast<std::uint16_t>(d.size());
  ip.ident = static_cast<std::uint16_t>(rng.next());
  proto::encode_ip({d.data(), proto::kIpHeaderLen}, ip);
  return d;
}

// ------------------------------------------------------------- targets

/// Every decoder over mutated (and pure-noise) buffers: must never read
/// out of bounds or crash, whatever the bytes say.
void fuzz_headers(std::uint64_t iters, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> buf;
    switch (rng.below(5)) {
      case 0: {  // Ethernet frame
        buf.assign(proto::kEthHeaderLen + rng.below(64), 0);
        proto::EthHeader e;
        e.ethertype = static_cast<std::uint16_t>(rng.next());
        proto::encode_eth({buf.data(), proto::kEthHeaderLen}, e);
        break;
      }
      case 1: {  // ARP packet
        buf.assign(proto::kArpPacketLen, 0);
        proto::ArpPacket a;
        a.opcode = static_cast<std::uint16_t>(rng.below(5));
        a.sender_ip = kSrc;
        a.target_ip = kDst;
        proto::encode_arp({buf.data(), proto::kArpPacketLen}, a);
        break;
      }
      case 2:
        buf = build_ip(rng, proto::kIpProtoUdp,
                       static_cast<std::uint32_t>(rng.below(128)),
                       static_cast<std::uint16_t>(i), rng.chance(1, 3),
                       static_cast<std::uint16_t>(rng.below(32)));
        break;
      case 3:
        buf = build_tcp_segment(rng);
        break;
      default:  // pure noise
        buf.resize(rng.below(96));
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
        break;
    }
    mutate(buf, rng);

    (void)proto::decode_eth(buf);
    (void)proto::decode_arp(buf);
    (void)proto::decode_udp(buf);
    (void)proto::decode_tcp(buf);
    const auto ip = proto::decode_ip(buf);
    if (ip.has_value()) {
      // decode_ip promised total_len <= buf.size(); hold it to that.
      FUZZ_CHECK(ip->total_len <= buf.size(),
                 "headers: decode_ip accepted total_len %u > frame %zu "
                 "(iter %llu)",
                 ip->total_len, buf.size(), (unsigned long long)i);
      const std::uint32_t seg = ip->total_len -
                                static_cast<std::uint32_t>(proto::kIpHeaderLen);
      (void)proto::decode_udp({buf.data() + proto::kIpHeaderLen, seg});
      (void)proto::decode_tcp({buf.data() + proto::kIpHeaderLen, seg});
    }
  }
}

/// Both DPF engines over mutated frames: agreement + bounds safety; then
/// the same corpus through a real EthernetDevice so the interrupt-path
/// demux and kernel-buffer recycling face it too.
void fuzz_dpf(std::uint64_t iters, std::uint64_t seed) {
  Rng rng(seed);
  dpf::InterpretedEngine interp;
  dpf::CompiledEngine compiled;
  for (int i = 0; i < 48; ++i) {
    dpf::Filter f;
    const std::uint64_t n_atoms = 1 + rng.below(3);
    for (std::uint64_t a = 0; a < n_atoms; ++a) {
      dpf::Atom atom;
      atom.offset = static_cast<std::uint16_t>(rng.below(80));
      const std::uint8_t widths[] = {1, 2, 4};
      atom.width = widths[rng.below(3)];
      atom.mask = atom.width == 1 ? 0xffu : atom.width == 2 ? 0xffffu
                                                            : 0xffffffffu;
      if (rng.chance(1, 3)) atom.mask &= 0x33333333u;
      atom.value = static_cast<std::uint32_t>(rng.next()) & atom.mask;
      f.atoms.push_back(atom);
    }
    interp.insert(f, i);
    compiled.insert(f, i);
  }

  for (std::uint64_t i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> frame(proto::kEthHeaderLen + rng.below(100), 0);
    proto::EthHeader e;
    e.ethertype = rng.chance(1, 2) ? 0x0800
                                   : static_cast<std::uint16_t>(rng.next());
    proto::encode_eth({frame.data(), proto::kEthHeaderLen}, e);
    for (std::size_t k = proto::kEthHeaderLen; k < frame.size(); ++k) {
      frame[k] = static_cast<std::uint8_t>(rng.below(8));
    }
    mutate(frame, rng);
    FUZZ_CHECK(interp.match(frame) == compiled.match(frame),
               "dpf: engines disagree on iter %llu (len %zu)",
               (unsigned long long)i, frame.size());
  }

  // Device pass: batches of mutated frames through the LANCE model. The
  // receiver never polls, so every frame exercises allocate -> demux ->
  // copy-out/drop -> recycle; afterwards no kernel buffer may be in use.
  const std::uint64_t batches = iters / 100 + 1;
  for (std::uint64_t b = 0; b < batches; ++b) {
    ash::sim::Simulator sim;
    ash::sim::Node& na = sim.add_node("tx");
    ash::sim::Node& nb = sim.add_node("rx");
    net::EthernetDevice dev_a(na);
    net::EthernetDevice dev_b(nb);
    dev_a.connect(dev_b);

    nb.kernel().spawn("rx", [&](ash::sim::Process& self) -> ash::sim::Task {
      dpf::Filter f;
      f.atoms = {dpf::atom_be16(12, 0x0800)};
      const int ep = dev_b.attach(self, f);
      dev_b.supply_buffer(ep, self.segment().base, 4096);
      dev_b.supply_buffer(ep, self.segment().base + 4096, 4096);
      co_await self.sleep_for(ash::sim::us(200000.0));
      while (dev_b.poll(ep).has_value()) {
      }
    });
    sim.queue().schedule_at(10, [&] {
      Rng frng(seed ^ (b * 0x9e3779b97f4a7c15ull));
      for (int k = 0; k < 64; ++k) {
        std::vector<std::uint8_t> frame(proto::kEthHeaderLen + frng.below(100),
                                        0);
        proto::EthHeader e;
        e.ethertype = frng.chance(1, 2)
                          ? 0x0800
                          : static_cast<std::uint16_t>(frng.next());
        proto::encode_eth({frame.data(), proto::kEthHeaderLen}, e);
        mutate(frame, frng);
        if (frame.size() > 1518) frame.resize(1518);
        dev_a.send(frame);  // undersize/oversize rejection is part of it
      }
    });
    sim.run(ash::sim::us(1e6));
    FUZZ_CHECK(dev_b.kernel_bufs_in_use() == 0,
               "dpf: %zu kernel rx buffers leaked after batch %llu",
               dev_b.kernel_bufs_in_use(), (unsigned long long)b);
  }
}

/// Mutated fragment streams through a tightly-bounded reassembler.
void fuzz_reassembler(std::uint64_t iters, std::uint64_t seed) {
  Rng rng(seed);
  proto::IpReassembler::Limits lim;
  lim.max_datagrams = 8;
  lim.max_buffered_bytes = 16 * 1024;
  lim.max_age_feeds = 128;
  proto::IpReassembler reass(lim);

  for (std::uint64_t i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> d =
        build_ip(rng, proto::kIpProtoUdp,
                 8 * (1 + static_cast<std::uint32_t>(rng.below(64))),
                 static_cast<std::uint16_t>(rng.below(64)),
                 /*more=*/rng.chance(2, 3),
                 static_cast<std::uint16_t>(rng.below(512)));
    if (rng.chance(1, 2)) mutate(d, rng);
    const auto out = reass.feed(d);
    if (out.has_value()) {
      FUZZ_CHECK(out->payload.size() <= 64 * 1024,
                 "reassembler: oversized completion (%zu bytes, iter %llu)",
                 out->payload.size(), (unsigned long long)i);
    }
    FUZZ_CHECK(reass.pending() <= lim.max_datagrams,
               "reassembler: pending %zu > cap %zu (iter %llu)",
               reass.pending(), lim.max_datagrams, (unsigned long long)i);
    FUZZ_CHECK(reass.buffered_bytes() <= lim.max_buffered_bytes,
               "reassembler: buffered %zu > cap %zu (iter %llu)",
               reass.buffered_bytes(), lim.max_buffered_bytes,
               (unsigned long long)i);
  }
}

/// A fully valid, checksummed TCP segment (no payload) for scripting the
/// attacker's handshake around the garbage stream.
std::vector<std::uint8_t> crafted_segment(proto::TcpFlags flags,
                                          std::uint32_t seq,
                                          std::uint32_t ack) {
  std::vector<std::uint8_t> d(proto::kIpHeaderLen + proto::kTcpHeaderLen);
  proto::TcpHeader t;
  t.src_port = 5000;
  t.dst_port = 4000;
  t.seq = seq;
  t.ack = ack;
  t.flags = flags;
  t.window = 8192;
  proto::encode_tcp({d.data() + proto::kIpHeaderLen, proto::kTcpHeaderLen}, t);
  t.checksum = proto::transport_checksum(
      kSrc, kDst, proto::kIpProtoTcp,
      {d.data() + proto::kIpHeaderLen, proto::kTcpHeaderLen});
  proto::encode_tcp({d.data() + proto::kIpHeaderLen, proto::kTcpHeaderLen}, t);

  proto::IpHeader ip;
  ip.protocol = proto::kIpProtoTcp;
  ip.src = kSrc;
  ip.dst = kDst;
  ip.total_len = static_cast<std::uint16_t>(d.size());
  ip.ident = 1;
  proto::encode_ip({d.data(), proto::kIpHeaderLen}, ip);
  return d;
}

/// Raw mutated segments against a live TcpConnection: an attacker node
/// establishes a real connection by scripted handshake, streams mutated
/// frames into the victim's VC while it reads, then sends a valid FIN so
/// the victim can drain and close. The TCB must end self-consistent and
/// the victim must not wedge.
void fuzz_tcp(std::uint64_t iters, std::uint64_t seed) {
  // Batches keep each simulation bounded.
  const std::uint64_t per_batch = 250;
  const std::uint64_t batches = (iters + per_batch - 1) / per_batch;
  for (std::uint64_t b = 0; b < batches; ++b) {
    ash::sim::Simulator sim;
    ash::sim::Node& attacker = sim.add_node("attacker");
    ash::sim::Node& victim = sim.add_node("victim");
    net::An2Device dev_a(attacker);
    net::An2Device dev_v(victim);
    dev_a.connect(dev_v);

    bool victim_done = false;
    victim.kernel().spawn("victim", [&](ash::sim::Process& self)
                                        -> ash::sim::Task {
      proto::An2Link link(self, dev_v, {});
      proto::TcpConfig c;
      c.local_ip = kDst;
      c.remote_ip = kSrc;
      c.local_port = 4000;
      c.remote_port = 5000;
      c.rto = ash::sim::us(2000.0);
      c.max_retries = 2;
      proto::TcpConnection conn(link, c);
      const bool est = co_await conn.accept();
      if (est) {
        // Read whatever the hostile stream produces until it dries up.
        for (int r = 0; r < 64; ++r) {
          const std::uint32_t n =
              co_await conn.read_into(self.segment().base, 2048);
          if (n == 0) break;
        }
        co_await conn.close();
      }
      // Whatever happened, the TCB must be self-consistent:
      const auto st = static_cast<proto::TcpState>(
          conn.shm().get(proto::tcb::kState));
      FUZZ_CHECK(st == conn.state(),
                 "tcp: shared TCB state %u != library state %u (batch %llu)",
                 static_cast<unsigned>(st),
                 static_cast<unsigned>(conn.state()),
                 (unsigned long long)b);
      if (conn.state() == proto::TcpState::Closed) {
        FUZZ_CHECK(conn.retx_depth() == 0,
                   "tcp: closed TCB still holds %zu retx segments "
                   "(batch %llu)",
                   conn.retx_depth(), (unsigned long long)b);
      }
      victim_done = true;
    });

    attacker.kernel().spawn("attacker", [&](ash::sim::Process& self)
                                            -> ash::sim::Task {
      dev_a.bind_vc(self);  // give the victim's replies somewhere to land
      Rng rng(seed ^ (b * 0xbf58476d1ce4e5b9ull));
      const std::uint32_t iss = 7000;  // attacker's initial sequence
      proto::TcpFlags syn;
      syn.syn = true;
      dev_a.send(0, crafted_segment(syn, iss, 0));
      co_await self.sleep_for(ash::sim::us(500.0));
      proto::TcpFlags ack;
      ack.ack = true;
      // Victim's iss defaults to 1000; its SYN consumed one sequence.
      dev_a.send(0, crafted_segment(ack, iss + 1, 1001));
      co_await self.sleep_for(ash::sim::us(500.0));

      for (std::uint64_t i = 0; i < per_batch; ++i) {
        std::vector<std::uint8_t> seg = build_tcp_segment(rng);
        if (rng.chance(2, 3)) mutate(seg, rng);
        dev_a.send(0, seg);
        co_await self.sleep_for(ash::sim::us(50.0));
      }

      // Valid FIN at the victim's expected sequence: random garbage
      // essentially never lands exactly on rcv_nxt, so it is still
      // iss + 1. This unblocks the victim's read (EOF) so it can close.
      proto::TcpFlags fin;
      fin.fin = true;
      fin.ack = true;
      dev_a.send(0, crafted_segment(fin, iss + 1, 1001));
    });
    sim.run(ash::sim::us(5e6));
    FUZZ_CHECK(victim_done,
               "tcp: victim wedged (never finished) in batch %llu",
               (unsigned long long)b);
  }
}

// --------------------------------------------------- declarative rules

/// One rule-set leg: download the compiled rules on `backend` and run the
/// frame sequence through the real kernel invoke path.
struct RuleLeg {
  bool download_ok = false;
  std::string error;
  std::vector<char> consumed;
  std::vector<std::vector<std::pair<int, std::vector<std::uint8_t>>>> sends;
  std::vector<std::uint8_t> state;
};

constexpr int kRuleArrival = 7;

RuleLeg run_rule_leg(const ashc::RuleSet& rs,
                     const std::vector<std::vector<std::uint8_t>>& frames,
                     ash::vcode::Backend backend) {
  ash::sim::Simulator sim;
  ash::sim::Node& n = sim.add_node("n");
  ash::core::AshSystem ashsys(n);

  RuleLeg out;
  out.consumed.assign(frames.size(), 0);
  out.sends.resize(frames.size());

  std::uint32_t state_addr = 0;
  std::uint32_t frame_addr = 0;
  int id = -1;
  n.kernel().spawn("owner", [&](ash::sim::Process& self) -> ash::sim::Task {
    state_addr = self.segment().base + 0x1000;
    frame_addr = self.segment().base + 0x4000;
    ash::core::AshOptions opts;
    opts.backend = backend;
    id = ashsys.download_rules(self, rs, state_addr, opts, &out.error);
    out.download_ok = id >= 0;
    co_await self.sleep_for(ash::sim::us(1e6));
  });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    sim.queue().schedule_at(
        ash::sim::us(100.0 + 50.0 * static_cast<double>(i)), [&, i] {
          if (id < 0) return;
          const auto& f = frames[i];
          if (!f.empty()) {
            std::memcpy(
                n.mem(frame_addr, static_cast<std::uint32_t>(f.size())),
                f.data(), f.size());
          }
          ash::core::MsgContext m;
          m.addr = frame_addr;
          m.len = static_cast<std::uint32_t>(f.size());
          m.channel = kRuleArrival;
          m.user_arg = state_addr;
          out.consumed[i] =
              ashsys.invoke(id, m,
                            [&out, i](int ch,
                                      std::span<const std::uint8_t> b) {
                              out.sends[i].emplace_back(
                                  ch, std::vector<std::uint8_t>(b.begin(),
                                                                b.end()));
                              return true;
                            },
                            0)
                  ? 1
                  : 0;
        });
  }
  sim.run(ash::sim::us(2e6));
  if (id >= 0) {
    const std::uint8_t* p = n.mem(state_addr, rs.limits.state_bytes);
    out.state.assign(p, p + rs.limits.state_bytes);
  }
  return out;
}

/// Random rule sets over fuzz frame corpora (including mutated
/// adversarial frames): the compiled program must verify, and both
/// backends must agree with the reference interpreter on decisions, send
/// bytes, and final state.
void fuzz_rules(std::uint64_t iters, std::uint64_t seed) {
  for (std::uint64_t it = 0; it < iters; ++it) {
    Rng rng(seed ^ (it * 0x9e3779b97f4a7c15ull) ^ 0xa54ull);
    const ashc::RuleSet rs = ashc::random_rule_set(rng);
    const ashc::Compiled c = ashc::compile(rs);
    FUZZ_CHECK(c.ok, "rules: generated rule set failed to compile "
               "(iter %llu): %s",
               (unsigned long long)it, c.error.c_str());
    if (!c.ok) continue;
    const auto verdict =
        ash::vcode::verify(c.program, ashc::verify_policy(rs));
    FUZZ_CHECK(verdict.ok(),
               "rules: generated rule set failed verification (iter %llu):"
               "\n%s",
               (unsigned long long)it, verdict.to_string().c_str());
    if (!verdict.ok()) continue;

    auto frames = ashc::gen_frames(rng, rs, 6);
    // Two extra adversarial frames: structure-aware mutations of planted
    // frames, so predicates half-fire on torn headers.
    for (int k = 0; k < 2 && !frames.empty(); ++k) {
      std::vector<std::uint8_t> f = frames[rng.below(frames.size())];
      mutate(f, rng);
      if (f.size() > 160) f.resize(160);
      frames.push_back(std::move(f));
    }

    // Ground truth.
    std::vector<std::uint8_t> state = ashc::init_state(rs);
    std::vector<char> want_consumed;
    std::vector<std::vector<std::pair<int, std::vector<std::uint8_t>>>>
        want_sends;
    for (const auto& f : frames) {
      const ashc::EvalResult r = ashc::eval(rs, f, state, kRuleArrival);
      want_consumed.push_back(r.consumed ? 1 : 0);
      std::vector<std::pair<int, std::vector<std::uint8_t>>> s;
      for (const auto& snd : r.sends) {
        s.emplace_back(static_cast<int>(snd.channel), snd.bytes);
      }
      want_sends.push_back(std::move(s));
    }

    const ash::vcode::Backend backends[] = {ash::vcode::Backend::Interp,
                                            ash::vcode::Backend::Jit};
    for (const auto be : backends) {
      const RuleLeg leg = run_rule_leg(rs, frames, be);
      FUZZ_CHECK(leg.download_ok, "rules: download failed (iter %llu): %s",
                 (unsigned long long)it, leg.error.c_str());
      if (!leg.download_ok) continue;
      FUZZ_CHECK(leg.consumed == want_consumed,
                 "rules: backend %d decision mismatch (iter %llu)",
                 static_cast<int>(be), (unsigned long long)it);
      FUZZ_CHECK(leg.sends == want_sends,
                 "rules: backend %d send mismatch (iter %llu)",
                 static_cast<int>(be), (unsigned long long)it);
      FUZZ_CHECK(leg.state == state,
                 "rules: backend %d state mismatch (iter %llu)",
                 static_cast<int>(be), (unsigned long long)it);
    }
  }
}

/// Hostile rule sets: hostilize() breaks one property and names the stage
/// that must reject the result — compile() returns ok=false, or the
/// verifier's bounds pass fails with typed issues. Never a crash, never
/// a clean verification.
void fuzz_rulesverify(std::uint64_t iters, std::uint64_t seed) {
  for (std::uint64_t it = 0; it < iters; ++it) {
    Rng rng(seed ^ (it * 0xbf58476d1ce4e5b9ull) ^ 0xbadull);
    ashc::RuleSet rs = ashc::random_rule_set(rng);
    const ashc::Hostile h = ashc::hostilize(rng, rs);
    const ashc::Compiled c = ashc::compile(rs);
    if (h.stage == ashc::HostileStage::Compile) {
      FUZZ_CHECK(!c.ok,
                 "rulesverify: '%s' mutation compiled clean (iter %llu)",
                 h.what, (unsigned long long)it);
      continue;
    }
    FUZZ_CHECK(c.ok,
               "rulesverify: '%s' mutation failed to compile (iter %llu): "
               "%s",
               h.what, (unsigned long long)it, c.error.c_str());
    if (!c.ok) continue;
    const auto verdict =
        ash::vcode::verify(c.program, ashc::verify_policy(rs));
    FUZZ_CHECK(!verdict.ok(),
               "rulesverify: '%s' mutation verified clean (iter %llu)",
               h.what, (unsigned long long)it);
    for (const auto& issue : verdict.issues) {
      FUZZ_CHECK(issue.code != ash::vcode::VerifyCode::Structural,
                 "rulesverify: '%s' produced an untyped structural issue "
                 "at pc %u (iter %llu): %s",
                 h.what, issue.pc, (unsigned long long)it,
                 issue.message.c_str());
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: packetfuzz --target headers|dpf|reassembler|tcp|"
               "rules|rulesverify|all [--iters N] [--seed S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  std::uint64_t iters = 1000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--target" && i + 1 < argc) {
      target = argv[++i];
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  if (target.empty()) return usage();

  const bool all = target == "all";
  bool ran = false;
  if (all || target == "headers") fuzz_headers(iters, seed), ran = true;
  if (all || target == "dpf") fuzz_dpf(iters, seed), ran = true;
  if (all || target == "reassembler") fuzz_reassembler(iters, seed), ran = true;
  if (all || target == "tcp") fuzz_tcp(iters, seed), ran = true;
  // The rule legs iterate whole rule-set x corpus x backend bundles, not
  // single frames; scale the shared --iters down so `all` stays bounded.
  if (all || target == "rules") fuzz_rules(iters / 10 + 1, seed), ran = true;
  if (all || target == "rulesverify") {
    fuzz_rulesverify(iters, seed);
    ran = true;
  }
  if (!ran) return usage();

  if (g_failures != 0) {
    std::fprintf(stderr, "packetfuzz: %d invariant failure(s)\n", g_failures);
    return 1;
  }
  std::printf("packetfuzz: %s clean (%llu iters, seed %llu)\n",
              target.c_str(), (unsigned long long)iters,
              (unsigned long long)seed);
  return 0;
}
