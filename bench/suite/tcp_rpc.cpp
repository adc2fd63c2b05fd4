// tcp_rpc — one TCP connection over AN2, closed loop, with the TCP fast
// path installed as a sandboxed ASH on both ends.
//
// Each RPC is a 64-byte request naming a response size, log-uniform
// 64 B..64 KB; the server answers with a seed-derived byte pattern and the
// client reads and checks every byte. The sizes are stratified: each block
// of ten RPCs draws every power-of-two band once, in a seed-shuffled
// order. The size mix, which sets p50 and throughput, is then the same for
// every seed; the seed moves only the sizes within bands and their order.
//
// The handler does the most work per message of the four workloads (~230
// instructions plus a DILP checksum+copy traversal per segment), so VCODE
// and DILP costs show here first. TcpConfig and AshOptions stay at their
// library defaults.
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "ashlib/tcp_fastpath.hpp"
#include "core/ash.hpp"
#include "harness.hpp"
#include "proto/an2_link.hpp"
#include "proto/tcp.hpp"
#include "sim/kernel.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"

namespace ashbench {
namespace {

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

constexpr std::uint32_t kReqLen = 64;
constexpr std::uint32_t kMagic = 0x52504331;  // "RPC1"
constexpr std::uint32_t kMinLog2 = 6, kMaxLog2 = 16;  // 64 B .. 64 KB
constexpr std::uint32_t kBands = kMaxLog2 - kMinLog2;
constexpr Cycles kBoot = us(20000.0);

const proto::Ipv4Addr kClientIp = proto::Ipv4Addr::of(10, 0, 0, 1);
const proto::Ipv4Addr kServerIp = proto::Ipv4Addr::of(10, 0, 0, 2);

proto::TcpConfig tcp_cfg(bool client) {
  proto::TcpConfig c;
  c.local_ip = client ? kClientIp : kServerIp;
  c.remote_ip = client ? kServerIp : kClientIp;
  c.local_port = client ? 4000 : 5000;
  c.remote_port = client ? 5000 : 4000;
  return c;
}

/// The response body for request `seq`: both sides derive it from the
/// seed, so the client can check every byte it reads.
void fill_response(std::uint8_t* p, std::uint32_t len, std::uint64_t seed,
                   std::uint32_t seq) {
  util::Rng rng(seed ^ (static_cast<std::uint64_t>(seq) << 20) ^ 0x7c9u);
  std::uint32_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(p + i, &v, 8);
  }
  const std::uint64_t tail = rng.next();
  std::memcpy(p + i, &tail, len - i);
}

/// Read exactly `len` bytes into `addr`; fewer means the stream ended.
sim::Sub<std::uint32_t> read_full(proto::TcpConnection& conn,
                                  std::uint32_t addr, std::uint32_t len) {
  std::uint32_t got = 0;
  while (got < len) {
    const std::uint32_t n = co_await conn.read_into(addr + got, len - got);
    if (n == 0) break;
    got += n;
  }
  co_return got;
}

struct Side {
  std::unique_ptr<proto::An2Link> link;
  std::unique_ptr<proto::TcpConnection> conn;
  int ash_id = -1;
};

}  // namespace

RepResult run_tcp_rpc(const RepConfig& cfg) {
  const std::uint32_t rpcs = cfg.smoke ? 60 : 10000;
  Rep rep(cfg);
  RepResult& r = rep.result();

  sim::Simulator sim;
  sim::Node& cnode = sim.add_node("client");
  sim::Node& snode = sim.add_node("server");
  net::An2Device cdev(cnode), sdev(snode);
  cdev.connect(sdev);
  core::AshSystem cash(cnode), sash(snode);
  rep.world_ready(sim, 1, 1);

  // Install one side: link, connection, and the fast-path ASH.
  const auto make_side = [&](Process& self, net::An2Device& dev,
                             core::AshSystem& ash_sys, bool client) {
    Side s;
    s.link = std::make_unique<proto::An2Link>(self, dev,
                                              proto::An2Link::Config{});
    s.conn = std::make_unique<proto::TcpConnection>(*s.link, tcp_cfg(client));
    std::string error;
    const auto fp = rep.download([&] {
      return ashlib::install_tcp_fastpath(ash_sys, dev, s.link->vc(), *s.conn,
                                          {}, &error);
    });
    r.check(fp.has_value(), "fast-path install: " + error);
    if (fp.has_value()) s.ash_id = fp->ash_id;
    return s;
  };

  // ---- server: answer requests until the client says goodbye ----
  Side server;
  std::uint64_t served = 0, bad_requests = 0;
  snode.kernel().spawn("server", [&](Process& self) -> Task {
    server = make_side(self, sdev, sash, false);
    const bool ok = co_await server.conn->accept();
    if (!ok) {
      r.check(false, "server: accept failed");
      co_return;
    }
    const std::uint32_t req = self.segment().base;
    const std::uint32_t resp = self.segment().base + 0x1000;
    for (std::uint32_t expect = 0;; ++expect) {
      const std::uint32_t got = co_await read_full(*server.conn, req, kReqLen);
      if (got < kReqLen) break;
      const std::uint8_t* p = self.node().mem(req, kReqLen);
      const std::uint32_t len = util::load_u32(p + 8);
      if (util::load_u32(p) != kMagic || util::load_u32(p + 4) != expect ||
          len > (1u << kMaxLog2)) {
        ++bad_requests;
        break;
      }
      if (len == 0) break;  // goodbye
      fill_response(self.node().mem(resp, len), len, cfg.seed, expect);
      const bool sent = co_await server.conn->write_from(resp, len);
      if (!sent) break;
      ++served;
    }
  });

  // ---- client: closed loop, one RPC outstanding ----
  Side client;
  util::Rng rng(cfg.seed * 0x2545f4914f6cdd1dull + 7);
  std::uint64_t ok = 0, bad = 0, bytes = 0;
  Cycles last = kBoot;
  cnode.kernel().spawn("client", [&](Process& self) -> Task {
    client = make_side(self, cdev, cash, true);
    co_await self.sleep_for(us(500.0));
    const bool up = co_await client.conn->connect();
    if (!up) {
      r.check(false, "client: connect failed");
      co_return;
    }
    co_await self.sleep_for(kBoot - self.node().now());
    const std::uint32_t req = self.segment().base;
    const std::uint32_t resp = self.segment().base + 0x1000;
    std::vector<std::uint8_t> want(1u << kMaxLog2);
    std::uint32_t band[kBands];
    for (std::uint32_t seq = 0; seq <= rpcs; ++seq) {
      if (seq % kBands == 0) {
        for (std::uint32_t b = 0; b < kBands; ++b) band[b] = kMinLog2 + b;
        for (std::uint32_t b = kBands - 1; b > 0; --b) {
          std::swap(band[b], band[rng.below(b + 1)]);
        }
      }
      const std::uint32_t e = band[seq % kBands];
      const std::uint32_t len =
          seq == rpcs ? 0
                      : static_cast<std::uint32_t>(
                            rng.range(1u << e, 1u << (e + 1)));
      std::uint8_t* p = self.node().mem(req, kReqLen);
      std::memset(p, 0, kReqLen);
      util::store_u32(p, kMagic);
      util::store_u32(p + 4, seq);
      util::store_u32(p + 8, len);
      const Cycles t0 = self.node().now();
      if (len != 0) ++r.attempted;
      const bool sent = co_await client.conn->write_from(req, kReqLen);
      if (len == 0) break;
      if (!sent) {
        ++bad;
        break;
      }
      const std::uint32_t got = co_await read_full(*client.conn, resp, len);
      fill_response(want.data(), len, cfg.seed, seq);
      if (got != len ||
          std::memcmp(self.node().mem(resp, len), want.data(), len) != 0) {
        ++bad;
        break;
      }
      const Cycles t1 = self.node().now();
      ++ok;
      bytes += kReqLen + len;
      last = t1;
      r.latencies.push_back(t1 - t0);
      rep.request_span("rpc", seq, t0, t1);
    }
  });

  rep.boot(sim, kBoot - 1);
  rep.measure(sim, kBoot + us(600e6));

  r.completed = ok;
  r.failed = r.attempted - ok;
  r.check(r.attempted == rpcs, "client did not issue every RPC");
  r.check(r.attempted == ok + bad, "attempted != completed + failed");
  r.check(bad == 0, std::to_string(bad) + " RPCs failed or read wrong bytes");
  r.check(bad_requests == 0, "server saw a malformed request");
  r.check(served == ok, "server answered a different number of RPCs");

  const Cycles elapsed = last - kBoot;
  r.msgs = r.attempted;
  r.throughput_kmsgs = kmsgs(ok, elapsed);
  r.goodput_mbps = mbytes_per_s(bytes, elapsed);
  r.max_rate_kmsgs = r.throughput_kmsgs;  // closed loop

  std::vector<AshRef> handlers;
  std::uint64_t segments = 0, retransmits = 0;
  for (const Side* s : {&client, &server}) {
    if (!s->conn) continue;
    const proto::TcpConnection::Stats& st = s->conn->stats();
    segments += st.segments_in;
    retransmits += st.retransmits;
    r.sim_state.insert(r.sim_state.end(),
                       {st.segments_in, st.fastpath_hits, st.slowpath,
                        st.retransmits, st.acks_sent});
  }
  if (client.ash_id >= 0) handlers.push_back({&cash, client.ash_id});
  if (server.ash_id >= 0) handlers.push_back({&sash, server.ash_id});
  for (const AshRef& h : handlers) {
    const core::AshStats& s = h.sys->stats(h.id);
    segments += s.commits;  // segments the handler consumed
    r.sim_state.insert(r.sim_state.end(),
                       {s.invocations, s.commits, s.cycles, s.insns});
  }
  r.layer["proto.tcp.segments_per_rpc"] =
      ok > 0 ? static_cast<double>(segments) / static_cast<double>(ok) : 0;
  r.layer["proto.tcp.retransmits"] = static_cast<double>(retransmits);
  read_ash_layers(r, handlers);
  std::vector<std::pair<const net::An2Device*, int>> vcs;
  if (client.link) vcs.emplace_back(&cdev, client.link->vc());
  if (server.link) vcs.emplace_back(&sdev, server.link->vc());
  read_an2_layers(r, vcs, {&cdev, &sdev});
  read_trace_layers(r);

  // The connection objects reference the links; drop them first.
  client.conn.reset();
  server.conn.reset();
  return rep.finish();
}

}  // namespace ashbench
