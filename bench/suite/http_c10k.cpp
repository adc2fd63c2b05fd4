// http_c10k — HTTP/1.0 over the event-driven TcpEngine at c10k, closed
// loop, 1 % loss each way, and no ASH anywhere.
//
// The client engine opens 10240 flows per wave (at most 256 handshakes in
// flight); once every flow is up, each sends one GET with at most 64
// outstanding, and the server answers with a path-derived body of 1-4 KB
// and closes. Waves reuse nothing: each takes fresh client ports. Both
// engines run at the library's default TcpEngine::Config (min_rto
// included), so a change of default is measured, and the workload carries
// the RTO behaviour ROADMAP item 4 targets. A VCODE or dispatch change must
// not move it; TCP and timer changes move its tail.
#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "net/an2.hpp"
#include "proto/an2_link.hpp"
#include "proto/http.hpp"
#include "proto/tcp_engine.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace ashbench {
namespace {

using namespace ash;
using proto::TcpEngine;
using sim::Process;
using sim::Task;
using sim::us;

const proto::Ipv4Addr kServerIp = proto::Ipv4Addr::of(10, 0, 0, 1);
const proto::Ipv4Addr kClientIp = proto::Ipv4Addr::of(10, 0, 0, 2);
constexpr std::size_t kOpenWindow = 256;  // handshakes in flight
constexpr std::size_t kReqWindow = 64;    // GETs in flight
constexpr std::uint16_t kBasePort = 1024;
constexpr Cycles kBoot = us(1000.0);
constexpr Cycles kPhaseBudget = us(15e6);

proto::An2Link::Config link_cfg() {
  proto::An2Link::Config cfg;
  // The segment-half budget in pinned buffers: enough to absorb a full
  // request window plus the ACK traffic behind it.
  cfg.rx_buffers = 288;
  cfg.buf_size = 1536;
  cfg.mode = proto::RecvMode::Interrupt;
  return cfg;
}

/// The body served for `path`: its length (1-4 KB) and bytes both derive
/// from the path and the seed, so the client checks every byte.
std::vector<std::uint8_t> body_for(const std::string& path,
                                   std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (const char c : path) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  util::Rng rng(h);
  std::vector<std::uint8_t> body(1024 + rng.below(3073));
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
  return body;
}

std::string path_of(std::size_t wave, std::size_t flow) {
  return "/obj/" + std::to_string(wave) + "/" + std::to_string(flow);
}

}  // namespace

RepResult run_http_c10k(const RepConfig& cfg) {
  const std::size_t flows = cfg.smoke ? 512 : 10240;
  const std::size_t waves = cfg.smoke ? 1 : 6;
  Rep rep(cfg);
  RepResult& r = rep.result();

  sim::Simulator sim;
  sim::Node& snode = sim.add_node("httpd");
  sim::Node& cnode = sim.add_node("clients");
  net::An2Device sdev(snode), cdev(cnode);
  sdev.connect(cdev);
  for (int side = 0; side < 2; ++side) {
    net::FaultConfig f;
    f.drop_prob = 0.01;
    f.seed = cfg.seed * 2 + static_cast<std::uint64_t>(side);
    (side == 0 ? sdev : cdev).set_faults(f);
  }
  rep.world_ready(sim, 0, 1);

  bool server_done = false;
  TcpEngine* server_eng = nullptr;
  TcpEngine::Stats server_stats;
  std::uint64_t bad_requests = 0;

  // ---- server: one engine, one listener ----
  snode.kernel().spawn("httpd", [&](Process& self) -> Task {
    proto::An2Link link(self, sdev, link_cfg());
    TcpEngine::Config ec;
    ec.local_ip = kServerIp;
    TcpEngine eng(link, ec);
    server_eng = &eng;
    std::unordered_map<TcpEngine::ConnId, std::string> reqs;
    TcpEngine::ListenConfig lc;
    // The application's listen backlog: it must cover the client's 256
    // handshakes in flight.
    lc.backlog = 1024;
    lc.callbacks.on_readable = [&](TcpEngine::ConnId id) {
      std::string& acc = reqs[id];
      std::uint8_t buf[512];
      for (;;) {
        const std::size_t got = eng.read(id, buf, sizeof buf);
        if (got == 0) break;
        acc.append(reinterpret_cast<const char*>(buf), got);
      }
      if (!proto::http_request_complete(acc)) return;
      const std::optional<std::string> path = proto::http_parse_request(acc);
      if (!path.has_value()) ++bad_requests;
      const std::string wire = proto::http_format_response(
          path, path.has_value()
                    ? std::optional<std::vector<std::uint8_t>>(
                          body_for(*path, cfg.seed))
                    : std::nullopt);
      eng.write(id, {reinterpret_cast<const std::uint8_t*>(wire.data()),
                     wire.size()});
      eng.close(id);
      reqs.erase(id);
    };
    lc.callbacks.on_closed = [&](TcpEngine::ConnId id) { reqs.erase(id); };
    eng.listen(80, lc);
    co_await eng.run(server_done, 0);
    server_stats = eng.stats();
    server_eng = nullptr;
  });

  // ---- clients: one engine, `flows` per wave ----
  TcpEngine::Stats client_stats;
  std::size_t established = 0, min_peak = ~std::size_t{0};
  std::uint64_t ok = 0, bad = 0, unfinished = 0, body_bytes = 0;
  Cycles open_cycles = 0, req_cycles = 0;
  cnode.kernel().spawn("clients", [&](Process& self) -> Task {
    proto::An2Link link(self, cdev, link_cfg());
    TcpEngine::Config ec;
    ec.local_ip = kClientIp;
    TcpEngine eng(link, ec);
    co_await self.sleep_for(kBoot - self.node().now());

    // Per-flow state lives for the whole run, indexed wave * flows + i:
    // a flow's on_closed can fire after its wave has ended.
    enum Phase : std::uint8_t { Opening, Open, Requested, Done, Dead };
    const std::size_t total = flows * waves;
    std::vector<TcpEngine::ConnId> ids(total, 0);
    std::vector<Phase> phase(total, Opening);
    std::vector<Cycles> t_start(total, 0);
    std::vector<std::string> resp(total);
    std::unordered_map<TcpEngine::ConnId, std::size_t> idx;
    std::size_t up = 0, failed = 0, outstanding = 0;

    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId id) {
      const std::size_t i = idx.at(id);
      if (phase[i] == Opening) {
        phase[i] = Open;
        ++up;
      }
    };
    cbs.on_readable = [&](TcpEngine::ConnId id) {
      const std::size_t i = idx.at(id);
      if (phase[i] != Requested) return;
      std::uint8_t buf[2048];
      for (;;) {
        const std::size_t got = eng.read(id, buf, sizeof buf);
        if (got == 0) break;
        resp[i].append(reinterpret_cast<const char*>(buf), got);
      }
      if (!eng.at_eof(id)) return;
      phase[i] = Done;
      --outstanding;
      const auto parsed = proto::http_parse_response(resp[i]);
      const std::vector<std::uint8_t> want =
          body_for(path_of(i / flows, i % flows), cfg.seed);
      if (parsed.has_value() && parsed->status == 200 &&
          parsed->body == want) {
        const Cycles now = self.node().now();
        ++ok;
        body_bytes += want.size();
        r.latencies.push_back(now - t_start[i]);
        rep.request_span("GET", i, t_start[i], now);
      } else {
        ++bad;
      }
      resp[i].clear();
      resp[i].shrink_to_fit();
      eng.close(id);
    };
    cbs.on_closed = [&](TcpEngine::ConnId id) {
      const std::size_t i = idx.at(id);
      if (phase[i] == Opening) ++failed;
      if (phase[i] == Requested) --outstanding;
      if (phase[i] != Done) phase[i] = Dead;
    };

    for (std::size_t w = 0; w < waves; ++w) {
      const std::size_t first = w * flows, last = first + flows;
      // Phase 1: open every flow of the wave, paced.
      const Cycles t_open = self.node().now();
      const std::size_t up0 = up, failed0 = failed;
      std::size_t issued = first;
      while (up + failed < up0 + failed0 + flows &&
             self.node().now() < t_open + kPhaseBudget) {
        while (issued < last &&
               (issued - first) - (up - up0) - (failed - failed0) <
                   kOpenWindow) {
          const auto port = static_cast<std::uint16_t>(kBasePort + issued);
          const TcpEngine::ConnId id = eng.connect(kServerIp, 80, port, cbs);
          if (id == 0) {
            phase[issued] = Dead;
            ++failed;
          } else {
            ids[issued] = id;
            idx[id] = issued;
          }
          ++issued;
        }
        const bool got = co_await eng.step(us(200.0));
        (void)got;
      }
      open_cycles += self.node().now() - t_open;
      // Peak concurrency: every flow of the wave is up and none has begun
      // closing; read the server's connection table at this instant.
      min_peak = std::min(min_peak, server_eng != nullptr
                                        ? server_eng->open_connections()
                                        : std::size_t{0});

      // Phase 2: one GET per open flow, closed loop.
      const Cycles t_req = self.node().now();
      std::size_t next = first;
      while (self.node().now() < t_req + kPhaseBudget) {
        while (next < last && outstanding < kReqWindow) {
          if (phase[next] == Open) {
            const std::string get =
                proto::http_format_get(path_of(w, next - first));
            t_start[next] = self.node().now();
            eng.write(ids[next],
                      {reinterpret_cast<const std::uint8_t*>(get.data()),
                       get.size()});
            phase[next] = Requested;
            ++outstanding;
          }
          ++next;
        }
        if (next >= last && outstanding == 0) break;
        const bool got = co_await eng.step(us(200.0));
        (void)got;
      }
      req_cycles += self.node().now() - t_req;
    }
    established = up;
    // Every flow is one attempted request; the ones that ended anywhere
    // but a checked response (closed early, never opened, or still in
    // flight when a phase budget ran out) failed.
    r.attempted = total;
    for (const Phase p : phase) unfinished += p != Done;

    // Drain our own teardown, then stop the server.
    const Cycles drain_until = self.node().now() + us(100000.0);
    while (self.node().now() < drain_until) {
      const bool got = co_await eng.step(us(5000.0));
      (void)got;
    }
    client_stats = eng.stats();
    server_done = true;
  });

  rep.boot(sim, kBoot - 1);
  rep.measure(sim, kBoot + us(120e6));

  r.completed = ok;
  r.failed = bad + unfinished;
  const std::size_t total = flows * waves;
  r.check(r.attempted == total, "not every flow was attempted");
  r.check(r.attempted == r.completed + r.failed,
          "attempted != completed + failed");
  r.check(established == total, std::to_string(total - established) +
                                    " flows never opened");
  r.check(ok == total, std::to_string(total - ok) +
                           " GETs without a correct 200 response");
  r.check(bad_requests == 0, "server saw a malformed request");
  r.check(min_peak == flows, "server table did not hold every flow at once");
  r.check(server_done, "client did not finish");

  r.msgs = r.attempted;
  r.throughput_kmsgs = kmsgs(ok, req_cycles);
  r.goodput_mbps = mbytes_per_s(body_bytes, req_cycles);
  r.max_rate_kmsgs = r.throughput_kmsgs;  // closed loop

  const auto sum = [&](std::uint64_t TcpEngine::Stats::*f) {
    return static_cast<double>(client_stats.*f + server_stats.*f);
  };
  r.layer["proto.tcp_engine.conns_per_s"] =
      open_cycles > 0 ? static_cast<double>(established) /
                            (to_us(open_cycles) / 1e6)
                      : 0;
  r.layer["proto.tcp_engine.peak_concurrent"] =
      static_cast<double>(min_peak == ~std::size_t{0} ? 0 : min_peak);
  r.layer["proto.tcp_engine.rto_timeouts"] =
      sum(&TcpEngine::Stats::rto_timeouts);
  r.layer["proto.tcp_engine.retransmits"] = sum(&TcpEngine::Stats::retransmits);
  r.layer["proto.tcp_engine.fast_retransmits"] =
      sum(&TcpEngine::Stats::fast_retransmits);
  r.layer["proto.tcp_engine.ooo_reassembled"] =
      sum(&TcpEngine::Stats::ooo_reassembled);
  r.layer["proto.tcp_engine.syn_backlog_drops"] =
      sum(&TcpEngine::Stats::syn_backlog_drops);
  r.layer["proto.tcp_engine.segments_per_request"] =
      r.attempted > 0 ? sum(&TcpEngine::Stats::segments_out) /
                            static_cast<double>(r.attempted)
                      : 0;
  for (const TcpEngine::Stats* s : {&client_stats, &server_stats}) {
    r.sim_state.insert(r.sim_state.end(),
                       {s->segments_in, s->segments_out, s->retransmits,
                        s->rto_timeouts, s->fast_retransmits, s->conns_closed});
  }
  read_an2_layers(r, {{&sdev, 0}, {&cdev, 0}}, {&sdev, &cdev});
  read_trace_layers(r);
  return rep.finish();
}

}  // namespace ashbench
