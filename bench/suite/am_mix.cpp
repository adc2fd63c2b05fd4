// am_mix — the paper's headline path, closed loop.
//
// Four caller nodes, each with one AN2 link to the server node. The server
// process downloads four sandboxed handlers, attaches one per VC and then
// stays suspended, so every request is served in kernel context at message
// arrival:
//   caller 0: remote-increment echo, message size log-uniform 4 B..4 KB;
//   caller 1: active-message dispatcher over 16 routines;
//   caller 2: DSM lock acquire/release over 64 locks;
//   caller 3: the ashc-compiled `kv` rule set, 80 % GET / 20 % PUT (PUTs
//             have no reply, so they are sent untimed).
// Callers 1-3 send log-uniform 16..256-byte messages (header plus padding
// the handler ignores or echoes), so no shape has one fixed round trip.
// Each caller keeps one request outstanding and checks every reply against
// a bench-side reference (kv through ashc::eval on the same frames).
#include <cstring>
#include <memory>
#include <string>

#include "ashc/eval.hpp"
#include "ashc/scenarios.hpp"
#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "harness.hpp"
#include "proto/an2_link.hpp"
#include "sim/kernel.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"

namespace ashbench {
namespace {

using namespace ash;
using sim::Process;
using sim::Task;
using sim::us;

enum Kind : int { kEcho, kAm, kLock, kKv, kKinds };
const char* const kKindName[kKinds] = {"echo", "am", "lock", "kv"};

constexpr std::uint32_t kAmRoutines = 16;
constexpr std::uint32_t kLocks = 64;
constexpr std::uint32_t kWho = 1;  // the lock requester id
constexpr std::uint32_t kBufSize = 4096;
constexpr std::uint32_t kServerBufs = 4;  // per VC; one request in flight
constexpr Cycles kBoot = us(1000.0);
constexpr Cycles kReplyTimeout = us(50000.0);

// Server segment layout (offsets from the segment base).
constexpr std::uint32_t kCounterOff = 0x20000;
constexpr std::uint32_t kAmCellOff = 0x20100;
constexpr std::uint32_t kLocksOff = 0x20200;  // kLocks words + 12 B scratch
constexpr std::uint32_t kKvStateOff = 0x20400;

/// Log-uniform integer in [2^lo_log2, 2^hi_log2]: a uniform power-of-two
/// band, then uniform within it. Integer-only, so a seed draws the same
/// sizes on every libm.
std::uint32_t log_uniform(util::Rng& rng, std::uint32_t lo_log2,
                          std::uint32_t hi_log2) {
  const auto e = static_cast<std::uint32_t>(rng.range(lo_log2, hi_log2 - 1));
  return static_cast<std::uint32_t>(rng.range(1u << e, 1u << (e + 1)));
}

/// One caller's request generator and reference model.
struct Caller {
  Kind kind;
  util::Rng rng;
  // Reference state.
  std::uint32_t am_cell = 0;
  std::uint32_t echoes = 0;
  std::vector<std::uint8_t> held = std::vector<std::uint8_t>(kLocks, 0);
  std::vector<std::uint32_t> held_list;
  ashc::RuleSet kv = ashc::kv_rules();
  std::vector<std::uint8_t> kv_state = ashc::init_state(kv);
  // Outcome counters.
  std::uint64_t issued = 0, ok = 0, bad = 0, timed_out = 0;
  std::uint64_t bytes = 0;  // request + reply payload of completed requests
  Cycles last_done = 0;

  Caller(Kind k, std::uint64_t seed)
      : kind(k), rng(seed * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(k)) {}

  /// The next request and the reply it must produce; an empty expected
  /// reply marks an untimed request with no reply (kv PUT).
  void next(std::vector<std::uint8_t>& msg, std::vector<std::uint8_t>& want) {
    switch (kind) {
      case kEcho: {
        msg.resize(log_uniform(rng, 2, 12));
        for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
        want = msg;
        ++echoes;
        break;
      }
      case kAm: {
        msg.resize(log_uniform(rng, 4, 8));
        for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
        const auto idx = static_cast<std::uint32_t>(rng.below(kAmRoutines));
        util::store_u32(msg.data(), idx);
        am_cell += idx + 1;
        want = msg;
        break;
      }
      case kLock: {
        std::uint32_t op = 1, lock = 0, status = 0;
        if (held_list.empty() || rng.chance(1, 2)) {
          lock = static_cast<std::uint32_t>(rng.below(kLocks));
          status = held[lock] ? 0 : 1;  // busy when already held
          if (!held[lock]) {
            held[lock] = 1;
            held_list.push_back(lock);
          }
        } else {
          const std::size_t i = rng.below(held_list.size());
          lock = held_list[i];
          held_list[i] = held_list.back();
          held_list.pop_back();
          held[lock] = 0;
          op = 2;
          status = 2;
        }
        msg.resize(log_uniform(rng, 4, 8));
        util::store_u32(msg.data(), op);
        util::store_u32(msg.data() + 4, lock);
        util::store_u32(msg.data() + 8, kWho);
        want.resize(12);
        util::store_u32(want.data(), status);
        util::store_u32(want.data() + 4, lock);
        util::store_u32(want.data() + 8, kWho);
        break;
      }
      case kKv: {
        const bool get = rng.below(10) < 8;
        msg.resize(log_uniform(rng, 4, 8));
        for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
        util::store_be32(msg.data(), get ? 1 : 2);
        util::store_be32(msg.data() + 4, static_cast<std::uint32_t>(
                                             0x4b000000u + rng.below(256)));
        util::store_be32(msg.data() + 8,
                         static_cast<std::uint32_t>(rng.next()));
        const ashc::EvalResult ref = ashc::eval(kv, msg, kv_state, 0);
        want = ref.sends.empty() ? std::vector<std::uint8_t>{}
                                 : ref.sends.front().bytes;
        break;
      }
      case kKinds:
        break;
    }
  }
};

}  // namespace

RepResult run_am_mix(const RepConfig& cfg) {
  const std::uint64_t per_caller = cfg.smoke ? 300 : 25000;
  Rep rep(cfg);
  RepResult& r = rep.result();

  sim::Simulator sim;
  sim::Node& server = sim.add_node("server");
  std::vector<sim::Node*> client_nodes;
  std::vector<std::unique_ptr<net::An2Device>> server_devs, client_devs;
  for (int i = 0; i < kKinds; ++i) {
    client_nodes.push_back(&sim.add_node("caller" + std::to_string(i)));
    server_devs.push_back(std::make_unique<net::An2Device>(server));
    client_devs.push_back(std::make_unique<net::An2Device>(*client_nodes[i]));
    server_devs[i]->connect(*client_devs[i]);
  }
  core::AshSystem ash_sys(server);
  rep.world_ready(sim, kKinds, 1);

  std::vector<Caller> callers;
  for (int i = 0; i < kKinds; ++i) {
    callers.emplace_back(static_cast<Kind>(i), cfg.seed);
  }

  // ---- server: four handlers, then suspended ----
  std::vector<AshRef> handlers;
  std::vector<int> server_vc(kKinds, -1);
  std::uint32_t seg_base = 0;
  bool server_ok = false;
  server.kernel().spawn("server", [&](Process& self) -> Task {
    seg_base = self.segment().base;
    const ashc::RuleSet kv = ashc::kv_rules();
    std::string error;
    for (int i = 0; i < kKinds; ++i) {
      const int id = rep.download([&] {
        switch (i) {
          case kEcho:
            return ash_sys.download(self, ashlib::make_remote_increment(), {},
                                    &error);
          case kAm:
            return ash_sys.download(
                self, ashlib::make_active_message_dispatcher(kAmRoutines), {},
                &error);
          case kLock:
            return ash_sys.download(
                self, ashlib::make_dsm_lock_handler(kLocks), {}, &error);
          default:
            return ash_sys.download_rules(self, kv, seg_base + kKvStateOff,
                                          {}, &error);
        }
      });
      if (id < 0) {
        r.check(false, std::string("download ") + kKindName[i] + ": " + error);
        co_return;
      }
      handlers.push_back({&ash_sys, id});
      const int vc = server_devs[i]->bind_vc(self);
      server_vc[i] = vc;
      for (std::uint32_t b = 0; b < kServerBufs; ++b) {
        server_devs[i]->supply_buffer(
            vc, seg_base + (static_cast<std::uint32_t>(i) * kServerBufs + b) *
                               kBufSize,
            kBufSize);
      }
      const std::uint32_t arg[kKinds] = {
          seg_base + kCounterOff, seg_base + kAmCellOff, seg_base + kLocksOff,
          seg_base + kKvStateOff};
      ash_sys.attach_an2(*server_devs[i], vc, id, arg[i]);
    }
    server_ok = true;
    co_await self.sleep_for(us(1e9));
  });

  // ---- callers: one request outstanding each ----
  std::vector<std::unique_ptr<proto::An2Link>> links(kKinds);
  for (int i = 0; i < kKinds; ++i) {
    client_nodes[i]->kernel().spawn(
        std::string("caller-") + kKindName[i], [&, i](Process& self) -> Task {
          proto::An2Link::Config lc;
          lc.mode = proto::RecvMode::Interrupt;
          links[i] =
              std::make_unique<proto::An2Link>(self, *client_devs[i], lc);
          proto::An2Link& link = *links[i];
          co_await self.sleep_for(kBoot - self.node().now());
          Caller& c = callers[i];
          std::vector<std::uint8_t> msg, want;
          for (std::uint64_t n = 0; n < per_caller; ++n) {
            c.next(msg, want);
            const Cycles t0 = self.node().now();
            ++c.issued;
            const bool sent = co_await link.send_bytes(msg);
            if (!sent) {
              ++c.bad;
              continue;
            }
            if (want.empty()) {  // kv PUT: consumed without a reply
              ++c.ok;
              c.bytes += msg.size();
              continue;
            }
            const std::optional<net::RxDesc> d =
                co_await link.recv_for(kReplyTimeout);
            if (!d.has_value()) {
              ++c.timed_out;
              continue;
            }
            const std::uint8_t* p = self.node().mem(d->addr, d->len);
            const bool same = p != nullptr && d->len == want.size() &&
                              std::memcmp(p, want.data(), want.size()) == 0;
            link.release(*d);
            if (!same) {
              ++c.bad;
              continue;
            }
            const Cycles t1 = self.node().now();
            ++c.ok;
            c.bytes += msg.size() + want.size();
            c.last_done = t1;
            r.latencies.push_back(t1 - t0);
            rep.request_span(kKindName[i],
                             static_cast<std::uint64_t>(i) * per_caller + n,
                             t0, t1);
          }
        });
  }

  rep.boot(sim, kBoot - 1);
  rep.measure(sim, kBoot + us(60e6));

  // ---- checks ----
  r.check(server_ok, "server did not finish installing its handlers");
  Cycles last = kBoot;
  for (const Caller& c : callers) {
    r.attempted += c.issued;
    r.completed += c.ok;
    r.failed += c.bad + c.timed_out;
    r.check(c.issued == c.ok + c.bad + c.timed_out,
            std::string(kKindName[c.kind]) + ": issued != ok + bad + timeouts");
    r.check(c.issued == per_caller,
            std::string(kKindName[c.kind]) + ": caller did not finish");
    r.check(c.bad == 0, std::string(kKindName[c.kind]) + ": " +
                            std::to_string(c.bad) + " wrong replies");
    last = std::max(last, c.last_done);
  }
  if (server_ok) {
    const auto word = [&](std::uint32_t off) {
      return util::load_u32(server.mem(seg_base + off, 4));
    };
    const Caller& echo = callers[kEcho];
    r.check(word(kCounterOff) == echo.echoes,
            "echo: server counter != echoes sent");
    r.check(word(kAmCellOff) == callers[kAm].am_cell,
            "am: accumulator cell != reference");
    std::size_t lock_mismatch = 0;
    for (std::uint32_t l = 0; l < kLocks; ++l) {
      const std::uint32_t want = callers[kLock].held[l] ? kWho : 0;
      if (word(kLocksOff + 4 * l) != want) ++lock_mismatch;
    }
    r.check(lock_mismatch == 0, "lock: lock table != reference");
    const Caller& kv = callers[kKv];
    r.check(std::memcmp(server.mem(seg_base + kKvStateOff,
                                   static_cast<std::uint32_t>(
                                       kv.kv_state.size())),
                        kv.kv_state.data(), kv.kv_state.size()) == 0,
            "kv: server state blob != ashc::eval reference");
    for (std::uint32_t off : {kCounterOff, kAmCellOff}) {
      r.sim_state.push_back(word(off));
    }
  }

  std::uint64_t bytes = 0;
  for (const Caller& c : callers) bytes += c.bytes;
  const Cycles elapsed = last - kBoot;
  r.msgs = r.attempted;
  r.throughput_kmsgs = kmsgs(r.completed, elapsed);
  r.goodput_mbps = mbytes_per_s(bytes, elapsed);
  // Closed loop: the offered rate is the completion rate, so the highest
  // rate this concurrency sustains is the throughput itself.
  r.max_rate_kmsgs = r.throughput_kmsgs;

  for (const AshRef& h : handlers) {
    const core::AshStats& s = ash_sys.stats(h.id);
    r.sim_state.insert(r.sim_state.end(),
                       {s.invocations, s.commits, s.cycles, s.insns});
  }
  read_ash_layers(r, handlers);
  std::vector<std::pair<const net::An2Device*, int>> vcs;
  std::vector<const net::An2Device*> devs;
  for (int i = 0; i < kKinds; ++i) {
    if (server_vc[i] >= 0) {
      vcs.emplace_back(server_devs[i].get(), server_vc[i]);
    }
    if (links[i]) vcs.emplace_back(client_devs[i].get(), links[i]->vc());
    devs.push_back(server_devs[i].get());
    devs.push_back(client_devs[i].get());
  }
  read_an2_layers(r, vcs, devs);
  read_trace_layers(r);
  return rep.finish();
}

}  // namespace ashbench
