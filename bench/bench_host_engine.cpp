// Host execution-engine microbenchmark: ns per VCODE invocation for the
// reference interpreter vs the download-time translated form (the
// superblock JIT), on the handlers the paper's evaluation leans on:
//
//  * Table V's remote-increment (sandboxed),
//  * Table VI's TCP receive fast path, replayed on a real committing
//    invocation captured from a live simulated transfer (header
//    prediction hit, fused checksum+copy DILP, ACK template patch+send),
//  * the fused DILP pipe chain (checksum + byteswap + copy) standalone,
//    where the JIT collapses the whole loop into one host pass.
//
// Simulated results (outcome, cycles, insns, registers) are bit-identical
// on both paths — asserted at setup — so this measures only how fast
// the host machine turns the simulation crank.
//
// Modes:
//   (none)    google-benchmark timings for every (workload, backend) pair
//   --smoke   acceptance gate: jit must beat the interpreter by >= 3x on
//             the TCP fast path; exits nonzero otherwise
//   --json    manual timing sweep; prints the speedup series per workload
//             and writes BENCH_host_engine.json (BENCH_scaling.json shape)
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "ashlib/handlers.hpp"
#include "ashlib/tcp_fastpath.hpp"
#include "core/ash.hpp"
#include "core/ash_env.hpp"
#include "dilp/engine.hpp"
#include "dilp/stdpipes.hpp"
#include "proto/an2_link.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"
#include "util/rng.hpp"
#include "vcode/backend.hpp"
#include "vcode/env_util.hpp"
#include "vcode/interp.hpp"
#include "vcode/jit/jit.hpp"

namespace ash::bench {
namespace {

using proto::An2Link;
using proto::Ipv4Addr;
using proto::TcpConfig;
using proto::TcpConnection;
using sim::Process;
using sim::Task;
using sim::us;
using vcode::Backend;

constexpr Backend kBackends[] = {Backend::Interp, Backend::Jit};

// ---------------------------------------------------------------- TCP ----

TcpConfig fixture_cfg(bool client) {
  TcpConfig c;
  c.local_ip = client ? Ipv4Addr::of(10, 0, 0, 1) : Ipv4Addr::of(10, 0, 0, 2);
  c.remote_ip = client ? Ipv4Addr::of(10, 0, 0, 2) : Ipv4Addr::of(10, 0, 0, 1);
  c.local_port = client ? 4000 : 5000;
  c.remote_port = client ? 5000 : 4000;
  c.iss = client ? 100 : 900;
  c.checksum = true;
  return c;
}

/// A frozen fast-path invocation: the sandboxed handler, the packet bytes,
/// and the pre-invocation TCB snapshot of the first data segment that
/// committed during a real transfer. Restoring TCB + packet makes every
/// replay take the identical full commit path (DILP copy, ACK send).
struct TcpFixture {
  sim::Simulator sim;
  sim::Node* a = nullptr;
  sim::Node* b = nullptr;
  std::unique_ptr<net::An2Device> dev_a, dev_b;
  std::unique_ptr<core::AshSystem> ash_b;
  std::unique_ptr<vcode::JitBackend> jit;
  int ash_id = -1;

  bool captured = false;
  std::uint32_t msg_addr = 0, msg_len = 0, tcb_base = 0;
  int channel = 0;
  std::uint32_t owner_base = 0, owner_size = 0;
  std::array<std::uint32_t, proto::tcb::kWords> tcb{};
  std::vector<std::uint8_t> packet;
  std::uint64_t sim_insns = 0;   // per replay, identical on every engine
  std::uint64_t sim_cycles = 0;
};

void restore(TcpFixture& f) {
  proto::TcbShm shm(*f.b, f.tcb_base);
  for (std::uint32_t i = 0; i < proto::tcb::kWords; ++i) shm.set(i, f.tcb[i]);
  std::memcpy(f.b->mem(f.msg_addr, f.msg_len), f.packet.data(), f.msg_len);
}

vcode::ExecResult replay(TcpFixture& f, Backend be) {
  restore(f);
  core::AshEnv::Config ec;
  ec.node = f.b;
  ec.owner_seg = {f.owner_base, f.owner_size};
  ec.msg_addr = f.msg_addr;
  ec.msg_len = f.msg_len;
  ec.engine = &f.ash_b->dilp();
  ec.tx_cost = f.dev_b->config().tx_kernel_work;
  core::AshEnv env(ec);
  vcode::ExecLimits limits;
  limits.max_insns = 1u << 20;
  limits.max_cycles = f.b->cost().ash_max_runtime;
  // The handler's TDilp transfer runs on the same engine under test.
  f.ash_b->dilp().set_backend(be);
  if (be == Backend::Interp) {
    vcode::Interpreter interp(f.ash_b->program(f.ash_id), env);
    interp.set_args(f.msg_addr, f.msg_len, f.tcb_base,
                    static_cast<std::uint32_t>(f.channel));
    return interp.run(limits);
  }
  std::array<std::uint32_t, vcode::kNumRegs> regs{};
  regs[vcode::kRegArg0] = f.msg_addr;
  regs[vcode::kRegArg1] = f.msg_len;
  regs[vcode::kRegArg2] = f.tcb_base;
  regs[vcode::kRegArg3] = static_cast<std::uint32_t>(f.channel);
  return f.jit->run(env, regs, limits);
}

TcpFixture* build_tcp_fixture() {
  auto* f = new TcpFixture;
  f->a = &f->sim.add_node("a");
  f->b = &f->sim.add_node("b");
  f->dev_a = std::make_unique<net::An2Device>(*f->a);
  f->dev_b = std::make_unique<net::An2Device>(*f->b);
  f->dev_a->connect(*f->dev_b);
  f->ash_b = std::make_unique<core::AshSystem>(*f->b);
  constexpr std::uint32_t kTotal = 4096;

  f->b->kernel().spawn("server", [f](Process& self) -> Task {
    An2Link link(self, *f->dev_b, {});
    TcpConnection conn(link, fixture_cfg(false));
    std::string error;
    core::AshOptions opts;  // sandboxed, JIT
    const auto fp = ashlib::install_tcp_fastpath(*f->ash_b, *f->dev_b,
                                                 link.vc(), conn, opts,
                                                 &error);
    if (!fp.has_value()) {
      std::fprintf(stderr, "fastpath install failed: %s\n", error.c_str());
      co_return;
    }
    f->ash_id = fp->ash_id;
    f->tcb_base = conn.shm().base();
    f->owner_base = self.segment().base;
    f->owner_size = self.segment().size;

    // Re-wrap the attach hook: same invocation as AshSystem::attach_an2,
    // plus a pre-invoke TCB snapshot so the first committing data segment
    // can be replayed later.
    net::An2Device* dev = f->dev_b.get();
    core::AshSystem* sys = f->ash_b.get();
    const sim::Cycles txc = dev->config().tx_kernel_work;
    dev->set_kernel_hook(
        link.vc(), [f, dev, sys, txc](const net::An2Device::RxEvent& ev) {
          std::array<std::uint32_t, proto::tcb::kWords> pre{};
          proto::TcbShm shm(*f->b, f->tcb_base);
          for (std::uint32_t i = 0; i < proto::tcb::kWords; ++i) {
            pre[i] = shm.get(i);
          }
          core::MsgContext msg;
          msg.addr = ev.desc.addr;
          msg.len = ev.desc.len;
          msg.channel = ev.vc;
          msg.user_arg = f->tcb_base;
          const auto before = sys->stats(f->ash_id).commits;
          const bool consumed = sys->invoke(
              f->ash_id, msg,
              [dev](int chan, std::span<const std::uint8_t> bytes) {
                return dev->send(chan, bytes);
              },
              txc);
          if (!f->captured && sys->stats(f->ash_id).commits > before) {
            f->captured = true;
            f->msg_addr = msg.addr;
            f->msg_len = msg.len;
            f->channel = msg.channel;
            f->tcb = pre;
            const std::uint8_t* p = f->b->mem(msg.addr, msg.len);
            f->packet.assign(p, p + msg.len);
          }
          return consumed;
        });

    const bool accepted = co_await conn.accept();
    if (!accepted) co_return;
    const std::uint32_t buf = self.segment().base;
    std::uint32_t got = 0;
    while (got < kTotal) {
      const std::uint32_t n = co_await conn.read_into(buf, kTotal - got);
      if (n == 0) break;
      got += n;
    }
  });

  f->a->kernel().spawn("client", [f](Process& self) -> Task {
    An2Link link(self, *f->dev_a, {});
    TcpConnection conn(link, fixture_cfg(true));
    co_await self.sleep_for(us(500.0));
    const bool connected = co_await conn.connect();
    if (!connected) co_return;
    const std::uint32_t buf = self.segment().base;
    util::Rng rng(7);
    std::uint8_t* p = self.node().mem(buf, kTotal);
    for (std::uint32_t i = 0; i < kTotal; ++i) {
      p[i] = static_cast<std::uint8_t>(rng.next());
    }
    const bool wrote = co_await conn.write_from(buf, kTotal);
    (void)wrote;
  });

  f->sim.run(us(5e6));
  if (!f->captured) {
    std::fprintf(stderr, "bench_host_engine: no committing fast-path "
                         "invocation captured\n");
    std::exit(1);
  }
  f->jit = std::make_unique<vcode::JitBackend>(f->ash_b->program(f->ash_id));

  // All engines must replay to an identical commit before we time them.
  // One discarded warm-up first: the node's cache model charges cold
  // misses on the first pass, and we compare cycles exactly.
  (void)replay(*f, Backend::Interp);
  const vcode::ExecResult ri = replay(*f, Backend::Interp);
  const vcode::ExecResult rj = replay(*f, Backend::Jit);
  if (ri.outcome != vcode::Outcome::Halted ||
      rj.outcome != vcode::Outcome::Halted || ri.insns != rj.insns ||
      ri.cycles != rj.cycles || ri.result != rj.result) {
    std::fprintf(stderr, "bench_host_engine: engines disagree on the "
                         "captured invocation\n");
    std::exit(1);
  }
  f->sim_insns = ri.insns;
  f->sim_cycles = ri.cycles;
  return f;
}

TcpFixture& tcp_fixture() {
  static TcpFixture* f = build_tcp_fixture();
  return *f;
}

void BM_TcpFastpath(benchmark::State& state, Backend be) {
  TcpFixture& f = tcp_fixture();
  for (auto _ : state) {
    const vcode::ExecResult r = replay(f, be);
    if (r.outcome != vcode::Outcome::Halted) {
      state.SkipWithError("handler did not commit");
      break;
    }
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.sim_insns));
  state.counters["sim_insns/invocation"] =
      static_cast<double>(f.sim_insns);
  state.counters["sim_cycles/invocation"] =
      static_cast<double>(f.sim_cycles);
}

// ---------------------------------------------- remote increment ----------

struct RiFixture {
  sim::Simulator sim;
  sim::Node* n = nullptr;
  std::unique_ptr<core::AshSystem> sys;
  vcode::Program prog;
  std::unique_ptr<vcode::JitBackend> jit;
  std::uint32_t seg = 0x100000;
  std::uint32_t msg = 0;
  std::uint64_t sim_insns = 0;
  std::uint64_t sim_cycles = 0;
};

vcode::ExecResult ri_run(RiFixture& f, Backend be) {
  core::AshEnv::Config ec;
  ec.node = f.n;
  ec.owner_seg = {f.seg, 0x100000};
  ec.msg_addr = f.msg;
  ec.msg_len = 4;
  ec.engine = &f.sys->dilp();
  ec.tx_cost = sim::us(4.0);
  core::AshEnv env(ec);
  vcode::ExecLimits limits;
  limits.max_insns = 1u << 20;
  limits.max_cycles = f.n->cost().ash_max_runtime;
  if (be == Backend::Interp) {
    vcode::Interpreter interp(f.prog, env);
    interp.set_args(f.msg, 4, f.seg + 0x100, 0);
    return interp.run(limits);
  }
  std::array<std::uint32_t, vcode::kNumRegs> regs{};
  regs[vcode::kRegArg0] = f.msg;
  regs[vcode::kRegArg1] = 4;
  regs[vcode::kRegArg2] = f.seg + 0x100;
  return f.jit->run(env, regs, limits);
}

RiFixture& ri_fixture() {
  static RiFixture* f = [] {
    auto* r = new RiFixture;
    r->n = &r->sim.add_node("n");
    r->sys = std::make_unique<core::AshSystem>(*r->n);
    sandbox::Options sb;
    sb.segment = {r->seg, 0x100000};
    std::string error;
    auto boxed =
        sandbox::sandbox(ashlib::make_remote_increment(), sb, &error);
    if (!boxed.has_value()) {
      std::fprintf(stderr, "sandbox failed: %s\n", error.c_str());
      std::exit(1);
    }
    r->prog = std::move(boxed->program);
    r->jit = std::make_unique<vcode::JitBackend>(r->prog);
    r->msg = r->seg + 0x8000;
    util::store_u32(r->n->mem(r->msg, 4), 42);
    (void)ri_run(*r, Backend::Interp);  // warm the simulated cache model
    const vcode::ExecResult a = ri_run(*r, Backend::Interp);
    const vcode::ExecResult j = ri_run(*r, Backend::Jit);
    if (a.outcome != vcode::Outcome::Halted || a.insns != j.insns ||
        a.cycles != j.cycles) {
      std::fprintf(stderr, "remote-increment engines disagree\n");
      std::exit(1);
    }
    r->sim_insns = a.insns;
    r->sim_cycles = a.cycles;
    return r;
  }();
  return *f;
}

void BM_RemoteIncrement(benchmark::State& state, Backend be) {
  RiFixture& f = ri_fixture();
  for (auto _ : state) {
    const vcode::ExecResult r = ri_run(f, be);
    if (r.outcome != vcode::Outcome::Halted) {
      state.SkipWithError("handler did not commit");
      break;
    }
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.sim_insns));
  state.counters["sim_insns/invocation"] =
      static_cast<double>(f.sim_insns);
  state.counters["sim_cycles/invocation"] =
      static_cast<double>(f.sim_cycles);
}

// ---------------------------------------------- fused DILP chain ----------

/// The checksum + byteswap + copy pipe chain standalone over a 4 KiB
/// message: the workload where the JIT's fused single-pass loop shows the
/// largest win over per-template dispatch.
struct DilpFixture {
  dilp::Engine engine;
  vcode::FlatMemoryEnv env{1 << 20};
  int id = -1;
  std::uint32_t src = 0x1000, dst = 0x40000, len = 4096;
  std::uint64_t sim_insns = 0;
  std::uint64_t sim_cycles = 0;
};

vcode::ExecResult dilp_run(DilpFixture& f, Backend be) {
  f.engine.set_backend(be);
  const auto r = f.engine.run(f.id, f.env, f.src, f.dst, f.len);
  return r.exec;
}

DilpFixture& dilp_fixture() {
  static DilpFixture* f = [] {
    auto* d = new DilpFixture;
    vcode::Reg acc_reg = 0;
    dilp::PipeList pl;
    pl.add(dilp::make_cksum_pipe(&acc_reg));
    pl.add(dilp::make_byteswap_pipe());
    std::string error;
    d->id = d->engine.register_ilp(pl, dilp::Direction::Write, &error);
    if (d->id < 0) {
      std::fprintf(stderr, "dilp chain compile failed: %s\n", error.c_str());
      std::exit(1);
    }
    util::Rng rng(11);
    auto mem = d->env.memory();
    for (std::uint32_t i = 0; i < d->len; ++i) {
      mem[d->src + i] = static_cast<std::uint8_t>(rng.next());
    }
    const vcode::ExecResult a = dilp_run(*d, Backend::Interp);
    const vcode::ExecResult j = dilp_run(*d, Backend::Jit);
    if (a.outcome != vcode::Outcome::Halted || a.insns != j.insns ||
        a.cycles != j.cycles) {
      std::fprintf(stderr, "dilp chain engines disagree\n");
      std::exit(1);
    }
    d->sim_insns = a.insns;
    d->sim_cycles = a.cycles;
    return d;
  }();
  return *f;
}

void BM_DilpChain(benchmark::State& state, Backend be) {
  DilpFixture& f = dilp_fixture();
  for (auto _ : state) {
    const vcode::ExecResult r = dilp_run(f, be);
    if (r.outcome != vcode::Outcome::Halted) {
      state.SkipWithError("chain did not complete");
      break;
    }
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.sim_insns));
  state.counters["sim_insns/invocation"] =
      static_cast<double>(f.sim_insns);
  state.counters["sim_cycles/invocation"] =
      static_cast<double>(f.sim_cycles);
}

BENCHMARK_CAPTURE(BM_RemoteIncrement, interp, Backend::Interp);
BENCHMARK_CAPTURE(BM_RemoteIncrement, jit, Backend::Jit);
BENCHMARK_CAPTURE(BM_TcpFastpath, interp, Backend::Interp);
BENCHMARK_CAPTURE(BM_TcpFastpath, jit, Backend::Jit);
BENCHMARK_CAPTURE(BM_DilpChain, interp, Backend::Interp);
BENCHMARK_CAPTURE(BM_DilpChain, jit, Backend::Jit);

// ---------------------------------------------- manual timing sweep -------

/// ns per call of `fn`, measured over at least `min_ms` of wall time.
template <typename F>
double time_ns(F&& fn, double min_ms = 60.0) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < 32; ++i) fn();  // warm-up
  std::uint64_t iters = 0;
  const auto start = clock::now();
  auto end = start;
  do {
    for (int i = 0; i < 16; ++i) fn();
    iters += 16;
    end = clock::now();
  } while (std::chrono::duration<double, std::milli>(end - start).count() <
           min_ms);
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(iters);
}

struct Workload {
  const char* name;
  double ns[std::size(kBackends)];  // interp, jit
};

std::vector<Workload> run_sweep() {
  std::vector<Workload> out;
  {
    Workload w{"remote_increment", {}};
    RiFixture& f = ri_fixture();
    for (std::size_t b = 0; b < std::size(kBackends); ++b) {
      w.ns[b] = time_ns([&] { (void)ri_run(f, kBackends[b]); });
    }
    out.push_back(w);
  }
  {
    Workload w{"tcp_fastpath", {}};
    TcpFixture& f = tcp_fixture();
    for (std::size_t b = 0; b < std::size(kBackends); ++b) {
      w.ns[b] = time_ns([&] { (void)replay(f, kBackends[b]); });
    }
    out.push_back(w);
  }
  {
    Workload w{"dilp_chain", {}};
    DilpFixture& f = dilp_fixture();
    for (std::size_t b = 0; b < std::size(kBackends); ++b) {
      w.ns[b] = time_ns([&] { (void)dilp_run(f, kBackends[b]); });
    }
    out.push_back(w);
  }
  return out;
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;
  using ash::vcode::Backend;
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  if (smoke) {
    // Acceptance gate: superblock JIT >= 3x over the interpreter on the
    // captured TCP fast-path commit.
    TcpFixture& f = tcp_fixture();
    const double ni = time_ns([&] { (void)replay(f, Backend::Interp); });
    const double nj = time_ns([&] { (void)replay(f, Backend::Jit); });
    const double speedup = ni / nj;
    std::printf("bench_host_engine --smoke: tcp_fastpath interp=%.0fns "
                "jit=%.0fns (%.2fx)\n",
                ni, nj, speedup);
    if (!(speedup >= 3.0)) {
      std::printf("FAIL: expected >= 3x jit speedup on the TCP fast path\n");
      return 1;
    }
    std::printf("PASS\n");
    return 0;
  }

  if (json) {
    const std::vector<Workload> sweep = run_sweep();
    std::string out;
    char line[256];
    out += "{\n  \"bench\": \"host_engine\",\n  \"unit\": "
           "\"ns/invocation\",\n  \"workloads\": {\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const Workload& w = sweep[i];
      std::snprintf(line, sizeof line,
                    "    \"%s\": {\"interp\": %.1f, \"jit\": %.1f, "
                    "\"jit_vs_interp\": %.2f}%s\n",
                    w.name, w.ns[0], w.ns[1], w.ns[0] / w.ns[1],
                    i + 1 < sweep.size() ? "," : "");
      out += line;
    }
    out += "  }\n}\n";
    std::fputs(out.c_str(), stdout);
    if (FILE* fp = std::fopen("BENCH_host_engine.json", "w")) {
      std::fputs(out.c_str(), fp);
      std::fclose(fp);
    } else {
      std::fprintf(stderr, "warning: could not write "
                           "BENCH_host_engine.json\n");
    }
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
