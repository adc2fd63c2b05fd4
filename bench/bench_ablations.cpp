// Ablations over the design choices DESIGN.md calls out — not a paper
// table, but the knobs the paper discusses qualitatively:
//
//  * sandbox configuration (Section III-B / V-E): general epilogue on/off,
//    software budget checks vs the hardware timer, the x86 segmentation
//    mode that needs "almost no software checks";
//  * ASH dispatch with pre-bound address translation (Section III-A note);
//  * DILP composition depth: fused loop cost as pipes stack up, and the
//    Ethernet striped-source loop variant (Section III-C);
//  * the host execution engine (--backend={interp,jit}): superblock JIT
//    vs reference interpreter. Simulated cycles are bit-identical on both
//    paths; the axis only changes host wall-clock, reported in Ablation C;
//  * the ashtrace tracer (--trace): a pure observer that never charges
//    simulated cycles, so enabling it must leave every simulated result
//    bit-identical (checked here) and only costs host wall-clock, reported
//    in Ablation D.
#include "bench_util.hpp"

#include <array>
#include <chrono>
#include <cstring>

#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/ash_env.hpp"
#include "dilp/engine.hpp"
#include "dilp/stdpipes.hpp"
#include "trace/trace.hpp"
#include "util/byteorder.hpp"
#include "vcode/backend.hpp"
#include "vcode/interp.hpp"
#include "vcode/jit/jit.hpp"

namespace ash::bench {
namespace {

// --backend={interp,jit}: which engine executes the handlers below.
vcode::Backend g_backend = vcode::Backend::Jit;

/// Cycles for one remote-increment invocation under the given options
/// (execution only; dispatch costs added per the option set).
double invocation_cycles(const core::AshOptions& opts) {
  sim::Simulator s;
  sim::Node& node = s.add_node("n");
  core::AshSystem ash_sys(node);
  const std::uint32_t seg = 0x100000;

  vcode::Program prog = ashlib::make_remote_increment();
  vcode::Program installed = prog;
  sandbox::Report report;
  if (opts.sandboxed) {
    sandbox::Options sb;
    sb.segment = {seg, 0x100000};
    sb.mode = opts.mode;
    sb.software_budget_checks = opts.software_budget_checks;
    sb.general_epilogue = opts.general_epilogue;
    std::string error;
    auto boxed = sandbox::sandbox(prog, sb, &error);
    if (!boxed) return -1;
    installed = std::move(boxed->program);
    report = boxed->report;
  }

  // Fabricate a 4-byte message + counter and execute directly.
  const std::uint32_t msg = seg + 0x8000;
  util::store_u32(node.mem(msg, 4), 42);
  core::AshEnv::Config ec;
  ec.node = &node;
  ec.owner_seg = {seg, 0x100000};
  ec.msg_addr = msg;
  ec.msg_len = 4;
  ec.engine = &ash_sys.dilp();
  ec.tx_cost = sim::us(4.0);
  core::AshEnv env(ec);
  vcode::ExecLimits limits;
  if (opts.software_budget_checks) {
    limits.software_budget = node.cost().ash_max_runtime;
  } else {
    limits.max_cycles = node.cost().ash_max_runtime;
  }
  vcode::ExecResult r;
  if (g_backend == vcode::Backend::Interp) {
    vcode::Interpreter interp(installed, env);
    interp.set_args(msg, 4, seg + 0x100, 0);
    r = interp.run(limits);
  } else {
    std::array<std::uint32_t, vcode::kNumRegs> regs{};
    regs[vcode::kRegArg0] = msg;
    regs[vcode::kRegArg1] = 4;
    regs[vcode::kRegArg2] = seg + 0x100;
    regs[vcode::kRegArg3] = 0;
    vcode::JitBackend jit(installed);
    r = jit.run(env, regs, limits);
  }
  if (r.outcome != vcode::Outcome::Halted) return -2;

  const auto& cost = node.cost();
  const sim::Cycles dispatch =
      cost.ash_timer_setup +
      (opts.prebound_translation ? 0 : cost.ash_context_install) +
      cost.ash_timer_clear;
  return static_cast<double>(r.cycles + dispatch);
}

/// Host nanoseconds per remote-increment invocation (sandboxed defaults),
/// one setup amortised over many runs — the same shape as AshSystem::invoke
/// (fresh Interpreter per run vs prebuilt translated form with fresh
/// registers).
double host_ns_per_invocation(vcode::Backend be) {
  sim::Simulator s;
  sim::Node& node = s.add_node("n");
  core::AshSystem ash_sys(node);
  const std::uint32_t seg = 0x100000;

  sandbox::Options sb;
  sb.segment = {seg, 0x100000};
  std::string error;
  auto boxed = sandbox::sandbox(ashlib::make_remote_increment(), sb, &error);
  if (!boxed) return -1;
  const vcode::Program installed = std::move(boxed->program);
  const vcode::JitBackend jit(installed);

  const std::uint32_t msg = seg + 0x8000;
  util::store_u32(node.mem(msg, 4), 42);
  core::AshEnv::Config ec;
  ec.node = &node;
  ec.owner_seg = {seg, 0x100000};
  ec.msg_addr = msg;
  ec.msg_len = 4;
  ec.engine = &ash_sys.dilp();
  ec.tx_cost = sim::us(4.0);
  core::AshEnv env(ec);
  vcode::ExecLimits limits;
  limits.max_cycles = node.cost().ash_max_runtime;

  constexpr int kWarmup = 2000;
  constexpr int kRuns = 20000;
  const auto once = [&]() -> vcode::Outcome {
    if (be == vcode::Backend::Interp) {
      vcode::Interpreter interp(installed, env);
      interp.set_args(msg, 4, seg + 0x100, 0);
      return interp.run(limits).outcome;
    }
    std::array<std::uint32_t, vcode::kNumRegs> regs{};
    regs[vcode::kRegArg0] = msg;
    regs[vcode::kRegArg1] = 4;
    regs[vcode::kRegArg2] = seg + 0x100;
    return jit.run(env, regs, limits).outcome;
  };
  for (int i = 0; i < kWarmup; ++i) {
    if (once() != vcode::Outcome::Halted) return -2;
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRuns; ++i) once();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / kRuns;
}

double fused_insns_per_word(int n_pipes, bool striped) {
  dilp::PipeList pl;
  for (int i = 0; i < n_pipes; ++i) {
    switch (i % 3) {
      case 0: pl.add(dilp::make_cksum_pipe(nullptr)); break;
      case 1: pl.add(dilp::make_byteswap_pipe()); break;
      default: pl.add(dilp::make_xor_pipe(nullptr)); break;
    }
  }
  std::string error;
  dilp::LoopLayout layout;
  if (striped) layout.src_stripe_chunk = 16;
  const auto compiled =
      dilp::compile_pipes(pl, dilp::Direction::Write, &error, layout);
  return compiled.has_value() ? compiled->insns_per_word : -1;
}

}  // namespace
}  // namespace ash::bench

int main(int argc, char** argv) {
  using namespace ash::bench;
  using ash::core::AshOptions;

  bool with_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backend=interp") == 0) {
      g_backend = ash::vcode::Backend::Interp;
    } else if (std::strcmp(argv[i], "--backend=jit") == 0) {
      g_backend = ash::vcode::Backend::Jit;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      with_trace = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablations [--backend={interp,jit}] "
                   "[--trace]\n");
      return 2;
    }
  }
  std::printf("execution engine: %s (simulated cycles are identical on "
              "every path)\n",
              ash::vcode::to_string(g_backend));

  std::vector<Row> rows;
  {
    AshOptions o;
    o.sandboxed = false;
    rows.push_back({"unsafe (kernel-trusted)", invocation_cycles(o), -1,
                    "cycles/invocation"});
  }
  {
    AshOptions o;  // defaults: sandboxed, timer mode, epilogue on
    rows.push_back({"sandboxed, timer budget, full epilogue",
                    invocation_cycles(o), -1, "cycles/invocation"});
  }
  {
    AshOptions o;
    o.general_epilogue = false;
    rows.push_back({"sandboxed, lean exit code (paper's 'improved')",
                    invocation_cycles(o), -1, "cycles/invocation"});
  }
  {
    AshOptions o;
    o.software_budget_checks = true;
    rows.push_back({"sandboxed, software budget checks (no timer HW)",
                    invocation_cycles(o), -1, "cycles/invocation"});
  }
  {
    AshOptions o;
    o.mode = ash::sandbox::Mode::X86Segments;
    rows.push_back({"x86 segmentation mode (no software mem checks)",
                    invocation_cycles(o), -1, "cycles/invocation"});
  }
  {
    AshOptions o;
    o.prebound_translation = true;
    rows.push_back({"sandboxed + pre-bound translation (III-A note)",
                    invocation_cycles(o), -1, "cycles/invocation"});
  }
  print_table("Ablation A", "remote-increment invocation cost vs sandbox "
                            "configuration", rows);

  std::vector<Row> dilp_rows;
  for (int n = 0; n <= 3; ++n) {
    char label[64];
    std::snprintf(label, sizeof label, "%d pipe(s), contiguous source", n);
    dilp_rows.push_back({label, fused_insns_per_word(n, false), -1,
                         "insns/word"});
  }
  dilp_rows.push_back({"1 pipe, striped Ethernet source",
                       fused_insns_per_word(1, true), -1, "insns/word"});
  print_table("Ablation B", "DILP fused-loop cost vs composition depth",
              dilp_rows);
  std::printf("linear growth with actually-used pipes is the dynamic-ILP "
              "memory argument:\nstatic ILP grows with every *possible* "
              "composition instead (Section VI-3c).\n");

  std::vector<Row> host_rows;
  host_rows.push_back({"interpreter",
                       host_ns_per_invocation(ash::vcode::Backend::Interp),
                       -1, "host ns/invocation"});
  host_rows.push_back({"superblock jit (fused pipe chains)",
                       host_ns_per_invocation(ash::vcode::Backend::Jit),
                       -1, "host ns/invocation"});
  print_table("Ablation C", "host execution engine (simulated results "
                            "bit-identical)", host_rows);

  if (with_trace) {
    // Invariance first: the tracer must not perturb a single simulated
    // cycle. Same invocation, tracer off vs on, compared exactly.
    AshOptions o;
    const double cycles_off = invocation_cycles(o);
    double cycles_on;
    {
      ash::trace::Session session;
      cycles_on = invocation_cycles(o);
    }
    if (cycles_off != cycles_on) {
      std::fprintf(stderr,
                   "FAIL: tracer perturbed simulated cycles (%f != %f)\n",
                   cycles_off, cycles_on);
      return 1;
    }
    std::printf("tracer invariance: simulated cycles identical on/off "
                "(%.0f)\n", cycles_off);

    // Overhead is host wall-clock only: the same measurement loop as
    // Ablation C, with the tracer recording every invocation.
    std::vector<Row> trace_rows;
    for (const auto be : {ash::vcode::Backend::Interp,
                          ash::vcode::Backend::Jit}) {
      const char* eng = ash::vcode::to_string(be);
      const double off_ns = host_ns_per_invocation(be);
      double on_ns;
      {
        ash::trace::Session session;
        on_ns = host_ns_per_invocation(be);
      }
      char label[96];
      std::snprintf(label, sizeof label, "%s, tracer off", eng);
      trace_rows.push_back({label, off_ns, -1, "host ns/invocation"});
      std::snprintf(label, sizeof label, "%s, tracer on (+%.1f%%)", eng,
                    off_ns > 0 ? (on_ns - off_ns) / off_ns * 100.0 : 0.0);
      trace_rows.push_back({label, on_ns, -1, "host ns/invocation"});
    }
    print_table("Ablation D", "ashtrace overhead (host wall-clock; "
                              "simulated results bit-identical)", trace_rows);
  }
  return 0;
}
