// ashtool — command-line inspection of VCODE handler images (.ashv).
//
//   ashtool gen <handler> <file>          write a library handler image
//       handlers: remote-increment | remote-write-specific |
//                 remote-write-generic | active-messages | dsm-lock
//   ashtool dis <file>                    disassemble + verify an image
//   ashtool sandbox <file> <out> [base size]
//                                         SFI-rewrite an image (defaults:
//                                         base 0x100000, size 0x100000)
//   ashtool run <file> [a0 a1 a2 a3]      execute in a 1 MB flat memory
//   ashtool dump-translated <file>        print the download-time
//                                         translated form: the superblock
//                                         JIT lowering (superblock CFG,
//                                         folded guards, fused loops,
//                                         emitted listing)
//   ashtool status <file> [msgs]          download into a supervised
//                                         one-node kernel, offer `msgs`
//                                         messages (default 10), and print
//                                         the supervisor status table:
//                                         health state, abort taxonomy,
//                                         last-fault forensics, quarantine
//                                         backoff
//   ashtool trace <file> [msgs] [--json|--chrome]
//                                         same supervised scenario with the
//                                         ashtrace tracer on; print the
//                                         kernel-path event stream as text,
//                                         JSON, or Chrome trace_event JSON
//                                         (load the latter in Perfetto /
//                                         chrome://tracing)
//   ashtool metrics <file> [msgs] [--json]
//                                         same scenario; print the per-
//                                         handler / per-channel / per-
//                                         engine aggregates
//   ashtool queues <file> [msgs] [--json]
//                                         download into a two-node AN2
//                                         kernel with a 2-queue receive
//                                         set (adaptive coalescing) and a
//                                         deterministic bursty sender;
//                                         print the per-queue depth /
//                                         batch-size / fire-reason tables
//                                         and the batched-dispatch
//                                         aggregates
//   ashtool offload <file> [msgs] [--json]
//                                         the `queues` scenario with a
//                                         smart-NIC processor in front of
//                                         the receive set, its memory
//                                         window sized so exactly two of
//                                         the four VC attachments are
//                                         NIC-resident; print the queue
//                                         tables with their offload
//                                         columns plus the device summary
//                                         (per-queue exec / punt taxonomy
//                                         / reply counts)
//   ashtool rules <scenario> [--json]     print one of the canned
//                                         declarative rule-set scenarios
//                                         (lb | kv | sampler | firewall):
//                                         the rule listing, the compiled
//                                         VCODE program with its bounds-
//                                         verification verdict, and the
//                                         reference interpreter's decision
//                                         for each of the scenario's demo
//                                         frames. --json prints the rule
//                                         set as JSON instead.
//   ashtool tenants <file> [msgs] [--json]
//                                         download the image for three
//                                         tenants (DRR weights 1/2/4)
//                                         under a tight cycle quota and a
//                                         one-handler install cap, offer
//                                         each tenant `msgs` messages,
//                                         and print the per-tenant
//                                         scheduler table: weight, runs,
//                                         cycles charged, and the typed
//                                         denial taxonomy
//
// The serialized format is exactly what AshSystem::download consumes —
// these files are "what the kernel sees".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ashc/compile.hpp"
#include "ashc/eval.hpp"
#include "ashc/rule.hpp"
#include "ashc/scenarios.hpp"
#include "ashlib/handlers.hpp"
#include "core/ash.hpp"
#include "core/tenant.hpp"
#include "sandbox/sfi.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "trace/format.hpp"
#include "trace/trace.hpp"
#include "vcode/jit/jit.hpp"
#include "vcode/env_util.hpp"
#include "vcode/interp.hpp"
#include "vcode/verifier.hpp"

namespace {

using ash::vcode::Program;

int usage() {
  std::fprintf(stderr,
               "usage: ashtool gen <handler> <file>\n"
               "       ashtool dis <file>\n"
               "       ashtool sandbox <file> <out> [base size]\n"
               "       ashtool run <file> [a0 a1 a2 a3]\n"
               "       ashtool dump-translated <file>\n"
               "       ashtool status <file> [msgs]\n"
               "       ashtool trace <file> [msgs] [--json|--chrome]\n"
               "       ashtool metrics <file> [msgs] [--json]\n"
               "       ashtool queues <file> [msgs] [--json]\n"
               "       ashtool offload <file> [msgs] [--json]\n"
               "       ashtool rules <lb|kv|sampler|firewall> [--json]\n"
               "       ashtool tenants <file> [msgs] [--json]\n");
  return 2;
}

/// ashtrace renders outcome codes as numbers (it links below vcode); give
/// it the real names.
const char* name_outcome(std::uint32_t code) {
  if (code >= ash::vcode::kOutcomeCount) return "OutOfRange";
  return ash::vcode::to_string(static_cast<ash::vcode::Outcome>(code));
}

bool write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  return static_cast<bool>(out);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

int cmd_gen(const std::string& name, const std::string& file) {
  Program prog;
  if (name == "remote-increment") {
    prog = ash::ashlib::make_remote_increment();
  } else if (name == "remote-write-specific") {
    prog = ash::ashlib::make_remote_write_specific();
  } else if (name == "remote-write-generic") {
    prog = ash::ashlib::make_remote_write_generic();
  } else if (name == "active-messages") {
    prog = ash::ashlib::make_active_message_dispatcher(4);
  } else if (name == "dsm-lock") {
    prog = ash::ashlib::make_dsm_lock_handler(8);
  } else {
    std::fprintf(stderr, "unknown handler '%s'\n", name.c_str());
    return 1;
  }
  if (!write_file(file, prog.serialize())) {
    std::fprintf(stderr, "cannot write %s\n", file.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu instructions\n", file.c_str(),
              prog.insns.size());
  return 0;
}

int cmd_dis(const std::string& file) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  std::printf("%s: %zu instructions, %zu indirect targets, %zu translated, "
              "%s\n\n",
              file.c_str(), prog->insns.size(),
              prog->indirect_targets.size(), prog->indirect_map.size(),
              prog->sandboxed ? "SANDBOXED" : "not sandboxed");
  std::fputs(ash::vcode::disassemble(*prog).c_str(), stdout);

  ash::vcode::VerifyPolicy policy;
  const auto verdict = ash::vcode::verify(*prog, policy);
  if (verdict.ok()) {
    std::printf("\nverification: OK (ASH download policy)\n");
  } else {
    std::printf("\nverification issues:\n%s", verdict.to_string().c_str());
  }
  return 0;
}

int cmd_sandbox(const std::string& file, const std::string& out,
                std::uint32_t base, std::uint32_t size) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  ash::sandbox::Options opts;
  opts.segment = {base, size};
  std::string error;
  const auto boxed = ash::sandbox::sandbox(*prog, opts, &error);
  if (!boxed.has_value()) {
    std::fprintf(stderr, "sandboxing rejected: %s\n", error.c_str());
    return 1;
  }
  if (!write_file(out, boxed->program.serialize())) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  const auto& r = boxed->report;
  std::printf("%s -> %s: %u -> %u instructions (+%u)\n", file.c_str(),
              out.c_str(), r.original_insns, r.final_insns, r.added());
  std::printf("  memory checks %u, budget checks %u, epilogue %u, "
              "signed converted %u\n",
              r.mem_check_insns, r.budget_check_insns, r.epilogue_insns,
              r.converted_signed);
  return 0;
}

int cmd_run(const std::string& file, std::uint32_t a0, std::uint32_t a1,
            std::uint32_t a2, std::uint32_t a3) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  ash::vcode::FlatMemoryEnv env(1u << 20);
  const auto r = ash::vcode::execute(*prog, env, {}, a0, a1, a2, a3);
  std::printf("outcome: %s\n", ash::vcode::to_string(r.outcome));
  std::printf("  %llu instructions, %llu cycles (%.2f us at 40 MHz)\n",
              static_cast<unsigned long long>(r.insns),
              static_cast<unsigned long long>(r.cycles), r.cycles / 40.0);
  std::printf("  result (r1) = %u, abort code = %u, final pc = %u\n",
              r.result, r.abort_code, r.fault_pc);
  return r.outcome == ash::vcode::Outcome::Halted ? 0 : 1;
}

struct ScenarioOut {
  int id = -1;
  std::string error;
  std::uint64_t sends = 0;
  std::string status_table;
};

// The shared inspection scenario behind `status`, `trace`, and `metrics`:
// a one-node supervised kernel downloads the image and offers it `msgs`
// messages a millisecond apart under the default containment policy. A
// handler that faults on every message walks visibly through
// Probation/Quarantined/Revoked.
int run_supervised_scenario(const std::string& file, int msgs,
                            ScenarioOut* out) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  ash::sim::Simulator sim;
  ash::sim::Node& node = sim.add_node("n");
  ash::core::AshSystem ashsys(node);
  ash::core::SupervisorConfig sup;
  sup.enabled = true;
  sup.quarantine_base = ash::sim::us(2000.0);  // visible at ms pacing
  ashsys.set_supervisor(sup);

  node.kernel().spawn(
      "owner", [&](ash::sim::Process& self) -> ash::sim::Task {
        out->id = ashsys.download(self, *prog, {}, &out->error);
        if (out->id < 0) co_return;
        // Standard calling convention: 64 message bytes, and the
        // attach-time user argument pointing at owner scratch space.
        const std::uint32_t msg_addr = self.segment().base + 0x8000;
        const std::uint32_t scratch = self.segment().base + 0x100;
        for (std::uint32_t k = 0; k < 64; ++k) {
          *node.mem(msg_addr + k, 1) = static_cast<std::uint8_t>(k);
        }
        for (int i = 0; i < msgs; ++i) {
          ash::core::MsgContext m;
          m.addr = msg_addr;
          m.len = 64;
          m.channel = 0;
          m.user_arg = scratch;
          ashsys.invoke(
              out->id, m,
              [out](int, std::span<const std::uint8_t>) {
                ++out->sends;
                return true;
              },
              0);
          co_await self.sleep_for(ash::sim::us(1000.0));
        }
      });
  sim.run();
  if (out->id < 0) {
    std::fprintf(stderr, "download rejected: %s\n", out->error.c_str());
    return 1;
  }
  out->status_table = ashsys.format_status();
  return 0;
}

int cmd_status(const std::string& file, int msgs) {
  ScenarioOut out;
  const int rc = run_supervised_scenario(file, msgs, &out);
  if (rc != 0) return rc;
  std::printf("%s: %d message(s) offered, %llu reply send(s) released\n\n",
              file.c_str(), msgs, static_cast<unsigned long long>(out.sends));
  std::fputs(out.status_table.c_str(), stdout);
  return 0;
}

int cmd_trace(const std::string& file, int msgs, const std::string& mode) {
  ash::trace::set_outcome_namer(&name_outcome);
  ash::trace::Session session;
  ScenarioOut out;
  const int rc = run_supervised_scenario(file, msgs, &out);
  if (rc != 0) return rc;
  if (mode == "--json") {
    std::printf("%s\n", ash::trace::trace_json(ash::trace::global()).c_str());
  } else if (mode == "--chrome") {
    std::printf("%s\n",
                ash::trace::chrome_trace_json(ash::trace::global()).c_str());
  } else {
    std::fputs(ash::trace::format_trace(ash::trace::global()).c_str(),
               stdout);
  }
  return 0;
}

int cmd_metrics(const std::string& file, int msgs, const std::string& mode) {
  ash::trace::set_outcome_namer(&name_outcome);
  ash::trace::Session session;
  ScenarioOut out;
  const int rc = run_supervised_scenario(file, msgs, &out);
  if (rc != 0) return rc;
  if (mode == "--json") {
    std::printf("%s\n",
                ash::trace::metrics_json(ash::trace::global()).c_str());
  } else {
    std::fputs(ash::trace::format_metrics(ash::trace::global()).c_str(),
               stdout);
  }
  return 0;
}

// The multi-queue inspection scenario behind `queues`: a two-node AN2
// kernel downloads the image on the server, attaches it to 4 VCs steered
// through a 2-queue receive set (channel hash, adaptive coalescing,
// max_frames 4 / max_delay 50 us), and a client sends `msgs` messages in
// alternating long (16) and short (6) bursts. The long bursts trip the
// max-frames (Full) fire and flip the coalescer into polling mode, the
// short bursts leave partial batches for the max-delay (Timer) fire —
// so every fire reason and the batched-dispatch path are all visible in
// one deterministic run.
int cmd_queues(const std::string& file, int msgs, const std::string& mode,
               bool offload) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  ash::trace::set_outcome_namer(&name_outcome);
  ash::trace::TracerConfig tcfg;
  // The queue set adds auxiliary rx CPUs; the NIC processor adds one
  // virtual CPU per device execution unit on top.
  tcfg.max_cpus = offload ? 16 : 8;
  ash::trace::Session session(tcfg);

  ash::sim::Simulator sim;
  ash::sim::Node& client = sim.add_node("client");
  ash::sim::Node& server = sim.add_node("server");
  ash::net::An2Device dev_c(client);
  ash::net::An2Device dev_s(server);
  dev_c.connect(dev_s);
  ash::core::AshSystem ashsys(server);

  ash::net::RxQueueSet::Config qc;
  qc.queues = 2;
  qc.steering.mode = ash::net::SteerMode::ChannelHash;
  qc.coalesce.enabled = true;
  qc.coalesce.max_frames = 4;
  qc.coalesce.max_delay = ash::sim::us(50.0);
  qc.coalesce.adaptive = true;
  ash::net::RxQueueSet queues(server, qc);
  dev_s.set_rx_queues(&queues);

  // Offload variant: a window holding exactly two installed copies of
  // this image (the post-download, sandboxed form — only the kernel
  // knows its real footprint), so attachments 0 and 1 become
  // NIC-resident while 2 and 3 stay host-resident — both the on-device
  // execution columns and the counted NotResident punt path show up in
  // one run. The processor is built at time zero, well before the
  // sender's first frame at 100 us.
  std::unique_ptr<ash::net::NicProcessor> nic;

  constexpr int kVcs = 4;
  int id = -1;
  std::string error;
  server.kernel().spawn(
      "owner", [&](ash::sim::Process& self) -> ash::sim::Task {
        id = ashsys.download(self, *prog, {}, &error);
        if (id < 0) co_return;
        if (offload) {
          ash::net::NicConfig nc;
          nc.mem_window_bytes = 2 * ashsys.nic_footprint(id);
          nic = std::make_unique<ash::net::NicProcessor>(server, queues, nc);
          dev_s.set_nic(nic.get());
        }
        const std::uint32_t scratch = self.segment().base + 0x100;
        for (int v = 0; v < kVcs; ++v) {
          const int vc = dev_s.bind_vc(self);
          for (int i = 0; i < 32; ++i) {
            dev_s.supply_buffer(
                vc,
                self.segment().base + 0x1000 +
                    64u * static_cast<std::uint32_t>(v * 32 + i),
                64);
          }
          if (offload) {
            ashsys.offload_an2(dev_s, vc, id, scratch);
          } else {
            ashsys.attach_an2(dev_s, vc, id, scratch);
          }
        }
        co_await self.sleep_for(ash::sim::us(1e6));
      });

  client.kernel().spawn(
      "sender", [&](ash::sim::Process& self) -> ash::sim::Task {
        for (int v = 0; v < kVcs; ++v) dev_c.bind_vc(self);
        co_await self.sleep_for(ash::sim::us(100.0));
        const std::uint8_t ping[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        int in_burst = 0;
        int burst_len = 16;
        for (int m = 0; m < msgs; ++m) {
          co_await self.compute(dev_c.config().tx_kernel_work);
          // Four consecutive frames per VC before rotating: a queue then
          // sees same-channel runs, so the batched dispatch path gets
          // multi-message batches rather than singletons.
          dev_c.send((m / 4) % kVcs, ping);
          if (++in_burst == burst_len) {
            in_burst = 0;
            burst_len = burst_len == 16 ? 6 : 16;
            co_await self.sleep_for(ash::sim::us(200.0));
          }
        }
      });

  sim.run(ash::sim::us(50000.0));
  if (id < 0) {
    std::fprintf(stderr, "download rejected: %s\n", error.c_str());
    return 1;
  }
  if (mode == "--json") {
    if (nic != nullptr) {
      std::printf("{\"queues\":%s,\"nic\":%s}\n",
                  ash::trace::queues_json(ash::trace::global()).c_str(),
                  nic->summary_json().c_str());
    } else {
      std::printf("%s\n",
                  ash::trace::queues_json(ash::trace::global()).c_str());
    }
  } else {
    std::fputs(ash::trace::format_queues(ash::trace::global()).c_str(),
               stdout);
    if (nic != nullptr) {
      std::printf("\n%s", nic->format_summary().c_str());
    }
  }
  return 0;
}

// The multi-tenant inspection scenario behind `tenants`: three tenant
// processes (DRR weights 1, 2, 4) download the same image under a tight
// cycle quota (150 cycles/weight per 1 ms round, burst 1) and a
// one-handler install cap, then each offers `msgs` messages at 100 us
// pacing — ten admission attempts per round against a budget worth a
// weight-proportional few, so the weighted shares and the cycle-quota
// denials are both visible. Tenant 1 also attempts a
// second install, which the admission control rejects with a typed
// download-quota denial.
int cmd_tenants(const std::string& file, int msgs, const std::string& mode) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  ash::sim::Simulator sim;
  ash::sim::Node& node = sim.add_node("n");
  ash::core::AshSystem ashsys(node);
  ash::core::TenantSchedulerConfig tcfg;
  tcfg.replenish_period = ash::sim::us(1000.0);
  tcfg.quantum_per_weight = 150;
  tcfg.burst_rounds = 1;
  tcfg.max_handlers = 1;
  ash::core::TenantScheduler tenants(node, tcfg);
  ashsys.set_tenants(&tenants);

  constexpr std::uint32_t kWeights[3] = {1, 2, 4};
  int first_error = 0;
  for (int t = 0; t < 3; ++t) {
    node.kernel().spawn(
        "tenant" + std::to_string(t + 1),
        [&, t](ash::sim::Process& self) -> ash::sim::Task {
          tenants.set_weight(self, kWeights[t]);
          std::string error;
          const int id = ashsys.download(self, *prog, {}, &error);
          if (id < 0) {
            std::fprintf(stderr, "tenant%d download rejected: %s\n", t + 1,
                         error.c_str());
            first_error = 1;
            co_return;
          }
          if (t == 0) {
            // One over the install cap: a graceful, typed denial.
            ashsys.download(self, *prog, {}, &error);
          }
          const std::uint32_t msg_addr = self.segment().base + 0x8000;
          const std::uint32_t scratch = self.segment().base + 0x100;
          for (std::uint32_t k = 0; k < 64; ++k) {
            *node.mem(msg_addr + k, 1) = static_cast<std::uint8_t>(k);
          }
          for (int i = 0; i < msgs; ++i) {
            ash::core::MsgContext m;
            m.addr = msg_addr;
            m.len = 64;
            m.channel = t;
            m.user_arg = scratch;
            ashsys.invoke(
                id, m,
                [](int, std::span<const std::uint8_t>) { return true; }, 0);
            co_await self.sleep_for(ash::sim::us(100.0));
          }
        });
  }
  sim.run();
  if (first_error != 0) return first_error;
  if (mode == "--json") {
    std::printf("%s\n", tenants.tenants_json().c_str());
  } else {
    std::printf("%s: %d message(s) offered per tenant\n\n", file.c_str(),
                msgs);
    std::fputs(tenants.format_table().c_str(), stdout);
  }
  return 0;
}

// The whole rule-compiler pipeline over one canned scenario, in one
// deterministic dump (no cycle values — the goldens pin every byte):
// rule listing -> compiled program + bounds verdict -> disassembly ->
// the reference interpreter's decision per demo frame.
int cmd_rules(const std::string& name, const std::string& mode) {
  const ash::ashc::RuleSet rs = ash::ashc::scenario(name);
  if (rs.rules.empty()) {
    std::fprintf(stderr, "unknown scenario '%s' (want lb|kv|sampler|"
                 "firewall)\n",
                 name.c_str());
    return 1;
  }
  if (mode == "--json") {
    std::printf("%s\n", ash::ashc::to_json(rs).c_str());
    return 0;
  }
  std::fputs(ash::ashc::format(rs).c_str(), stdout);

  const ash::ashc::Compiled c = ash::ashc::compile(rs);
  if (!c.ok) {
    std::fprintf(stderr, "compile failed: %s\n", c.error.c_str());
    return 1;
  }
  const auto verdict =
      ash::vcode::verify(c.program, ash::ashc::verify_policy(rs));
  std::printf("\ncompiled: %zu instructions, bounds verification %s\n\n",
              c.program.insns.size(), verdict.ok() ? "OK" : "FAILED");
  if (!verdict.ok()) {
    std::fputs(verdict.to_string().c_str(), stdout);
    return 1;
  }
  std::fputs(ash::vcode::disassemble(c.program).c_str(), stdout);

  std::printf("\ndemo frames (reference interpreter, arrival channel 4):\n");
  std::vector<std::uint8_t> state = ash::ashc::init_state(rs);
  const auto frames = ash::ashc::demo_frames(name);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto r = ash::ashc::eval(rs, frames[i], state, 4);
    std::printf("  frame %zu (%zu bytes): %s", i, frames[i].size(),
                r.consumed ? "accept" : "deliver");
    for (const auto& s : r.sends) {
      std::printf(", send %zuB -> ch %u", s.bytes.size(), s.channel);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_dump_translated(const std::string& file) {
  const auto bytes = read_file(file);
  const auto prog = Program::deserialize(bytes);
  if (!prog.has_value()) {
    std::fprintf(stderr, "%s: not a valid .ashv image\n", file.c_str());
    return 1;
  }
  const ash::vcode::JitBackend jit(*prog);
  std::fputs("== jit (superblock lowering) ==\n", stdout);
  std::fputs(jit.dump().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "gen" && argc == 4) return cmd_gen(argv[2], argv[3]);
  if (cmd == "dis" && argc == 3) return cmd_dis(argv[2]);
  if (cmd == "sandbox" && (argc == 4 || argc == 6)) {
    std::uint32_t base = 0x100000, size = 0x100000;
    if (argc == 6) {
      base = static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 0));
      size = static_cast<std::uint32_t>(std::strtoul(argv[5], nullptr, 0));
    }
    return cmd_sandbox(argv[2], argv[3], base, size);
  }
  if ((cmd == "dump-translated" || cmd == "--dump-translated") && argc == 3) {
    return cmd_dump_translated(argv[2]);
  }
  if (cmd == "status" && (argc == 3 || argc == 4)) {
    int msgs = 10;
    if (argc == 4) msgs = std::atoi(argv[3]);
    if (msgs <= 0) return usage();
    return cmd_status(argv[2], msgs);
  }
  if ((cmd == "queues" || cmd == "offload") && argc >= 3 && argc <= 5) {
    int msgs = 44;  // two long+short burst cycles (see cmd_queues)
    std::string mode;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        mode = arg;
      } else {
        msgs = std::atoi(argv[i]);
      }
    }
    if (msgs <= 0 || !(mode.empty() || mode == "--json")) return usage();
    return cmd_queues(argv[2], msgs, mode, /*offload=*/cmd == "offload");
  }
  if (cmd == "rules" && (argc == 3 || argc == 4)) {
    const std::string mode = argc == 4 ? argv[3] : "";
    if (!(mode.empty() || mode == "--json")) return usage();
    return cmd_rules(argv[2], mode);
  }
  if (cmd == "tenants" && argc >= 3 && argc <= 5) {
    int msgs = 40;  // four 1 ms quota rounds at 100 us pacing
    std::string mode;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        mode = arg;
      } else {
        msgs = std::atoi(argv[i]);
      }
    }
    if (msgs <= 0 || !(mode.empty() || mode == "--json")) return usage();
    return cmd_tenants(argv[2], msgs, mode);
  }
  if ((cmd == "trace" || cmd == "metrics") && argc >= 3 && argc <= 5) {
    int msgs = 10;
    std::string mode;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        mode = arg;
      } else {
        msgs = std::atoi(argv[i]);
      }
    }
    if (msgs <= 0) return usage();
    const bool mode_ok =
        mode.empty() || mode == "--json" || (cmd == "trace" && mode == "--chrome");
    if (!mode_ok) return usage();
    return cmd == "trace" ? cmd_trace(argv[2], msgs, mode)
                          : cmd_metrics(argv[2], msgs, mode);
  }
  if (cmd == "run" && argc >= 3 && argc <= 7) {
    std::uint32_t a[4] = {0, 0, 0, 0};
    for (int i = 3; i < argc; ++i) {
      a[i - 3] = static_cast<std::uint32_t>(std::strtoul(argv[i], nullptr, 0));
    }
    return cmd_run(argv[2], a[0], a[1], a[2], a[3]);
  }
  return usage();
}
