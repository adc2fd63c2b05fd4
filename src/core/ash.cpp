#include "core/ash.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "ashc/compile.hpp"
#include "ashc/rule.hpp"
#include "core/ash_env.hpp"
#include "core/tenant.hpp"
#include "trace/trace.hpp"
#include "vcode/verifier.hpp"

namespace ash::core {

namespace {

/// Denial events share one shape; the admission guards differ only in
/// reason. `cpu_id` is the denying CPU — the node's main CPU on the
/// inline path, the receive queue's CPU on the batched path.
void trace_denied(sim::Node& node, std::uint16_t cpu_id, int ash_id,
                  trace::DenyReason reason) {
  trace::global().emit(trace::make_event(
      trace::EventType::AshDenied, cpu_id, node.now(), ash_id,
      static_cast<std::uint32_t>(reason)));
}

}  // namespace

AshSystem::AshSystem(sim::Node& node) : node_(node) {}

AshSystem::Installed& AshSystem::at(int ash_id) {
  if (ash_id < 0 || static_cast<std::size_t>(ash_id) >= installed_.size()) {
    throw std::out_of_range("AshSystem: bad ash id");
  }
  return *installed_[static_cast<std::size_t>(ash_id)];
}

const AshSystem::Installed& AshSystem::at(int ash_id) const {
  return const_cast<AshSystem*>(this)->at(ash_id);
}

AshSystem::Installed* AshSystem::find(int ash_id) noexcept {
  if (ash_id < 0 || static_cast<std::size_t>(ash_id) >= installed_.size()) {
    return nullptr;
  }
  return installed_[static_cast<std::size_t>(ash_id)].get();
}

int AshSystem::download(sim::Process& owner, const vcode::Program& prog,
                        const AshOptions& opts, std::string* error,
                        sandbox::Report* report) {
  auto entry = std::make_unique<Installed>();
  entry->owner = &owner;
  entry->opts = opts;

  if (opts.sandboxed) {
    sandbox::Options sb;
    sb.segment = {owner.segment().base, owner.segment().size};
    sb.mode = opts.mode;
    sb.software_budget_checks = opts.software_budget_checks;
    sb.general_epilogue = opts.general_epilogue;
    auto result = sandbox::sandbox(prog, sb, error);
    if (!result.has_value()) return -1;
    if (report != nullptr) *report = result->report;
    entry->prog = std::move(result->program);
  } else {
    // Kernel-trusted handler: verified, not rewritten.
    vcode::VerifyPolicy policy;
    policy.allow_fp = false;
    policy.allow_signed_trap = false;
    policy.allow_trusted = true;
    policy.allow_pipe_io = false;
    const auto verdict = vcode::verify(prog, policy);
    if (!verdict.ok()) {
      if (error) *error = "verification failed:\n" + verdict.to_string();
      return -1;
    }
    if (report != nullptr) {
      *report = sandbox::Report{};
      report->original_insns = report->final_insns =
          static_cast<std::uint32_t>(prog.insns.size());
    }
    entry->prog = prog;
  }

  // Tenant admission: the (sandboxed) image's kernel footprint counts
  // against the owner's buffer-pool share, and max_handlers caps the
  // install count. Rejected before any translation work happens.
  if (tenants_ != nullptr) {
    const std::uint64_t image_bytes =
        entry->prog.insns.size() * sizeof(entry->prog.insns[0]);
    TenantDeny deny = TenantDeny::BufferQuota;
    if (!tenants_->admit_download(owner, image_bytes, &deny)) {
      if (error != nullptr) {
        *error = std::string("tenant admission denied: ") + to_string(deny);
      }
      if (trace::enabled()) {
        trace_denied(node_, node_.cpu_id(), -1,
                     deny == TenantDeny::DownloadQuota
                         ? trace::DenyReason::DownloadQuota
                         : deny == TenantDeny::Revoked
                               ? trace::DenyReason::Revoked
                               : trace::DenyReason::BufferQuota);
      }
      return -1;
    }
  }

  // Translate stage: resolve the backend (AshOptions::backend, then
  // ASH_BACKEND), then build the translated form once, at install. Every
  // value but Interp resolves to the JIT.
  vcode::Backend be = opts.backend;
  vcode::backend_env_override(&be);
  if (be != vcode::Backend::Interp) be = vcode::Backend::Jit;
  entry->opts.backend = be;
  if (be == vcode::Backend::Jit) {
    entry->jit = std::make_unique<vcode::JitBackend>(entry->prog);
  }

  installed_.push_back(std::move(entry));
  return static_cast<int>(installed_.size() - 1);
}

int AshSystem::download_rules(sim::Process& owner,
                              const ashc::RuleSet& rules,
                              std::uint32_t state_addr,
                              const AshOptions& opts, std::string* error) {
  ashc::Compiled compiled = ashc::compile(rules);
  if (!compiled.ok) {
    if (error != nullptr) *error = "rule compile failed: " + compiled.error;
    return -1;
  }
  // The bounds pass is the rule layer's whole safety argument: a compiled
  // program must PROVE every access stays in its declared windows before
  // the ordinary download (structural verify + sandbox) even sees it.
  const auto verdict =
      vcode::verify(compiled.program, ashc::verify_policy(rules));
  if (!verdict.ok()) {
    if (error != nullptr) {
      *error = "rule bounds verification failed:\n" + verdict.to_string();
    }
    return -1;
  }

  const sim::MemSegment& seg = owner.segment();
  const std::uint32_t state_bytes = rules.limits.state_bytes;
  if (state_addr % 4 != 0 || state_addr < seg.base ||
      static_cast<std::uint64_t>(state_addr) + state_bytes >
          static_cast<std::uint64_t>(seg.base) + seg.size) {
    if (error != nullptr) {
      *error = "rule state address outside the owner's segment";
    }
    return -1;
  }
  const std::vector<std::uint8_t> image = ashc::init_state(rules);
  std::uint8_t* dst = node_.mem(state_addr, state_bytes);
  if (dst == nullptr) {
    if (error != nullptr) *error = "rule state address unmapped";
    return -1;
  }
  std::memcpy(dst, image.data(), image.size());

  return download(owner, compiled.program, opts, error);
}

void AshSystem::set_livelock_quota(std::uint32_t quota, sim::Cycles window) {
  livelock_quota_ = quota;
  livelock_window_ = window;
}

void AshSystem::set_supervisor(const SupervisorConfig& cfg) {
  supervisor_.set_config(cfg);
}

Health AshSystem::health(int ash_id) const {
  return at(ash_id).health.health;
}

const Supervisor::HandlerState& AshSystem::supervisor_state(
    int ash_id) const {
  return at(ash_id).health;
}

void AshSystem::clear_attachments(Installed& ash) {
  for (const Attachment& att : ash.attachments) {
    if (att.an2 != nullptr) {
      att.an2->set_kernel_hook(att.channel, nullptr);
      att.an2->set_kernel_batch_hook(att.channel, nullptr);
      if (att.an2->nic() != nullptr) {
        att.an2->nic()->detach(att.an2, att.channel);
      }
    }
    if (att.eth != nullptr) {
      att.eth->set_kernel_hook(att.channel, nullptr);
      att.eth->set_kernel_batch_hook(att.channel, nullptr);
      if (att.eth->nic() != nullptr) {
        att.eth->nic()->detach(att.eth, att.channel);
      }
    }
  }
  ash.attachments.clear();
}

void AshSystem::revoke_installed(int ash_id, Installed& ash) {
  Supervisor::force_revoke(ash.health);
  if (ash.attachments.empty()) return;
  // Revocation can fire from inside the handler's own device hook (a
  // fault crossing the policy threshold mid-invocation). Clearing the
  // hook there would destroy the closure currently executing, so defer
  // it one event: the queue runs the clear after the driver path unwinds.
  node_.queue().schedule_at(node_.now(), [this, ash_id] {
    if (Installed* ash_p = find(ash_id)) clear_attachments(*ash_p);
  });
}

void AshSystem::revoke(int ash_id) { revoke_installed(ash_id, at(ash_id)); }

std::size_t AshSystem::revoke_owner(const sim::Process& owner) {
  std::size_t revoked = 0;
  for (std::size_t i = 0; i < installed_.size(); ++i) {
    Installed& ash = *installed_[i];
    if (ash.owner->pid() != owner.pid()) continue;
    if (ash.health.health == Health::Revoked) continue;
    revoke_installed(static_cast<int>(i), ash);
    ++revoked;
  }
  // Feed the tenant scheduler: the account is closed and its deficit debt
  // written off; frames already coalesced for this owner will be drained
  // by invoke_batch with counted denials.
  if (tenants_ != nullptr) tenants_->on_owner_revoked(owner);
  return revoked;
}

std::uint64_t AshSystem::owner_faults(const sim::Process& owner) const {
  const auto it = faults_by_owner_.find(owner.pid());
  return it == faults_by_owner_.end() ? 0 : it->second;
}

bool AshSystem::detach_an2(net::An2Device& dev, int vc) {
  bool found = false;
  for (const auto& entry : installed_) {
    auto& atts = entry->attachments;
    for (std::size_t i = 0; i < atts.size();) {
      if (atts[i].an2 == &dev && atts[i].channel == vc) {
        atts.erase(atts.begin() + static_cast<std::ptrdiff_t>(i));
        found = true;
      } else {
        ++i;
      }
    }
  }
  if (found) {
    dev.set_kernel_hook(vc, nullptr);
    dev.set_kernel_batch_hook(vc, nullptr);
    if (dev.nic() != nullptr) dev.nic()->detach(&dev, vc);
  }
  return found;
}

bool AshSystem::detach_eth(net::EthernetDevice& dev, int endpoint) {
  bool found = false;
  for (const auto& entry : installed_) {
    auto& atts = entry->attachments;
    for (std::size_t i = 0; i < atts.size();) {
      if (atts[i].eth == &dev && atts[i].channel == endpoint) {
        atts.erase(atts.begin() + static_cast<std::ptrdiff_t>(i));
        found = true;
      } else {
        ++i;
      }
    }
  }
  if (found) {
    dev.set_kernel_hook(endpoint, nullptr);
    dev.set_kernel_batch_hook(endpoint, nullptr);
    if (dev.nic() != nullptr) dev.nic()->detach(&dev, endpoint);
  }
  return found;
}

const AshStats& AshSystem::stats(int ash_id) const { return at(ash_id).stats; }

const vcode::Program& AshSystem::program(int ash_id) const {
  return at(ash_id).prog;
}

const sim::Process& AshSystem::owner(int ash_id) const {
  return *at(ash_id).owner;
}

const vcode::JitBackend* AshSystem::jit_backend(int ash_id) const {
  return at(ash_id).jit.get();
}

vcode::Backend AshSystem::backend(int ash_id) const {
  return at(ash_id).opts.backend;
}

vcode::BackendStats AshSystem::backend_stats(int ash_id) const {
  const Installed& ash = at(ash_id);
  if (ash.jit != nullptr) return ash.jit->stats();
  return {vcode::Backend::Interp, ash.stats.invocations, 0, 0, 0};
}

AshSystem::Installed* AshSystem::admit(int ash_id, std::uint16_t cpu_id,
                                       trace::DenyReason* why) {
  // A stale or invalid id (reachable from a kernel hook once handlers can
  // be detached/revoked, or from a buggy custom demux point) must not
  // unwind through the device driver: count it and fall back.
  Installed* ash_p = find(ash_id);
  if (ash_p == nullptr) {
    ++bad_id_fallbacks_;
    if (trace::enabled()) {
      trace_denied(node_, cpu_id, ash_id, trace::DenyReason::BadId);
    }
    if (why != nullptr) *why = trace::DenyReason::BadId;
    return nullptr;
  }
  Installed& ash = *ash_p;
  AshStats& stats = ash.stats;

  // Revocation is a mechanism, not policy: an explicitly revoked handler
  // is denied even when the supervisor policy is disabled. (Normally its
  // device hooks are already cleared; this covers direct invoke callers
  // and the window before the deferred hook-clear runs.)
  if (ash.health.health == Health::Revoked) {
    ++stats.revoked_skips;
    if (trace::enabled()) {
      trace_denied(node_, cpu_id, ash_id, trace::DenyReason::Revoked);
    }
    if (why != nullptr) *why = trace::DenyReason::Revoked;
    return nullptr;
  }

  // Supervisor admission: a quarantined handler's messages take the
  // normal delivery path at near-zero kernel cost — no timer setup, no
  // context install, no handler run. The check itself is a handful of
  // host instructions in the demux path.
  if (supervisor_.enabled() &&
      supervisor_.admit(ash.health, node_.now()) ==
          Supervisor::Admission::Denied) {
    ++stats.quarantine_skips;
    if (trace::enabled()) {
      trace_denied(node_, cpu_id, ash_id, trace::DenyReason::Quarantined);
    }
    if (why != nullptr) *why = trace::DenyReason::Quarantined;
    return nullptr;
  }

  // Weighted-fair cycle scheduling: the owner's DRR account must be in
  // credit. Like quarantine, a deferral costs near-zero kernel time —
  // the message takes the normal delivery path and the tenant's backlog
  // becomes its own problem, not its neighbors'.
  if (tenants_ != nullptr && !tenants_->admit_cycles(*ash.owner)) {
    ++stats.tenant_deferrals;
    if (trace::enabled()) {
      trace_denied(node_, cpu_id, ash_id, trace::DenyReason::CycleQuota);
    }
    if (why != nullptr) *why = trace::DenyReason::CycleQuota;
    return nullptr;
  }

  // Receive-livelock guard (Section VI-4). The window belongs to the
  // OWNING PROCESS: quota is "per process per window", so N handlers on
  // one owner share one window rather than multiplying the share N-fold.
  if (livelock_quota_ != 0) {
    const sim::Cycles now = node_.now();
    LivelockWindow& win = livelock_by_owner_[ash.owner->pid()];
    if (now - win.start >= livelock_window_) {
      win.start = now;
      win.count = 0;
    }
    if (win.count >= livelock_quota_) {
      ++stats.livelock_deferrals;
      if (trace::enabled()) {
        trace_denied(node_, cpu_id, ash_id, trace::DenyReason::LivelockQuota);
      }
      if (why != nullptr) *why = trace::DenyReason::LivelockQuota;
      return nullptr;  // over quota: normal delivery path
    }
    ++win.count;
  }

  return ash_p;
}

AshSystem::RunResult AshSystem::run_one(int ash_id, Installed& ash,
                                        const MsgContext& msg, AshEnv& env,
                                        std::uint16_t cpu_id,
                                        sim::Cycles dispatch,
                                        sim::Cycles clear) {
  AshStats& stats = ash.stats;
  ++stats.invocations;

  // Tracing is a pure observer: it never charges simulated cycles, so all
  // bench outputs stay byte-identical with it on. The thread-local context
  // attributes engine-internal events (VcodeExec, TSend, DILP) to this
  // cpu / time / handler; restored when the invocation unwinds.
  std::optional<trace::ScopedContext> tctx;
  if (trace::enabled()) {
    tctx.emplace(cpu_id, node_.now(), ash_id);
    trace::global().emit(trace::make_event(
        trace::EventType::AshDispatch, cpu_id, node_.now(), ash_id,
        msg.len, static_cast<std::uint32_t>(msg.channel)));
  }

  vcode::ExecLimits limits;
  limits.max_insns = 1u << 20;
  if (ash.opts.software_budget_checks) {
    limits.software_budget = node_.cost().ash_max_runtime;
  } else {
    // Hardware timer mode: two clock ticks, then involuntary abort.
    limits.max_cycles = node_.cost().ash_max_runtime;
  }

  // Calling convention: r1 = message address, r2 = length, r3 = the
  // application argument bound at attach, r4 = reply channel.
  vcode::ExecResult exec;
  if (ash.jit != nullptr) {
    std::array<std::uint32_t, vcode::kNumRegs> regs{};
    regs[vcode::kRegArg0] = msg.addr;
    regs[vcode::kRegArg1] = msg.len;
    regs[vcode::kRegArg2] = msg.user_arg;
    regs[vcode::kRegArg3] = static_cast<std::uint32_t>(msg.channel);
    exec = ash.jit->run(env, regs, limits);
  } else {
    vcode::Interpreter interp(ash.prog, env);
    interp.set_args(msg.addr, msg.len, msg.user_arg,
                    static_cast<std::uint32_t>(msg.channel));
    exec = interp.run(limits);
  }
  stats.cycles += exec.cycles;
  stats.insns += exec.insns;
  // The ONE tenant charge site: every executed cycle lands both in this
  // handler's stats and in its owner's account, so per-tenant
  // cycles_charged == sum of owned AshStats::cycles, always (the
  // conservation property test pins this across fault/revoke churn).
  if (tenants_ != nullptr) tenants_->charge(*ash.owner, exec.cycles);

  RunResult result;
  result.outcome = exec.outcome;
  result.total = dispatch + exec.cycles + clear;
  result.insns = exec.insns;

  stats.by_outcome[static_cast<std::size_t>(exec.outcome)] += 1;
  bool fault = false;
  switch (exec.outcome) {
    case vcode::Outcome::Halted:
      ++stats.commits;
      result.consumed = true;
      break;
    case vcode::Outcome::VoluntaryAbort:
      ++stats.voluntary_aborts;
      break;
    default:
      ++stats.involuntary_aborts;
      fault = true;
      stats.last_fault = AshFaultRecord{true,       exec.outcome,
                                        exec.fault_pc, exec.insns,
                                        exec.cycles,   node_.now()};
      ++faults_by_owner_[ash.owner->pid()];
      break;
  }

  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::AshOutcome, cpu_id, node_.now(), ash_id,
        static_cast<std::uint32_t>(exec.outcome), result.consumed ? 1 : 0,
        result.total, exec.insns));
  }

  if (supervisor_.enabled()) {
    const auto action =
        supervisor_.note_result(ash.health, fault, node_.now());
    if (trace::enabled() && action != Supervisor::Action::None) {
      trace::global().emit(trace::make_event(
          trace::EventType::SupervisorAction, cpu_id, node_.now(),
          ash_id,
          static_cast<std::uint32_t>(action == Supervisor::Action::Revoke
                                         ? trace::SupAction::Revoke
                                         : trace::SupAction::Quarantine)));
    }
    if (action == Supervisor::Action::Revoke) {
      revoke_installed(ash_id, ash);
    }
    const std::uint64_t owner_limit =
        supervisor_.config().owner_fault_limit;
    if (fault && owner_limit != 0 &&
        faults_by_owner_[ash.owner->pid()] >= owner_limit) {
      revoke_owner(*ash.owner);
    }
  }

  return result;
}

bool AshSystem::invoke(int ash_id, const MsgContext& msg, SendFn send_fn,
                       sim::Cycles tx_cost) {
  Installed* ash_p = admit(ash_id, node_.cpu_id());
  if (ash_p == nullptr) return false;
  Installed& ash = *ash_p;

  AshEnv::Config env_cfg;
  env_cfg.node = &node_;
  env_cfg.owner_seg = ash.owner->segment();
  env_cfg.msg_addr = msg.addr;
  env_cfg.msg_len = msg.len;
  env_cfg.stripe_chunk = msg.stripe_chunk;
  env_cfg.engine = &dilp_;
  env_cfg.tx_cost = tx_cost;
  AshEnv env(env_cfg);

  const sim::CostModel& cost = node_.cost();
  const sim::Cycles dispatch =
      cost.ash_timer_setup +
      (ash.opts.prebound_translation ? 0 : cost.ash_context_install);
  const RunResult run = run_one(ash_id, ash, msg, env, node_.cpu_id(),
                                dispatch, cost.ash_timer_clear);

  // Occupy the CPU for the handler's runtime; release collected sends when
  // it "finishes" so replies cannot precede the work that produced them.
  // Sends were snapshotted at TSend time, so later handler stores to the
  // same buffer cannot corrupt an in-flight reply.
  if (run.outcome == vcode::Outcome::Halted && !env.sends().empty()) {
    auto sends = env.sends();
    node_.kernel_work(run.total,
                      [send_fn = std::move(send_fn), sends = std::move(sends)] {
                        for (const auto& req : sends) {
                          send_fn(req.channel, req.bytes);
                        }
                      });
  } else {
    node_.kernel_work(run.total);
  }

  return run.consumed;
}

void AshSystem::invoke_batch(int ash_id, std::span<const MsgContext> msgs,
                             SendFn send_fn, sim::Cycles tx_cost,
                             const sim::KernelCpu& cpu, bool* consumed) {
  const std::uint16_t cpu_id = cpu.cpu_id();
  const sim::CostModel& cost = node_.cost();

  sim::Cycles batch_total = 0;
  std::uint64_t batch_insns = 0;
  std::uint32_t executed = 0;
  std::vector<AshEnv::SendReq> sends;

  for (std::size_t i = 0; i < msgs.size(); ++i) {
    // Per-message admission: a fault on message k can quarantine or
    // revoke the handler mid-batch, and the messages after it must see
    // that decision — the batch amortizes entry cost, not policy.
    trace::DenyReason why{};
    Installed* ash_p = admit(ash_id, cpu_id, &why);
    if (ash_p == nullptr) {
      // Revocation is terminal: no later message in this batch can be
      // admitted, so drain the remaining coalesced frames with counted
      // denials instead of re-running the admission path per frame.
      if (why == trace::DenyReason::Revoked) {
        Installed* rev = find(ash_id);
        if (rev != nullptr) {
          const std::uint64_t drained = msgs.size() - (i + 1);
          for (std::size_t j = i + 1; j < msgs.size(); ++j) {
            ++rev->stats.revoked_skips;
            if (trace::enabled()) {
              trace_denied(node_, cpu_id, ash_id,
                           trace::DenyReason::Revoked);
            }
          }
          if (tenants_ != nullptr && drained != 0) {
            tenants_->note_drained(*rev->owner, drained);
          }
        }
        break;
      }
      continue;
    }
    Installed& ash = *ash_p;

    AshEnv::Config env_cfg;
    env_cfg.node = &node_;
    env_cfg.owner_seg = ash.owner->segment();
    env_cfg.msg_addr = msgs[i].addr;
    env_cfg.msg_len = msgs[i].len;
    env_cfg.stripe_chunk = msgs[i].stripe_chunk;
    env_cfg.engine = &dilp_;
    env_cfg.tx_cost = tx_cost;
    AshEnv env(env_cfg);

    // First executed message pays the full entry; the rest only re-arm
    // the budget timer. The single timer clear is added after the loop.
    const sim::Cycles dispatch =
        executed == 0
            ? cost.ash_timer_setup +
                  (ash.opts.prebound_translation ? 0
                                                 : cost.ash_context_install)
            : cost.ash_batch_rearm;
    const RunResult run =
        run_one(ash_id, ash, msgs[i], env, cpu_id, dispatch, 0);
    ++executed;
    batch_total += run.total;
    batch_insns += run.insns;

    if (run.consumed) {
      if (consumed != nullptr) consumed[i] = true;
      sends.insert(sends.end(), env.sends().begin(), env.sends().end());
    }
  }

  if (executed > 0) batch_total += cost.ash_timer_clear;

  if (trace::enabled()) {
    trace::global().emit(trace::make_event(
        trace::EventType::BatchDispatch, cpu_id, node_.now(), ash_id,
        static_cast<std::uint32_t>(msgs.size()), executed, batch_total,
        batch_insns));
  }

  // One CPU charge for the whole batch; all collected sends release when
  // the batch's runtime has elapsed, preserving the reply-ordering
  // contract of the single-message path.
  if (!sends.empty()) {
    cpu.kernel_work(batch_total,
                    [send_fn = std::move(send_fn), sends = std::move(sends)] {
                      for (const auto& req : sends) {
                        send_fn(req.channel, req.bytes);
                      }
                    });
  } else if (batch_total != 0) {
    cpu.kernel_work(batch_total);
  }
}

void AshSystem::attach_an2(net::An2Device& dev, int vc, int ash_id,
                           std::uint32_t user_arg) {
  at(ash_id).attachments.push_back({&dev, nullptr, vc});
  net::An2Device* device = &dev;
  dev.set_kernel_hook(vc, [this, device, ash_id, user_arg](
                              const net::An2Device::RxEvent& ev) {
    MsgContext msg;
    msg.addr = ev.desc.addr;
    msg.len = ev.desc.len;
    msg.stripe_chunk = 0;
    msg.channel = ev.vc;
    msg.user_arg = user_arg;
    return invoke(ash_id, msg,
                  [device](int chan, std::span<const std::uint8_t> bytes) {
                    return device->send(chan, bytes);
                  },
                  device->config().tx_kernel_work);
  });
  // Batched form for the multi-queue receive path; same message shape,
  // entry cost amortized across the batch by invoke_batch.
  dev.set_kernel_batch_hook(
      vc, [this, device, ash_id, user_arg](
              std::span<const net::An2Device::RxEvent> evs,
              const sim::KernelCpu& cpu, bool* consumed) {
        std::vector<MsgContext> msgs(evs.size());
        for (std::size_t i = 0; i < evs.size(); ++i) {
          msgs[i].addr = evs[i].desc.addr;
          msgs[i].len = evs[i].desc.len;
          msgs[i].stripe_chunk = 0;
          msgs[i].channel = evs[i].vc;
          msgs[i].user_arg = user_arg;
        }
        invoke_batch(ash_id, msgs,
                     [device](int chan, std::span<const std::uint8_t> bytes) {
                       return device->send(chan, bytes);
                     },
                     device->config().tx_kernel_work, cpu, consumed);
      });
}

void AshSystem::attach_eth(net::EthernetDevice& dev, int endpoint, int ash_id,
                           std::uint32_t user_arg) {
  at(ash_id).attachments.push_back({nullptr, &dev, endpoint});
  net::EthernetDevice* device = &dev;
  dev.set_kernel_hook(endpoint, [this, device, ash_id, user_arg](
                                    const net::EthernetDevice::RxEvent& ev) {
    MsgContext msg;
    msg.addr = ev.striped.addr;
    msg.len = ev.striped.len;
    msg.stripe_chunk = 16;
    msg.channel = ev.endpoint;
    msg.user_arg = user_arg;
    return invoke(ash_id, msg,
                  [device](int, std::span<const std::uint8_t> bytes) {
                    return device->send(bytes);
                  },
                  device->config().tx_kernel_work);
  });
  dev.set_kernel_batch_hook(
      endpoint, [this, device, ash_id, user_arg](
                    std::span<const net::EthernetDevice::RxEvent> evs,
                    const sim::KernelCpu& cpu, bool* consumed) {
        std::vector<MsgContext> msgs(evs.size());
        for (std::size_t i = 0; i < evs.size(); ++i) {
          msgs[i].addr = evs[i].striped.addr;
          msgs[i].len = evs[i].striped.len;
          msgs[i].stripe_chunk = 16;
          msgs[i].channel = evs[i].endpoint;
          msgs[i].user_arg = user_arg;
        }
        invoke_batch(ash_id, msgs,
                     [device](int, std::span<const std::uint8_t> bytes) {
                       return device->send(bytes);
                     },
                     device->config().tx_kernel_work, cpu, consumed);
      });
}

std::uint32_t AshSystem::nic_footprint(int ash_id) const {
  const Installed& ash = at(ash_id);
  return static_cast<std::uint32_t>(ash.prog.insns.size() *
                                    sizeof(ash.prog.insns[0])) +
         kNicHandlerStateBytes;
}

net::NicExecResult AshSystem::invoke_nic(int ash_id, const MsgContext& msg,
                                         SendFn send_fn, sim::Cycles tx_cost,
                                         net::NicExecUnit& unit) {
  net::NicExecResult res;
  Installed* ash_p = admit(ash_id, unit.cpu_id());
  if (ash_p == nullptr) {
    // Admission denied on-device (revoked/quarantined/tenant/livelock).
    // Deny counters and trace are identical to a host-path denial; the
    // frame goes back to the host as a punt, charged only the handoff.
    res.charged = unit.cost().punt_handoff;
    unit.work(res.charged);
    return res;
  }
  Installed& ash = *ash_p;

  // Same env and tx_cost as the host paths, so execution — and therefore
  // AshStats, outcome taxonomy, and replies — is identical wherever the
  // handler runs. Only the cycle *charge* differs: it lands on the NIC
  // unit under its own clock ratio and dispatch cost.
  AshEnv::Config env_cfg;
  env_cfg.node = &node_;
  env_cfg.owner_seg = ash.owner->segment();
  env_cfg.msg_addr = msg.addr;
  env_cfg.msg_len = msg.len;
  env_cfg.stripe_chunk = msg.stripe_chunk;
  env_cfg.engine = &dilp_;
  env_cfg.tx_cost = tx_cost;
  AshEnv env(env_cfg);

  // No host timer setup/clear on the device; the unit's dispatch overhead
  // replaces them, added below under the device cost model.
  const RunResult run = run_one(ash_id, ash, msg, env, unit.cpu_id(), 0, 0);
  res.ran = true;
  res.consumed = run.consumed;
  res.faulted = run.outcome != vcode::Outcome::Halted &&
                run.outcome != vcode::Outcome::VoluntaryAbort;
  res.charged = unit.cost().dispatch + unit.scale(run.total);

  if (run.consumed && !env.sends().empty()) {
    // Replies initiate from the device (TSend with no host transition);
    // the same release-after-runtime contract as invoke() applies.
    auto sends = env.sends();
    res.replies = static_cast<std::uint32_t>(sends.size());
    res.charged += static_cast<sim::Cycles>(res.replies) *
                   unit.cost().reply_issue;
    unit.work(res.charged,
              [send_fn = std::move(send_fn), sends = std::move(sends)] {
                for (const auto& req : sends) {
                  send_fn(req.channel, req.bytes);
                }
              });
  } else {
    // Ran-but-not-consumed (voluntary abort, fault, or plain "not mine")
    // hands the frame back to the host: charge the punt handoff too.
    if (!run.consumed) res.charged += unit.cost().punt_handoff;
    unit.work(res.charged);
  }
  return res;
}

bool AshSystem::offload_an2(net::An2Device& dev, int vc, int ash_id,
                            std::uint32_t user_arg) {
  // Host hooks first: not-resident punts and post-detach frames must run
  // the handler on the normal host path, so behaviour is identical minus
  // where the cycles land.
  attach_an2(dev, vc, ash_id, user_arg);
  if (dev.nic() == nullptr) return false;
  net::An2Device* device = &dev;
  return dev.nic()->attach(
      &dev, vc, nic_footprint(ash_id),
      [this, device, ash_id, user_arg](const net::RxFrame& f,
                                       net::NicExecUnit& unit) {
        MsgContext msg;
        msg.addr = f.addr;
        msg.len = f.len;
        msg.stripe_chunk = 0;
        msg.channel = f.channel;
        msg.user_arg = user_arg;
        return invoke_nic(
            ash_id, msg,
            [device](int chan, std::span<const std::uint8_t> bytes) {
              return device->send(chan, bytes);
            },
            device->config().tx_kernel_work, unit);
      });
}

bool AshSystem::offload_eth(net::EthernetDevice& dev, int endpoint,
                            int ash_id, std::uint32_t user_arg) {
  attach_eth(dev, endpoint, ash_id, user_arg);
  if (dev.nic() == nullptr) return false;
  net::EthernetDevice* device = &dev;
  return dev.nic()->attach(
      &dev, endpoint, nic_footprint(ash_id),
      [this, device, ash_id, user_arg](const net::RxFrame& f,
                                       net::NicExecUnit& unit) {
        MsgContext msg;
        msg.addr = f.addr;
        msg.len = f.len;
        msg.stripe_chunk = 16;
        msg.channel = f.channel;
        msg.user_arg = user_arg;
        return invoke_nic(
            ash_id, msg,
            [device](int, std::span<const std::uint8_t> bytes) {
              return device->send(bytes);
            },
            device->config().tx_kernel_work, unit);
      });
}

std::string AshSystem::format_status() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%3s  %-12s %-11s %8s %8s %7s %7s %7s\n",
                "ash", "owner", "state", "inv", "commit", "vabort", "iabort",
                "skips");
  out += line;
  for (std::size_t i = 0; i < installed_.size(); ++i) {
    const Installed& ash = *installed_[i];
    const AshStats& s = ash.stats;
    std::snprintf(line, sizeof line,
                  "%3zu  %-12s %-11s %8llu %8llu %7llu %7llu %7llu\n", i,
                  ash.owner->name().c_str(), to_string(ash.health.health),
                  static_cast<unsigned long long>(s.invocations),
                  static_cast<unsigned long long>(s.commits),
                  static_cast<unsigned long long>(s.voluntary_aborts),
                  static_cast<unsigned long long>(s.involuntary_aborts),
                  static_cast<unsigned long long>(s.quarantine_skips +
                                                  s.revoked_skips));
    out += line;
    const vcode::BackendStats bs = backend_stats(static_cast<int>(i));
    std::snprintf(line, sizeof line,
                  "       backend: %s runs=%llu translations=%llu "
                  "superblocks=%llu emitted=%lluB\n",
                  vcode::to_string(bs.backend),
                  static_cast<unsigned long long>(bs.runs),
                  static_cast<unsigned long long>(bs.translations),
                  static_cast<unsigned long long>(bs.superblocks),
                  static_cast<unsigned long long>(bs.emitted_bytes));
    out += line;
    // Abort taxonomy: only outcomes actually seen, to keep the table tight.
    bool any = false;
    for (std::size_t o = 0; o < vcode::kOutcomeCount; ++o) {
      const auto outcome = static_cast<vcode::Outcome>(o);
      if (outcome == vcode::Outcome::Halted ||
          outcome == vcode::Outcome::VoluntaryAbort || s.by_outcome[o] == 0) {
        continue;
      }
      std::snprintf(line, sizeof line, "%s%s=%llu", any ? " " : "       faults: ",
                    vcode::to_string(outcome),
                    static_cast<unsigned long long>(s.by_outcome[o]));
      out += line;
      any = true;
    }
    if (any) out += "\n";
    if (s.last_fault.valid) {
      std::snprintf(line, sizeof line,
                    "       last fault: %s at pc=%u after %llu insns / "
                    "%llu cycles, t=%llu cyc\n",
                    vcode::to_string(s.last_fault.outcome), s.last_fault.pc,
                    static_cast<unsigned long long>(s.last_fault.insns),
                    static_cast<unsigned long long>(s.last_fault.cycles),
                    static_cast<unsigned long long>(s.last_fault.at));
      out += line;
    }
    if (ash.health.quarantine_trips > 0) {
      std::snprintf(
          line, sizeof line,
          "       quarantine: %u trip(s), backoff %llu cyc, until t=%llu\n",
          ash.health.quarantine_trips,
          static_cast<unsigned long long>(ash.health.quarantine_len),
          static_cast<unsigned long long>(ash.health.quarantine_until));
      out += line;
    }
    if (s.tenant_deferrals != 0) {
      std::snprintf(line, sizeof line,
                    "       tenant: cycle-quota deferrals=%llu\n",
                    static_cast<unsigned long long>(s.tenant_deferrals));
      out += line;
    }
  }
  if (bad_id_fallbacks_ != 0) {
    std::snprintf(line, sizeof line, "bad-id fallbacks: %llu\n",
                  static_cast<unsigned long long>(bad_id_fallbacks_));
    out += line;
  }
  return out;
}

}  // namespace ash::core
