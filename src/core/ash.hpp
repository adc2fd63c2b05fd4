// The ASH system — the paper's primary contribution.
//
// Application-specific safe message handlers are user-written VCODE
// routines, downloaded into the (simulated) kernel, verified and — unless
// the application is kernel-trusted — SFI-sandboxed, then attached to a
// demultiplexing point (an AN2 virtual circuit or an Ethernet/DPF
// endpoint). When a message for that point arrives, the handler runs in
// kernel context, in the address-space of its owning process, before any
// scheduling decision:
//
//   * it can direct message placement (dynamic message vectoring), via
//     sandboxed stores, TUserCopy, or a DILP integrated transfer;
//   * it can reply immediately (message initiation) via TSend — sends are
//     collected during execution and released when the handler's simulated
//     runtime has elapsed, so reply latency is accounted faithfully;
//   * it can perform bounded general computation (control initiation).
//
// Exit protocol (Section II-A): Halt = commit — the message is consumed.
// Abort = voluntary abort — the handler's own fix-up code ran and the
// message falls back to the normal delivery path. Any fault or budget
// exhaustion is an involuntary abort: the kernel kills the handler and
// falls back, and the owning application may be left inconsistent (its
// problem, not the kernel's — exactly the paper's contract).
//
// The supervisor (supervisor.hpp) extends that contract from one
// invocation to the handler's lifetime: repeated involuntary aborts
// quarantine and eventually revoke a handler, so a persistently faulting
// download cannot monopolize kernel time message after message.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/supervisor.hpp"
#include "dilp/engine.hpp"
#include "net/an2.hpp"
#include "net/ethernet.hpp"
#include "net/nic_offload.hpp"
#include "sandbox/sfi.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/process.hpp"
#include "vcode/backend.hpp"
#include "vcode/jit/jit.hpp"
#include "vcode/program.hpp"

namespace ash::trace {
enum class DenyReason : std::uint8_t;
}  // namespace ash::trace

namespace ash::ashc {
struct RuleSet;
}  // namespace ash::ashc

namespace ash::core {

class TenantScheduler;

/// Registers through which DILP persistent values are exchanged between an
/// ASH and a TDilp invocation: persistent k of the invoked ilp is seeded
/// from r(kDilpPersistentBase + k) and written back there afterwards.
inline constexpr vcode::Reg kDilpPersistentBase = 48;
inline constexpr vcode::Reg kDilpPersistentMax = 8;

/// Device-resident state an offloaded handler needs beyond its sandboxed
/// image: the fast-mem scratch area plus the DILP persistent register
/// file. Together with the image bytes this is the handler's NIC memory
/// window footprint (AshSystem::nic_footprint).
inline constexpr std::uint32_t kNicHandlerStateBytes =
    256 + kDilpPersistentMax * sizeof(std::uint32_t);

struct AshOptions {
  /// False = kernel-trusted "unsafe ASH" (Tables V/VI's comparison): the
  /// program is verified but not rewritten.
  bool sandboxed = true;
  /// Pre-bind the owner's address translations at download time (the
  /// Section III-A note: "the physical address a virtual address maps to
  /// can be pre-bound into the ASH when it is imported into the kernel").
  /// Invocation then skips installing the context identifier/page-table
  /// pointer. Requires the owner's pages to stay pinned (they are, here).
  bool prebound_translation = false;
  /// Bound runtime with sandbox-inserted Budget checks instead of the
  /// hardware timer (Section III-B3's software alternative).
  bool software_budget_checks = false;
  sandbox::Mode mode = sandbox::Mode::Mips;
  bool general_epilogue = true;
  /// Execution backend for this handler: the superblock JIT (vcode/jit/),
  /// translated once at download, or the reference interpreter. Simulated
  /// results are bit-identical either way — this is a host wall-clock
  /// knob. The ASH_BACKEND environment variable (interp|jit) overrides it
  /// for the whole process.
  vcode::Backend backend = vcode::Backend::Jit;
};

/// Forensic record of a handler's most recent involuntary abort — what an
/// operator needs to answer "why is this handler quarantined?".
struct AshFaultRecord {
  bool valid = false;
  vcode::Outcome outcome = vcode::Outcome::Halted;
  std::uint32_t pc = 0;        // faulting instruction index
  std::uint64_t insns = 0;     // dynamic instructions before the fault
  std::uint64_t cycles = 0;    // cycles burned by the faulting run
  sim::Cycles at = 0;          // simulated time of the fault
};

/// Per-handler kernel counters.
///
/// Thread model: plain (non-atomic) fields with a single writer — the
/// thread driving this node's simulator, which is the only thread that
/// runs AshSystem::invoke. Readers are either that same thread (ashtool,
/// tests) or run after the simulation has stopped, so no read can tear.
/// Concurrent cross-thread polling belongs on trace::Tracer's atomic
/// emitted/dropped counters instead (see src/trace/trace.hpp; the CI tsan
/// job enforces the split).
struct AshStats {
  std::uint64_t invocations = 0;
  std::uint64_t commits = 0;
  std::uint64_t voluntary_aborts = 0;
  std::uint64_t involuntary_aborts = 0;
  std::uint64_t livelock_deferrals = 0;
  std::uint64_t cycles = 0;  // handler execution cycles (excl. dispatch)
  std::uint64_t insns = 0;   // dynamic instruction count
  /// Abort taxonomy: every run's vcode::Outcome, counted individually
  /// (index = static_cast<size_t>(outcome)). involuntary_aborts above is
  /// the sum of the involuntary entries; this breaks it down.
  std::array<std::uint64_t, vcode::kOutcomeCount> by_outcome{};
  /// Messages bypassed to the normal delivery path by the supervisor.
  std::uint64_t quarantine_skips = 0;  // while Quarantined
  std::uint64_t revoked_skips = 0;     // offered to a Revoked handler
  /// Messages deferred by the tenant scheduler's cycle quota (the owner's
  /// weighted-fair account was exhausted).
  std::uint64_t tenant_deferrals = 0;
  AshFaultRecord last_fault;
};

/// Everything the kernel knows about one message being offered to an ASH.
struct MsgContext {
  std::uint32_t addr = 0;        // where the message currently lives
  std::uint32_t len = 0;         // logical message length in bytes
  std::uint32_t stripe_chunk = 0;  // nonzero: message is device-striped
  int channel = 0;               // reply channel (VC / endpoint id)
  std::uint32_t user_arg = 0;    // application argument bound at attach
};

class AshEnv;

class AshSystem {
 public:
  explicit AshSystem(sim::Node& node);

  sim::Node& node() noexcept { return node_; }

  /// The node's DILP engine; compile pipe lists here and invoke them from
  /// handlers with TDilp.
  dilp::Engine& dilp() noexcept { return dilp_; }

  /// Download a handler for `owner`: verify, (optionally) sandbox, and
  /// install. Returns the ASH id, or -1 with `error` set. `report`, when
  /// non-null, receives the sandboxer's added-instruction accounting
  /// (Section V-D's numbers).
  int download(sim::Process& owner, const vcode::Program& prog,
               const AshOptions& opts, std::string* error,
               sandbox::Report* report = nullptr);

  /// Download a declarative rule set (src/ashc): compile it to VCODE,
  /// verify the result under the rule set's bounds policy (message
  /// window, state window, send cap — ashc::verify_policy), write the
  /// initial state image at `state_addr` in the owner's segment
  /// (4-aligned, Limits::state_bytes long), then install through the
  /// normal download path. Attach with user_arg = state_addr so the
  /// handler's r3 points at its state blob. Returns the ASH id, or -1
  /// with `error` set at whichever stage rejected the rules.
  int download_rules(sim::Process& owner, const ashc::RuleSet& rules,
                     std::uint32_t state_addr, const AshOptions& opts,
                     std::string* error);

  /// Attach a downloaded ASH to an AN2 virtual circuit. Replies via TSend
  /// go out on this device.
  void attach_an2(net::An2Device& dev, int vc, int ash_id,
                  std::uint32_t user_arg = 0);

  /// Attach to an Ethernet/DPF endpoint. The message offered to the
  /// handler is the striped kernel buffer; TDilp with a striped-layout ilp
  /// or TUserCopy (which destripes) moves it out.
  void attach_eth(net::EthernetDevice& dev, int endpoint, int ash_id,
                  std::uint32_t user_arg = 0);

  // ---- smart-NIC offload (net/nic_offload.hpp) ----

  /// The handler's NIC memory-window footprint: sandboxed image bytes
  /// plus fast-mem scratch and DILP persistent registers.
  std::uint32_t nic_footprint(int ash_id) const;

  /// Attach like attach_an2, *and* make the handler NIC-resident on the
  /// device's NicProcessor (dev.set_nic must have been called). Returns
  /// true when the handler fit the NIC memory window — its frames then
  /// execute on device units; false leaves it host-resident (frames are
  /// counted NotResident punts through the normal host hooks installed
  /// here either way, so behaviour is identical minus where cycles land).
  bool offload_an2(net::An2Device& dev, int vc, int ash_id,
                   std::uint32_t user_arg = 0);
  bool offload_eth(net::EthernetDevice& dev, int endpoint, int ash_id,
                   std::uint32_t user_arg = 0);

  /// Receive-livelock guard (Section VI-4): at most `quota` handler runs
  /// per owning process per `window` cycles; beyond that, messages fall
  /// back to the normal path ("refuse to execute any more for processes
  /// receiving more than their share"). The window is accounted per
  /// OWNING PROCESS, so a process cannot multiply its share by installing
  /// more handlers. quota = 0 disables the guard.
  void set_livelock_quota(std::uint32_t quota, sim::Cycles window);

  // ---- multi-tenant isolation (core/tenant.hpp) ----

  /// Wire the tenant scheduler in (nullptr detaches; default). With a
  /// scheduler installed, downloads pass per-tenant buffer/handler
  /// admission, every invocation passes the weighted-fair cycle check,
  /// executed cycles are charged to the owner's account, and
  /// revoke_owner feeds the scheduler so queued work drains.
  void set_tenants(TenantScheduler* tenants) noexcept {
    tenants_ = tenants;
  }
  TenantScheduler* tenants() const noexcept { return tenants_; }

  // ---- supervisor: fault containment, quarantine, revocation ----

  /// Install the containment policy. Disabled by default; with
  /// `cfg.enabled` false the invocation path is untouched.
  void set_supervisor(const SupervisorConfig& cfg);
  const SupervisorConfig& supervisor_config() const noexcept {
    return supervisor_.config();
  }

  /// Containment state of a handler (Healthy unless the supervisor or an
  /// explicit revoke moved it).
  Health health(int ash_id) const;
  const Supervisor::HandlerState& supervisor_state(int ash_id) const;

  /// Detach whatever handler is hooked to this demux point: the device
  /// hook is cleared and the attachment forgotten. Returns false when no
  /// ASH of this system was attached there. Must not be called from
  /// inside the handler's own invocation (revocation, which can fire
  /// there, defers its hook-clearing instead).
  bool detach_an2(net::An2Device& dev, int vc);
  bool detach_eth(net::EthernetDevice& dev, int endpoint);

  /// Permanently revoke a handler: marks it Revoked and clears its device
  /// hooks (deferred through the event queue, so revocation is safe from
  /// inside the handler's own invocation). The id stays valid for stats.
  void revoke(int ash_id);

  /// Revoke every handler owned by `owner`; returns how many were newly
  /// revoked. Fired automatically when the owner's aggregate fault count
  /// crosses SupervisorConfig::owner_fault_limit.
  std::size_t revoke_owner(const sim::Process& owner);

  /// Aggregate involuntary aborts across all handlers this process owns
  /// (counted whether or not the supervisor is enabled).
  std::uint64_t owner_faults(const sim::Process& owner) const;

  /// Messages offered with a stale/invalid ash id: counted and fed back
  /// to the normal delivery path instead of unwinding through the driver.
  std::uint64_t bad_id_fallbacks() const noexcept {
    return bad_id_fallbacks_;
  }

  std::size_t handler_count() const noexcept { return installed_.size(); }

  /// Human-readable status table (per-handler health, abort taxonomy,
  /// last-fault forensics) — what `ashtool status` prints.
  std::string format_status() const;

  const AshStats& stats(int ash_id) const;
  const vcode::Program& program(int ash_id) const;
  const sim::Process& owner(int ash_id) const;

  /// The superblock JIT form built at download time, or nullptr when the
  /// handler was installed on the interpreter.
  const vcode::JitBackend* jit_backend(int ash_id) const;

  /// The backend a handler was resolved to at download time.
  vcode::Backend backend(int ash_id) const;

  /// Uniform execution statistics for the handler's backend (the
  /// interpreter synthesizes runs from the invocation count).
  vcode::BackendStats backend_stats(int ash_id) const;

  /// Delivers one collected TSend at handler completion: (channel, bytes).
  using SendFn = std::function<bool(int, std::span<const std::uint8_t>)>;

  /// Invoke handler `ash_id` on a message, in kernel context. Returns true
  /// if the handler consumed the message (commit). Exposed for tests and
  /// for custom demux points; devices call it through the attach hooks.
  bool invoke(int ash_id, const MsgContext& msg, SendFn send_fn,
              sim::Cycles tx_cost);

  /// Batched invocation for the multi-queue receive path: all messages
  /// share one handler and one demux point. The first dispatched message
  /// pays the full sandbox-entry cost (budget-timer setup + context
  /// install); messages 2..N pay only CostModel::ash_batch_rearm — the
  /// owner's context is already installed and the budget timer is merely
  /// re-armed — and the timer is cleared once per batch.
  ///
  /// Containment is per message: admission (revocation, quarantine,
  /// livelock quota) runs for every message, and a fault on message k
  /// aborts only that run — the supervisor is notified and the remaining
  /// messages still execute (or are denied by the policy it just
  /// triggered). `consumed[i]`, when non-null, is set true for each
  /// committed message; unset messages fall back to the normal path.
  ///
  /// Cycles are charged on `cpu` (the receive queue's CPU), and collected
  /// TSends from all committed messages are released together when the
  /// batch's charged runtime has elapsed.
  void invoke_batch(int ash_id, std::span<const MsgContext> msgs,
                    SendFn send_fn, sim::Cycles tx_cost,
                    const sim::KernelCpu& cpu, bool* consumed);

  /// Run handler `ash_id` on a NIC execution unit (the NicHook body —
  /// exposed for tests). Admission, execution, stats, tenant charging,
  /// and the supervisor all go through the same machinery as the host
  /// paths; only the cycle charge lands on `unit`, under its cost model.
  net::NicExecResult invoke_nic(int ash_id, const MsgContext& msg,
                                SendFn send_fn, sim::Cycles tx_cost,
                                net::NicExecUnit& unit);

 private:
  /// One device hook this handler is attached through (for detach and
  /// revocation-time hook clearing). Exactly one device pointer is set.
  struct Attachment {
    net::An2Device* an2 = nullptr;
    net::EthernetDevice* eth = nullptr;
    int channel = 0;  // VC or endpoint id
  };

  struct Installed {
    sim::Process* owner;
    vcode::Program prog;
    AshOptions opts;
    AshStats stats;
    // Translated form, built once at install (the translate stage);
    // invocation never re-decodes. Null when the resolved
    // AshOptions::backend is the interpreter.
    std::unique_ptr<vcode::JitBackend> jit;
    Supervisor::HandlerState health;
    std::vector<Attachment> attachments;
  };

  /// Livelock window, accounted per owning process (keyed by pid).
  struct LivelockWindow {
    sim::Cycles start = 0;
    std::uint32_t count = 0;
  };

  Installed& at(int ash_id);
  const Installed& at(int ash_id) const;
  /// Non-throwing lookup: nullptr for an invalid id (the receive path
  /// must never unwind through the driver).
  Installed* find(int ash_id) noexcept;

  /// Admission shared by invoke and invoke_batch: bad id, revocation,
  /// quarantine, the tenant cycle quota, and the livelock quota. nullptr
  /// means the message falls back to the normal delivery path (already
  /// counted and traced, with `cpu_id` as the denying CPU); `why`, when
  /// non-null, receives the denial reason so the batch path can
  /// short-circuit a revoked handler's remaining frames.
  Installed* admit(int ash_id, std::uint16_t cpu_id,
                   trace::DenyReason* why = nullptr);

  /// One handler run, shared by invoke and invoke_batch. `dispatch` and
  /// `clear` are the caller's entry/exit charges for THIS message (the
  /// batch path passes the marginal re-arm cost for messages 2..N and
  /// folds the single timer clear in at the end), so `total` is the
  /// marginal share this message adds to the CPU charge. Updates stats,
  /// the fault record, and the supervisor; emits AshDispatch/AshOutcome.
  struct RunResult {
    vcode::Outcome outcome = vcode::Outcome::Halted;
    bool consumed = false;
    sim::Cycles total = 0;      // dispatch + exec cycles + clear
    std::uint64_t insns = 0;
  };
  RunResult run_one(int ash_id, Installed& ash, const MsgContext& msg,
                    AshEnv& env, std::uint16_t cpu_id, sim::Cycles dispatch,
                    sim::Cycles clear);
  /// Clear all device hooks now (caller must not be inside one of them).
  void clear_attachments(Installed& ash);
  /// Mark revoked and schedule the hook-clearing after the current event
  /// (safe from inside the handler's own invocation).
  void revoke_installed(int ash_id, Installed& ash);

  sim::Node& node_;
  dilp::Engine dilp_;
  std::vector<std::unique_ptr<Installed>> installed_;
  std::uint32_t livelock_quota_ = 0;  // 0 = disabled
  sim::Cycles livelock_window_ = 0;
  std::unordered_map<std::uint32_t, LivelockWindow> livelock_by_owner_;
  Supervisor supervisor_;
  TenantScheduler* tenants_ = nullptr;
  std::unordered_map<std::uint32_t, std::uint64_t> faults_by_owner_;
  std::uint64_t bad_id_fallbacks_ = 0;
};

}  // namespace ash::core
