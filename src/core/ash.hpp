// The ASH system — the paper's primary contribution.
//
// Application-specific safe message handlers are user-written VCODE
// routines, downloaded into the (simulated) kernel, verified and — unless
// the application is kernel-trusted — SFI-sandboxed, then attached to a
// demultiplexing point (an AN2 virtual circuit or an Ethernet/DPF
// endpoint). When a message for that point arrives, the handler runs in
// kernel context, in the address-space of its owning process, before any
// scheduling decision. The demux point's binding (net::RxPort) is the one
// record of which handler runs there — on a host CPU or, when the port
// has a smart NIC, on a device unit:
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
#include "net/nic_offload.hpp"
#include "net/rx_port.hpp"
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
/// runs AshSystem::dispatch. Readers are either that same thread (ashtool,
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

class AshSystem : public net::RxHandlers {
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

  /// Attach a downloaded ASH to a port's channel (an AN2 VC or an
  /// Ethernet/DPF endpoint): bind the channel to (ash_id, user_arg). The
  /// message the handler sees is the port's logical view (striping
  /// resolved by the kernel); replies via TSend go out on the port. Every
  /// host arrival — inline (a session of one on the main CPU) or a fired
  /// RX queue batch — runs inside a dispatch session. A channel has one
  /// binding, kept by the port alone: attaching replaces whatever was
  /// bound there before. On a port with a NicProcessor (set_nic before
  /// the attach) the binding also reserves nic_footprint in the NIC
  /// window; returns whether the handler ended up NIC-resident. One that
  /// does not fit stays host-resident, its frames counted NotResident
  /// punts, so behaviour is identical minus where the cycles land.
  bool attach(net::RxPort& port, int channel, int ash_id,
              std::uint32_t user_arg = 0);

  /// Forwarder to attach(), kept only because bench/suite/am_mix.cpp and
  /// bench/suite/tenant_flood.cpp call it; it goes with their next change.
  void attach_an2(net::An2Device& dev, int vc, int ash_id,
                  std::uint32_t user_arg = 0) {
    attach(dev, vc, ash_id, user_arg);
  }

  // ---- smart-NIC offload (net/nic_offload.hpp) ----

  /// The handler's NIC memory-window footprint: sandboxed image bytes
  /// plus fast-mem scratch and DILP persistent registers.
  std::uint32_t nic_footprint(int ash_id) const override;

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

  /// Detach whatever handler of this system is bound to this demux
  /// point: the port's binding (and with it any NIC residency) is
  /// cleared. Returns false when the binding does not name this system.
  /// Must not be called from inside a dispatch session (revocation, which
  /// can fire there, defers its unbinding instead).
  bool detach(net::RxPort& port, int channel);

  /// Permanently revoke a handler: marks it Revoked and asks every port
  /// attach bound on to clear each binding that names it (deferred
  /// through the event queue, so the rest of the current dispatch session
  /// still sees the binding). The id stays valid for stats.
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

  /// Invoke handler `ash_id` on one message on the node's main CPU: a
  /// dispatch session of one. Returns true if the handler consumed the
  /// message (commit). For tests, tools and custom demux points.
  bool invoke(int ash_id, const MsgContext& msg, SendFn send_fn,
              sim::Cycles tx_cost);

  // net::RxHandlers — a bound channel's run inside a dispatch session.
  void run_in_session(net::RxSession& s, net::RxPort& port,
                      const net::RxBinding& b,
                      std::span<const net::RxFrame> frames, bool last,
                      bool* consumed) override;
  /// Pays the timer clear if the last run did not carry it, and emits the
  /// session's one BatchDispatch.
  void close_session(net::RxSession& s) override;
  /// A NIC-resident channel's frame: one message dispatched on the unit.
  net::NicExecResult run_on_nic(net::RxPort& port, const net::RxBinding& b,
                                const net::RxFrame& frame,
                                net::NicExecUnit& unit) override;

 private:
  /// Where a dispatch charges its cycles; the calling path chooses.
  struct ChargePolicy {
    /// Host: one run of a dispatch session, charged on the session's CPU
    /// (the node's main CPU inline, an RX queue's otherwise). The
    /// session's first executed message pays the sandbox entry
    /// (budget-timer setup + context install); each later one pays
    /// CostModel::ash_batch_rearm, plus a context install when its owner
    /// differs from the previous executed message's. A prebound handler
    /// never pays the install. The session pays one timer clear, carried
    /// by the `last` run's charge when that run charges anything.
    net::RxSession* session = nullptr;
    bool last = false;
    /// NIC: a handler execution unit. Each message pays clock-scaled
    /// execution plus the unit's dispatch, reply_issue per reply, and
    /// punt_handoff when it is denied or not consumed — none of the
    /// host's entry/exit charges.
    net::NicExecUnit* unit = nullptr;

    static ChargePolicy host(net::RxSession& s, bool last) {
      return {&s, last, nullptr};
    }
    static ChargePolicy nic(net::NicExecUnit& unit) {
      return {nullptr, false, &unit};
    }
  };

  /// What a dispatch did, beyond the per-message consumed flags.
  struct DispatchResult {
    std::uint32_t faults = 0;   // involuntary aborts
    std::uint32_t replies = 0;  // TSends released
    sim::Cycles charged = 0;    // cycles charged under the policy
  };

  /// Run handler `ash_id` over messages that share one demux point, in
  /// kernel context — the one path every arrival takes (a run of a host
  /// dispatch session, or one message on a NIC unit). Containment is per
  /// message: admission (revocation, quarantine, tenant cycle quota,
  /// livelock quota) runs for every message, and a fault on message k
  /// aborts only that run — the supervisor is notified and the remaining
  /// messages still execute (or are denied by the policy it just
  /// triggered). `consumed[i]` is set true for each committed message;
  /// unset messages fall back to the normal path. The run is charged
  /// once, under `policy`, and the TSends of every committed message are
  /// released together when that charge completes — replies never precede
  /// the work that produced them.
  DispatchResult dispatch(int ash_id, std::span<const MsgContext> msgs,
                          SendFn send_fn, sim::Cycles tx_cost,
                          const ChargePolicy& policy, bool* consumed);

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

  /// Per-message admission: bad id, revocation, quarantine, the tenant
  /// cycle quota, and the livelock quota. nullptr means the message falls
  /// back to the normal delivery path (already counted and traced, with
  /// `cpu_id` as the denying CPU); `why`, when non-null, receives the
  /// denial reason so dispatch can drain a revoked handler's remaining
  /// messages.
  Installed* admit(int ash_id, std::uint16_t cpu_id,
                   trace::DenyReason* why = nullptr);

  /// One handler run. `entry` is the host entry charge for THIS message
  /// (the sandbox entry for a session's first, the re-arm plus any
  /// context install for the rest, 0 on a NIC unit), so `total` is the
  /// share this message adds to the charge before the policy's per-run
  /// terms. Updates stats, the fault
  /// record, and the supervisor; emits AshDispatch/AshOutcome.
  struct RunResult {
    vcode::Outcome outcome = vcode::Outcome::Halted;
    bool consumed = false;
    sim::Cycles total = 0;      // entry + exec cycles
    std::uint64_t insns = 0;
  };
  RunResult run_one(int ash_id, Installed& ash, const MsgContext& msg,
                    AshEnv& env, std::uint16_t cpu_id, sim::Cycles entry);
  /// Mark revoked and schedule the unbinding after the current event
  /// (safe from inside a session).
  void revoke_installed(int ash_id, Installed& ash);

  sim::Node& node_;
  dilp::Engine dilp_;
  std::vector<std::unique_ptr<Installed>> installed_;
  /// Every port attach bound on; revocation unbinds through them, so each
  /// must outlive this system.
  std::vector<net::RxPort*> ports_;
  std::uint32_t livelock_quota_ = 0;  // 0 = disabled
  sim::Cycles livelock_window_ = 0;
  std::unordered_map<std::uint32_t, LivelockWindow> livelock_by_owner_;
  Supervisor supervisor_;
  TenantScheduler* tenants_ = nullptr;
  std::unordered_map<std::uint32_t, std::uint64_t> faults_by_owner_;
  std::uint64_t bad_id_fallbacks_ = 0;
  std::vector<MsgContext> msgs_;  // a run's messages, reused
};

}  // namespace ash::core
