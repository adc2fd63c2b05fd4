// ashtrace — zero-allocation, per-CPU ring-buffer tracing and metrics for
// the kernel receive path.
//
// The paper's argument is quantitative (per-message cycle budgets for
// demux, sandbox overhead, DILP traversals, ASH aborts), but until now the
// repo could only observe those numbers through one-off bench binaries.
// This layer gives the hot path first-class, typed trace events:
//
//   FrameArrival -> DemuxDecision -> AshDispatch -> VcodeExec ->
//   AshOutcome (plus TSendInitiated / DilpRun / TUserCopy from inside the
//   handler, AshDenied / SupervisorAction around it, and UpcallFallback
//   when the message takes the normal delivery path instead).
//
// Design constraints, in order:
//
//  1. *Disabled is free.* Every instrumentation site is guarded by
//     `trace::enabled()`, an inline relaxed load of one global atomic
//     bool — a single predicted-not-taken branch when tracing is off.
//     The tracer is an observer only: it NEVER charges simulated cycles,
//     so all bench outputs are byte-identical with tracing on or off;
//     enabling it costs host wall-clock only (measured by
//     `bench_ablations --trace`).
//
//  2. *Zero allocation on the emit path.* Rings and metric slots are
//     allocated once at enable(); emit() writes one fixed-size Event into
//     a preallocated per-CPU ring and bumps plain counters. A full ring
//     either overwrites the oldest event (flight-recorder mode, default)
//     or drops the newest; either way the loss is counted, never silent:
//     emitted(cpu) == events(cpu).size() + dropped(cpu) always holds.
//
//  3. *Single writer per ring.* The simulation is single-threaded; each
//     CPU's ring is written only by the thread driving that simulator.
//     Cross-thread observers may read the atomic emitted/dropped counters
//     and the enabled flag at any time; reading ring contents or metric
//     aggregates requires the writer to be quiescent (test harnesses join
//     the writer first). This is the same single-writer discipline
//     AshStats and FaultCounters follow.
//
// "Per CPU" maps to per sim::Node (the simulator gives every node a small
// dense cpu id). Code with no node in scope — the VCODE engines, which are
// simulation-agnostic — emits through a thread-local Context that the
// dispatch path (AshSystem::invoke) fills in, so engine events are
// attributed to the right CPU, simulated time, and handler id.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "trace/metrics.hpp"

namespace ash::trace {

enum class EventType : std::uint8_t {
  FrameArrival,     // id=channel, arg0=len, arg1=NicKind
  DemuxDecision,    // id=winning channel (-1 unmatched), arg0=nodes/atoms
                    //   visited, arg1=NicKind, cycles=demux cost
  AshDispatch,      // id=ash, arg0=msg len, arg1=channel
  AshDenied,        // id=ash, arg0=DenyReason
  VcodeExec,        // id=Context::id at emit, arg0=vcode outcome,
                    //   engine-tagged, cycles/insns of the run
  AshOutcome,       // id=ash, arg0=vcode outcome, arg1=consumed,
                    //   cycles=dispatch+exec+timer total, insns of run
  DilpRun,          // id=Context::id (-1 standalone), arg0=len,
                    //   arg1=ilp id, cycles of the fused loop
  TSendInitiated,   // id=Context::id, arg0=len, arg1=channel, cycles=tx
  TUserCopy,        // id=Context::id, arg0=len, cycles of the copy
  UpcallFallback,   // id=channel, arg0=NicKind
  SupervisorAction, // id=ash, arg0=SupAction
  // Multi-queue receive path (appended so older numeric ids stay stable):
  RxEnqueue,        // id=rx queue, arg0=channel, arg1=depth after enqueue
  CoalesceFire,     // id=rx queue, arg0=frames in batch, arg1=FireReason,
                    //   cycles=entry+driver charge for the batch
  BatchDispatch,    // id=ash, arg0=msgs offered, arg1=msgs executed,
                    //   cycles=batch total charge, insns=batch total
  // Multi-tenant isolation (appended; older numeric ids stay stable):
  RxDrop,           // id=rx queue, arg0=owner pid (0 unowned),
                    //   arg1=net::RxDropReason, insns=channel
  // Smart-NIC offload (appended; older numeric ids stay stable):
  NicExec,          // id=rx queue, arg0=channel, arg1=unit index,
                    //   cycles=device cycles charged for the run
  OffloadPunt,      // id=rx queue, arg0=net::PuntReason, arg1=channel
};
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::OffloadPunt) + 1;
const char* to_string(EventType t) noexcept;

/// Which engine produced a VcodeExec event.
enum class Engine : std::uint8_t { None, Interp, Jit };
inline constexpr std::size_t kEngineCount = 3;
const char* to_string(Engine e) noexcept;

/// FrameArrival / DemuxDecision / UpcallFallback source device.
enum class NicKind : std::uint8_t { An2, Ethernet };

/// Why AshDenied fired (arg0). The tenant reasons are appended so the
/// original four keep their numeric ids (metric arrays index by value).
enum class DenyReason : std::uint8_t {
  Quarantined,
  Revoked,
  LivelockQuota,
  BadId,
  // Multi-tenant admission (core::TenantScheduler):
  CycleQuota,     // weighted-fair cycle account exhausted
  BufferQuota,    // kernel buffer-pool share exhausted at download
  DownloadQuota,  // per-tenant handler-count cap hit at download
};
inline constexpr std::size_t kDenyReasonCount =
    static_cast<std::size_t>(DenyReason::DownloadQuota) + 1;
const char* to_string(DenyReason r) noexcept;

/// SupervisorAction payload (arg0).
enum class SupAction : std::uint8_t { Quarantine, Revoke };
const char* to_string(SupAction a) noexcept;

/// One fixed-size trace record (48 bytes). `time` is simulated cycles at
/// emit; `seq` is the per-CPU emission index (monotonic from 0, assigned
/// by the ring — gaps never occur, so seq also proves ordering).
struct Event {
  std::uint64_t time = 0;
  std::uint64_t seq = 0;
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::int32_t id = -1;
  std::uint32_t arg0 = 0;
  std::uint32_t arg1 = 0;
  EventType type = EventType::FrameArrival;
  Engine engine = Engine::None;
  std::uint16_t cpu = 0;
};

struct TracerConfig {
  /// Events retained per CPU; rounded up to a power of two.
  std::uint32_t ring_capacity = 1u << 14;
  /// Per-CPU rings allocated at enable(); higher cpu ids clamp to the
  /// last ring (counted in `clamped_cpus`).
  std::uint16_t max_cpus = 4;
  /// Per-ASH / per-channel metric slots; ids beyond the range share one
  /// overflow slot (again: counted, never silent).
  std::uint32_t max_ash_ids = 64;
  std::uint32_t max_channels = 64;
  /// Per-rx-queue metric slots (RxEnqueue / CoalesceFire aggregation).
  std::uint32_t max_queues = 16;
  /// true: overwrite the oldest event when full (flight recorder).
  /// false: drop the newest. Both maintain the occupancy invariant.
  bool overwrite = true;
};

/// Thread-local emission context. The dispatch path sets it (cheaply,
/// only when tracing is on) so that sim-agnostic code — the VCODE
/// engines, AshEnv trusted calls — emits events attributed to the right
/// CPU / simulated time / handler.
struct Context {
  std::uint16_t cpu = 0;
  std::uint64_t time = 0;
  std::int32_t id = -1;  // ash id being dispatched, or -1
};
Context& context() noexcept;

/// RAII context save/restore around one handler dispatch (nested engine
/// runs — a DILP loop inside an ASH — restore the outer context).
class ScopedContext {
 public:
  ScopedContext(std::uint16_t cpu, std::uint64_t time, std::int32_t id)
      : saved_(context()) {
    context() = Context{cpu, time, id};
  }
  ~ScopedContext() { context() = saved_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The one hot-path check: a relaxed atomic load, inlined everywhere.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  /// Allocate rings and metric slots, then open the gate. Re-enabling
  /// resets everything.
  void enable(const TracerConfig& cfg = {});
  /// Close the gate. Rings and metrics stay readable until enable().
  void disable();

  const TracerConfig& config() const noexcept { return cfg_; }

  /// Append one event (fills time/cpu from the thread-local Context when
  /// the caller left them zero-default via emit_ctx). Single writer per
  /// cpu; see the header comment.
  void emit(Event ev);

  /// Emit with cpu/time taken from the thread-local Context — the form
  /// used by sim-agnostic code (VCODE engines, AshEnv).
  void emit_ctx(EventType type, Engine engine, std::uint32_t arg0,
                std::uint32_t arg1, std::uint64_t cycles,
                std::uint64_t insns);

  /// Drop all recorded events and aggregates, keep the configuration and
  /// the enabled state (differential tests isolate runs with this).
  void clear();

  // ---- readers (writer must be quiescent, except the counters) ----

  std::uint16_t cpus() const noexcept {
    return static_cast<std::uint16_t>(rings_.size());
  }
  /// Events ever offered to cpu's ring (atomic; readable any time).
  std::uint64_t emitted(std::uint16_t cpu) const noexcept;
  /// Events lost to overwrite/drop (atomic; readable any time).
  std::uint64_t dropped(std::uint16_t cpu) const noexcept;
  /// Emissions whose cpu id exceeded max_cpus (clamped to last ring).
  std::uint64_t clamped_cpus() const noexcept {
    return clamped_cpus_.load(std::memory_order_relaxed);
  }

  /// Retained events of one cpu, oldest first (copy).
  std::vector<Event> events(std::uint16_t cpu) const;
  /// All retained events merged across cpus, (time, cpu, seq)-ordered.
  std::vector<Event> all_events() const;

  /// Per-handler aggregates; id out of range returns the overflow slot.
  const AshMetrics& ash_metrics(std::int32_t id) const noexcept;
  /// Per-demux-channel aggregates (VC / Ethernet endpoint).
  const ChannelMetrics& channel_metrics(std::int32_t id) const noexcept;
  /// Per-rx-queue aggregates (multi-queue receive path).
  const QueueMetrics& queue_metrics(std::int32_t id) const noexcept;
  /// Highest slot index that saw traffic, or -1 (for report iteration).
  std::int32_t max_ash_slot() const noexcept { return max_ash_slot_; }
  std::int32_t max_channel_slot() const noexcept { return max_chan_slot_; }
  std::int32_t max_queue_slot() const noexcept { return max_queue_slot_; }
  /// Per-engine execution totals (interp vs JIT).
  const EngineMetrics& engine_metrics(Engine e) const noexcept {
    return engine_m_[static_cast<std::size_t>(e)];
  }
  /// Events seen per type (conservation checks).
  std::uint64_t type_count(EventType t) const noexcept {
    return type_counts_[static_cast<std::size_t>(t)];
  }

 private:
  struct Ring {
    std::vector<Event> slots;     // capacity, power of two
    std::uint32_t mask = 0;
    std::atomic<std::uint64_t> emitted{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  void aggregate(const Event& ev);
  AshMetrics& ash_slot(std::int32_t id) noexcept;
  ChannelMetrics& chan_slot(std::int32_t id) noexcept;
  QueueMetrics& queue_slot(std::int32_t id) noexcept;

  TracerConfig cfg_;
  std::vector<Ring> rings_;
  std::vector<AshMetrics> ash_m_;     // size max_ash_ids + 1 (overflow)
  std::vector<ChannelMetrics> chan_m_;
  std::vector<QueueMetrics> queue_m_;  // size max_queues + 1 (overflow)
  std::array<EngineMetrics, kEngineCount> engine_m_{};
  std::array<std::uint64_t, kEventTypeCount> type_counts_{};
  std::int32_t max_ash_slot_ = -1;
  std::int32_t max_chan_slot_ = -1;
  std::int32_t max_queue_slot_ = -1;
  std::atomic<std::uint64_t> clamped_cpus_{0};
};

/// The process-wide tracer every instrumentation site feeds.
Tracer& global();

/// Convenience builder for sim-aware instrumentation sites (the caller
/// knows its Node, hence cpu and simulated time).
inline Event make_event(EventType type, std::uint16_t cpu,
                        std::uint64_t time, std::int32_t id,
                        std::uint32_t arg0 = 0, std::uint32_t arg1 = 0,
                        std::uint64_t cycles = 0,
                        std::uint64_t insns = 0) noexcept {
  Event ev;
  ev.type = type;
  ev.cpu = cpu;
  ev.time = time;
  ev.id = id;
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  ev.cycles = cycles;
  ev.insns = insns;
  return ev;
}

/// RAII enable/disable for tests and benches.
class Session {
 public:
  explicit Session(const TracerConfig& cfg = {}) { global().enable(cfg); }
  ~Session() { global().disable(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Tracer* operator->() const noexcept { return &global(); }
};

}  // namespace ash::trace
