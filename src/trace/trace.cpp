#include "trace/trace.hpp"

#include <algorithm>

namespace ash::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::FrameArrival: return "FrameArrival";
    case EventType::DemuxDecision: return "DemuxDecision";
    case EventType::AshDispatch: return "AshDispatch";
    case EventType::AshDenied: return "AshDenied";
    case EventType::VcodeExec: return "VcodeExec";
    case EventType::AshOutcome: return "AshOutcome";
    case EventType::DilpRun: return "DilpRun";
    case EventType::TSendInitiated: return "TSendInitiated";
    case EventType::TUserCopy: return "TUserCopy";
    case EventType::UpcallFallback: return "UpcallFallback";
    case EventType::SupervisorAction: return "SupervisorAction";
    case EventType::RxEnqueue: return "RxEnqueue";
    case EventType::CoalesceFire: return "CoalesceFire";
    case EventType::BatchDispatch: return "BatchDispatch";
    case EventType::RxDrop: return "RxDrop";
    case EventType::NicExec: return "NicExec";
    case EventType::OffloadPunt: return "OffloadPunt";
  }
  return "?";
}

const char* to_string(Engine e) noexcept {
  switch (e) {
    case Engine::None: return "-";
    case Engine::Interp: return "interp";
    case Engine::Jit: return "jit";
  }
  return "?";
}

const char* to_string(DenyReason r) noexcept {
  switch (r) {
    case DenyReason::Quarantined: return "quarantined";
    case DenyReason::Revoked: return "revoked";
    case DenyReason::LivelockQuota: return "livelock-quota";
    case DenyReason::BadId: return "bad-id";
    case DenyReason::CycleQuota: return "cycle-quota";
    case DenyReason::BufferQuota: return "buffer-quota";
    case DenyReason::DownloadQuota: return "download-quota";
  }
  return "?";
}

const char* to_string(SupAction a) noexcept {
  switch (a) {
    case SupAction::Quarantine: return "quarantine";
    case SupAction::Revoke: return "revoke";
  }
  return "?";
}

std::uint64_t Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the target observation, 1-based, deterministic rounding up.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             (p / 100.0) * static_cast<double>(count_) + 0.9999999));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_hi(i);
  }
  return max_;
}

Context& context() noexcept {
  thread_local Context ctx;
  return ctx;
}

Tracer& global() {
  static Tracer tracer;
  return tracer;
}

namespace {
std::uint32_t round_pow2(std::uint32_t v) {
  if (v < 2) return 2;
  std::uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}
}  // namespace

void Tracer::enable(const TracerConfig& cfg) {
  detail::g_enabled.store(false, std::memory_order_relaxed);
  cfg_ = cfg;
  cfg_.ring_capacity = round_pow2(cfg.ring_capacity);
  if (cfg_.max_cpus == 0) cfg_.max_cpus = 1;
  rings_.clear();
  rings_ = std::vector<Ring>(cfg_.max_cpus);
  for (Ring& r : rings_) {
    r.slots.assign(cfg_.ring_capacity, Event{});
    r.mask = cfg_.ring_capacity - 1;
  }
  ash_m_.assign(cfg_.max_ash_ids + 1, AshMetrics{});
  chan_m_.assign(cfg_.max_channels + 1, ChannelMetrics{});
  queue_m_.assign(cfg_.max_queues + 1, QueueMetrics{});
  engine_m_ = {};
  type_counts_ = {};
  max_ash_slot_ = -1;
  max_chan_slot_ = -1;
  max_queue_slot_ = -1;
  clamped_cpus_.store(0, std::memory_order_relaxed);
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::clear() {
  for (Ring& r : rings_) {
    r.emitted.store(0, std::memory_order_relaxed);
    r.dropped.store(0, std::memory_order_relaxed);
  }
  for (AshMetrics& m : ash_m_) m = AshMetrics{};
  for (ChannelMetrics& m : chan_m_) m = ChannelMetrics{};
  for (QueueMetrics& m : queue_m_) m = QueueMetrics{};
  engine_m_ = {};
  type_counts_ = {};
  max_ash_slot_ = -1;
  max_chan_slot_ = -1;
  max_queue_slot_ = -1;
  clamped_cpus_.store(0, std::memory_order_relaxed);
}

AshMetrics& Tracer::ash_slot(std::int32_t id) noexcept {
  // Negative or out-of-range ids share the overflow slot (the last one).
  std::size_t idx = ash_m_.size() - 1;
  if (id >= 0 && static_cast<std::size_t>(id) < ash_m_.size() - 1) {
    idx = static_cast<std::size_t>(id);
  }
  if (static_cast<std::int32_t>(idx) > max_ash_slot_) {
    max_ash_slot_ = static_cast<std::int32_t>(idx);
  }
  return ash_m_[idx];
}

ChannelMetrics& Tracer::chan_slot(std::int32_t id) noexcept {
  std::size_t idx = chan_m_.size() - 1;
  if (id >= 0 && static_cast<std::size_t>(id) < chan_m_.size() - 1) {
    idx = static_cast<std::size_t>(id);
  }
  if (static_cast<std::int32_t>(idx) > max_chan_slot_) {
    max_chan_slot_ = static_cast<std::int32_t>(idx);
  }
  return chan_m_[idx];
}

QueueMetrics& Tracer::queue_slot(std::int32_t id) noexcept {
  std::size_t idx = queue_m_.size() - 1;
  if (id >= 0 && static_cast<std::size_t>(id) < queue_m_.size() - 1) {
    idx = static_cast<std::size_t>(id);
  }
  if (static_cast<std::int32_t>(idx) > max_queue_slot_) {
    max_queue_slot_ = static_cast<std::int32_t>(idx);
  }
  return queue_m_[idx];
}

const AshMetrics& Tracer::ash_metrics(std::int32_t id) const noexcept {
  std::size_t idx = ash_m_.size() - 1;
  if (id >= 0 && static_cast<std::size_t>(id) < ash_m_.size() - 1) {
    idx = static_cast<std::size_t>(id);
  }
  return ash_m_[idx];
}

const ChannelMetrics& Tracer::channel_metrics(std::int32_t id) const noexcept {
  std::size_t idx = chan_m_.size() - 1;
  if (id >= 0 && static_cast<std::size_t>(id) < chan_m_.size() - 1) {
    idx = static_cast<std::size_t>(id);
  }
  return chan_m_[idx];
}

const QueueMetrics& Tracer::queue_metrics(std::int32_t id) const noexcept {
  std::size_t idx = queue_m_.size() - 1;
  if (id >= 0 && static_cast<std::size_t>(id) < queue_m_.size() - 1) {
    idx = static_cast<std::size_t>(id);
  }
  return queue_m_[idx];
}

void Tracer::aggregate(const Event& ev) {
  ++type_counts_[static_cast<std::size_t>(ev.type)];
  switch (ev.type) {
    case EventType::FrameArrival: {
      ChannelMetrics& c = chan_slot(ev.id);
      ++c.frames;
      c.bytes += ev.arg0;
      c.frame_bytes.observe(ev.arg0);
      break;
    }
    case EventType::DemuxDecision: {
      ChannelMetrics& c = chan_slot(ev.id);
      ++c.demux_decisions;
      c.demux_cycles += ev.cycles;
      break;
    }
    case EventType::AshDispatch:
      ++ash_slot(ev.id).dispatches;
      break;
    case EventType::AshDenied: {
      AshMetrics& m = ash_slot(ev.id);
      ++m.denials;
      if (ev.arg0 < m.denial_reasons.size()) ++m.denial_reasons[ev.arg0];
      break;
    }
    case EventType::VcodeExec: {
      EngineMetrics& e = engine_m_[static_cast<std::size_t>(ev.engine)];
      ++e.runs;
      e.insns += ev.insns;
      e.cycles += ev.cycles;
      break;
    }
    case EventType::AshOutcome: {
      AshMetrics& m = ash_slot(ev.id);
      ++m.outcomes;
      m.consumed += ev.arg1 != 0 ? 1 : 0;
      if (ev.arg0 < kMaxOutcomes) ++m.by_outcome[ev.arg0];
      m.latency.observe(ev.cycles);
      m.cycles += ev.cycles;
      m.insns += ev.insns;
      break;
    }
    case EventType::DilpRun: {
      AshMetrics& m = ash_slot(ev.id);
      ++m.dilp_runs;
      m.bytes_vectored += ev.arg0;
      m.vector_bytes.observe(ev.arg0);
      m.exec_cycles.observe(ev.cycles);
      break;
    }
    case EventType::TSendInitiated: {
      AshMetrics& m = ash_slot(ev.id);
      ++m.sends;
      m.bytes_vectored += ev.arg0;
      m.vector_bytes.observe(ev.arg0);
      break;
    }
    case EventType::TUserCopy: {
      AshMetrics& m = ash_slot(ev.id);
      ++m.usercopies;
      m.bytes_vectored += ev.arg0;
      m.vector_bytes.observe(ev.arg0);
      break;
    }
    case EventType::UpcallFallback:
      ++chan_slot(ev.id).fallbacks;
      break;
    case EventType::SupervisorAction: {
      AshMetrics& m = ash_slot(ev.id);
      if (ev.arg0 == static_cast<std::uint32_t>(SupAction::Revoke)) {
        ++m.supervisor_revokes;
      } else {
        ++m.supervisor_quarantines;
      }
      break;
    }
    case EventType::RxEnqueue: {
      QueueMetrics& q = queue_slot(ev.id);
      ++q.frames;
      q.depth.observe(ev.arg1);
      break;
    }
    case EventType::CoalesceFire: {
      QueueMetrics& q = queue_slot(ev.id);
      ++q.batches;
      if (ev.arg1 < q.by_reason.size()) ++q.by_reason[ev.arg1];
      q.batch_frames.observe(ev.arg0);
      q.charged_cycles += ev.cycles;
      break;
    }
    case EventType::BatchDispatch: {
      AshMetrics& m = ash_slot(ev.id);
      ++m.batches;
      m.batch_msgs.observe(ev.arg1);
      break;
    }
    case EventType::RxDrop: {
      QueueMetrics& q = queue_slot(ev.id);
      ++q.drops;
      if (ev.arg1 < q.by_drop_reason.size()) ++q.by_drop_reason[ev.arg1];
      break;
    }
    case EventType::NicExec: {
      QueueMetrics& q = queue_slot(ev.id);
      ++q.nic_executed;
      q.nic_cycles += ev.cycles;
      break;
    }
    case EventType::OffloadPunt: {
      QueueMetrics& q = queue_slot(ev.id);
      ++q.punts;
      if (ev.arg0 < q.by_punt_reason.size()) ++q.by_punt_reason[ev.arg0];
      break;
    }
  }
  // Exec-cycle distribution rides the per-run outcome record.
  if (ev.type == EventType::VcodeExec && ev.id >= 0) {
    ash_slot(ev.id).exec_cycles.observe(ev.cycles);
  }
}

void Tracer::emit(Event ev) {
  if (rings_.empty()) return;
  std::uint16_t cpu = ev.cpu;
  if (cpu >= rings_.size()) {
    clamped_cpus_.fetch_add(1, std::memory_order_relaxed);
    cpu = static_cast<std::uint16_t>(rings_.size() - 1);
    ev.cpu = cpu;
  }
  Ring& r = rings_[cpu];
  const std::uint64_t n = r.emitted.load(std::memory_order_relaxed);
  ev.seq = n;
  aggregate(ev);
  if (n >= r.slots.size()) {
    if (!cfg_.overwrite) {
      // Drop-newest: the ring is full and frozen; count the loss.
      r.dropped.fetch_add(1, std::memory_order_relaxed);
      r.emitted.store(n + 1, std::memory_order_relaxed);
      return;
    }
    // Overwrite-oldest: the slot we claim held event n - capacity.
    r.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  r.slots[static_cast<std::size_t>(n) & r.mask] = ev;
  r.emitted.store(n + 1, std::memory_order_relaxed);
}

void Tracer::emit_ctx(EventType type, Engine engine, std::uint32_t arg0,
                      std::uint32_t arg1, std::uint64_t cycles,
                      std::uint64_t insns) {
  const Context& ctx = context();
  Event ev;
  ev.time = ctx.time;
  ev.cpu = ctx.cpu;
  ev.id = ctx.id;
  ev.type = type;
  ev.engine = engine;
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  ev.cycles = cycles;
  ev.insns = insns;
  emit(ev);
}

std::uint64_t Tracer::emitted(std::uint16_t cpu) const noexcept {
  if (cpu >= rings_.size()) return 0;
  return rings_[cpu].emitted.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::dropped(std::uint16_t cpu) const noexcept {
  if (cpu >= rings_.size()) return 0;
  return rings_[cpu].dropped.load(std::memory_order_relaxed);
}

std::vector<Event> Tracer::events(std::uint16_t cpu) const {
  std::vector<Event> out;
  if (cpu >= rings_.size()) return out;
  const Ring& r = rings_[cpu];
  const std::uint64_t n = r.emitted.load(std::memory_order_relaxed);
  const std::uint64_t cap = r.slots.size();
  std::uint64_t first = 0;
  std::uint64_t retained = n;
  if (n > cap) {
    if (cfg_.overwrite) {
      first = n - cap;
      retained = cap;
    } else {
      retained = cap;  // drop-newest froze the first `cap` events
    }
  }
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = 0; i < retained; ++i) {
    out.push_back(r.slots[static_cast<std::size_t>(first + i) & r.mask]);
  }
  return out;
}

std::vector<Event> Tracer::all_events() const {
  std::vector<Event> out;
  for (std::uint16_t cpu = 0; cpu < rings_.size(); ++cpu) {
    const std::vector<Event> e = events(cpu);
    out.insert(out.end(), e.begin(), e.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.cpu != b.cpu) return a.cpu < b.cpu;
                     return a.seq < b.seq;
                   });
  return out;
}

}  // namespace ash::trace
