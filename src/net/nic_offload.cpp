#include "net/nic_offload.hpp"

#include <cinttypes>
#include <cstdio>

#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace ash::net {

const char* to_string(PuntReason r) noexcept {
  switch (r) {
    case PuntReason::NotResident: return "not-resident";
    case PuntReason::HostService: return "host-service";
    case PuntReason::Fault: return "fault";
  }
  return "?";
}

NicProcessor::NicProcessor(sim::Node& node, RxQueueSet& host,
                           const NicConfig& cfg)
    : node_(node), host_(&host), cfg_(cfg) {
  if (cfg_.units_per_queue == 0) cfg_.units_per_queue = 1;
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  for (std::size_t q = 0; q < host.size(); ++q) {
    auto nq = std::make_unique<NicQueue>();
    for (std::size_t u = 0; u < cfg_.units_per_queue; ++u) {
      nq->units.push_back(std::make_unique<Unit>(node.add_nic_unit(),
                                                 cfg_.cost, q, u));
    }
    queues_.push_back(std::move(nq));
  }
}

NicProcessor::Resident* NicProcessor::find(const RxSink* sink, int channel) {
  for (Resident& r : residents_) {
    if (r.sink == sink && r.channel == channel) return &r;
  }
  return nullptr;
}

bool NicProcessor::attach(RxSink* sink, int channel,
                          std::uint32_t footprint) {
  if (Resident* prev = find(sink, channel)) {
    // Rebinding an attached channel: give back the old reservation
    // before sizing the new image against the window.
    if (prev->fits) window_used_ -= prev->footprint;
    prev->footprint = footprint;
    prev->fits = footprint <= cfg_.mem_window_bytes - window_used_;
    if (prev->fits) window_used_ += footprint;
    return prev->fits;
  }
  const bool fits = footprint <= cfg_.mem_window_bytes - window_used_;
  if (fits) window_used_ += footprint;
  // A no-fit channel is recorded too: its frames must be *counted*
  // NotResident punts, not silently host-path traffic.
  residents_.push_back(Resident{sink, channel, footprint, fits});
  return fits;
}

void NicProcessor::detach(RxSink* sink, int channel) {
  for (std::size_t i = 0; i < residents_.size(); ++i) {
    Resident& r = residents_[i];
    if (r.sink == sink && r.channel == channel) {
      if (r.fits) window_used_ -= r.footprint;
      residents_.erase(residents_.begin() +
                       static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

bool NicProcessor::resident(const RxSink* sink, int channel) const {
  for (const Resident& r : residents_) {
    if (r.sink == sink && r.channel == channel) return r.fits;
  }
  return false;
}

bool NicProcessor::offer(RxFrame frame) {
  Resident* r = find(frame.sink, frame.channel);
  // Channels never offloaded are not the NIC's business at all — plain
  // host traffic, uncounted here.
  if (r == nullptr) return false;

  const std::size_t qi = host_->config().steering.pick(
      frame.channel, frame.owner, queues_.size());
  NicQueue& q = *queues_[qi];
  ++q.stats.offered;

  if (!r->fits) {
    // Static punt, decided at steer time: the handler is host-resident,
    // so the host path runs it normally (return false). Attributed to
    // the node CPU — no execution unit was ever involved.
    ++q.stats.punted;
    ++q.stats.by_punt_reason[static_cast<std::size_t>(
        PuntReason::NotResident)];
    if (trace::enabled()) {
      trace::global().emit(trace::make_event(
          trace::EventType::OffloadPunt, node_.cpu_id(), node_.now(),
          static_cast<std::int32_t>(qi),
          static_cast<std::uint32_t>(PuntReason::NotResident),
          static_cast<std::uint32_t>(frame.channel)));
    }
    return false;
  }

  // NIC enqueue is the host queues' admission; its drops trace on the
  // queue's first unit.
  if (const auto why = admit_frame(
          frame, q.pending.size() >= cfg_.queue_capacity,
          host_->config().quota, q.units[0]->exec.cpu_id(), qi,
          node_.now())) {
    ++q.stats.dropped;
    ++(*why == RxDropReason::Overflow ? q.stats.overflow_drops
                                      : q.stats.quota_drops);
    return true;
  }

  frame.enqueued_at = node_.now();
  q.pending.push_back(frame);
  pump(qi);
  return true;
}

void NicProcessor::pump(std::size_t qi) {
  NicQueue& q = *queues_[qi];
  for (auto& up : q.units) {
    if (q.pending.empty()) return;
    Unit& u = *up;
    if (u.busy) continue;
    u.busy = true;
    RxFrame f = q.pending.front();
    q.pending.pop_front();
    // Unwind off the device's deliver stack before running the handler
    // (it may TSend, which re-enters the wire). Same-time events
    // run FIFO, so per-channel order is preserved.
    node_.queue().schedule_at(node_.now(),
                              [this, qi, &u, f] { dispatch(qi, u, f); });
  }
}

void NicProcessor::dispatch(std::size_t qi, Unit& u, RxFrame f) {
  NicQueue& q = *queues_[qi];
  // The frame leaves the NIC queue: release the occupancy charged at
  // offer time (host-side bookkeeping, charges nothing).
  if (RxQuota* quota = host_->config().quota) quota->on_dispatched(f.owner);

  Resident* r = find(f.sink, f.channel);
  bool consumed = false;
  PuntReason why = PuntReason::HostService;
  sim::Cycles charged = 0;
  if (r == nullptr || !r->fits) {
    // Released (unbound, revoked) or rebound to an image that no longer
    // fits while parked on-device: nothing may run here; hand the frame
    // back without running anything.
    charged = cfg_.cost.punt_handoff;
    u.exec.work(charged);
  } else {
    // The sink runs whatever the channel is bound to now.
    const NicExecResult res = f.sink->nic_run(f, u.exec);
    consumed = res.consumed;
    if (!consumed) why = res.faulted ? PuntReason::Fault
                                     : PuntReason::HostService;
    charged = res.charged;
    q.stats.replies += res.replies;
  }
  q.stats.nic_cycles += charged;

  if (consumed) {
    ++q.stats.nic_executed;
    if (trace::enabled()) {
      trace::global().emit(trace::make_event(
          trace::EventType::NicExec, u.exec.cpu_id(), node_.now(),
          static_cast<std::int32_t>(qi),
          static_cast<std::uint32_t>(f.channel),
          static_cast<std::uint32_t>(u.exec.unit()), charged));
    }
    f.sink->nic_consumed(f);
  } else {
    ++q.stats.punted;
    ++q.stats.by_punt_reason[static_cast<std::size_t>(why)];
    if (trace::enabled()) {
      trace::global().emit(trace::make_event(
          trace::EventType::OffloadPunt, u.exec.cpu_id(), node_.now(),
          static_cast<std::int32_t>(qi),
          static_cast<std::uint32_t>(why),
          static_cast<std::uint32_t>(f.channel)));
    }
    // The handoff completes when the unit's charge drains; the sink then
    // charges the host-side receive pass on the steered queue's CPU and
    // delivers through the normal (fallback) path. The handler is NOT
    // run again — it already executed at most once, on the device.
    const sim::KernelCpu host_cpu = host_->queue(qi).cpu();
    u.exec.work(0, [f, host_cpu] { f.sink->nic_punt(f, host_cpu); });
  }

  // Free the unit when its backlog drains, then pull the next frame.
  u.exec.work(0, [this, qi, &u] {
    u.busy = false;
    pump(qi);
  });
}

NicProcessor::QueueStats NicProcessor::totals() const {
  QueueStats t;
  for (const auto& q : queues_) {
    const QueueStats& s = q->stats;
    t.offered += s.offered;
    t.nic_executed += s.nic_executed;
    t.punted += s.punted;
    for (std::size_t i = 0; i < t.by_punt_reason.size(); ++i) {
      t.by_punt_reason[i] += s.by_punt_reason[i];
    }
    t.dropped += s.dropped;
    t.overflow_drops += s.overflow_drops;
    t.quota_drops += s.quota_drops;
    t.replies += s.replies;
    t.nic_cycles += s.nic_cycles;
  }
  return t;
}

namespace {
void append_stats_line(std::string& out, const char* label,
                       const NicProcessor::QueueStats& s) {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "  %-6s offered=%" PRIu64 " exec=%" PRIu64 " punt=%" PRIu64
      " (not-resident=%" PRIu64 " host-service=%" PRIu64 " fault=%" PRIu64
      ") drop=%" PRIu64 " replies=%" PRIu64 " device=%" PRIu64 " cyc\n",
      label, s.offered, s.nic_executed, s.punted, s.by_punt_reason[0],
      s.by_punt_reason[1], s.by_punt_reason[2], s.dropped, s.replies,
      s.nic_cycles);
  out += buf;
}

void append_stats_json(std::string& out, const NicProcessor::QueueStats& s) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "{\"offered\":%" PRIu64 ",\"nic_executed\":%" PRIu64
      ",\"punted\":%" PRIu64 ",\"by_punt_reason\":{\"not_resident\":%" PRIu64
      ",\"host_service\":%" PRIu64 ",\"fault\":%" PRIu64
      "},\"dropped\":%" PRIu64 ",\"overflow_drops\":%" PRIu64
      ",\"quota_drops\":%" PRIu64 ",\"replies\":%" PRIu64
      ",\"nic_cyc\":%" PRIu64 "}",
      s.offered, s.nic_executed, s.punted, s.by_punt_reason[0],
      s.by_punt_reason[1], s.by_punt_reason[2], s.dropped, s.overflow_drops,
      s.quota_drops, s.replies, s.nic_cycles);
  out += buf;
}
}  // namespace

std::string NicProcessor::format_summary() const {
  std::string out;
  char buf[256];
  std::size_t fitting = 0;
  for (const Resident& r : residents_) fitting += r.fits ? 1 : 0;
  std::snprintf(buf, sizeof buf,
                "nic offload: %zu queue(s) x %zu unit(s), window %u/%u B, "
                "%zu attached (%zu resident)\n",
                queues_.size(), cfg_.units_per_queue, window_used_,
                cfg_.mem_window_bytes, residents_.size(), fitting);
  out += buf;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "q%u:",
                  static_cast<unsigned>(i));
    append_stats_line(out, label, queues_[i]->stats);
  }
  if (queues_.size() > 1) append_stats_line(out, "total:", totals());
  return out;
}

std::string NicProcessor::summary_json() const {
  std::string out;
  char buf[256];
  std::size_t fitting = 0;
  for (const Resident& r : residents_) fitting += r.fits ? 1 : 0;
  std::snprintf(buf, sizeof buf,
                "{\"queues\":%zu,\"units_per_queue\":%zu,"
                "\"window_bytes\":%u,\"window_used\":%u,"
                "\"attached\":%zu,\"resident\":%zu,\"totals\":",
                queues_.size(), cfg_.units_per_queue, cfg_.mem_window_bytes,
                window_used_, residents_.size(), fitting);
  out += buf;
  append_stats_json(out, totals());
  out += ",\"per_queue\":[";
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (i > 0) out += ',';
    append_stats_json(out, queues_[i]->stats);
  }
  out += "]}";
  return out;
}

}  // namespace ash::net
