#include "trace/format.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace ash::trace {

namespace {

OutcomeNamer g_namer = nullptr;

/// Append printf-formatted text to `out` (all formatting funnels here).
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

std::string outcome_name(std::uint32_t code) {
  if (g_namer != nullptr) return g_namer(code);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u", code);
  return buf;
}

/// Mirrors net::FireReason (trace sits below net in the link order).
const char* fire_reason_name(std::uint32_t r) {
  static const char* kNames[] = {"immediate", "full", "timer", "poll"};
  return r < 4 ? kNames[r] : "?";
}

/// Mirrors net::PuntReason (same layering constraint).
const char* punt_reason_name(std::uint32_t r) {
  static const char* kNames[] = {"not-resident", "host-service", "fault"};
  return r < 3 ? kNames[r] : "?";
}

void append_event_body(std::string& out, const Event& ev) {
  switch (ev.type) {
    case EventType::FrameArrival:
      appendf(out, "ch=%d len=%u nic=%s", ev.id, ev.arg0,
              ev.arg1 == 0 ? "an2" : "eth");
      break;
    case EventType::DemuxDecision:
      appendf(out, "ch=%d visited=%u nic=%s cost=%" PRIu64 " cyc", ev.id,
              ev.arg0, ev.arg1 == 0 ? "an2" : "eth", ev.cycles);
      break;
    case EventType::AshDispatch:
      appendf(out, "ash=%d len=%u ch=%u", ev.id, ev.arg0, ev.arg1);
      break;
    case EventType::AshDenied:
      appendf(out, "ash=%d reason=%s", ev.id,
              to_string(static_cast<DenyReason>(ev.arg0)));
      break;
    case EventType::VcodeExec:
      appendf(out, "id=%d outcome=%s insns=%" PRIu64 " cycles=%" PRIu64
              " cyc", ev.id, outcome_name(ev.arg0).c_str(), ev.insns,
              ev.cycles);
      break;
    case EventType::AshOutcome:
      appendf(out, "ash=%d outcome=%s consumed=%u insns=%" PRIu64
              " total=%" PRIu64 " cyc", ev.id,
              outcome_name(ev.arg0).c_str(), ev.arg1, ev.insns, ev.cycles);
      break;
    case EventType::DilpRun:
      appendf(out, "ash=%d ilp=%u len=%u cycles=%" PRIu64 " cyc", ev.id,
              ev.arg1, ev.arg0, ev.cycles);
      break;
    case EventType::TSendInitiated:
      appendf(out, "ash=%d ch=%u len=%u tx=%" PRIu64 " cyc", ev.id,
              ev.arg1, ev.arg0, ev.cycles);
      break;
    case EventType::TUserCopy:
      appendf(out, "ash=%d len=%u cycles=%" PRIu64 " cyc", ev.id, ev.arg0,
              ev.cycles);
      break;
    case EventType::UpcallFallback:
      appendf(out, "ch=%d nic=%s", ev.id, ev.arg0 == 0 ? "an2" : "eth");
      break;
    case EventType::SupervisorAction:
      appendf(out, "ash=%d action=%s", ev.id,
              to_string(static_cast<SupAction>(ev.arg0)));
      break;
    case EventType::RxEnqueue:
      appendf(out, "queue=%d ch=%u depth=%u", ev.id, ev.arg0, ev.arg1);
      break;
    case EventType::CoalesceFire:
      appendf(out, "queue=%d frames=%u reason=%s charge=%" PRIu64 " cyc",
              ev.id, ev.arg0, fire_reason_name(ev.arg1), ev.cycles);
      break;
    case EventType::BatchDispatch:
      appendf(out, "ash=%d offered=%u executed=%u insns=%" PRIu64
              " total=%" PRIu64 " cyc", ev.id, ev.arg0, ev.arg1, ev.insns,
              ev.cycles);
      break;
    case EventType::RxDrop:
      appendf(out, "queue=%d owner=%u ch=%" PRIu64 " reason=%s", ev.id,
              ev.arg0, ev.insns, ev.arg1 == 0 ? "overflow" : "tenant-quota");
      break;
    case EventType::NicExec:
      appendf(out, "queue=%d ch=%u unit=%u charge=%" PRIu64 " cyc", ev.id,
              ev.arg0, ev.arg1, ev.cycles);
      break;
    case EventType::OffloadPunt:
      appendf(out, "queue=%d ch=%u reason=%s", ev.id, ev.arg1,
              punt_reason_name(ev.arg0));
      break;
  }
}

/// A histogram of counts (batch sizes, queue depths) — no cyc suffix, the
/// values are frame counts and stay pinned in golden output.
void append_count_histogram(std::string& out, const char* label,
                            const Histogram& h) {
  appendf(out,
          "    %s: n=%" PRIu64 " mean=%.1f p50<=%" PRIu64 " p99<=%" PRIu64
          " max=%" PRIu64 "\n",
          label, h.count(), h.mean(), h.percentile(50.0),
          h.percentile(99.0), h.max());
}

void append_histogram(std::string& out, const char* label,
                      const Histogram& h) {
  appendf(out,
          "    %s: n=%" PRIu64 " mean=%.1f cyc p50<=%" PRIu64
          " cyc p99<=%" PRIu64 " cyc max=%" PRIu64 " cyc sum=%" PRIu64
          " cyc\n",
          label, h.count(), h.mean(), h.percentile(50.0),
          h.percentile(99.0), h.max(), h.sum());
}

void append_json_histogram(std::string& out, const char* key,
                           const Histogram& h) {
  appendf(out,
          "\"%s\":{\"count\":%" PRIu64 ",\"sum_cyc\":%" PRIu64
          ",\"min_cyc\":%" PRIu64 ",\"max_cyc\":%" PRIu64
          ",\"p50_cyc\":%" PRIu64 ",\"p99_cyc\":%" PRIu64 "}",
          key, h.count(), h.sum(), h.min(), h.max(), h.percentile(50.0),
          h.percentile(99.0));
}

bool ash_slot_active(const AshMetrics& m) {
  return m.dispatches || m.outcomes || m.denials || m.sends ||
         m.dilp_runs || m.usercopies || m.supervisor_quarantines ||
         m.supervisor_revokes || m.exec_cycles.count();
}

bool chan_slot_active(const ChannelMetrics& c) {
  return c.frames || c.demux_decisions || c.fallbacks;
}

bool queue_slot_active(const QueueMetrics& q) {
  return q.frames || q.batches || q.drops || q.nic_executed || q.punts;
}

}  // namespace

void set_outcome_namer(OutcomeNamer fn) noexcept { g_namer = fn; }
OutcomeNamer outcome_namer() noexcept { return g_namer; }

std::string format_trace(const Tracer& t, const FormatOptions& opts) {
  std::string out;
  std::uint64_t total_emitted = 0, total_dropped = 0;
  for (std::uint16_t cpu = 0; cpu < t.cpus(); ++cpu) {
    total_emitted += t.emitted(cpu);
    total_dropped += t.dropped(cpu);
  }
  const std::vector<Event> events = t.all_events();
  appendf(out,
          "trace: %u cpu(s), %zu event(s) retained, %" PRIu64
          " emitted, %" PRIu64 " dropped, %" PRIu64 " cpu-clamped\n",
          t.cpus(), events.size(), total_emitted, total_dropped,
          t.clamped_cpus());
  std::size_t n = events.size();
  if (opts.max_events != 0 && opts.max_events < n) n = opts.max_events;
  for (std::size_t i = 0; i < n; ++i) {
    const Event& ev = events[i];
    appendf(out, "[cpu%u] seq=%-4" PRIu64 " t=%" PRIu64 " cyc  %-16s",
            ev.cpu, ev.seq, ev.time, to_string(ev.type));
    if (ev.type == EventType::VcodeExec) {
      appendf(out, "[%s] ", to_string(ev.engine));
    } else {
      out += ' ';
    }
    append_event_body(out, ev);
    out += '\n';
  }
  if (n < events.size()) {
    appendf(out, "... %zu more event(s) not shown\n", events.size() - n);
  }
  return out;
}

std::string format_metrics(const Tracer& t) {
  std::string out;
  out += "== engines ==\n";
  static const Engine kEngines[] = {Engine::Interp, Engine::Jit};
  for (const Engine e : kEngines) {
    const EngineMetrics& m = t.engine_metrics(e);
    appendf(out, "%-10s runs=%-8" PRIu64 " insns=%-10" PRIu64
            " cycles=%" PRIu64 " cyc\n", to_string(e), m.runs, m.insns,
            m.cycles);
  }

  out += "== handlers ==\n";
  for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
    const AshMetrics& m = t.ash_metrics(id);
    if (!ash_slot_active(m)) continue;
    const bool overflow =
        static_cast<std::uint32_t>(id) >= t.config().max_ash_ids;
    appendf(out,
            "ash %d%s: dispatches=%" PRIu64 " outcomes=%" PRIu64
            " consumed=%" PRIu64 " denials=%" PRIu64 "\n",
            id, overflow ? " (overflow slot)" : "", m.dispatches,
            m.outcomes, m.consumed, m.denials);
    bool any = false;
    for (std::size_t o = 0; o < kMaxOutcomes; ++o) {
      if (m.by_outcome[o] == 0) continue;
      appendf(out, "%s%s=%" PRIu64,
              any ? " " : "    outcomes: ",
              outcome_name(static_cast<std::uint32_t>(o)).c_str(),
              m.by_outcome[o]);
      any = true;
    }
    if (any) out += '\n';
    if (m.denials != 0) {
      appendf(out,
              "    denials: quarantined=%" PRIu64 " revoked=%" PRIu64
              " livelock=%" PRIu64 " bad-id=%" PRIu64 "\n",
              m.denial_reasons[0], m.denial_reasons[1],
              m.denial_reasons[2], m.denial_reasons[3]);
      // The tenant-admission reasons were appended later; only printed
      // when seen, so pre-tenant golden output is unchanged.
      if (m.denial_reasons[4] != 0 || m.denial_reasons[5] != 0 ||
          m.denial_reasons[6] != 0) {
        appendf(out,
                "    tenant-denials: cycle-quota=%" PRIu64
                " buffer-quota=%" PRIu64 " download-quota=%" PRIu64 "\n",
                m.denial_reasons[4], m.denial_reasons[5],
                m.denial_reasons[6]);
      }
    }
    if (m.latency.count() != 0) {
      append_histogram(out, "latency", m.latency);
    }
    if (m.exec_cycles.count() != 0) {
      append_histogram(out, "exec", m.exec_cycles);
    }
    appendf(out,
            "    vectored: sends=%" PRIu64 " dilp=%" PRIu64
            " usercopy=%" PRIu64 " bytes=%" PRIu64 "\n",
            m.sends, m.dilp_runs, m.usercopies, m.bytes_vectored);
    if (m.supervisor_quarantines != 0 || m.supervisor_revokes != 0) {
      appendf(out, "    supervisor: quarantines=%" PRIu64
              " revokes=%" PRIu64 "\n", m.supervisor_quarantines,
              m.supervisor_revokes);
    }
  }

  out += "== channels ==\n";
  for (std::int32_t id = 0; id <= t.max_channel_slot(); ++id) {
    const ChannelMetrics& c = t.channel_metrics(id);
    if (!chan_slot_active(c)) continue;
    const bool overflow =
        static_cast<std::uint32_t>(id) >= t.config().max_channels;
    appendf(out,
            "ch %d%s: frames=%" PRIu64 " bytes=%" PRIu64
            " demux=%" PRIu64 " demux_cost=%" PRIu64
            " cyc fallbacks=%" PRIu64 "\n",
            id, overflow ? " (overflow slot)" : "", c.frames, c.bytes,
            c.demux_decisions, c.demux_cycles, c.fallbacks);
  }
  return out;
}

std::string metrics_json(const Tracer& t) {
  std::string out = "{";
  out += "\"engines\":{";
  static const Engine kEngines[] = {Engine::Interp, Engine::Jit};
  for (std::size_t i = 0; i < std::size(kEngines); ++i) {
    const EngineMetrics& m = t.engine_metrics(kEngines[i]);
    appendf(out,
            "%s\"%s\":{\"runs\":%" PRIu64 ",\"insns\":%" PRIu64
            ",\"cycles_cyc\":%" PRIu64 "}",
            i == 0 ? "" : ",", to_string(kEngines[i]), m.runs, m.insns,
            m.cycles);
  }
  out += "},\"handlers\":[";
  bool first = true;
  for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
    const AshMetrics& m = t.ash_metrics(id);
    if (!ash_slot_active(m)) continue;
    appendf(out,
            "%s{\"ash\":%d,\"dispatches\":%" PRIu64 ",\"outcomes\":%" PRIu64
            ",\"consumed\":%" PRIu64 ",\"denials\":%" PRIu64
            ",\"insns\":%" PRIu64 ",\"cycles_cyc\":%" PRIu64
            ",\"bytes_vectored\":%" PRIu64 ",\"sends\":%" PRIu64
            ",\"dilp_runs\":%" PRIu64 ",\"usercopies\":%" PRIu64 ",",
            first ? "" : ",", id, m.dispatches, m.outcomes, m.consumed,
            m.denials, m.insns, m.cycles, m.bytes_vectored, m.sends,
            m.dilp_runs, m.usercopies);
    out += "\"by_outcome\":{";
    bool fo = true;
    for (std::size_t o = 0; o < kMaxOutcomes; ++o) {
      if (m.by_outcome[o] == 0) continue;
      appendf(out, "%s\"%s\":%" PRIu64, fo ? "" : ",",
              outcome_name(static_cast<std::uint32_t>(o)).c_str(),
              m.by_outcome[o]);
      fo = false;
    }
    out += "},";
    append_json_histogram(out, "latency", m.latency);
    out += ",";
    append_json_histogram(out, "exec", m.exec_cycles);
    out += "}";
    first = false;
  }
  out += "],\"channels\":[";
  first = true;
  for (std::int32_t id = 0; id <= t.max_channel_slot(); ++id) {
    const ChannelMetrics& c = t.channel_metrics(id);
    if (!chan_slot_active(c)) continue;
    appendf(out,
            "%s{\"ch\":%d,\"frames\":%" PRIu64 ",\"bytes\":%" PRIu64
            ",\"demux_decisions\":%" PRIu64 ",\"demux_cost_cyc\":%" PRIu64
            ",\"fallbacks\":%" PRIu64 "}",
            first ? "" : ",", id, c.frames, c.bytes, c.demux_decisions,
            c.demux_cycles, c.fallbacks);
    first = false;
  }
  out += "]}";
  return out;
}

std::string format_queues(const Tracer& t) {
  std::string out;
  out += "== rx queues ==\n";
  for (std::int32_t id = 0; id <= t.max_queue_slot(); ++id) {
    const QueueMetrics& q = t.queue_metrics(id);
    if (!queue_slot_active(q)) continue;
    const bool overflow =
        static_cast<std::uint32_t>(id) >= t.config().max_queues;
    appendf(out,
            "queue %d%s: frames=%" PRIu64 " batches=%" PRIu64
            " charged=%" PRIu64 " cyc\n",
            id, overflow ? " (overflow slot)" : "", q.frames, q.batches,
            q.charged_cycles);
    appendf(out,
            "    reasons: immediate=%" PRIu64 " full=%" PRIu64
            " timer=%" PRIu64 " poll=%" PRIu64 "\n",
            q.by_reason[0], q.by_reason[1], q.by_reason[2],
            q.by_reason[3]);
    if (q.drops != 0) {
      appendf(out,
              "    drops: total=%" PRIu64 " overflow=%" PRIu64
              " tenant-quota=%" PRIu64 "\n",
              q.drops, q.by_drop_reason[0], q.by_drop_reason[1]);
    }
    // Appended for the smart-NIC offload PR; omitted when zero so
    // pre-offload golden output is byte-identical.
    if (q.nic_executed != 0 || q.punts != 0) {
      appendf(out,
              "    offload: nic-exec=%" PRIu64 " nic=%" PRIu64
              " cyc punts=%" PRIu64 " (not-resident=%" PRIu64
              " host-service=%" PRIu64 " fault=%" PRIu64 ")\n",
              q.nic_executed, q.nic_cycles, q.punts, q.by_punt_reason[0],
              q.by_punt_reason[1], q.by_punt_reason[2]);
    }
    if (q.batch_frames.count() != 0) {
      append_count_histogram(out, "batch", q.batch_frames);
    }
    if (q.depth.count() != 0) {
      append_count_histogram(out, "depth", q.depth);
    }
  }
  // Dispatch sessions, keyed by each session's first offered handler,
  // ride alongside the queue tables: how well the coalescer fed the
  // handlers (an inline arrival is a session of one).
  out += "== batched handlers ==\n";
  for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
    const AshMetrics& m = t.ash_metrics(id);
    if (m.batches == 0) continue;
    appendf(out, "ash %d: batches=%" PRIu64 "\n", id, m.batches);
    append_count_histogram(out, "msgs", m.batch_msgs);
  }
  return out;
}

std::string queues_json(const Tracer& t) {
  std::string out = "{\"queues\":[";
  bool first = true;
  for (std::int32_t id = 0; id <= t.max_queue_slot(); ++id) {
    const QueueMetrics& q = t.queue_metrics(id);
    if (!queue_slot_active(q)) continue;
    appendf(out,
            "%s{\"queue\":%d,\"frames\":%" PRIu64 ",\"batches\":%" PRIu64
            ",\"charged_cyc\":%" PRIu64
            ",\"reasons\":{\"immediate\":%" PRIu64 ",\"full\":%" PRIu64
            ",\"timer\":%" PRIu64 ",\"poll\":%" PRIu64 "}"
            ",\"batch_frames\":{\"count\":%" PRIu64 ",\"mean\":%.1f"
            ",\"p50\":%" PRIu64 ",\"max\":%" PRIu64 "}"
            ",\"depth\":{\"count\":%" PRIu64 ",\"mean\":%.1f"
            ",\"p50\":%" PRIu64 ",\"max\":%" PRIu64 "}",
            first ? "" : ",", id, q.frames, q.batches, q.charged_cycles,
            q.by_reason[0], q.by_reason[1], q.by_reason[2], q.by_reason[3],
            q.batch_frames.count(), q.batch_frames.mean(),
            q.batch_frames.percentile(50.0), q.batch_frames.max(),
            q.depth.count(), q.depth.mean(), q.depth.percentile(50.0),
            q.depth.max());
    // Appended for the multi-tenant PR; omitted when zero so pre-tenant
    // golden output is byte-identical.
    if (q.drops != 0) {
      appendf(out,
              ",\"drops\":{\"total\":%" PRIu64 ",\"overflow\":%" PRIu64
              ",\"tenant_quota\":%" PRIu64 "}",
              q.drops, q.by_drop_reason[0], q.by_drop_reason[1]);
    }
    // Appended for the smart-NIC offload PR; omitted when zero so
    // pre-offload golden output is byte-identical.
    if (q.nic_executed != 0 || q.punts != 0) {
      appendf(out,
              ",\"offload\":{\"nic_executed\":%" PRIu64
              ",\"nic_cyc\":%" PRIu64 ",\"punts\":%" PRIu64
              ",\"not_resident\":%" PRIu64 ",\"host_service\":%" PRIu64
              ",\"fault\":%" PRIu64 "}",
              q.nic_executed, q.nic_cycles, q.punts, q.by_punt_reason[0],
              q.by_punt_reason[1], q.by_punt_reason[2]);
    }
    out += "}";
    first = false;
  }
  out += "],\"batched_handlers\":[";
  first = true;
  for (std::int32_t id = 0; id <= t.max_ash_slot(); ++id) {
    const AshMetrics& m = t.ash_metrics(id);
    if (m.batches == 0) continue;
    appendf(out,
            "%s{\"ash\":%d,\"batches\":%" PRIu64
            ",\"msgs\":{\"count\":%" PRIu64 ",\"mean\":%.1f"
            ",\"p50\":%" PRIu64 ",\"max\":%" PRIu64 "}}",
            first ? "" : ",", id, m.batches, m.batch_msgs.count(),
            m.batch_msgs.mean(), m.batch_msgs.percentile(50.0),
            m.batch_msgs.max());
    first = false;
  }
  out += "]}";
  return out;
}

std::string trace_json(const Tracer& t, const FormatOptions& opts) {
  const std::vector<Event> events = t.all_events();
  std::size_t n = events.size();
  if (opts.max_events != 0 && opts.max_events < n) n = opts.max_events;
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    const Event& ev = events[i];
    appendf(out,
            "%s{\"cpu\":%u,\"seq\":%" PRIu64 ",\"t_cyc\":%" PRIu64
            ",\"type\":\"%s\",\"engine\":\"%s\",\"id\":%d,\"arg0\":%u"
            ",\"arg1\":%u,\"cycles_cyc\":%" PRIu64 ",\"insns\":%" PRIu64
            "}",
            i == 0 ? "" : ",", ev.cpu, ev.seq, ev.time,
            to_string(ev.type), to_string(ev.engine), ev.id, ev.arg0,
            ev.arg1, ev.cycles, ev.insns);
  }
  out += "]";
  return out;
}

std::string chrome_trace_json(const Tracer& t, const FormatOptions& opts) {
  const std::vector<Event> events = t.all_events();
  std::size_t n = events.size();
  if (opts.max_events != 0 && opts.max_events < n) n = opts.max_events;
  const double us_per_cyc = opts.cpu_mhz > 0 ? 1.0 / opts.cpu_mhz : 0.025;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (std::uint16_t cpu = 0; cpu < t.cpus(); ++cpu) {
    appendf(out,
            "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
            "\"tid\":%u,\"args\":{\"name\":\"cpu%u\"}}",
            first ? "" : ",", cpu, cpu);
    first = false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Event& ev = events[i];
    const double ts = static_cast<double>(ev.time) * us_per_cyc;
    const bool slice = ev.type == EventType::AshOutcome ||
                       ev.type == EventType::VcodeExec ||
                       ev.type == EventType::DilpRun;
    char name[96];
    if (ev.type == EventType::VcodeExec) {
      std::snprintf(name, sizeof name, "VcodeExec(%s)",
                    to_string(ev.engine));
    } else {
      std::snprintf(name, sizeof name, "%s", to_string(ev.type));
    }
    if (slice) {
      const double dur = static_cast<double>(ev.cycles) * us_per_cyc;
      appendf(out,
              "%s{\"name\":\"%s\",\"cat\":\"ash\",\"ph\":\"X\","
              "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u,"
              "\"args\":{\"id\":%d,\"outcome\":\"%s\",\"insns\":%" PRIu64
              ",\"cycles\":%" PRIu64 "}}",
              first ? "" : ",", name, ts, dur, ev.cpu, ev.id,
              outcome_name(ev.arg0).c_str(), ev.insns, ev.cycles);
    } else {
      appendf(out,
              "%s{\"name\":\"%s\",\"cat\":\"ash\",\"ph\":\"i\","
              "\"s\":\"t\",\"ts\":%.3f,\"pid\":0,\"tid\":%u,"
              "\"args\":{\"id\":%d,\"arg0\":%u,\"arg1\":%u}}",
              first ? "" : ",", name, ts, ev.cpu, ev.id, ev.arg0,
              ev.arg1);
    }
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace ash::trace
