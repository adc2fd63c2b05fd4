// Unit tests for the ashtrace core: histogram bucket math, ring-buffer
// retention in both full-ring modes, per-event aggregation, the
// thread-local emission context, and the four formatter surfaces.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "trace/format.hpp"
#include "trace/metrics.hpp"

namespace ash::trace {
namespace {

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Histogram::bucket_hi(2), 3u);
  EXPECT_EQ(Histogram::bucket_hi(11), 2047u);
  EXPECT_EQ(Histogram::bucket_hi(64), ~0ull);
}

TEST(Histogram, ObserveAndSummarize) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0u);

  h.observe(0);
  h.observe(5);
  h.observe(100);
  h.observe(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 205u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 205.0 / 4.0);
  EXPECT_EQ(h.bucket(0), 1u);                      // the zero
  EXPECT_EQ(h.bucket(Histogram::bucket_of(5)), 1u);
  EXPECT_EQ(h.bucket(Histogram::bucket_of(100)), 2u);
}

TEST(Histogram, PercentileIsBucketResolutionAndDeterministic) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(10);   // bucket 4, hi 15
  for (int i = 0; i < 100; ++i) h.observe(100);  // bucket 7, hi 127
  EXPECT_EQ(h.percentile(0.0), 15u);
  EXPECT_EQ(h.percentile(25.0), 15u);
  EXPECT_EQ(h.percentile(50.0), 15u);
  EXPECT_EQ(h.percentile(51.0), 127u);
  EXPECT_EQ(h.percentile(99.0), 127u);
  EXPECT_EQ(h.percentile(100.0), 127u);
  EXPECT_EQ(h.percentile(-3.0), h.percentile(0.0));   // clamped
  EXPECT_EQ(h.percentile(400.0), h.percentile(100.0));
}

TEST(Tracer, DisabledGateIsClosedByDefault) {
  EXPECT_FALSE(enabled());
}

TEST(Tracer, SessionOpensAndClosesTheGate) {
  {
    Session session;
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

TEST(Tracer, EmitRetainsAndOrdersEvents) {
  TracerConfig cfg;
  cfg.ring_capacity = 16;
  cfg.max_cpus = 2;
  Session session(cfg);
  Tracer& t = global();
  EXPECT_EQ(t.cpus(), 2u);

  t.emit(make_event(EventType::AshDispatch, 0, 100, 7, 64, 3));
  t.emit(make_event(EventType::AshDispatch, 1, 50, 7, 32, 4));
  t.emit(make_event(EventType::AshOutcome, 0, 110, 7, 0, 1, 250, 12));

  EXPECT_EQ(t.emitted(0), 2u);
  EXPECT_EQ(t.emitted(1), 1u);
  EXPECT_EQ(t.dropped(0), 0u);

  const auto cpu0 = t.events(0);
  ASSERT_EQ(cpu0.size(), 2u);
  EXPECT_EQ(cpu0[0].seq, 0u);
  EXPECT_EQ(cpu0[1].seq, 1u);
  EXPECT_EQ(cpu0[0].arg0, 64u);
  EXPECT_EQ(cpu0[1].cycles, 250u);

  // all_events merges by (time, cpu, seq): the cpu1 event at t=50 first.
  const auto all = t.all_events();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].cpu, 1u);
  EXPECT_EQ(all[0].time, 50u);
  EXPECT_EQ(all[1].time, 100u);
  EXPECT_EQ(all[2].time, 110u);

  // Reading an out-of-range cpu is safe and empty.
  EXPECT_TRUE(t.events(9).empty());
  EXPECT_EQ(t.emitted(9), 0u);
  EXPECT_EQ(t.dropped(9), 0u);
}

TEST(Tracer, OverwriteModeKeepsNewestWindow) {
  TracerConfig cfg;
  cfg.ring_capacity = 4;
  cfg.max_cpus = 1;
  cfg.overwrite = true;
  Session session(cfg);
  Tracer& t = global();
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.emit(make_event(EventType::AshDispatch, 0, i, 0));
  }
  EXPECT_EQ(t.emitted(0), 10u);
  EXPECT_EQ(t.dropped(0), 6u);
  const auto ev = t.events(0);
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev.front().seq, 6u);  // oldest retained
  EXPECT_EQ(ev.back().seq, 9u);   // newest
  EXPECT_EQ(t.emitted(0), ev.size() + t.dropped(0));
}

TEST(Tracer, DropNewestModeFreezesOldestWindow) {
  TracerConfig cfg;
  cfg.ring_capacity = 4;
  cfg.max_cpus = 1;
  cfg.overwrite = false;
  Session session(cfg);
  Tracer& t = global();
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.emit(make_event(EventType::AshDispatch, 0, i, 0));
  }
  EXPECT_EQ(t.emitted(0), 10u);
  EXPECT_EQ(t.dropped(0), 6u);
  const auto ev = t.events(0);
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev.front().seq, 0u);
  EXPECT_EQ(ev.back().seq, 3u);
  EXPECT_EQ(t.emitted(0), ev.size() + t.dropped(0));
  // Aggregation still saw every emitted event.
  EXPECT_EQ(t.type_count(EventType::AshDispatch), 10u);
}

TEST(Tracer, CpuClampAndRingCapacityRounding) {
  TracerConfig cfg;
  cfg.ring_capacity = 5;  // rounds up to 8
  cfg.max_cpus = 2;
  Session session(cfg);
  Tracer& t = global();
  EXPECT_EQ(t.config().ring_capacity, 8u);
  t.emit(make_event(EventType::AshDispatch, 7, 1, 0));  // cpu 7 >= max 2
  EXPECT_EQ(t.clamped_cpus(), 1u);
  EXPECT_EQ(t.emitted(1), 1u);  // clamped into the last ring
  EXPECT_EQ(t.events(1)[0].cpu, 1u);
}

TEST(Tracer, OverflowSlotsCatchOutOfRangeIds) {
  TracerConfig cfg;
  cfg.max_ash_ids = 2;
  cfg.max_channels = 2;
  Session session(cfg);
  Tracer& t = global();
  t.emit(make_event(EventType::AshDispatch, 0, 1, 0));
  t.emit(make_event(EventType::AshDispatch, 0, 2, 99));   // overflow
  t.emit(make_event(EventType::AshDispatch, 0, 3, -5));   // negative
  t.emit(make_event(EventType::FrameArrival, 0, 4, 77, 10));
  EXPECT_EQ(t.ash_metrics(0).dispatches, 1u);
  EXPECT_EQ(t.ash_metrics(99).dispatches, 2u);   // shared overflow slot
  EXPECT_EQ(t.ash_metrics(-5).dispatches, 2u);
  EXPECT_EQ(t.max_ash_slot(), 2);                // the overflow index
  EXPECT_EQ(t.channel_metrics(77).frames, 1u);
  EXPECT_EQ(t.channel_metrics(77).bytes, 10u);
  EXPECT_EQ(t.max_channel_slot(), 2);
}

TEST(Tracer, AggregatesEveryEventClass) {
  Session session;
  Tracer& t = global();
  t.emit(make_event(EventType::FrameArrival, 0, 1, 3, 64, 0));
  t.emit(make_event(EventType::DemuxDecision, 0, 2, 3, 5, 1, 120));
  t.emit(make_event(EventType::AshDispatch, 0, 3, 1, 64, 3));
  {
    Event ev = make_event(EventType::VcodeExec, 0, 4, 1, 0, 0, 200, 40);
    ev.engine = Engine::Jit;
    t.emit(ev);
  }
  t.emit(make_event(EventType::AshOutcome, 0, 5, 1, 0, 1, 320, 40));
  t.emit(make_event(EventType::DilpRun, 0, 6, 1, 256, 2, 900));
  t.emit(make_event(EventType::TSendInitiated, 0, 7, 1, 16, 3, 160));
  t.emit(make_event(EventType::TUserCopy, 0, 8, 1, 32, 0, 50));
  t.emit(make_event(EventType::UpcallFallback, 0, 9, 3, 0));
  t.emit(make_event(EventType::AshDenied, 0, 10, 1,
                    static_cast<std::uint32_t>(DenyReason::LivelockQuota)));
  t.emit(make_event(EventType::SupervisorAction, 0, 11, 1,
                    static_cast<std::uint32_t>(SupAction::Quarantine)));
  t.emit(make_event(EventType::SupervisorAction, 0, 12, 1,
                    static_cast<std::uint32_t>(SupAction::Revoke)));

  const ChannelMetrics& c = t.channel_metrics(3);
  EXPECT_EQ(c.frames, 1u);
  EXPECT_EQ(c.bytes, 64u);
  EXPECT_EQ(c.demux_decisions, 1u);
  EXPECT_EQ(c.demux_cycles, 120u);
  EXPECT_EQ(c.fallbacks, 1u);

  const AshMetrics& m = t.ash_metrics(1);
  EXPECT_EQ(m.dispatches, 1u);
  EXPECT_EQ(m.outcomes, 1u);
  EXPECT_EQ(m.consumed, 1u);
  EXPECT_EQ(m.by_outcome[0], 1u);
  EXPECT_EQ(m.latency.sum(), 320u);
  EXPECT_EQ(m.cycles, 320u);
  EXPECT_EQ(m.insns, 40u);
  EXPECT_EQ(m.dilp_runs, 1u);
  EXPECT_EQ(m.sends, 1u);
  EXPECT_EQ(m.usercopies, 1u);
  EXPECT_EQ(m.bytes_vectored, 256u + 16u + 32u);
  EXPECT_EQ(m.vector_bytes.count(), 3u);
  EXPECT_EQ(m.denials, 1u);
  EXPECT_EQ(m.denial_reasons[static_cast<std::size_t>(
                DenyReason::LivelockQuota)], 1u);
  EXPECT_EQ(m.supervisor_quarantines, 1u);
  EXPECT_EQ(m.supervisor_revokes, 1u);
  // VcodeExec with a bound handler id feeds the exec distribution; the
  // DilpRun rode along too.
  EXPECT_EQ(m.exec_cycles.count(), 2u);

  const EngineMetrics& e = t.engine_metrics(Engine::Jit);
  EXPECT_EQ(e.runs, 1u);
  EXPECT_EQ(e.insns, 40u);
  EXPECT_EQ(e.cycles, 200u);
  EXPECT_EQ(t.engine_metrics(Engine::Interp).runs, 0u);

  EXPECT_EQ(t.type_count(EventType::SupervisorAction), 2u);
}

TEST(Tracer, ClearResetsEverythingButKeepsConfigAndGate) {
  TracerConfig cfg;
  cfg.ring_capacity = 8;
  Session session(cfg);
  Tracer& t = global();
  t.emit(make_event(EventType::AshDispatch, 0, 1, 0));
  t.clear();
  EXPECT_TRUE(enabled());
  EXPECT_EQ(t.config().ring_capacity, 8u);
  EXPECT_EQ(t.emitted(0), 0u);
  EXPECT_EQ(t.type_count(EventType::AshDispatch), 0u);
  EXPECT_EQ(t.max_ash_slot(), -1);
  EXPECT_TRUE(t.all_events().empty());
}

TEST(Tracer, EmitCtxUsesScopedContext) {
  Session session;
  Tracer& t = global();
  {
    ScopedContext outer(1, 500, 9);
    global().emit_ctx(EventType::VcodeExec, Engine::Interp, 0, 0, 10, 2);
    {
      ScopedContext inner(1, 600, 4);
      global().emit_ctx(EventType::DilpRun, Engine::None, 128, 1, 300, 0);
    }
    // Inner scope restored: attribution returns to handler 9.
    global().emit_ctx(EventType::TSendInitiated, Engine::None, 8, 0, 40, 0);
  }
  const auto ev = t.events(1);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].id, 9);
  EXPECT_EQ(ev[0].time, 500u);
  EXPECT_EQ(ev[1].id, 4);
  EXPECT_EQ(ev[1].time, 600u);
  EXPECT_EQ(ev[2].id, 9);
  EXPECT_EQ(context().id, -1);  // default restored outside all scopes
}

TEST(TraceFormat, EnumNames) {
  EXPECT_STREQ(to_string(EventType::FrameArrival), "FrameArrival");
  EXPECT_STREQ(to_string(EventType::SupervisorAction), "SupervisorAction");
  EXPECT_STREQ(to_string(Engine::None), "-");
  EXPECT_STREQ(to_string(Engine::Interp), "interp");
  EXPECT_STREQ(to_string(Engine::Jit), "jit");
  EXPECT_STREQ(to_string(DenyReason::Quarantined), "quarantined");
  EXPECT_STREQ(to_string(DenyReason::BadId), "bad-id");
  EXPECT_STREQ(to_string(SupAction::Revoke), "revoke");
}

/// Shared fixture traffic for the formatter tests: one frame through the
/// whole taxonomy on cpu 0.
void emit_sample_traffic() {
  Tracer& t = global();
  t.emit(make_event(EventType::FrameArrival, 0, 100, 2, 64, 0));
  t.emit(make_event(EventType::DemuxDecision, 0, 110, 2, 4, 1, 80));
  t.emit(make_event(EventType::AshDispatch, 0, 120, 0, 64, 2));
  {
    Event ev = make_event(EventType::VcodeExec, 0, 130, 0, 1, 0, 150, 30);
    ev.engine = Engine::Interp;
    t.emit(ev);
  }
  t.emit(make_event(EventType::TSendInitiated, 0, 140, 0, 16, 2, 160));
  t.emit(make_event(EventType::TUserCopy, 0, 145, 0, 32, 0, 50));
  t.emit(make_event(EventType::DilpRun, 0, 150, 0, 128, 1, 700));
  t.emit(make_event(EventType::AshOutcome, 0, 160, 0, 0, 1, 400, 30));
  t.emit(make_event(EventType::AshDenied, 0, 170, 0,
                    static_cast<std::uint32_t>(DenyReason::Revoked)));
  t.emit(make_event(EventType::UpcallFallback, 0, 180, 2, 1));
  t.emit(make_event(EventType::SupervisorAction, 0, 190, 0,
                    static_cast<std::uint32_t>(SupAction::Quarantine)));
}

TEST(TraceFormat, TextTraceRendersEveryEventClass) {
  Session session;
  emit_sample_traffic();
  const std::string out = format_trace(global());
  EXPECT_NE(out.find("11 event(s) retained"), std::string::npos);
  EXPECT_NE(out.find("FrameArrival"), std::string::npos);
  EXPECT_NE(out.find("nic=an2"), std::string::npos);
  EXPECT_NE(out.find("nic=eth"), std::string::npos);
  EXPECT_NE(out.find("visited=4"), std::string::npos);
  EXPECT_NE(out.find("[interp]"), std::string::npos);
  EXPECT_NE(out.find("reason=revoked"), std::string::npos);
  EXPECT_NE(out.find("action=quarantine"), std::string::npos);
  EXPECT_NE(out.find("consumed=1"), std::string::npos);
  // Every cycle-valued field carries the `cyc` marker golden tests key on.
  EXPECT_NE(out.find("total=400 cyc"), std::string::npos);
  EXPECT_NE(out.find("t=100 cyc"), std::string::npos);
}

TEST(TraceFormat, MaxEventsTruncates) {
  Session session;
  emit_sample_traffic();
  FormatOptions opts;
  opts.max_events = 3;
  const std::string out = format_trace(global(), opts);
  EXPECT_NE(out.find("... 8 more event(s) not shown"), std::string::npos);
  const std::string json = trace_json(global(), opts);
  // 3 events = 3 "type" keys in the JSON array.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"type\""); pos != std::string::npos;
       pos = json.find("\"type\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(TraceFormat, MetricsTablesAndJson) {
  Session session;
  emit_sample_traffic();
  const std::string text = format_metrics(global());
  EXPECT_NE(text.find("== engines =="), std::string::npos);
  EXPECT_NE(text.find("interp"), std::string::npos);
  EXPECT_NE(text.find("ash 0:"), std::string::npos);
  EXPECT_NE(text.find("denials: quarantined=0 revoked=1"),
            std::string::npos);
  EXPECT_NE(text.find("ch 2:"), std::string::npos);
  EXPECT_NE(text.find("fallbacks=1"), std::string::npos);

  const std::string json = metrics_json(global());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"handlers\":["), std::string::npos);
  EXPECT_NE(json.find("\"channels\":["), std::string::npos);
  EXPECT_NE(json.find("\"cycles_cyc\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatches\":1"), std::string::npos);
}

TEST(TraceFormat, OutcomeNamerChangesRendering) {
  Session session;
  emit_sample_traffic();
  set_outcome_namer(nullptr);
  const std::string numeric = format_trace(global());
  EXPECT_NE(numeric.find("outcome=0"), std::string::npos);
  set_outcome_namer(
      +[](std::uint32_t code) {
        return code == 0 ? "halted" : "other";
      });
  EXPECT_NE(outcome_namer(), nullptr);
  const std::string named = format_trace(global());
  EXPECT_NE(named.find("outcome=halted"), std::string::npos);
  set_outcome_namer(nullptr);
}

TEST(TraceFormat, ChromeTraceShape) {
  Session session;
  emit_sample_traffic();
  const std::string out = chrome_trace_json(global());
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  // Executions become duration slices, arrivals instants.
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("VcodeExec(interp)"), std::string::npos);
  // Per-cpu thread-name metadata rows.
  EXPECT_NE(out.find("\"name\":\"cpu0\""), std::string::npos);
  // 400 cycles at 40 MHz = 10 us duration.
  EXPECT_NE(out.find("\"dur\":10.000"), std::string::npos);
}

TEST(TraceFormat, EmptyTracerRendersCleanly) {
  Session session;
  EXPECT_NE(format_trace(global()).find("0 event(s) retained"),
            std::string::npos);
  EXPECT_NE(format_metrics(global()).find("== engines =="),
            std::string::npos);
  EXPECT_EQ(trace_json(global()), "[]");
  const std::string mj = metrics_json(global());
  EXPECT_NE(mj.find("\"handlers\":[]"), std::string::npos);
}

}  // namespace
}  // namespace ash::trace
