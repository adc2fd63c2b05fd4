// Aggregated receive-path metrics, fed by the tracer's event stream.
//
// Aggregation happens at emit time, before ring insertion, from the same
// Event record that lands in the ring — so per-handler totals stay exact
// even after the flight-recorder ring has wrapped. A conservation test
// (tests/trace_conservation_test.cpp) pins the other direction: with a
// ring big enough not to wrap, re-aggregating the retained events
// reproduces these aggregates exactly.
//
// The value distributions use power-of-two (log2) histogram buckets:
// bucket 0 counts zeros, bucket i counts values in [2^(i-1), 2^i). That
// keeps observation O(1), allocation-free, and mergeable, at ~2x value
// resolution — the right trade for cycle/byte distributions whose
// interesting structure spans orders of magnitude.
//
// Thread model: plain counters, single writer (the simulation thread),
// same discipline as AshStats — see trace.hpp.
#pragma once

#include <array>
#include <cstdint>

namespace ash::trace {

class Histogram {
 public:
  /// Bucket 0 = {0}; bucket i (1..64) = [2^(i-1), 2^i).
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : 64 - static_cast<std::size_t>(__builtin_clzll(v));
  }
  /// Inclusive upper bound of bucket `i` (0 for bucket 0).
  static std::uint64_t bucket_hi(std::size_t i) noexcept {
    return i == 0 ? 0 : (i >= 64 ? ~0ull : (1ull << i) - 1);
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }
  std::uint64_t bucket(std::size_t i) const noexcept { return buckets_[i]; }

  /// Upper bound of the bucket holding the p-th percentile observation
  /// (p in [0,100]); 0 when empty. Bucket-resolution, deterministic.
  std::uint64_t percentile(double p) const noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// Room for every vcode::Outcome value without depending on the vcode
/// library (trace sits below it in the link order).
inline constexpr std::size_t kMaxOutcomes = 16;

/// Room for every trace::DenyReason value (the tenant-admission reasons
/// were appended in the multi-tenant PR; headroom for a few more).
inline constexpr std::size_t kMaxDenyReasons = 8;

/// Per-handler receive-path accounting, keyed by ash id.
struct AshMetrics {
  std::uint64_t dispatches = 0;   // AshDispatch events
  std::uint64_t outcomes = 0;     // AshOutcome events (completed runs)
  std::uint64_t consumed = 0;     // outcomes that committed the message
  std::uint64_t denials = 0;      // AshDenied events
  std::array<std::uint64_t, kMaxDenyReasons> denial_reasons{};  // by DenyReason
  std::array<std::uint64_t, kMaxOutcomes> by_outcome{};
  Histogram latency;              // entry+exec cycles per run
  Histogram exec_cycles;          // handler execution cycles per run
  std::uint64_t insns = 0;        // dynamic instructions, all runs
  std::uint64_t cycles = 0;       // latency sum (= latency.sum())
  std::uint64_t bytes_vectored = 0;  // TSend + TDilp + TUserCopy bytes
  Histogram vector_bytes;         // distribution of those transfer sizes
  std::uint64_t sends = 0;        // TSendInitiated events
  std::uint64_t dilp_runs = 0;    // DilpRun events
  std::uint64_t usercopies = 0;   // TUserCopy events
  std::uint64_t supervisor_quarantines = 0;
  std::uint64_t supervisor_revokes = 0;
  std::uint64_t batches = 0;      // BatchDispatch events (sessions)
  Histogram batch_msgs;           // executed msgs per session (arg1)
};

/// Per-demux-channel accounting (AN2 VC or Ethernet endpoint id).
struct ChannelMetrics {
  std::uint64_t frames = 0;       // FrameArrival events
  std::uint64_t bytes = 0;
  Histogram frame_bytes;
  std::uint64_t demux_decisions = 0;
  std::uint64_t demux_cycles = 0;  // summed demux cost
  std::uint64_t fallbacks = 0;     // UpcallFallback events
};

/// Receive-queue accounting for the multi-queue scaling path, keyed by
/// rx queue index (RxEnqueue / CoalesceFire events).
struct QueueMetrics {
  std::uint64_t frames = 0;       // RxEnqueue events
  std::uint64_t batches = 0;      // CoalesceFire events
  std::array<std::uint64_t, 4> by_reason{};  // by net::FireReason
  Histogram batch_frames;         // frames per fired batch
  Histogram depth;                // queue depth after each enqueue
  std::uint64_t charged_cycles = 0;  // summed entry+driver batch charges
  std::uint64_t drops = 0;        // RxDrop events
  std::array<std::uint64_t, 2> by_drop_reason{};  // by net::RxDropReason
  // Smart-NIC offload (zero when the queue has no NicProcessor in front,
  // which keeps pre-offload report output byte-identical):
  std::uint64_t nic_executed = 0;  // NicExec events (committed on-device)
  std::uint64_t nic_cycles = 0;    // summed device cycles of those runs
  std::uint64_t punts = 0;         // OffloadPunt events
  std::array<std::uint64_t, 4> by_punt_reason{};  // by net::PuntReason
};

/// Per-engine execution totals (interp vs translated form) — the
/// engine-attribution the differential suite checks for equivalence.
struct EngineMetrics {
  std::uint64_t runs = 0;
  std::uint64_t insns = 0;
  std::uint64_t cycles = 0;
};

}  // namespace ash::trace
