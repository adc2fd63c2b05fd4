// Connection-control primitives of the per-flow TCP machine
// (tcp_flow.hpp): RFC 6298 RTT estimation, RFC 5681-shaped congestion
// accounting, and an out-of-order segment store for reassembly.
// Header-only, sim-agnostic except for Cycles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <vector>

#include "proto/headers.hpp"
#include "sim/event_queue.hpp"

namespace ash::proto {

/// RFC 6298 retransmission-timeout estimator: SRTT/RTTVAR with the
/// standard 1/8 and 1/4 gains, RTO = SRTT + 4*RTTVAR clamped to
/// [min_rto, max_rto]. Backoff is the caller's job (it owns the armed
/// timer); Karn's rule is enforced by the caller only feeding samples
/// from segments that were never retransmitted.
class RttEstimator {
 public:
  RttEstimator() = default;
  RttEstimator(sim::Cycles initial_rto, sim::Cycles min_rto,
               sim::Cycles max_rto)
      : initial_(initial_rto), min_(min_rto), max_(max_rto) {}

  void sample(sim::Cycles rtt) {
    if (!has_sample_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      has_sample_ = true;
    } else {
      const sim::Cycles err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
      rttvar_ = rttvar_ - rttvar_ / 4 + err / 4;
      srtt_ = srtt_ - srtt_ / 8 + rtt / 8;
    }
  }

  sim::Cycles rto() const {
    if (!has_sample_) return clamp(initial_);
    return clamp(srtt_ + 4 * rttvar_);
  }

  bool has_sample() const noexcept { return has_sample_; }
  sim::Cycles srtt() const noexcept { return srtt_; }
  sim::Cycles rttvar() const noexcept { return rttvar_; }

 private:
  sim::Cycles clamp(sim::Cycles v) const {
    if (v < min_) return min_;
    if (v > max_) return max_;
    return v;
  }

  sim::Cycles initial_ = sim::us(100000.0);
  sim::Cycles min_ = sim::us(1000.0);
  sim::Cycles max_ = sim::us(4000000.0);
  sim::Cycles srtt_ = 0;
  sim::Cycles rttvar_ = 0;
  bool has_sample_ = false;
};

/// Minimal RFC 5681 congestion window: slow start below ssthresh (one
/// MSS per new-data ACK), congestion avoidance above it (one MSS per
/// window), multiplicative decrease on loss. The effective send window
/// is min(cwnd, peer window) — applied by the caller.
class CongestionWindow {
 public:
  CongestionWindow() = default;
  CongestionWindow(std::uint32_t mss, std::uint32_t limit) {
    reset(mss, limit);
  }

  void reset(std::uint32_t mss, std::uint32_t limit) {
    mss_ = mss == 0 ? 1 : mss;
    limit_ = limit == 0 ? mss_ : limit;
    // The configured window doubles as the initial window: on a clean
    // link the sender fills it exactly as the pre-congestion-control
    // stack did (the handler benches calibrate against that tiling).
    // Slow start engages after the first loss event, when cwnd has
    // collapsed below ssthresh.
    cwnd_ = limit_;
    ssthresh_ = limit_;
    accum_ = 0;
  }

  std::uint32_t cwnd() const noexcept { return cwnd_; }
  std::uint32_t ssthresh() const noexcept { return ssthresh_; }

  /// `acked` bytes of new data were acknowledged.
  void on_ack(std::uint32_t acked) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(acked, mss_);  // slow start
    } else {
      accum_ += std::min(acked, mss_);  // congestion avoidance
      if (accum_ >= cwnd_) {
        accum_ = 0;
        cwnd_ += mss_;
      }
    }
    if (cwnd_ > limit_) cwnd_ = limit_;
  }

  /// Triple duplicate ACK: halve into fast retransmit.
  void on_fast_retransmit(std::uint32_t flight) {
    ssthresh_ = std::max(flight / 2, 2 * mss_);
    cwnd_ = ssthresh_;
    accum_ = 0;
  }

  /// Retransmission timeout: collapse to one segment, restart slow start.
  void on_timeout(std::uint32_t flight) {
    ssthresh_ = std::max(flight / 2, 2 * mss_);
    cwnd_ = mss_;
    accum_ = 0;
  }

 private:
  std::uint32_t mss_ = 1;
  std::uint32_t limit_ = 1;
  std::uint32_t cwnd_ = 1;
  std::uint32_t ssthresh_ = 1;
  std::uint32_t accum_ = 0;
};

/// Out-of-order segment store: buffers data above rcv_nxt for later
/// reassembly instead of dropping it. Keys are absolute sequence
/// numbers; all live entries sit within one receive window of rcv_nxt,
/// so the wraparound-aware comparator is a consistent ordering.
class OooBuffer {
 public:
  struct InsertOutcome {
    std::uint32_t buffered = 0;  // fresh bytes accepted into the store
    bool duplicate = false;      // fully below rcv_nxt or already buffered
    bool dropped = false;        // out of window or store full
  };

  /// Offer `data` at `seq` given the receiver state. Overlap with
  /// delivered data (below rcv_nxt) and with buffered segments is
  /// trimmed; anything beyond rcv_nxt + window or past `byte_limit`
  /// is refused.
  InsertOutcome insert(std::uint32_t seq, std::span<const std::uint8_t> data,
                       std::uint32_t rcv_nxt, std::uint32_t window,
                       std::size_t byte_limit) {
    InsertOutcome out;
    std::uint32_t len = static_cast<std::uint32_t>(data.size());
    if (len == 0) {
      out.duplicate = true;
      return out;
    }
    // Trim the head already delivered.
    if (seq_lt(seq, rcv_nxt)) {
      const std::uint32_t cut = rcv_nxt - seq;
      if (cut >= len) {
        out.duplicate = true;
        return out;
      }
      seq = rcv_nxt;
      data = data.subspan(cut);
      len -= cut;
    }
    // Refuse anything past the advertised window edge.
    const std::uint32_t edge = rcv_nxt + window;
    if (seq_le(edge, seq)) {
      out.dropped = true;
      return out;
    }
    if (seq_lt(edge, seq + len)) {
      len = edge - seq;
      data = data.first(len);
    }
    // Clip against the buffered neighbours. Retransmissions in this
    // stack resend identical segments, so partial overlaps reduce to
    // prefix/suffix trims against the immediate neighbours.
    auto next = segs_.lower_bound(seq);
    if (next != segs_.begin()) {
      auto prev = std::prev(next);
      const std::uint32_t prev_end =
          prev->first + static_cast<std::uint32_t>(prev->second.size());
      if (seq_lt(seq, prev_end)) {
        const std::uint32_t cut = prev_end - seq;
        if (cut >= len) {
          out.duplicate = true;
          return out;
        }
        seq = prev_end;
        data = data.subspan(cut);
        len -= cut;
        next = segs_.lower_bound(seq);
      }
    }
    if (next != segs_.end() && seq_lt(next->first, seq + len)) {
      if (seq_le(next->first, seq)) {
        out.duplicate = true;  // an existing segment covers our start
        return out;
      }
      len = next->first - seq;
      data = data.first(len);
    }
    if (bytes_ + len > byte_limit) {
      out.dropped = true;
      return out;
    }
    segs_.emplace(seq, std::vector<std::uint8_t>(data.begin(), data.end()));
    bytes_ += len;
    out.buffered = len;
    return out;
  }

  bool contiguous_at(std::uint32_t rcv_nxt) const {
    purge_stale(rcv_nxt);
    auto it = segs_.begin();
    return it != segs_.end() && seq_le(it->first, rcv_nxt);
  }

  /// Move up to `max_len` bytes contiguous at rcv_nxt out of the store.
  std::vector<std::uint8_t> pop_contiguous(std::uint32_t rcv_nxt,
                                           std::uint32_t max_len) {
    purge_stale(rcv_nxt);
    std::vector<std::uint8_t> out;
    std::uint32_t at = rcv_nxt;
    while (out.size() < max_len) {
      auto it = segs_.begin();
      if (it == segs_.end() || !seq_le(it->first, at)) break;
      std::vector<std::uint8_t> seg = std::move(it->second);
      const std::uint32_t seg_seq = it->first;
      segs_.erase(it);
      bytes_ -= seg.size();
      std::uint32_t off = at - seg_seq;  // overlap with already-taken bytes
      if (off >= seg.size()) continue;
      const std::uint32_t avail = static_cast<std::uint32_t>(seg.size()) - off;
      const std::uint32_t take = std::min<std::uint32_t>(
          avail, max_len - static_cast<std::uint32_t>(out.size()));
      out.insert(out.end(), seg.begin() + off, seg.begin() + off + take);
      at += take;
      if (take < avail) {
        // Re-key the remainder and stop: the caller ran out of room.
        bytes_ += avail - take;
        segs_.emplace(at, std::vector<std::uint8_t>(
                              seg.begin() + off + take, seg.end()));
        break;
      }
    }
    return out;
  }

  std::size_t bytes() const noexcept { return bytes_; }
  std::size_t segments() const noexcept { return segs_.size(); }
  void clear() {
    segs_.clear();
    bytes_ = 0;
  }

 private:
  struct SeqLess {
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return seq_lt(a, b);
    }
  };

  void purge_stale(std::uint32_t rcv_nxt) const {
    // Drop segments that fell entirely below rcv_nxt (delivered by the
    // in-order path while they sat here).
    auto& segs = const_cast<std::map<std::uint32_t, std::vector<std::uint8_t>,
                                     SeqLess>&>(segs_);
    auto& bytes = const_cast<std::size_t&>(bytes_);
    while (!segs.empty()) {
      auto it = segs.begin();
      const std::uint32_t end =
          it->first + static_cast<std::uint32_t>(it->second.size());
      if (!seq_le(end, rcv_nxt)) break;
      bytes -= it->second.size();
      segs.erase(it);
    }
  }

  std::map<std::uint32_t, std::vector<std::uint8_t>, SeqLess> segs_;
  std::size_t bytes_ = 0;
};

}  // namespace ash::proto
