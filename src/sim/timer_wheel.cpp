#include "sim/timer_wheel.hpp"

#include <algorithm>

namespace ash::sim {

TimerWheel::TimerWheel(Cycles granularity, std::size_t buckets)
    : gran_(granularity == 0 ? 1 : granularity),
      buckets_(buckets == 0 ? 1 : buckets) {}

void TimerWheel::place(Entry e) {
  placed_ = true;
  std::uint64_t tick = tick_of(e.deadline);
  if (tick < cursor_tick_) tick = cursor_tick_;  // past-due: next advance fires it
  if (!in_horizon(tick)) {
    overflow_.push_back(e);
    return;
  }
  buckets_[tick % buckets_.size()].push_back(e);
}

TimerWheel::Id TimerWheel::arm(Cycles deadline, std::uint64_t cookie) {
  const Id id = next_id_++;
  live_.emplace(id, deadline);
  place(Entry{deadline, id, cookie});
  return id;
}

bool TimerWheel::cancel(Id id) {
  return live_.erase(id) != 0;  // bucket entry becomes a tombstone
}

std::optional<Cycles> TimerWheel::next_deadline() {
  if (live_.empty()) {
    // Nothing armed: reclaim all tombstones in one sweep, unless nothing
    // was placed since the last one.
    if (placed_) {
      for (auto& b : buckets_) b.clear();
      overflow_.clear();
      placed_ = false;
    }
    return std::nullopt;
  }
  const std::size_t n = buckets_.size();
  // Bucket at offset i holds only tick cursor+i of the current revolution,
  // so the first bucket with a live entry holds the minimum.
  for (std::size_t i = 0; i < n; ++i) {
    auto& b = buckets_[(cursor_tick_ + i) % n];
    std::optional<Cycles> best;
    std::size_t w = 0;
    for (const Entry& e : b) {
      if (live_.count(e.id) == 0) continue;  // tombstone: drop
      if (!best || e.deadline < *best) best = e.deadline;
      b[w++] = e;
    }
    b.resize(w);
    if (best) return best;
  }
  std::optional<Cycles> best;
  std::size_t w = 0;
  for (const Entry& e : overflow_) {
    if (live_.count(e.id) == 0) continue;
    if (!best || e.deadline < *best) best = e.deadline;
    overflow_[w++] = e;
  }
  overflow_.resize(w);
  return best;
}

void TimerWheel::advance(Cycles now, std::vector<Expired>& out) {
  const std::size_t first = out.size();
  const std::size_t n = buckets_.size();
  const std::uint64_t new_cursor = tick_of(now);
  if (new_cursor >= cursor_tick_) {
    // Scan each tick from the cursor through `now`'s tick — at most one
    // full revolution, since a bucket holds a single tick's entries.
    const std::uint64_t span = new_cursor - cursor_tick_ + 1;
    const std::uint64_t scan = std::min<std::uint64_t>(span, n);
    for (std::uint64_t i = 0; i < scan; ++i) {
      auto& b = buckets_[(cursor_tick_ + i) % n];
      std::size_t w = 0;
      for (const Entry& e : b) {
        auto it = live_.find(e.id);
        if (it == live_.end()) continue;
        if (e.deadline <= now) {
          out.push_back({e.deadline, e.cookie});
          live_.erase(it);
        } else {
          b[w++] = e;  // later in the current tick, or a later revolution
        }
      }
      b.resize(w);
    }
    cursor_tick_ = new_cursor;
  }
  // Overflow entries expire directly (huge jumps) or migrate inward once
  // their tick enters the horizon.
  std::size_t w = 0;
  for (const Entry& e : overflow_) {
    auto it = live_.find(e.id);
    if (it == live_.end()) continue;
    if (e.deadline <= now) {
      out.push_back({e.deadline, e.cookie});
      live_.erase(it);
    } else if (in_horizon(tick_of(e.deadline))) {
      buckets_[tick_of(e.deadline) % n].push_back(e);
    } else {
      overflow_[w++] = e;
    }
  }
  overflow_.resize(w);
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const Expired& a, const Expired& b) {
              return a.deadline < b.deadline;
            });
}

}  // namespace ash::sim
