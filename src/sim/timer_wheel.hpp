// Hashed timer wheel (Varghese & Lauck style) for protocol timers.
//
// The TCP library used to busy-wait in fixed `pump(rto)` rounds: every
// blocking call slept a full constant RTO and then asked "did anything
// time out?". With adaptive per-segment timers (RFC 6298) and thousands
// of connections per engine that shape collapses — timers must be armed
// at arbitrary deadlines, cancelled and re-armed on every ACK, and
// serviced in deadline order. The wheel gives O(1) arm/cancel and
// amortized O(1) expiry: deadlines hash into `buckets` ticks of
// `granularity` cycles each; deadlines beyond one wheel revolution park
// in an overflow list and migrate inward as the cursor advances.
//
// Cancellation is tombstone-based (an id is struck from the live map;
// the bucket entry is skipped and reclaimed when its tick is next
// scanned), so cancel/re-arm churn — one per ACK on a busy connection —
// never moves bucket entries around.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"

namespace ash::sim {

class TimerWheel {
 public:
  /// Timer handle; 0 is never issued and safely cancels to a no-op.
  using Id = std::uint64_t;

  struct Expired {
    Cycles deadline;
    std::uint64_t cookie;
  };

  explicit TimerWheel(Cycles granularity = us(1000.0),
                      std::size_t buckets = 64);

  /// Arm a timer at absolute time `deadline` carrying `cookie`.
  Id arm(Cycles deadline, std::uint64_t cookie);

  /// Cancel a live timer. Returns false (no-op) if it already fired, was
  /// already cancelled, or was never issued (id 0).
  bool cancel(Id id);

  bool pending(Id id) const { return live_.count(id) != 0; }
  std::size_t size() const noexcept { return live_.size(); }

  /// Earliest live deadline, or nullopt when nothing is armed. Compacts
  /// tombstones out of the buckets it scans; with nothing armed, it sweeps
  /// the whole wheel only if an entry was placed since the last sweep.
  std::optional<Cycles> next_deadline();

  /// Expire every live timer with deadline <= now into `out` (ascending
  /// deadline order) and advance the cursor.
  void advance(Cycles now, std::vector<Expired>& out);

 private:
  struct Entry {
    Cycles deadline;
    Id id;
    std::uint64_t cookie;
  };

  std::uint64_t tick_of(Cycles deadline) const { return deadline / gran_; }
  bool in_horizon(std::uint64_t tick) const {
    return tick < cursor_tick_ + buckets_.size();
  }
  void place(Entry e);

  Cycles gran_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;  // deadlines beyond one revolution
  std::unordered_map<Id, Cycles> live_;
  Id next_id_ = 1;
  std::uint64_t cursor_tick_ = 0;  // ticks below this are fully drained
  bool placed_ = false;  // entries may remain since the last idle sweep
};

}  // namespace ash::sim
