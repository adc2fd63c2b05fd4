// Discrete-event core: a cancellable time-ordered event queue.
//
// All simulated time in this library is measured in CPU cycles of the
// 40 MHz DECstation 5000/240 the paper measured on; helpers convert to
// microseconds for reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"

namespace ash::sim {

/// Simulated time in CPU cycles (40 MHz unless reconfigured).
using Cycles = std::uint64_t;

inline constexpr double kCpuMhz = 40.0;

/// Convert cycles to microseconds at the simulated clock rate.
constexpr double to_us(Cycles c) noexcept {
  return static_cast<double>(c) / kCpuMhz;
}

/// Convert microseconds to cycles.
constexpr Cycles us(double microseconds) noexcept {
  return static_cast<Cycles>(microseconds * kCpuMhz);
}

/// "No deadline" for the waits and polls that take one.
inline constexpr Cycles kNever = ~Cycles{0};

using EventId = std::uint64_t;

/// Cancellation is tombstone-based but bounded: cancelling an id that is
/// not live (already fired, already cancelled, never issued) is a true
/// no-op, and whenever parked tombstones outnumber live events the heap is
/// compacted in one pass. Workloads that re-arm and cancel timers
/// indefinitely (TCP retransmit timers) therefore hold memory proportional
/// to the live event count, not to history.
///
/// Scheduling and firing allocate nothing once the queue has seen its
/// peak population: a binary heap of 32-byte keys orders the events, each
/// key names a slot in a reused table that holds the callback (an EventFn,
/// inline) and the cancelled flag, and cancel() finds an id's slot
/// through an open-addressed index. An id is live at most once at a time;
/// a cancelled resumption's reserved id may be scheduled again.
class EventQueue {
 public:
  Cycles now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `at` (clamped to now). Events at equal
  /// times run in scheduling order. Returns an id usable with cancel().
  EventId schedule_at(Cycles at, EventFn fn);

  /// Schedule a parked poller's resumption (Process::poll_idle) at `at`,
  /// ordered among equal-time events as if it had been scheduled at the
  /// earlier time `as_of` with id `id`, issued by reserve_id(): the queue
  /// orders by (time, scheduled-at, id), which for every schedule_at
  /// event is exactly (time, id). The event is marked as a resumption, so
  /// Simulator::run does not count it as a touch of other parked pollers.
  EventId schedule_resumption(Cycles at, Cycles as_of, EventId id,
                              EventFn fn);

  /// Issue an id now for an event scheduled later (schedule_resumption).
  EventId reserve_id() noexcept { return next_id_++; }
  /// The id the next scheduled event will get.
  EventId next_id() const noexcept { return next_id_; }

  /// Schedule `fn` after `delay` cycles.
  EventId schedule_in(Cycles delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Ignored if already fired or unknown.
  void cancel(EventId id);

  /// Run the earliest pending event, advancing the clock. Returns false
  /// when no events remain.
  bool step();

  /// Run until the queue drains or the clock passes `limit`.
  /// Returns the number of events executed.
  std::size_t run_until_idle(Cycles limit = ~Cycles{0});

  bool empty() const noexcept { return live_ == 0; }
  std::size_t pending() const noexcept { return live_; }

  /// Cancelled entries still parked in the heap. Bounded by pending() via
  /// compaction; exposed so tests can pin the no-leak invariant.
  std::size_t cancelled_backlog() const noexcept { return cancelled_; }

  /// Time of the next live event, or ~0 when the queue is empty. Discards
  /// cancelled entries encountered at the head.
  Cycles next_time();

  /// The ordering key of the next live event. Valid only right after
  /// next_time() returned a time other than kNever.
  struct Key {
    Cycles at;
    Cycles sched;  // the time it was scheduled (as of)
    EventId id;
    bool resumption;
  };
  Key head() const noexcept {
    const Ev& e = heap_.front();
    return Key{e.at, e.sched, e.id, e.resumption};
  }

  /// Move the clock forward to `t` with no event (no-op if `t` is not
  /// later than now).
  void advance_to(Cycles t) noexcept {
    if (t > now_) now_ = t;
  }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Heap entry: the ordering key and the slot holding the callback.
  struct Ev {
    Cycles at;
    Cycles sched;
    EventId id;
    std::uint32_t slot;
    bool resumption;
  };
  static_assert(sizeof(Ev) == 32, "heap sifts move 32-byte keys");
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.sched != b.sched ? a.sched > b.sched : a.id > b.id;
    }
  };
  /// A callback's home from schedule until it fires or its cancelled
  /// entry leaves the heap; free slots chain through `next_free`.
  struct Slot {
    EventFn fn;
    std::uint32_t next_free = kNoSlot;
    bool cancelled = false;
  };

  /// Live id -> slot, open-addressed: linear probing from a Fibonacci
  /// hash, backward-shift deletion, doubled at half load and never
  /// shrunk.
  class IdIndex {
   public:
    void insert(EventId id, std::uint32_t slot);
    /// Remove `id` and return its slot, or kNoSlot if it is not live.
    std::uint32_t take(EventId id) noexcept;

   private:
    struct Entry {
      EventId id = 0;
      std::uint32_t slot = kNoSlot;  // kNoSlot: empty
    };
    std::size_t home(EventId id) const noexcept {
      return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void grow();

    std::vector<Entry> table_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
  };

  void push(Cycles at, Cycles sched, EventId id, bool resumption,
            EventFn&& fn);
  std::uint32_t alloc_slot(EventFn&& fn);
  void free_slot(std::uint32_t s) noexcept;

  /// Drop every tombstoned entry from the heap in one O(n) pass.
  void compact();

  Cycles now_ = 0;
  EventId next_id_ = 1;
  std::vector<Ev> heap_;  // binary heap ordered by Later
  std::vector<Slot> slots_;
  std::uint32_t free_ = kNoSlot;  // head of the free-slot chain
  IdIndex ids_;
  std::size_t live_ = 0;       // scheduled, not fired or cancelled
  std::size_t cancelled_ = 0;  // tombstones still in heap_
};

}  // namespace ash::sim
