// The event core: the slot-table EventQueue run against a reference
// model, and the EventFn callable that holds each event's closure.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

// ------------------------------------------------------- differential

/// A seeded random run of schedules, resumptions with reserved ids,
/// cancels and the three ways of running events, checked step by step
/// against the live events as an ordered set of (time, scheduled-at, id):
/// the order the queue must fire them in.
class Diff {
 public:
  using Key = std::tuple<Cycles, Cycles, EventId>;
  /// 56 bytes carried by every closure (72 in all), checked when it runs,
  /// so a closure that was overwritten or moved wrongly shows.
  using Pad = std::array<std::uint8_t, 56>;

  explicit Diff(std::uint64_t seed) : rng_(seed) {}

  void run(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const std::uint64_t k = rng_.below(10);
      if (k < 5) {
        act();
      } else if (k < 7) {
        const bool had = !order_.empty();
        EXPECT_EQ(q_.step(), had);
      } else if (k < 9) {
        check_head();
      } else {
        run_until(q_.now() + rng_.below(60));
      }
      check_counts();
    }
    const std::size_t fired_before = fired;
    const std::size_t n = q_.run_until_idle();
    EXPECT_EQ(n, fired - fired_before);
    EXPECT_TRUE(order_.empty());
    EXPECT_TRUE(q_.empty());
  }

  std::size_t mismatches = 0;
  std::size_t fired = 0;
  std::size_t resumptions = 0;
  std::size_t compactions = 0;
  std::size_t cancels[4] = {};  // live, fired, cancelled, never issued

 private:
  static Pad pad_of(EventId id) {
    Pad p;
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::uint8_t>(id * 31 + i);
    }
    return p;
  }

  EventFn fire(EventId id) {
    return [this, id, pad = pad_of(id)] { on_fire(id, pad); };
  }

  void on_fire(EventId id, const Pad& pad) {
    ++fired;
    if (pad != pad_of(id)) ++mismatches;
    const auto it = live_.find(id);
    if (it == live_.end() || order_.empty() ||
        *order_.begin() != it->second.first ||
        q_.now() != std::get<0>(it->second.first)) {
      ++mismatches;
    }
    if (it != live_.end()) {
      order_.erase(it->second.first);
      live_.erase(it);
    }
    fired_ids_.insert(id);
    // Schedule, reserve, resume and cancel from inside callbacks too.
    for (std::uint64_t n = rng_.below(3); n > 0; --n) act();
  }

  void act() {
    switch (rng_.below(8)) {
      case 0:
      case 1:
      case 2: {  // schedule_at, now or later (or in the past: clamped)
        const Cycles now = q_.now();
        const Cycles back = rng_.below(4) == 0 ? std::min<Cycles>(now, 5) : 0;
        const Cycles at = now - back + rng_.below(6) * 10;
        const EventId id = q_.next_id();
        EXPECT_EQ(q_.schedule_at(at, fire(id)), id);
        add(id, Key{std::max(at, now), now, id}, false);
        break;
      }
      case 3: {  // reserve an id for a resumption ordered as of earlier
        const Cycles now = q_.now();
        const Cycles as_of = now - rng_.below(std::min<Cycles>(now, 40) + 1);
        reserved_.emplace_back(q_.reserve_id(), as_of);
        break;
      }
      case 4: {  // a resumption with a reserved id
        if (reserved_.empty()) break;
        const std::size_t i = rng_.below(reserved_.size());
        const auto [id, as_of] = reserved_[i];
        reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(i));
        const Cycles at = q_.now() + rng_.below(5) * 10;
        EXPECT_EQ(q_.schedule_resumption(at, as_of, id, fire(id)), id);
        add(id, Key{at, as_of, id}, true);
        as_of_[id] = as_of;
        ++resumptions;
        break;
      }
      default:
        cancel();
    }
  }

  void add(EventId id, const Key& key, bool resumption) {
    order_.insert(key);
    live_[id] = {key, resumption};
    issued_.push_back(id);
  }

  void cancel() {
    EventId id = 0;
    std::size_t kind = 3;
    if (!issued_.empty() && rng_.below(5) != 0) {
      id = issued_[rng_.below(issued_.size())];
      kind = live_.count(id) != 0       ? 0
             : fired_ids_.count(id) != 0 ? 1
                                         : 2;
    } else {
      id = q_.next_id() + rng_.below(100);  // never issued
    }
    ++cancels[kind];
    const std::size_t backlog = q_.cancelled_backlog();
    q_.cancel(id);
    const auto it = live_.find(id);
    if (it == live_.end()) {
      if (q_.cancelled_backlog() != backlog) ++mismatches;
      return;
    }
    if (it->second.second && fired_ids_.count(id) == 0) {
      // A cancelled resumption's id may be scheduled again, while its
      // tombstone may still sit in the heap.
      reserved_.emplace_back(id, as_of_[id]);
    }
    order_.erase(it->second.first);
    live_.erase(it);
    if (q_.cancelled_backlog() == 0) {
      ++compactions;
    } else if (q_.cancelled_backlog() != backlog + 1) {
      ++mismatches;
    }
    if (q_.cancelled_backlog() > q_.pending()) ++mismatches;
  }

  void check_head() {
    const Cycles t = q_.next_time();
    if (order_.empty()) {
      EXPECT_EQ(t, kNever);
      return;
    }
    const Key& k = *order_.begin();
    EXPECT_EQ(t, std::get<0>(k));
    const EventQueue::Key h = q_.head();
    EXPECT_EQ(Key(h.at, h.sched, h.id), k);
    EXPECT_EQ(h.resumption, live_.at(std::get<2>(k)).second);
  }

  void run_until(Cycles limit) {
    const Cycles before = q_.now();
    const std::size_t fired_before = fired;
    const std::size_t n = q_.run_until_idle(limit);
    EXPECT_EQ(n, fired - fired_before);
    EXPECT_EQ(q_.now(), std::max(before, limit));
    if (!order_.empty()) {
      EXPECT_GT(std::get<0>(*order_.begin()), limit);
    }
  }

  void check_counts() {
    EXPECT_EQ(q_.pending(), live_.size());
    EXPECT_EQ(q_.empty(), live_.empty());
  }

  EventQueue q_;
  util::Rng rng_;
  std::set<Key> order_;
  std::map<EventId, std::pair<Key, bool>> live_;  // id -> key, resumption
  std::set<EventId> fired_ids_;
  std::vector<EventId> issued_;
  std::vector<std::pair<EventId, Cycles>> reserved_;  // not live
  std::map<EventId, Cycles> as_of_;
};

TEST(EventQueueDiff, MatchesAnOrderedSetOfTimeScheduledAtId) {
  std::size_t fired = 0, resumptions = 0, compactions = 0;
  std::size_t cancels[4] = {};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Diff d(seed);
    d.run(400);
    EXPECT_EQ(d.mismatches, 0u) << "seed " << seed;
    fired += d.fired;
    resumptions += d.resumptions;
    compactions += d.compactions;
    for (int k = 0; k < 4; ++k) cancels[k] += d.cancels[k];
  }
  // The run reached every case it is meant to cover.
  EXPECT_GT(fired, 4000u);
  EXPECT_GT(resumptions, 200u);
  EXPECT_GT(compactions, 20u);
  for (int k = 0; k < 4; ++k) EXPECT_GT(cancels[k], 50u) << "kind " << k;
}

// ------------------------------------------------------------ EventFn

/// Counts live copies of itself, moves and calls.
struct Probe {
  static inline int alive = 0;
  static inline int moves = 0;
  static inline int calls = 0;
  static void reset() { alive = moves = calls = 0; }

  Probe() { ++alive; }
  Probe(const Probe&) { ++alive; }
  Probe(Probe&&) noexcept {
    ++alive;
    ++moves;
  }
  ~Probe() { --alive; }
};

template <std::size_t N>
auto probe_closure() {
  return [p = Probe{}, pad = std::array<std::uint8_t, N>{}] {
    (void)p;
    (void)pad;
    ++Probe::calls;
  };
}

TEST(EventFn, InlineClosureRunsOnceAndDestroysOnce) {
  Probe::reset();
  {
    EventQueue q;
    {
      auto f = probe_closure<72>();
      static_assert(sizeof(f) <= EventFn::kInline);
      q.schedule_at(10, std::move(f));
    }
    EXPECT_EQ(Probe::alive, 1);  // the queue's copy only
    q.run_until_idle();
    EXPECT_EQ(Probe::calls, 1);
    EXPECT_EQ(Probe::alive, 0);  // destroyed once it ran
  }
  EXPECT_EQ(Probe::alive, 0);

  // Moving an inline EventFn moves its closure.
  Probe::reset();
  EventFn a = probe_closure<16>();
  const int moves = Probe::moves;
  EventFn b = std::move(a);
  EXPECT_EQ(Probe::moves, moves + 1);
  EXPECT_EQ(Probe::alive, 1);
  b();
  b = nullptr;
  EXPECT_EQ(Probe::calls, 1);
  EXPECT_EQ(Probe::alive, 0);
}

TEST(EventFn, HeapClosureRunsOnceAndDestroysOnce) {
  Probe::reset();
  {
    EventQueue q;
    {
      auto f = probe_closure<EventFn::kInline>();
      static_assert(sizeof(f) > EventFn::kInline);
      q.schedule_at(10, std::move(f));
    }
    EXPECT_EQ(Probe::alive, 1);
    q.run_until_idle();
    EXPECT_EQ(Probe::calls, 1);
    EXPECT_EQ(Probe::alive, 0);
  }

  // Moving a boxed EventFn moves the pointer, not the closure.
  Probe::reset();
  EventFn a = probe_closure<2 * EventFn::kInline>();
  const int moves = Probe::moves;
  EventFn b = std::move(a);
  EventFn c;
  c = std::move(b);
  EXPECT_EQ(Probe::moves, moves);
  EXPECT_EQ(Probe::alive, 1);
  c();
  EXPECT_EQ(Probe::calls, 1);
  c = nullptr;
  EXPECT_EQ(Probe::alive, 0);
}

TEST(EventFn, CancelledClosureIsDestroyedOnce) {
  Probe::reset();
  {
    EventQueue q;
    q.schedule_at(5, [] {});
    const EventId id = q.schedule_at(10, probe_closure<40>());
    q.cancel(id);
    q.cancel(id);
    EXPECT_EQ(Probe::alive, 0);
    q.run_until_idle();
    EXPECT_EQ(Probe::calls, 0);
  }
  EXPECT_EQ(Probe::alive, 0);
}

TEST(EventFn, MoveLeavesTheSourceEmpty) {
  int n = 0;
  EventFn a = [&n] { ++n; };
  ASSERT_TRUE(a);
  EventFn b = std::move(a);
  EXPECT_FALSE(a);  // a moved-from EventFn is empty: the contract
  EXPECT_TRUE(b);
  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(b);
  c();
  EXPECT_EQ(n, 1);
  EXPECT_THROW(a(), std::bad_function_call);
  EXPECT_FALSE(EventFn{});
  EXPECT_FALSE(EventFn{nullptr});
}

TEST(EventFn, CopiesAStdFunctionLvalue) {
  int n = 0;
  const std::function<void()> fn = [&n] { ++n; };
  EventFn a = fn;
  EventFn b = fn;
  a();
  b();
  fn();
  EXPECT_EQ(n, 3);
  const std::function<void()> none;
  EXPECT_FALSE(EventFn(none));
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(EventFn(null_fn));
}

TEST(EventFn, CallbackSchedulesIntoItsOwnFreedSlot) {
  // The running event's slot is free before its callback runs, so the
  // first schedule inside reuses it and the next ones grow the table;
  // the running closure's captures must survive both.
  EventQueue q;
  std::vector<int> order;
  std::array<std::uint64_t, 9> pad{};
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = 0x1111 * (i + 1);
  bool intact = false;
  q.schedule_at(10, [&q, &order, &intact, pad] {
    const auto before = pad;
    for (int i = 0; i < 64; ++i) {
      q.schedule_at(20 + i % 3, [&order, i, pad] {
        if (pad[8] == 0x1111 * 9) order.push_back(i);
      });
    }
    intact = pad == before && pad[0] == 0x1111;
    order.push_back(-1);
  });
  EXPECT_EQ(q.run_until_idle(), 65u);
  EXPECT_TRUE(intact);
  ASSERT_EQ(order.size(), 65u);
  EXPECT_EQ(order.front(), -1);
  // Equal times still run in schedule order.
  std::vector<int> expected;
  for (int r = 0; r < 3; ++r) {
    for (int i = r; i < 64; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(std::vector<int>(order.begin() + 1, order.end()), expected);
}

}  // namespace
}  // namespace ash::sim
