#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.cancel(id);
  q.run_until_idle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] {
    ++count;
    q.schedule_in(5, [&] { ++count; });
  });
  q.run_until_idle();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, PastSchedulesClampToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.step();
  bool ran = false;
  q.schedule_at(50, [&] { ran = true; });  // in the past
  q.step();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, RunUntilLimitStopsEarly) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(1000, [&] { ++fired; });
  q.run_until_idle(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  q.cancel(id);         // already fired
  q.cancel(id);         // twice
  q.cancel(99999);      // never issued
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.cancelled_backlog(), 0u);
  q.run_until_idle();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId id = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_until_idle(), 1u);
  EXPECT_TRUE(q.empty());
}

// The re-armed retransmit-timer pattern: schedule far out, cancel, re-arm,
// many thousands of times with only a handful of events ever live. The
// tombstone set must stay bounded by the live population instead of
// accumulating one entry per cancelled timer for the whole run.
TEST(EventQueue, ReArmedTimersKeepBacklogBounded) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] { ++fired; });  // one live anchor event
  for (int i = 0; i < 10000; ++i) {
    const EventId timer = q.schedule_in(1'000'000, [&] { ++fired; });
    q.cancel(timer);
    ASSERT_LE(q.cancelled_backlog(), q.pending());
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_LE(q.cancelled_backlog(), 1u);
  EXPECT_EQ(q.run_until_idle(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 1u);
}

TEST(EventQueue, CompactionPreservesOrdering) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 50; ++i) {
    const EventId id =
        q.schedule_at(10 * (i % 7) + 5, [&order, i] { order.push_back(i); });
    if (i % 2 == 1) victims.push_back(id);
  }
  for (const EventId id : victims) q.cancel(id);  // triggers compaction
  EXPECT_EQ(q.pending(), 25u);
  q.run_until_idle();
  ASSERT_EQ(order.size(), 25u);
  // Survivors still run in (time, schedule-order) order.
  std::vector<int> expected = order;
  std::stable_sort(expected.begin(), expected.end(), [](int a, int b) {
    return (10 * (a % 7) + 5) < (10 * (b % 7) + 5);
  });
  EXPECT_EQ(order, expected);
  for (const int i : order) EXPECT_EQ(i % 2, 0);
}

TEST(EventQueue, ScheduledAtKeyOrdersAsTimeThenId) {
  // The queue orders by (time, scheduled-at, id). For schedule_at events
  // that must be exactly the (time, id) order: check a seeded run of
  // schedules (some from inside callbacks, some at equal times) and
  // cancels against a reference ordered set.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    EventQueue q;
    std::set<std::pair<Cycles, EventId>> ref;
    std::vector<std::pair<Cycles, EventId>> live;
    int mismatches = 0;
    std::size_t ran = 0;
    std::function<void(Cycles)> add = [&](Cycles at) {
      at = std::max(at, q.now());
      auto id = std::make_shared<EventId>(0);
      *id = q.schedule_at(at, [&, at, id] {
        ++ran;
        if (ref.empty() || *ref.begin() != std::make_pair(at, *id)) {
          ++mismatches;
        }
        ref.erase({at, *id});
        if (rng.below(3) == 0) add(q.now() + rng.below(4) * 10);
      });
      ref.insert({at, *id});
      live.emplace_back(at, *id);
    };
    for (int i = 0; i < 200; ++i) add(rng.below(30) * 10);
    for (int i = 0; i < 60; ++i) {
      const auto& [at, id] = live[rng.below(live.size())];
      q.cancel(id);
      ref.erase({at, id});
    }
    q.run_until_idle();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
    EXPECT_TRUE(ref.empty()) << "seed " << seed;
    EXPECT_GT(ran, 140u);
  }
}

TEST(EventQueue, ResumptionOrdersWhereTheCheckChunkEventWould) {
  // A poll check at t=100 schedules its chunk event for t=120. Events at
  // 120 order against it by when they were scheduled: A (at t=50) and B
  // (at t=100, before the check) run first; C (at t=100, after the
  // check) and D (at t=110) run after. A resumption scheduled late, as of
  // the check and with the id reserved there, must land in the same spot.
  for (const bool resumption : {false, true}) {
    EventQueue q;
    std::string order;
    EventId chunk_id = 0;
    const auto mark = [&order](char c) {
      return [&order, c] { order += c; };
    };
    q.schedule_at(50, [&] { q.schedule_at(120, mark('A')); });
    q.schedule_at(100, [&] { q.schedule_at(120, mark('B')); });
    q.schedule_at(100, [&] {  // the check
      if (resumption) {
        chunk_id = q.reserve_id();
      } else {
        q.schedule_at(120, mark('*'));
      }
    });
    q.schedule_at(100, [&] { q.schedule_at(120, mark('C')); });
    q.schedule_at(110, [&] {
      // The first event after the check schedules the resumption, then
      // D.
      if (resumption) q.schedule_resumption(120, 100, chunk_id, mark('*'));
      q.schedule_at(120, mark('D'));
    });
    q.run_until_idle();
    EXPECT_EQ(order, "AB*CD") << resumption;
  }
}

TEST(Cache, ReadMissThenHit) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  EXPECT_EQ(cache.access(0x100, 4, false), 20u);  // miss fills line
  EXPECT_EQ(cache.access(0x104, 4, false), 0u);   // same line: hit
  EXPECT_EQ(cache.access(0x10c, 4, false), 0u);
  EXPECT_EQ(cache.access(0x110, 4, false), 20u);  // next line
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, DirectMappedConflictEviction) {
  Cache cache({.size_bytes = 256, .line_bytes = 16, .read_miss_penalty = 10});
  EXPECT_EQ(cache.access(0, 4, false), 10u);
  EXPECT_EQ(cache.access(256, 4, false), 10u);  // maps to same line index
  EXPECT_EQ(cache.access(0, 4, false), 10u);    // evicted: miss again
}

TEST(Cache, WriteThroughNoAllocate) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  EXPECT_EQ(cache.access(0x40, 4, true), 0u);   // write miss: no fill
  EXPECT_FALSE(cache.contains(0x40));
  EXPECT_EQ(cache.access(0x40, 4, false), 20u);  // still a read miss
  EXPECT_TRUE(cache.contains(0x40));
  EXPECT_EQ(cache.access(0x40, 4, true), 0u);    // write hit: cheap
  EXPECT_TRUE(cache.contains(0x40));
}

TEST(Cache, AccessSpanningTwoLines) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  EXPECT_EQ(cache.access(0x1e, 4, false), 40u);  // crosses 0x10/0x20 lines
}

TEST(Cache, FlushAllAndInvalidateRange) {
  Cache cache({.size_bytes = 1024, .line_bytes = 16, .read_miss_penalty = 20});
  cache.touch_range(0, 64);
  EXPECT_TRUE(cache.contains(0x30));
  cache.invalidate_range(0x10, 16);
  EXPECT_TRUE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x10));
  EXPECT_TRUE(cache.contains(0x20));
  cache.flush_all();
  EXPECT_FALSE(cache.contains(0x00));
  EXPECT_FALSE(cache.contains(0x20));
}

TEST(Cache, InvalidateHugeRangeFlushes) {
  Cache cache({.size_bytes = 256, .line_bytes = 16, .read_miss_penalty = 20});
  cache.touch_range(0, 256);
  cache.invalidate_range(0, 1u << 20);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(240));
}

TEST(Cache, RejectsBadGeometry) {
  const auto make = [](std::uint32_t size, std::uint32_t line) {
    return Cache({.size_bytes = size, .line_bytes = line});
  };
  EXPECT_THROW(make(1024, 0), std::invalid_argument);    // zero line size
  EXPECT_THROW(make(0, 16), std::invalid_argument);      // zero lines
  EXPECT_THROW(make(8, 16), std::invalid_argument);      // under one line
  EXPECT_THROW(make(1024, 12), std::invalid_argument);   // line not 2^k
  EXPECT_THROW(make(1000, 8), std::invalid_argument);    // 125 lines
  EXPECT_THROW(make(1032, 16), std::invalid_argument);   // truncated count
  EXPECT_THROW(make(3 * 1024, 16), std::invalid_argument);  // 192 lines
  EXPECT_NO_THROW(make(16, 16));                         // one line
  EXPECT_NO_THROW(make(64 * 1024, 64));
}

TEST(TimeConversion, CyclesAndMicroseconds) {
  EXPECT_DOUBLE_EQ(to_us(40), 1.0);
  EXPECT_EQ(us(1.0), 40u);
  EXPECT_EQ(us(96.0), 3840u);
}

}  // namespace
}  // namespace ash::sim
