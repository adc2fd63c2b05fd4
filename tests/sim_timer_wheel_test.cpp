// TimerWheel: the O(1) arm/cancel deadline store behind the TCP
// engine's per-flow retransmission, persist, and TIME_WAIT timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

std::vector<TimerWheel::Expired> drain(TimerWheel& w, Cycles now) {
  std::vector<TimerWheel::Expired> out;
  w.advance(now, out);
  return out;
}

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel w(/*granularity=*/100, /*buckets=*/8);
  w.arm(500, 5);
  w.arm(100, 1);
  w.arm(300, 3);
  w.arm(300, 33);  // same tick, still reported

  EXPECT_EQ(w.size(), 4u);
  ASSERT_TRUE(w.next_deadline().has_value());
  EXPECT_EQ(*w.next_deadline(), 100u);

  const auto fired = drain(w, 600);
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      fired.begin(), fired.end(),
      [](const auto& a, const auto& b) { return a.deadline < b.deadline; }));
  EXPECT_EQ(fired.front().cookie, 1u);
  EXPECT_EQ(fired.back().cookie, 5u);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.next_deadline().has_value());
}

TEST(TimerWheel, AdvanceIsExclusiveOfTheFuture) {
  TimerWheel w(100, 8);
  w.arm(250, 1);
  w.arm(900, 2);
  const auto first = drain(w, 250);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].cookie, 1u);
  EXPECT_EQ(w.size(), 1u);
  const auto second = drain(w, 899);
  EXPECT_TRUE(second.empty());  // 900 has not arrived yet
  const auto third = drain(w, 900);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].cookie, 2u);
}

TEST(TimerWheel, CancelIsTombstoneAndIdempotent) {
  TimerWheel w(100, 8);
  const auto a = w.arm(200, 1);
  const auto b = w.arm(200, 2);
  EXPECT_TRUE(w.cancel(a));
  EXPECT_FALSE(w.cancel(a));  // already cancelled
  EXPECT_FALSE(w.cancel(0));  // the never-issued id
  EXPECT_FALSE(w.pending(a));
  EXPECT_TRUE(w.pending(b));

  const auto fired = drain(w, 1000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 2u);
  EXPECT_FALSE(w.cancel(b));  // already fired
}

TEST(TimerWheel, NextDeadlineSkipsCancelled) {
  TimerWheel w(100, 8);
  const auto a = w.arm(100, 1);
  w.arm(400, 2);
  EXPECT_EQ(*w.next_deadline(), 100u);
  w.cancel(a);
  EXPECT_EQ(*w.next_deadline(), 400u);
}

TEST(TimerWheel, OverflowDeadlinesMigrateInward) {
  // One revolution is 8 * 100 cycles; these park in the overflow list
  // and must still fire exactly once, in order, as the cursor advances.
  TimerWheel w(100, 8);
  w.arm(250, 1);
  w.arm(2500, 2);   // ~3 revolutions out
  w.arm(10000, 3);  // far out

  auto fired = drain(w, 300);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 1u);

  fired = drain(w, 2600);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 2u);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(*w.next_deadline(), 10000u);

  fired = drain(w, 20000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 3u);
}

TEST(TimerWheel, CancelReachesOverflow) {
  TimerWheel w(100, 4);
  const auto far = w.arm(5000, 9);
  w.arm(150, 1);
  EXPECT_TRUE(w.cancel(far));
  const auto fired = drain(w, 6000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 1u);
}

TEST(TimerWheel, RearmChurnLeavesOnlyTheLiveTimer) {
  // The per-ACK cancel/re-arm pattern of a busy TCP flow: many dead ids,
  // one live deadline.
  TimerWheel w(100, 16);
  TimerWheel::Id live = 0;
  for (int i = 0; i < 1000; ++i) {
    if (live != 0) w.cancel(live);
    live = w.arm(static_cast<Cycles>(1000 + i), 7);
  }
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(*w.next_deadline(), 1999u);
  const auto fired = drain(w, 3000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 7u);
  EXPECT_EQ(fired[0].deadline, 1999u);
}

TEST(TimerWheel, IdleWheelStaysEmptyAndFindsTheNextArm) {
  // Everything cancelled, one deadline in the overflow list: the idle
  // wheel reports nothing on consecutive calls, and a later arm is found
  // and fires alone.
  TimerWheel w(100, 4);
  const auto a = w.arm(150, 1);
  const auto b = w.arm(250, 2);
  const auto far = w.arm(5000, 3);
  EXPECT_TRUE(w.cancel(a));
  EXPECT_TRUE(w.cancel(b));
  EXPECT_TRUE(w.cancel(far));
  EXPECT_FALSE(w.next_deadline().has_value());
  EXPECT_FALSE(w.next_deadline().has_value());

  w.arm(300, 4);
  ASSERT_TRUE(w.next_deadline().has_value());
  EXPECT_EQ(*w.next_deadline(), 300u);
  const auto fired = drain(w, 6000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 4u);
  EXPECT_EQ(fired[0].deadline, 300u);
  EXPECT_FALSE(w.next_deadline().has_value());
}

TEST(TimerWheel, ZeroDelayDeadlineFiresOnNextAdvance) {
  TimerWheel w(100, 8);
  w.arm(0, 1);
  const auto fired = drain(w, 0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].cookie, 1u);
}

TEST(TimerWheel, OneLongAdvanceFiresLikeStepwiseAdvances) {
  // A poll loop parked by Process::poll_idle services its timers only at
  // the checks it really runs, not at every poll_iteration: one advance
  // to T must fire the same (deadline, cookie) sequence as advancing to T
  // in poll_iteration steps.
  constexpr Cycles kStep = 20;  // poll_iteration
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    TimerWheel once(/*granularity=*/100 + 50 * (seed % 3), /*buckets=*/8);
    TimerWheel stepped(100 + 50 * (seed % 3), 8);
    std::vector<TimerWheel::Expired> a, b;
    Cycles now = 0;
    for (int round = 0; round < 20; ++round) {
      std::vector<TimerWheel::Id> ids;
      for (int i = 0, n = static_cast<int>(rng.below(6)); i < n; ++i) {
        const Cycles at = now + rng.below(3000);
        const std::uint64_t cookie = rng.below(4);
        ids.push_back(once.arm(at, cookie));
        EXPECT_EQ(stepped.arm(at, cookie), ids.back());
      }
      if (!ids.empty() && rng.below(2) == 0) {
        const TimerWheel::Id victim = ids[rng.below(ids.size())];
        EXPECT_EQ(once.cancel(victim), stepped.cancel(victim));
      }
      const Cycles target = now + rng.below(200) * kStep;
      once.advance(target, a);
      for (Cycles t = now + kStep; t < target; t += kStep) {
        stepped.advance(t, b);
      }
      stepped.advance(target, b);
      now = target;
      EXPECT_EQ(once.next_deadline(), stepped.next_deadline());
    }
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].deadline, b[i].deadline) << "seed " << seed;
      EXPECT_EQ(a[i].cookie, b[i].cookie) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace ash::sim
