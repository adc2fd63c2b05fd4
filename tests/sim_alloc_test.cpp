// The event core allocates nothing in steady state. A binary of its own,
// because it replaces the global operator new and delete to count calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a nonzero multiple of the alignment.
  if (void* p = std::aligned_alloc(a, std::max(a, (n + a - 1) / a * a))) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ash::sim {
namespace {

TEST(EventAlloc, SteadyStateScheduleFireCancelAllocatesNothing) {
  // One cycle: a 72-byte event that schedules another from inside its
  // callback, an 80-byte resumption with a reserved id, three 80-byte
  // events cancelled (the third cancel compacts), a cancel of an id that
  // already fired, then a run to the end of the cycle's window.
  EventQueue q;
  std::uint64_t ran = 0;
  std::array<std::uint64_t, 8> pad8{};
  std::array<std::uint64_t, 9> pad9{};
  EventId fired = 0;
  const auto cycle = [&] {
    const EventId a = q.schedule_in(5, [&q, &ran, pad8] {
      ran += pad8[0] + 1;
      q.schedule_in(1, [&ran, pad8] { ran += pad8[1] + 1; });
    });
    const EventId r = q.reserve_id();
    q.schedule_resumption(q.now() + 3, q.now(), r,
                          [&ran, pad9] { ran += pad9[1] + 1; });
    for (Cycles at = 7; at < 10; ++at) {
      q.cancel(q.schedule_in(at, [&ran, pad9] { ran += pad9[0] + 100; }));
    }
    q.cancel(fired);
    q.run_until_idle(q.now() + 10);
    fired = a;
  };

  for (int i = 0; i < 1000; ++i) cycle();  // warm-up: tables reach peak
  const std::uint64_t before = g_allocs.load();
  constexpr int kCycles = 100'000;
  for (int i = 0; i < kCycles; ++i) cycle();
  const std::uint64_t allocs = g_allocs.load() - before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(ran, 3u * (1000 + kCycles));  // the cancelled event never ran
  EXPECT_TRUE(q.empty());
}

TEST(EventAlloc, CounterSeesAHeapFallbackClosure) {
  // The counter works: a closure past the inline capacity allocates once.
  std::array<std::uint8_t, EventFn::kInline + 8> big{};
  int ran = 0;
  EventQueue q;
  q.schedule_at(1, [] {});
  q.run_until_idle();
  const std::uint64_t before = g_allocs.load();
  q.schedule_at(2, [&ran, big] { ran += big[0] + 1; });
  const std::uint64_t allocs = g_allocs.load() - before;
  q.run_until_idle();
  EXPECT_EQ(allocs, 1u);
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace ash::sim
