#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace ash::sim {

// ---- id index ----

void EventQueue::IdIndex::insert(EventId id, std::uint32_t slot) {
  if (2 * (size_ + 1) > table_.size()) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(id);
  while (table_[i].slot != kNoSlot) i = (i + 1) & mask;
  table_[i] = Entry{id, slot};
  ++size_;
}

std::uint32_t EventQueue::IdIndex::take(EventId id) noexcept {
  if (size_ == 0) return kNoSlot;
  const std::size_t mask = table_.size() - 1;
  std::size_t i = home(id);
  for (;; i = (i + 1) & mask) {
    if (table_[i].slot == kNoSlot) return kNoSlot;
    if (table_[i].id == id) break;
  }
  const std::uint32_t slot = table_[i].slot;
  --size_;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless the hole lies before its home.
  for (std::size_t j = (i + 1) & mask; table_[j].slot != kNoSlot;
       j = (j + 1) & mask) {
    if (((j - home(table_[j].id)) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i].slot = kNoSlot;
  return slot;
}

void EventQueue::IdIndex::grow() {
  std::vector<Entry> old = std::exchange(
      table_, std::vector<Entry>(table_.empty() ? 64 : 2 * table_.size()));
  shift_ = static_cast<unsigned>(64 - std::countr_zero(table_.size()));
  size_ = 0;
  for (const Entry& e : old) {
    if (e.slot != kNoSlot) insert(e.id, e.slot);
  }
}

// ---- slots ----

std::uint32_t EventQueue::alloc_slot(EventFn&& fn) {
  if (free_ == kNoSlot) {
    slots_.push_back(Slot{std::move(fn)});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t s = free_;
  Slot& slot = slots_[s];
  free_ = slot.next_free;
  slot.fn = std::move(fn);
  slot.cancelled = false;
  return s;
}

void EventQueue::free_slot(std::uint32_t s) noexcept {
  slots_[s].next_free = free_;
  free_ = s;
}

// ---- queue ----

void EventQueue::push(Cycles at, Cycles sched, EventId id, bool resumption,
                      EventFn&& fn) {
  if (at < now_) at = now_;
  const std::uint32_t s = alloc_slot(std::move(fn));
  heap_.push_back(Ev{at, sched, id, s, resumption});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ids_.insert(id, s);
  ++live_;
}

EventId EventQueue::schedule_at(Cycles at, EventFn fn) {
  const EventId id = next_id_++;
  push(at, now_, id, /*resumption=*/false, std::move(fn));
  return id;
}

EventId EventQueue::schedule_resumption(Cycles at, Cycles as_of, EventId id,
                                        EventFn fn) {
  push(at, as_of, id, /*resumption=*/true, std::move(fn));
  return id;
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t s = ids_.take(id);
  if (s == kNoSlot) return;  // fired, cancelled, or never issued
  Slot& slot = slots_[s];
  slot.cancelled = true;
  // The closure dies now; its slot stays reserved until the heap entry
  // that names it is dropped. Destroyed last, so a destructor that
  // re-enters the queue finds it consistent.
  const EventFn dead = std::move(slot.fn);
  --live_;
  ++cancelled_;
  // Keep tombstones bounded by the live population: once they outnumber
  // live events, one O(n) sweep rebuilds the heap without them.
  if (cancelled_ > live_) compact();
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Ev& e) {
    if (!slots_[e.slot].cancelled) return false;
    free_slot(e.slot);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_ = 0;
}

Cycles EventQueue::next_time() {
  while (!heap_.empty()) {
    const Ev& top = heap_.front();
    if (!slots_[top.slot].cancelled) return top.at;
    free_slot(top.slot);
    --cancelled_;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return ~Cycles{0};
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Ev ev = heap_.back();
    heap_.pop_back();
    Slot& slot = slots_[ev.slot];
    if (slot.cancelled) {
      free_slot(ev.slot);
      --cancelled_;
      continue;
    }
    ids_.take(ev.id);
    --live_;
    now_ = ev.at;
    // Move the callback out and free its slot first: whatever it
    // schedules may reuse the slot or grow the table.
    EventFn fn = std::move(slot.fn);
    free_slot(ev.slot);
    fn();
    return true;
  }
  return false;
}

std::size_t EventQueue::run_until_idle(Cycles limit) {
  std::size_t executed = 0;
  // next_time() prunes cancelled heads, so the limit check sees live events.
  while (next_time() <= limit && step()) ++executed;
  if (now_ < limit && limit != ~Cycles{0}) now_ = limit;
  return executed;
}

}  // namespace ash::sim
