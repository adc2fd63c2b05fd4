#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ash::sim {

void EventQueue::push(Cycles at, Cycles sched, EventId id, bool resumption,
                      EventFn fn) {
  if (at < now_) at = now_;
  heap_.push_back(Ev{at, sched, id, resumption, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  live_.insert(id);
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
  if (live_.erase(id) == 0) return;  // fired, cancelled, or never issued
  cancelled_.insert(id);
  // Keep tombstones bounded by the live population: once they outnumber
  // live events, one O(n) sweep rebuilds the heap without them.
  if (cancelled_.size() > live_.size()) compact();
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Ev& e) {
    return cancelled_.find(e.id) != cancelled_.end();
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  cancelled_.clear();
}

Cycles EventQueue::next_time() {
  while (!heap_.empty()) {
    if (cancelled_.erase(heap_.front().id) == 0) return heap_.front().at;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return ~Cycles{0};
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Ev ev = std::move(heap_.back());
    heap_.pop_back();
    if (cancelled_.erase(ev.id) > 0) continue;
    live_.erase(ev.id);
    now_ = ev.at;
    ev.fn();
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
