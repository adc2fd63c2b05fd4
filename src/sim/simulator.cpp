#include "sim/simulator.hpp"

#include "sim/kernel.hpp"

namespace ash::sim {

void Simulator::rethrow_failure() {
  // Nodes in creation order: the first node's failure is rethrown, and
  // any other waits for the next event.
  failure_pending_ = false;
  std::exception_ptr first;
  for (const auto& node : nodes_) {
    Kernel& k = node->kernel();
    if (!k.has_failure()) continue;
    if (first) {
      failure_pending_ = true;
      break;
    }
    first = k.take_failure();
  }
  if (first) std::rethrow_exception(first);
}

void Simulator::touch_parked(const EventQueue::Key& next) {
  // A resumption runs one poller's check; anything it changes for
  // another node reaches it through a later event.
  if (next.resumption) return;
  for (Process* p : parked_) p->touch(next);
  parked_.clear();
}

std::size_t Simulator::run(Cycles limit) {
  // Whatever the caller changed since the last run is a touch too, as
  // if an event scheduled now ran now.
  if (!parked_.empty()) {
    const Cycles now = queue_.now();
    touch_parked({now, now, queue_.next_id(), /*resumption=*/false});
  }
  std::size_t executed = 0;
  while (queue_.next_time() <= limit) {
    if (!parked_.empty()) touch_parked(queue_.head());
    if (!queue_.step()) break;
    ++executed;
    if (failure_pending_) rethrow_failure();
  }
  // A poller parked with no deadline and nothing left to touch it would
  // spin forever in a hand loop; only a finite limit settles it.
  if (limit != kNever) {
    for (Process* p : parked_) p->settle(limit);
  }
  return executed;
}

}  // namespace ash::sim
