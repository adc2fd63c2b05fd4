// Top-level simulation: a shared clock/event queue plus the nodes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/node.hpp"

namespace ash::sim {

class Process;

class Simulator {
 public:
  EventQueue& queue() noexcept { return queue_; }
  Cycles now() const noexcept { return queue_.now(); }

  Node& add_node(std::string name, const NodeConfig& config = {}) {
    nodes_.push_back(std::make_unique<Node>(*this, std::move(name), config));
    return *nodes_.back();
  }

  const std::vector<std::unique_ptr<Node>>& nodes() const noexcept {
    return nodes_;
  }

  /// Allocate the next dense simulator-wide CPU id. Node constructors and
  /// auxiliary rx CPUs (Node::add_rx_cpu) draw from the same counter, so
  /// every CPU gets a distinct tracer ring id; nodes created before any
  /// rx CPU keep ids equal to their creation index.
  std::uint16_t alloc_cpu_id() noexcept { return next_cpu_id_++; }
  /// Total CPUs allocated so far (nodes + auxiliary rx CPUs).
  std::uint16_t cpu_count() const noexcept { return next_cpu_id_; }

  /// Run until the event queue drains or the clock passes `limit`.
  /// Rethrows the first exception that escaped any process coroutine.
  /// Returns the number of events executed. Processes parked in
  /// Process::poll_idle are left where a hand-written poll loop would
  /// be: at their last iteration boundary at or before `limit`; the next
  /// run resumes them at their next boundary, so they see what the
  /// caller changed in between.
  std::size_t run(Cycles limit = kNever);

  /// A process failure was recorded (Kernel::record_failure); run()
  /// rethrows it after the current event.
  void note_failure() noexcept { failure_pending_ = true; }

 private:
  friend class Process;

  /// Process::poll_idle's parked list: a parked process is touched by
  /// the next event that is not a resumption.
  void park(Process* p) { parked_.push_back(p); }
  void unpark(Process* p) { std::erase(parked_, p); }
  void touch_parked(const EventQueue::Key& next);
  void rethrow_failure();

  EventQueue queue_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Process*> parked_;
  std::uint16_t next_cpu_id_ = 0;
  bool failure_pending_ = false;
};

}  // namespace ash::sim
