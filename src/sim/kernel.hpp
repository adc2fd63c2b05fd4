// The simulated exokernel.
//
// Owns the node's processes and scheduler, allocates address-space
// segments, records process failures, and is the attachment point for the
// ASH system (src/core installs its invocation engine here so network
// drivers can hand messages to handlers in kernel context).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "sim/scheduler.hpp"

namespace ash::sim {

class Node;

class Kernel {
 public:
  Kernel(Node& node, SchedPolicy policy);
  ~Kernel();

  Node& node() noexcept { return node_; }
  Scheduler& scheduler() noexcept { return sched_; }

  /// Create a process with a power-of-two address-space segment and start
  /// it (ready queue). Throws std::length_error when memory is exhausted.
  Process& spawn(std::string name, ProcessMain main);

  /// Segment size given to every process (1 MB: SFI-compatible).
  static constexpr std::uint32_t kSegmentSize = 1u << 20;

  Process* find(std::uint32_t pid) noexcept;
  const std::vector<std::unique_ptr<Process>>& processes() const noexcept {
    return procs_;
  }

  /// Number of processes that have not exited.
  std::size_t live_processes() const noexcept;

  /// Record a failure escaping a process coroutine; Simulator::run
  /// rethrows it.
  void record_failure(std::exception_ptr e);
  bool has_failure() const noexcept { return failure_ != nullptr; }
  std::exception_ptr take_failure() noexcept;

 private:
  Node& node_;
  Scheduler sched_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::uint32_t next_seg_base_ = kSegmentSize;  // segment 0 = kernel area
  std::exception_ptr failure_;
};

}  // namespace ash::sim
