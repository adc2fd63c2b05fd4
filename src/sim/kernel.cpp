#include "sim/kernel.hpp"

#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {

Kernel::Kernel(Node& node, SchedPolicy policy)
    : node_(node), sched_(node, policy) {}

Kernel::~Kernel() = default;

Process& Kernel::spawn(std::string name, ProcessMain main) {
  const std::uint32_t base = next_seg_base_;
  if (static_cast<std::size_t>(base) + kSegmentSize > node_.memory_size()) {
    throw std::length_error("Kernel::spawn: node memory exhausted");
  }
  next_seg_base_ += kSegmentSize;

  const auto pid = static_cast<std::uint32_t>(procs_.size() + 1);
  procs_.push_back(std::make_unique<Process>(
      node_, pid, std::move(name), MemSegment{base, kSegmentSize}));
  Process& proc = *procs_.back();
  proc.start(std::move(main));
  sched_.add_new(&proc);
  return proc;
}

Process* Kernel::find(std::uint32_t pid) noexcept {
  for (const auto& p : procs_) {
    if (p->pid() == pid) return p.get();
  }
  return nullptr;
}

std::size_t Kernel::live_processes() const noexcept {
  std::size_t n = 0;
  for (const auto& p : procs_) {
    if (!p->exited()) ++n;
  }
  return n;
}

void Kernel::record_failure(std::exception_ptr e) {
  if (!failure_) failure_ = std::move(e);
  node_.simulator().note_failure();
}

std::exception_ptr Kernel::take_failure() noexcept {
  return std::exchange(failure_, nullptr);
}

}  // namespace ash::sim
