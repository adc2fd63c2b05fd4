#include "sim/node.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <limits>
#include <new>
#include <stdexcept>

#include "sim/cpu.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {
namespace {

std::size_t page_size() noexcept {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// The whole mapping behind a `size`-byte span: the span rounded up to
/// whole pages, plus one guard page on each side.
std::size_t mapping_bytes(std::size_t size) noexcept {
  const std::size_t page = page_size();
  return (size + page - 1) / page * page + 2 * page;
}

/// Map `size` demand-zero bytes one page into a mapping whose first and
/// last pages are PROT_NONE guards. Maps nothing for 0 bytes.
std::uint8_t* map_memory(std::size_t size) {
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "Node: memory_bytes must be below 2^32 (addresses are 32-bit)");
  }
  if (size == 0) return nullptr;
  const std::size_t page = page_size(), total = mapping_bytes(size);
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  auto* guard = static_cast<std::uint8_t*>(map);
  if (mprotect(guard, page, PROT_NONE) != 0 ||
      mprotect(guard + total - page, page, PROT_NONE) != 0) {
    munmap(map, total);
    throw std::bad_alloc();
  }
  return guard + page;
}

}  // namespace

void Node::Unmap::operator()(std::uint8_t* span) const noexcept {
  munmap(span - page_size(), mapping_bytes(size));
}

Node::Node(Simulator& sim, std::string name, const NodeConfig& config)
    : sim_(sim),
      name_(std::move(name)),
      cpu_id_(sim.alloc_cpu_id()),
      cost_(config.cost),
      dcache_(config.cache),
      memory_(map_memory(config.memory_bytes), Unmap{config.memory_bytes}),
      kernel_(std::make_unique<Kernel>(*this, config.policy)) {}

Node::~Node() = default;

EventQueue& Node::queue() noexcept { return sim_.queue(); }
Cycles Node::now() const noexcept { return sim_.now(); }

std::uint8_t* Node::mem(std::uint32_t addr, std::uint32_t len) noexcept {
  if (static_cast<std::uint64_t>(addr) + len > memory_size()) return nullptr;
  return memory_.get() + addr;
}

const std::uint8_t* Node::mem(std::uint32_t addr,
                              std::uint32_t len) const noexcept {
  if (static_cast<std::uint64_t>(addr) + len > memory_size()) return nullptr;
  return memory_.get() + addr;
}

Cpu& Node::add_rx_cpu() {
  rx_cpus_.push_back(std::make_unique<Cpu>(*this, sim_.alloc_cpu_id()));
  return *rx_cpus_.back();
}

Cpu& Node::add_nic_unit() {
  nic_units_.push_back(std::make_unique<Cpu>(*this, sim_.alloc_cpu_id()));
  return *nic_units_.back();
}

Cycles Node::kernel_work(Cycles cycles, EventFn done) {
  const Cycles start = now() > cpu_free_at() ? now() : cpu_free_at();
  busy_until_ = start + cycles;
  kernel_cycles_ += cycles;
  if (done) queue().schedule_at(busy_until_, std::move(done));
  return busy_until_;
}

}  // namespace ash::sim
