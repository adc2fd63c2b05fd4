// Node memory: one demand-zero mapping with a guard page on each side,
// sized so that 32-bit simulated addresses name every byte.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {
namespace {

constexpr std::size_t kGiB = std::size_t{1} << 30;
constexpr std::size_t k4GiB = std::size_t{1} << 32;

NodeConfig sized(std::size_t bytes) {
  NodeConfig cfg;
  cfg.memory_bytes = bytes;
  return cfg;
}

std::size_t page_size() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Pages of the node's memory that mincore reports resident.
std::size_t resident_pages(Node& node) {
  const std::size_t page = page_size();
  std::vector<unsigned char> vec((node.memory_size() + page - 1) / page);
  EXPECT_EQ(mincore(node.mem(0, 0), node.memory_size(), vec.data()), 0);
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

TEST(NodeMemory, OnlyWrittenPagesBecomeResident) {
  Simulator sim;
  Node& node = sim.add_node("n0", sized(kGiB));
  ASSERT_EQ(node.memory_size(), kGiB);
  // Count base pages: with transparent huge pages set to "always", a
  // write could bring in a whole huge page.
  ASSERT_EQ(madvise(node.mem(0, 0), kGiB, MADV_NOHUGEPAGE), 0);
  EXPECT_EQ(resident_pages(node), 0u);

  const std::size_t page = page_size();
  const std::vector<std::uint32_t> written = {
      0, static_cast<std::uint32_t>(page + 17), (37u << 20) + 5,
      (512u << 20) + 123, static_cast<std::uint32_t>(kGiB - 1)};
  for (const std::uint32_t addr : written) *node.mem(addr, 1) = 0xa5;
  EXPECT_EQ(resident_pages(node), written.size());

  for (const std::uint32_t addr : written) {
    EXPECT_EQ(*node.mem(addr, 1), 0xa5) << "addr " << addr;
  }
  // Every other byte still reads zero, on written pages and off them.
  for (std::uint32_t addr = 1; addr < kGiB; addr += 1'000'003) {
    EXPECT_EQ(*node.mem(addr, 1), 0) << "addr " << addr;
  }
  EXPECT_EQ(*node.mem(static_cast<std::uint32_t>(page + 16), 1), 0);
  EXPECT_EQ(*node.mem(static_cast<std::uint32_t>(kGiB - 2), 1), 0);
}

TEST(NodeMemory, EndsAreWritableAndOnePastTheEndIsOutOfBounds) {
  Simulator sim;
  Node& node = sim.add_node("n0", sized(kGiB));
  const auto size = static_cast<std::uint32_t>(node.memory_size());
  *node.mem(0, 1) = 0x5a;
  *node.mem(size - 1, 1) = 0xa5;
  EXPECT_EQ(*node.mem(0, 1), 0x5a);
  EXPECT_EQ(*node.mem(size - 1, 1), 0xa5);
  EXPECT_EQ(node.mem(0, size), node.mem(0, 0));
  EXPECT_EQ(node.mem(size - 1, 1), node.mem(0, 0) + (size - 1));
  EXPECT_EQ(node.mem(size, 1), nullptr);
  EXPECT_EQ(node.mem(size - 1, 2), nullptr);
  EXPECT_EQ(node.mem(0, size + 1), nullptr);
}

TEST(NodeMemory, ZeroByteNodeMapsNothing) {
  Simulator sim;
  Node& node = sim.add_node("n0", sized(0));
  EXPECT_EQ(node.memory_size(), 0u);
  EXPECT_EQ(node.mem(0, 0), nullptr);
  EXPECT_EQ(node.mem(0, 1), nullptr);
  EXPECT_THROW(node.kernel().spawn("p", [](Process&) -> Task { co_return; }),
               std::length_error);
}

TEST(NodeMemory, RejectsSizesThirtyTwoBitAddressesCannotName) {
  Simulator sim;
  EXPECT_THROW(sim.add_node("n0", sized(k4GiB)), std::invalid_argument);
  EXPECT_THROW(sim.add_node("n1", sized(k4GiB + 4096)),
               std::invalid_argument);
  EXPECT_TRUE(sim.nodes().empty());
}

TEST(NodeMemory, LargestNodeHandsOutDisjointSegmentsUntilSpawnThrows) {
  Simulator sim;
  Node& node = sim.add_node("n0", sized(k4GiB - 1));
  Kernel& kernel = node.kernel();
  // Segment 0 is the kernel area; a whole segment must fit below 2^32 - 1.
  constexpr std::size_t kSpawnable = 4094;
  for (std::size_t i = 0; i < kSpawnable; ++i) {
    kernel.spawn("p", [](Process&) -> Task { co_return; });
  }
  EXPECT_THROW(kernel.spawn("p", [](Process&) -> Task { co_return; }),
               std::length_error);

  const auto& procs = kernel.processes();
  ASSERT_EQ(procs.size(), kSpawnable);
  std::uint64_t next_free = Kernel::kSegmentSize;
  for (const auto& p : procs) {
    const MemSegment seg = p->segment();
    ASSERT_EQ(seg.size, Kernel::kSegmentSize);
    ASSERT_GE(seg.base, next_free) << "pid " << p->pid();
    next_free = static_cast<std::uint64_t>(seg.base) + seg.size;
  }
  EXPECT_LE(next_free, node.memory_size());
}

TEST(NodeMemory, WritesPastEitherEndFaultOnAGuardPage) {
  Simulator sim;
  Node& node = sim.add_node("n0", sized(64u << 10));
  const auto size = static_cast<std::uint32_t>(node.memory_size());
  volatile std::uint8_t* first = node.mem(0, 1);
  volatile std::uint8_t* last = node.mem(size - 1, 1);
  last[0] = 1;
  first[0] = 1;
  EXPECT_DEATH(last[1] = 1, "");
  EXPECT_DEATH(first[-1] = 1, "");
}

}  // namespace
}  // namespace ash::sim
