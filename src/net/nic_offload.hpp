// Smart-NIC ASH offload: NIC-resident handler execution units.
//
// The paper's core bet — run the application's handler where the message
// arrives — is taken one step further here, to where it landed a
// generation later (sPIN's handler processing units, receive-side
// dispatching on the NIC): the handler leaves the host entirely and runs
// on the device. A NicProcessor sits *in front of* an RxQueueSet:
//
//  * per-RX-queue execution units — each steered queue owns
//    NicConfig::units_per_queue handler execution units (HPUs). A unit is
//    a sim::Cpu allocated via Node::add_nic_unit(): its own busy_until
//    accounting on the shared event queue, its own simulator-wide cpu id
//    for trace attribution. Frames parked on a NIC queue are drained by
//    whichever of its units frees first (a multi-server queue), so one
//    slow handler run does not head-of-line-block its queue.
//
//  * a NIC cost model distinct from the host's — the unit runs the same
//    verified VCODE (both backends: interp and JIT), so the
//    handler's simulated execution cycles come from the one shared cycle
//    model; the NIC then charges those cycles scaled by its clock ratio,
//    plus a per-message dispatch overhead. What the device does NOT pay
//    is the host's per-message kernel overhead: no interrupt entry, no
//    driver pass, no cache flush, no context install, no budget-timer
//    setup/clear — the unit is hardware-sequenced. That elision plus unit
//    parallelism is the whole offload win.
//
//  * a constrained memory window — the NIC's SRAM is bounded
//    (NicConfig::mem_window_bytes). A handler becomes NIC-resident only
//    if its footprint (sandboxed image + fast-mem scratch + DILP
//    persistent registers) fits in what remains of the window; handlers
//    that do not fit stay host-resident and every frame for them is a
//    counted NotResident punt taking the normal host path.
//
//  * residency follows the port's binding, the one record of what runs
//    on a channel: RxPort::bind reserves the handler's footprint here, an
//    empty binding or a per-frame hook releases it. A unit runs a
//    resident frame through its sink (RxSink::nic_run), i.e. whatever
//    the channel's binding names at that moment.
//
//  * transparent punts — a NIC run that does not commit (voluntary abort,
//    admission denial, involuntary fault) hands the frame back to the
//    host: the sink's nic_punt() charges the host-side handoff on the
//    steered queue's CPU and delivers through the normal path. The
//    handler executed (at most) ONCE, on the device, through the same
//    AshSystem admission/run machinery as the host path — so per-handler
//    AshStats, tenant cycle accounting, and delivered message sets are
//    identical with offload on or off; only where the cycles are charged
//    (NIC units vs host CPUs) differs. The differential replay and
//    punt-property tests pin exactly this.
//
//  * tenant isolation holds on-device — NIC enqueue is the host queues'
//    admission (net::admit_frame) over the same RxQuota: overflow is a
//    device-attributed drop checked before the quota, so a full NIC queue
//    never charges the tenant's occupancy account.
//
// Conservation (per NIC queue, at quiescence):
//   offered == nic_executed + punted + dropped,  and
//   punted  == sum(by_punt_reason),  dropped == overflow + quota drops.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/rx_queue.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"

namespace ash::net {

/// The device-side cycle model. Execution cycles still come from the one
/// shared VCODE cycle model (so AshStats are identical host- or
/// NIC-side); this scales them to the unit's clock and adds the per-
/// message device overheads.
struct NicCostModel {
  /// NIC unit clock relative to the host CPU: a charged run costs
  /// ceil(exec_cycles * clock_num / clock_den) unit-cycles. The default
  /// models an embedded core somewhat slower than the host (5/4 = 1.25x
  /// cycles), which the unit parallelism and overhead elision dwarf.
  std::uint32_t clock_num = 5;
  std::uint32_t clock_den = 4;
  /// Per-message dispatch: the unit picks a descriptor off its queue and
  /// sequences the run. Replaces the host's timer-setup + context-install.
  sim::Cycles dispatch = sim::us(0.3);
  /// Issuing one TSend reply directly from the device (descriptor write;
  /// the wire time is the link's, as on the host path).
  sim::Cycles reply_issue = sim::us(0.2);
  /// Handing a non-committed frame back to the host: DMA descriptor plus
  /// doorbell. The host side additionally charges its normal per-frame
  /// receive pass in RxSink::nic_punt.
  sim::Cycles punt_handoff = sim::us(0.5);
};

struct NicConfig {
  /// Handler execution units per RX queue (sPIN-style HPU cluster).
  std::size_t units_per_queue = 4;
  /// Frame descriptors one NIC queue can park (device SRAM slots);
  /// overflow frames are dropped back to the device, counted.
  std::size_t queue_capacity = 256;
  /// The SRAM window NIC-resident handler state must fit into.
  std::uint32_t mem_window_bytes = 48u * 1024;
  NicCostModel cost;
};

/// Why a frame offered to the NIC was punted to the host path (OffloadPunt
/// arg0; keep in sync with the namer in trace/format.cpp).
enum class PuntReason : std::uint8_t {
  NotResident,  // handler does not fit the memory window (steer-time)
  HostService,  // ran but did not commit, or was denied admission
  Fault,        // involuntary abort on the device
};
inline constexpr std::size_t kPuntReasonCount = 3;
const char* to_string(PuntReason r) noexcept;

/// One NIC handler execution unit. The ASH layer charges runs on it the
/// way host paths charge a KernelCpu; `scale` converts host-model
/// execution cycles to this unit's clock.
class NicExecUnit {
 public:
  NicExecUnit(sim::Cpu& cpu, const NicCostModel& cost, std::size_t queue,
              std::size_t unit)
      : cpu_(cpu), cost_(&cost), queue_(queue), unit_(unit) {}

  std::uint16_t cpu_id() const noexcept { return cpu_.cpu_id(); }
  const NicCostModel& cost() const noexcept { return *cost_; }
  std::size_t queue() const noexcept { return queue_; }
  std::size_t unit() const noexcept { return unit_; }

  sim::Cycles scale(sim::Cycles exec_cycles) const noexcept {
    return (exec_cycles * cost_->clock_num + cost_->clock_den - 1) /
           cost_->clock_den;
  }

  /// Occupy this unit for `cycles`; `done` runs at completion. Mirrors
  /// KernelCpu::kernel_work but on the device.
  sim::Cycles work(sim::Cycles cycles, sim::EventFn done = {}) {
    return cpu_.kernel_work(cycles, std::move(done));
  }

  sim::Cycles busy_until() const noexcept { return cpu_.busy_until(); }
  /// Total device cycles ever charged on this unit.
  sim::Cycles charged_total() const noexcept {
    return cpu_.kernel_cycles_total();
  }

 private:
  sim::Cpu& cpu_;
  const NicCostModel* cost_;
  std::size_t queue_;
  std::size_t unit_;
};

class NicProcessor {
 public:
  struct QueueStats {
    std::uint64_t offered = 0;       // frames steered to this NIC queue
    std::uint64_t nic_executed = 0;  // committed entirely on-device
    std::uint64_t punted = 0;        // handed to the host path
    std::array<std::uint64_t, kPuntReasonCount> by_punt_reason{};
    std::uint64_t dropped = 0;       // at NIC enqueue
    std::uint64_t overflow_drops = 0;
    std::uint64_t quota_drops = 0;
    std::uint64_t replies = 0;       // TSends issued from the device
    std::uint64_t nic_cycles = 0;    // device cycles charged on units
  };

  /// Creates host.size() NIC queues, each with cfg.units_per_queue
  /// execution units (allocated from node.add_nic_unit()). Steering and
  /// the tenant quota are shared with `host`: the same policy picks the
  /// NIC queue index, and punted frames complete on the matching host
  /// queue's CPU. `host` must outlive the processor.
  NicProcessor(sim::Node& node, RxQueueSet& host, const NicConfig& cfg = {});

  const NicConfig& config() const noexcept { return cfg_; }
  std::size_t queues() const noexcept { return queues_.size(); }

  // ---- residency (the memory window) ----

  /// Try to make (sink, channel) NIC-resident: reserve `footprint` bytes
  /// of the memory window (RxPort::bind calls this for a bound channel).
  /// Returns false — leaving the channel host-resident, its frames
  /// counted as NotResident punts — when the footprint does not fit in
  /// what remains of the window. Re-attaching a channel releases its old
  /// reservation first.
  bool attach(RxSink* sink, int channel, std::uint32_t footprint);

  /// Forget (sink, channel) entirely: release its window reservation
  /// (an unbound channel, or one given a per-frame hook). Frames already
  /// parked on-device complete as HostService punts; new frames take the
  /// host path uncounted.
  void detach(RxSink* sink, int channel);

  bool resident(const RxSink* sink, int channel) const;
  std::uint32_t window_used() const noexcept { return window_used_; }
  std::size_t attached() const noexcept { return residents_.size(); }

  // ---- datapath ----

  /// Steer-time entry, called by the device before the host RxQueueSet:
  /// true means the NIC took the frame (parked for a resident handler, or
  /// dropped — counted — at NIC enqueue); false means the caller must
  /// continue down the host path (never offload-attached, or a counted
  /// NotResident punt).
  bool offer(RxFrame frame);

  const QueueStats& stats(std::size_t q) const { return queues_[q]->stats; }
  QueueStats totals() const;
  /// Frames parked on NIC queue q (conservation holds at quiescence:
  /// offered == nic_executed + punted + dropped once this is 0 and the
  /// event queue has drained).
  std::size_t depth(std::size_t q) const { return queues_[q]->pending.size(); }

  const NicExecUnit& unit(std::size_t q, std::size_t u) const {
    return queues_[q]->units[u]->exec;
  }

  /// Human-readable summary ("ashtool offload"); cycle fields carry the
  /// ` cyc` suffix so golden tests can normalize them.
  std::string format_summary() const;
  /// The same summary as one JSON object (cycle fields keyed `*_cyc`).
  std::string summary_json() const;

 private:
  struct Unit {
    NicExecUnit exec;
    bool busy = false;
    Unit(sim::Cpu& cpu, const NicCostModel& cost, std::size_t q,
         std::size_t u)
        : exec(cpu, cost, q, u) {}
  };
  struct NicQueue {
    std::deque<RxFrame> pending;
    std::vector<std::unique_ptr<Unit>> units;
    QueueStats stats;
  };
  struct Resident {
    RxSink* sink;
    int channel;
    std::uint32_t footprint;
    bool fits;
  };

  Resident* find(const RxSink* sink, int channel);
  void pump(std::size_t qi);
  void dispatch(std::size_t qi, Unit& u, RxFrame f);

  sim::Node& node_;
  RxQueueSet* host_;
  NicConfig cfg_;
  std::vector<std::unique_ptr<NicQueue>> queues_;
  std::vector<Resident> residents_;
  std::uint32_t window_used_ = 0;
};

}  // namespace ash::net
