// Unified network fault injection for the simulated NICs.
//
// Both device models (An2Device, EthernetDevice) used to carry their own
// ad-hoc loss knobs (`drop_prob` here, `dup_prob` there), which meant the
// two links could never be stressed the same way — and nothing could
// reorder, corrupt, or truncate a frame at all. FaultInjector is the one
// shared implementation: a seeded, deterministic, per-direction mutator
// that sits on the port's transmit tail (net::RxPort::transmit, which both
// devices send through) and decides, per frame, whether to drop,
// duplicate, reorder (delay past later traffic), corrupt (flip bytes),
// truncate, or jitter (small extra delay) it.
//
// Determinism: the injector draws from its own xoshiro256** stream, one
// injector per port (= per link direction), so a given (config, seed,
// traffic) triple replays the exact same fault schedule run-to-run. With
// every probability at zero it draws nothing and mutates nothing — the
// fault-free experiments are byte-identical to a build without it.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"  // sim::Cycles / sim::us

namespace ash::net {

/// Fault rates and shapes for one link direction. Defaults are a perfect
/// link (all probabilities zero); `seed` only matters once a probability
/// is nonzero.
struct FaultConfig {
  double drop_prob = 0.0;      // frame vanishes on the wire
  double dup_prob = 0.0;       // a second copy arrives dup_delay later
  double reorder_prob = 0.0;   // frame is held back reorder_delay, so
                               // later frames can overtake it
  double corrupt_prob = 0.0;   // 1..max_corrupt_bytes bytes are flipped
  double truncate_prob = 0.0;  // frame is cut short (>= 1 byte kept)
  double jitter_prob = 0.0;    // up to max_jitter of extra latency
  sim::Cycles dup_delay = sim::us(5.0);
  sim::Cycles reorder_delay = sim::us(120.0);
  sim::Cycles max_jitter = sim::us(20.0);
  std::uint32_t max_corrupt_bytes = 4;
  std::uint64_t seed = 1;

  /// True when any fault can ever fire; false = the injector is inert
  /// and the device behaves exactly as if it did not exist.
  bool enabled() const noexcept {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           corrupt_prob > 0 || truncate_prob > 0 || jitter_prob > 0;
  }
};

/// Per-fault-class event counts, for tests and loss-sweep reports.
///
/// Thread model: plain fields, single writer — FaultInjector::decide runs
/// only on the simulation thread, and readers inspect the counters between
/// runs or after the simulator stops (same discipline as core::AshStats
/// and the trace aggregates; only trace::Tracer's emitted/dropped counters
/// are atomic and safe to poll concurrently).
struct FaultCounters {
  std::uint64_t frames = 0;     // frames offered to the injector
  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corrupts = 0;
  std::uint64_t truncates = 0;
  std::uint64_t jitters = 0;
};

class FaultInjector {
 public:
  /// What the transmit tail should do with the (possibly mutated) frame.
  struct Decision {
    bool drop = false;          // do not deliver at all
    bool duplicate = false;     // deliver a second copy dup_delay later
    sim::Cycles extra_delay = 0;  // added to the original's arrival time
  };

  explicit FaultInjector(const FaultConfig& config) : cfg_(config) {}

  const FaultConfig& config() const noexcept { return cfg_; }
  const FaultCounters& counters() const noexcept { return counters_; }

  /// Swap the fault schedule mid-run (loss sweeps, heal-the-link tests).
  void set_config(const FaultConfig& config) { cfg_ = config; }

  /// Judge one frame about to be transmitted. Corruption/truncation are
  /// applied to `frame` in place; drop/duplicate/delay come back as a
  /// Decision for the transmit tail to schedule. When no fault class is
  /// enabled this draws no random numbers and returns the identity
  /// decision.
  Decision inject(std::vector<std::uint8_t>& frame);

 private:
  FaultConfig cfg_;
  FaultCounters counters_;
};

}  // namespace ash::net
