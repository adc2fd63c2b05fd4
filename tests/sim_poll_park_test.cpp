// Process::poll_idle against its specification: the hand-written loop
//   check; if (hit || now >= deadline) stop; co_await compute(poll_iteration);
// Every scenario is seeded and runs twice — once with the hand loop, once
// with poll_idle — and everything observable must match: the checks that
// see something, kernel-work start and end, when a competing process gets
// the CPU (so when the poller was preempted), the clock after every
// run(limit), and the number of iterations charged. The hand run also
// counts how the injected events fell against its checks, so each test
// can assert that it covered the ties it is about.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/an2.hpp"
#include "sim/cpu.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

struct Rec {
  char kind;  // H hit, T timeout, K kernel work, Q competitor runs, R run end
  Cycles a;
  Cycles b;
  bool operator==(const Rec&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Rec& r) {
  return os << r.kind << '(' << r.a << ',' << r.b << ')';
}

/// How the injected events fell against the hand loop's checks.
struct Coverage {
  int on_boundary_ahead = 0;  // same cycle as a check, ran before it
  int on_boundary_after = 0;  // same cycle as a check, ran after it
  int one_after = 0;          // one cycle after a check
  int deadline_on = 0;        // a wait timed out exactly at its deadline
  int deadline_off = 0;       // ... at the first boundary past it
};

struct Scenario {
  std::uint64_t seed = 1;
  SchedPolicy policy = SchedPolicy::RoundRobinOblivious;
  bool competitor = false;  // a second process on the poller's node
  Cycles end = 40000;       // injectors stop, the poller finishes
  int chains = 3;           // self-rescheduling injector chains
  int preset = 12;          // events scheduled before the run starts
  std::vector<Cycles> limits;  // run(limit) calls before the final run()
};

struct Outcome {
  std::vector<Rec> log;
  std::uint64_t charged = 0;
  Cycles final_clock = 0;
  Coverage cov;
};

struct World {
  World(const Scenario& sc, bool hand)
      : sc(sc), hand(hand), rng(sc.seed), poll_rng(sc.seed ^ 0x5eed) {
    NodeConfig cfg;
    cfg.policy = sc.policy;
    cfg.cost.quantum = 60 * cfg.cost.poll_iteration;
    node = &sim.add_node("n0", cfg);
    rx = &node->add_rx_cpu();
    nic = &node->add_nic_unit();
    p = node->cost().poll_iteration;
  }

  const Scenario& sc;
  bool hand;
  Simulator sim;
  Node* node = nullptr;
  Cpu* rx = nullptr;
  Cpu* nic = nullptr;
  Cycles p = 0;
  util::Rng rng;       // injectors
  util::Rng poll_rng;  // the poller's deadlines and work
  WaitChannel boost_ch;
  std::uint64_t pending = 0, consumed = 0;
  Outcome out;
  // Hand run only: (time, is_check) in execution order.
  std::vector<std::pair<Cycles, bool>> seq;

  Cycles work(Cycles cycles, bool on_lattice) {
    return on_lattice ? (cycles / p + 1) * p : cycles + 1;
  }

  /// One injected action; every one of them is an event.
  void act(unsigned kind) {
    if (hand) seq.emplace_back(node->now(), false);
    const Cycles c = work(rng.below(8 * p), rng.below(2) == 0);
    const auto post = [this] { ++pending; };
    Cycles end = 0;
    switch (kind % 6) {
      case 0:  // a ring post with no kernel work (AN2 pure polling)
        ++pending;
        return;
      case 1:  // main-CPU kernel work that posts
        end = node->kernel_work(c, post);
        break;
      case 2:  // main-CPU kernel work that only shifts the poll grid
        end = node->kernel_work(c);
        break;
      case 3:  // an RX-queue CPU completion
        end = rx->kernel_work(c, post);
        break;
      case 4:  // a NIC execution unit completion
        end = nic->kernel_work(c, post);
        break;
      default:  // make the competitor ready (boosted under PriorityBoost)
        boost_ch.notify(/*boost=*/true);
        return;
    }
    out.log.push_back({'K', end - c, end});
  }

  Cycles delta() {
    const Cycles k = rng.below(30) * p;
    switch (rng.below(4)) {
      case 0: return k;
      case 1: return k + 1;
      case 2: return k + p - 1;
      default: return k + rng.below(p);
    }
  }

  void chain() {
    act(static_cast<unsigned>(rng.below(6)));
    const Cycles next = node->now() + delta();
    if (next < sc.end) sim.queue().schedule_at(next, [this] { chain(); });
  }

  Task poller(Process& self) {
    while (self.node().now() < sc.end) {
      // Finite deadlines on and off the grid, sometimes none: a final
      // post past `end` releases a deadline-free wait.
      const Cycles now0 = self.node().now();
      const std::uint64_t r = poll_rng.below(8);
      const Cycles deadline =
          r == 0 ? kNever : now0 + poll_rng.below(200) * p + r % 3;
      for (;;) {
        if (hand) seq.emplace_back(self.node().now(), true);
        if (pending > consumed) {
          ++consumed;
          out.log.push_back({'H', self.node().now(), consumed});
          co_await self.compute(work(poll_rng.below(4 * p), r % 2 == 0));
          break;
        }
        if (self.node().now() >= deadline) {
          out.log.push_back({'T', self.node().now(), deadline});
          if (self.node().now() == deadline) {
            ++out.cov.deadline_on;
          } else {
            ++out.cov.deadline_off;
          }
          break;
        }
        if (hand) {
          co_await self.compute(p);
          ++out.charged;
        } else {
          const std::uint64_t n = co_await self.poll_idle(deadline);
          out.charged += n;
        }
      }
    }
  }

  Task competitor(Process& self) {
    while (self.node().now() < sc.end) {
      if (sc.policy == SchedPolicy::PriorityBoost) {
        co_await boost_ch.wait(self);
      } else {
        co_await self.sleep_for(40 * p + poll_rng.below(200 * p));
      }
      out.log.push_back({'Q', self.node().now(), 0});
      co_await self.compute(work(poll_rng.below(10 * p), true));
    }
  }

  Outcome run() {
    node->kernel().spawn("poller", [this](Process& s) { return poller(s); });
    if (sc.competitor) {
      node->kernel().spawn("competitor",
                           [this](Process& s) { return competitor(s); });
    }
    // Preset events: scheduled before any check, on and off the lattice
    // the poll grid starts on (dispatch ends at context_switch).
    const Cycles base = node->cost().context_switch;
    for (int i = 0; i < sc.preset; ++i) {
      const Cycles at = base + rng.below(sc.end / p) * p + rng.below(2);
      const auto kind = static_cast<unsigned>(rng.below(6));
      sim.queue().schedule_at(at, [this, kind] { act(kind); });
    }
    for (int i = 0; i < sc.chains; ++i) {
      sim.queue().schedule_at(base + delta(), [this] { chain(); });
    }
    sim.queue().schedule_at(sc.end + 1, [this] { act(0); });
    for (const Cycles limit : sc.limits) {
      sim.run(limit);
      out.log.push_back({'R', sim.now(), 0});
      // An event scheduled between runs, at or just after the stop.
      const Cycles at = sim.now() + (limit % 3 == 0 ? 0 : p);
      sim.queue().schedule_at(at, [this] { act(1); });
    }
    sim.run();
    out.final_clock = sim.now();
    if (hand) count_ties();
    return out;
  }

  void count_ties() {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].second) continue;
      const Cycles t = seq[i].first;
      for (std::size_t j = 0; j < seq.size(); ++j) {
        if (!seq[j].second) continue;
        if (seq[j].first == t) {
          if (j > i) {
            ++out.cov.on_boundary_ahead;
          } else {
            ++out.cov.on_boundary_after;
          }
          break;
        }
        if (seq[j].first + 1 == t) {
          ++out.cov.one_after;
          break;
        }
      }
    }
  }
};

Outcome run_world(const Scenario& sc, bool hand) {
  World w(sc, hand);
  return w.run();
}

/// Runs `sc` both ways, expects identical outcomes, returns the hand
/// run's.
Outcome expect_same(const Scenario& sc) {
  const Outcome hand = run_world(sc, /*hand=*/true);
  const Outcome parked = run_world(sc, /*hand=*/false);
  // Report the first divergence, not the whole logs.
  const auto [h, q] = std::mismatch(hand.log.begin(), hand.log.end(),
                                    parked.log.begin(), parked.log.end());
  if (h != hand.log.end() || q != parked.log.end()) {
    const auto at = h - hand.log.begin();
    ADD_FAILURE() << "seed " << sc.seed << ": logs diverge at entry " << at
                  << ": hand "
                  << (h != hand.log.end() ? ::testing::PrintToString(*h)
                                          : "<end>")
                  << ", parked "
                  << (q != parked.log.end() ? ::testing::PrintToString(*q)
                                            : "<end>")
                  << ", previous "
                  << (at > 0 ? ::testing::PrintToString(*(h - 1)) : "-");
  }
  EXPECT_EQ(hand.charged, parked.charged) << "seed " << sc.seed;
  EXPECT_EQ(hand.final_clock, parked.final_clock) << "seed " << sc.seed;
  EXPECT_GT(hand.charged, 0u);
  return hand;
}

TEST(PollPark, MatchesHandLoopOnSeededKernelWorkAndPosts) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Scenario sc;
    sc.seed = seed;
    const Coverage c = expect_same(sc).cov;
    total.on_boundary_ahead += c.on_boundary_ahead;
    total.on_boundary_after += c.on_boundary_after;
    total.one_after += c.one_after;
    total.deadline_on += c.deadline_on;
    total.deadline_off += c.deadline_off;
  }
  // Both tie orders on a boundary, the cycle after one, and deadlines on
  // and off the grid all occurred.
  EXPECT_GT(total.on_boundary_ahead, 0);
  EXPECT_GT(total.on_boundary_after, 0);
  EXPECT_GT(total.one_after, 0);
  EXPECT_GT(total.deadline_on, 0);
  EXPECT_GT(total.deadline_off, 0);
}

TEST(PollPark, QuantumExpiryPreemptsOnTheSameBoundary) {
  int competitor_runs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Scenario sc;
    sc.seed = 100 + seed;
    sc.competitor = true;
    for (const Rec& r : expect_same(sc).log) {
      competitor_runs += r.kind == 'Q';
    }
  }
  EXPECT_GT(competitor_runs, 12);
}

TEST(PollPark, PriorityBoostPreemptsOnTheSameBoundary) {
  int competitor_runs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Scenario sc;
    sc.seed = 200 + seed;
    sc.competitor = true;
    sc.policy = SchedPolicy::PriorityBoost;
    for (const Rec& r : expect_same(sc).log) {
      competitor_runs += r.kind == 'Q';
    }
  }
  EXPECT_GT(competitor_runs, 12);
}

TEST(PollPark, RunLimitStopsMidParkAndResumesOnTheSameGrid) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Scenario sc;
    sc.seed = 300 + seed;
    sc.competitor = seed % 2 == 0;
    util::Rng r(seed);
    Cycles limit = 0;
    for (int i = 0; i < 6; ++i) {
      limit += 1 + r.below(sc.end / 6);
      sc.limits.push_back(limit);
    }
    expect_same(sc);
  }
}

TEST(PollPark, QuietRunLimitSettlesAtTheLastBoundary) {
  // Nothing but the poller: run(limit) must leave the clock at the last
  // boundary at or before the limit, as the hand loop's chunk events do.
  for (const bool hand : {true, false}) {
    Simulator sim;
    Node& node = sim.add_node("n0");
    const Cycles p = node.cost().poll_iteration;
    const Cycles start = node.cost().context_switch;
    std::uint64_t charged = 0;
    bool stop = false;
    node.kernel().spawn("poller", [&](Process& self) -> Task {
      while (!stop) {
        if (hand) {
          co_await self.compute(p);
          ++charged;
        } else {
          const std::uint64_t n = co_await self.poll_idle();
          charged += n;
        }
      }
    });
    sim.run(start + 10 * p + 7);
    EXPECT_EQ(sim.now(), start + 10 * p) << hand;
    EXPECT_EQ(node.cpu_free_at(), start + 11 * p) << hand;
    sim.queue().schedule_at(sim.now() + p, [&] { stop = true; });
    sim.run();
    EXPECT_EQ(sim.now(), start + 12 * p) << hand;
    EXPECT_EQ(charged, 12u) << hand;
  }
}

TEST(PollPark, ChangeBetweenRunsIsSeenAtTheNextBoundary) {
  // State changed by the caller between two runs, with no event: the
  // hand loop's next check sees it, so the parked poller must too.
  for (const bool hand : {true, false}) {
    Simulator sim;
    Node& node = sim.add_node("n0");
    const Cycles p = node.cost().poll_iteration;
    const Cycles start = node.cost().context_switch;
    bool stop = false;
    Cycles stopped = 0;
    node.kernel().spawn("poller", [&](Process& self) -> Task {
      while (!stop) {
        if (hand) {
          co_await self.compute(p);
        } else {
          co_await self.poll_idle();
        }
      }
      stopped = self.node().now();
    });
    sim.run(start + 5 * p + 3);
    stop = true;
    sim.run(start + 50 * p);
    EXPECT_EQ(stopped, start + 6 * p) << hand;
  }
}

TEST(PollPark, An2RingPostOnThePurePollingPath) {
  // Frames from another node land on the ring with no kernel work; the
  // poller must find each at the same check as the hand loop.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<std::vector<Rec>> logs;
    std::vector<std::uint64_t> charges;
    std::vector<std::size_t> events;
    for (const bool hand : {true, false}) {
      Simulator sim;
      Node& a = sim.add_node("a");
      Node& b = sim.add_node("b");
      net::An2Device dev_a(a), dev_b(b);
      dev_a.connect(dev_b);
      util::Rng rng(seed);
      std::vector<Rec> log;
      std::uint64_t charged = 0;
      constexpr int kFrames = 20;
      b.kernel().spawn("rx", [&](Process& self) -> Task {
        const int vc = dev_b.bind_vc(self);
        for (std::uint32_t i = 0; i < kFrames; ++i) {
          dev_b.supply_buffer(vc, self.segment().base + 64 * i, 64);
        }
        for (int got = 0; got < kFrames;) {
          if (auto d = dev_b.poll(vc)) {
            log.push_back({'H', self.node().now(), d->addr});
            ++got;
            co_await self.compute(self.node().cost().an2_user_recv_overhead);
            continue;
          }
          if (hand) {
            co_await self.compute(self.node().cost().poll_iteration);
            ++charged;
          } else {
            const std::uint64_t n = co_await self.poll_idle();
          charged += n;
          }
        }
      });
      Cycles t = us(50.0);
      for (int i = 0; i < kFrames; ++i) {
        t += us(100.0) + rng.below(us(200.0));
        sim.queue().schedule_at(t, [&] {
          const std::uint8_t m[4] = {1, 2, 3, 4};
          dev_a.send(0, m);
        });
      }
      events.push_back(sim.run());
      logs.push_back(log);
      charges.push_back(charged);
      EXPECT_EQ(log.size(), static_cast<std::size_t>(kFrames));
    }
    EXPECT_EQ(logs[0], logs[1]) << "seed " << seed;
    EXPECT_EQ(charges[0], charges[1]) << "seed " << seed;
    EXPECT_LT(events[1] * 10, events[0]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ash::sim
