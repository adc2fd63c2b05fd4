// Simulated processes.
//
// A Process hosts one coroutine (its "main") plus the bookkeeping the
// scheduler needs: run state, the pending-compute residue used for quantum
// preemption, and its address-space segment within the node's memory.
// Simulated work is expressed by awaiting the members below; the process
// only advances while it holds the simulated CPU.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace ash::sim {

class Node;
class Scheduler;

class Process;

/// Main function of a simulated process. NOTE: a coroutine lambda's
/// captures live in the lambda object, not the coroutine frame, so the
/// kernel stores this callable inside the Process for the coroutine's
/// whole lifetime (see Process::start).
using ProcessMain = std::function<Task(Process&)>;

/// A process's address-space segment within node memory. Power-of-two
/// sized and aligned, so it can serve directly as an SFI segment.
struct MemSegment {
  std::uint32_t base = 0;
  std::uint32_t size = 0;
};

enum class ProcState : std::uint8_t { Ready, Running, Blocked, Exited };

class Process {
 public:
  Process(Node& node, std::uint32_t pid, std::string name, MemSegment seg);
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  std::uint32_t pid() const noexcept { return pid_; }
  const std::string& name() const noexcept { return name_; }
  Node& node() noexcept { return node_; }
  const MemSegment& segment() const noexcept { return seg_; }
  ProcState state() const noexcept { return state_; }
  /// Empty poll iterations charged through poll_idle so far.
  std::uint64_t poll_iterations() const noexcept { return poll_iterations_; }
  bool exited() const noexcept { return state_ == ProcState::Exited; }

  // ---- awaitables (only valid inside this process's coroutine) ----

  /// Consume `cycles` of CPU time (preemptible at chunk granularity).
  [[nodiscard]] auto compute(Cycles cycles) {
    struct Awaiter {
      Process& p;
      Cycles cycles;
      bool await_ready() const noexcept { return cycles == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        p.start_compute(cycles, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, cycles};
  }

  /// A run of empty poll iterations, simulated exactly but without one
  /// event per iteration. It stands in for the hand loop
  ///   do { co_await compute(cost().poll_iteration); }
  ///   while (the loop's check would see nothing new && now < deadline);
  /// so it charges at least one iteration, and returns (the number of
  /// iterations charged) at the first iteration boundary at which the
  /// caller's check could see a change: after any other event ran (see
  /// Simulator::run), once now >= `deadline`, or once a ready process's
  /// quantum expires. While parked the process stays Running and keeps
  /// the node's chunk end where the hand loop's would be, so kernel work
  /// and preemption land on the same cycles as with compute().
  struct PollIdle {
    Process& p;
    Cycles deadline;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      p.start_poll_idle(deadline, h);
    }
    std::uint64_t await_resume() const noexcept {
      p.poll_iterations_ += p.park_.charged;
      return p.park_.charged;
    }
  };
  [[nodiscard]] PollIdle poll_idle(Cycles deadline = kNever) {
    return PollIdle{*this, deadline};
  }

  /// A full system call: two protected crossings + dispatch + `work`.
  [[nodiscard]] auto syscall(Cycles work = 0) {
    return compute(syscall_cost(work));
  }

  /// Cycles a system call performing `work` consumes in total.
  Cycles syscall_cost(Cycles work) const;

  /// Give up the CPU voluntarily (ready-queue tail).
  [[nodiscard]] auto yield_now() {
    struct Awaiter {
      Process& p;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { p.do_yield(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Block for a fixed amount of simulated time.
  [[nodiscard]] auto sleep_for(Cycles cycles) {
    struct Awaiter {
      Process& p;
      Cycles cycles;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { p.do_sleep(cycles, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, cycles};
  }

  // ---- kernel-side interface ----

  /// Pin `fn` inside this process and start its coroutine. The callable
  /// must outlive the coroutine (lambda captures live in it), which is
  /// exactly why it is stored here and never moved again.
  void start(ProcessMain fn);

  /// Make a Blocked process runnable. `boost` hints schedulers that honor
  /// message-arrival priority (the Ultrix-style policy). No-op for
  /// Ready/Running processes (wakeups are not queued — use WaitChannel
  /// for token semantics).
  void wake(bool boost = false);

  /// Continue execution after being dispatched: either finish residual
  /// compute or resume the (innermost suspended) coroutine.
  void resume_execution();

  /// Block the process on an external condition; `resume_execution` will
  /// resume `h` when the process is next dispatched after wake().
  void block_on_external(std::coroutine_handle<> h);

  std::exception_ptr take_exception() noexcept {
    return std::exchange(exception_, nullptr);
  }

  /// The shared simulation event queue (convenience accessor).
  EventQueue& queue();

 private:
  friend class Scheduler;
  friend class Simulator;
  friend struct Task::promise_type::FinalAwaiter;

  void start_compute(Cycles cycles, std::coroutine_handle<> h);
  void schedule_next_chunk();
  void start_poll_idle(Cycles deadline, std::coroutine_handle<> h);
  /// The boundary before `b` on the park's grid (where its check ran).
  Cycles boundary_before(Cycles b) const;
  void schedule_resumption(Cycles at);
  void resume_parked();
  /// Parked pollers only (Simulator::run). `touch`: the event `e` is
  /// about to run, so resume at the end of the iteration it lands in.
  /// `settle`: the run stops at `limit`; advance to the last boundary at
  /// or before it, as the hand loop's events up to `limit` would have.
  void touch(const EventQueue::Key& e);
  void settle(Cycles limit);
  void do_yield(std::coroutine_handle<> h);
  void do_sleep(Cycles cycles, std::coroutine_handle<> h);
  void run_coroutine();
  void on_coroutine_done();

  Scheduler& sched();

  Node& node_;
  std::uint32_t pid_;
  std::string name_;
  MemSegment seg_;
  ProcState state_ = ProcState::Ready;
  ProcessMain main_fn_;  // owns the coroutine's lambda captures
  Task::Handle main_{};
  std::coroutine_handle<> cont_{};  // innermost suspended coroutine
  Cycles compute_remaining_ = 0;
  std::uint64_t poll_iterations_ = 0;
  std::exception_ptr exception_;

  /// poll_idle's state. The iteration boundaries are `first`, then every
  /// poll_iteration: kernel work can only delay the first one, and any
  /// new kernel work comes from an event, which ends the park.
  struct Park {
    Cycles prev = 0;         // the check before `first`
    Cycles first = 0;        // the first boundary not yet passed
    EventId chunk_id = 0;    // reserved at the park; orders like the
                             // hand loop's chunk event for `first`
    EventId ev = 0;          // pending resumption, 0 if none
    Cycles ev_at = 0;        // its boundary
    std::uint64_t base = 0;  // iterations passed before `first`
    std::uint64_t charged = 0;
  } park_;
};

/// Condition-variable-with-memory: notify() on an empty waiter list is
/// remembered as a token, so a process that checks state and then waits
/// cannot lose a wakeup that slipped in between.
class WaitChannel {
 public:
  /// Awaitable: consume a token or block until notify().
  [[nodiscard]] auto wait(Process& self) {
    struct Awaiter {
      WaitChannel& ch;
      Process& p;
      bool await_ready() noexcept {
        if (ch.tokens_ > 0) {
          --ch.tokens_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch.waiters_.push_back(&p);
        p.block_on_external(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, self};
  }

  /// Timed wait: like wait(), but gives up after `timeout` cycles.
  /// Resumes with true if a token was consumed, false on timeout.
  struct TimedAwaiter {
    WaitChannel& ch;
    Process& p;
    Cycles timeout;
    bool timed_out = false;
    EventId ev = 0;

    bool await_ready() noexcept {
      if (ch.tokens_ > 0) {
        --ch.tokens_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume();
  };
  [[nodiscard]] TimedAwaiter wait_for(Process& self, Cycles timeout) {
    return TimedAwaiter{*this, self, timeout};
  }

  /// Post one token / wake the first waiter. `boost` is passed through to
  /// Process::wake for priority-boosting schedulers.
  void notify(bool boost = false);

  std::uint64_t tokens() const noexcept { return tokens_; }
  bool has_waiters() const noexcept { return !waiters_.empty(); }

 private:
  /// Remove `p` from the waiter list; true if it was present.
  bool remove_waiter(Process* p);

  std::uint64_t tokens_ = 0;
  std::deque<Process*> waiters_;
};

}  // namespace ash::sim
