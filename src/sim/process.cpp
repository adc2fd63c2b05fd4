#include "sim/process.hpp"

#include <algorithm>
#include <cassert>

#include "sim/kernel.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace ash::sim {

namespace {
/// Preemption granularity: long computes are split into chunks of this
/// size so quantum expiry and priority boosts take effect promptly.
constexpr Cycles kComputeChunk = 2000;  // 50 us at 40 MHz
}  // namespace

void Task::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  if (Process* p = h.promise().process) p->on_coroutine_done();
}

Process::Process(Node& node, std::uint32_t pid, std::string name,
                 MemSegment seg)
    : node_(node), pid_(pid), name_(std::move(name)), seg_(seg) {}

Process::~Process() {
  if (main_) main_.destroy();
}

Scheduler& Process::sched() { return node_.kernel().scheduler(); }
EventQueue& Process::queue() { return node_.queue(); }

void Process::start(ProcessMain fn) {
  assert(!main_);
  main_fn_ = std::move(fn);
  Task task = main_fn_(*this);
  main_ = task.release();
  main_.promise().process = this;
  cont_ = main_;
}

void Process::wake(bool boost) {
  if (state_ != ProcState::Blocked) return;
  sched().make_ready(this, boost);
}

void Process::resume_execution() {
  assert(state_ == ProcState::Running);
  if (compute_remaining_ > 0) {
    schedule_next_chunk();
  } else {
    run_coroutine();
  }
}

void Process::block_on_external(std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  sched().on_running_blocked();
}

void Process::start_compute(Cycles cycles, std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  compute_remaining_ = cycles;
  schedule_next_chunk();
}

void Process::schedule_next_chunk() {
  Scheduler& s = sched();
  if (s.should_preempt()) {
    s.preempt_running();  // residual compute continues on re-dispatch
    return;
  }
  const Cycles chunk =
      compute_remaining_ < kComputeChunk ? compute_remaining_ : kComputeChunk;
  const Cycles start =
      node_.now() > node_.cpu_free_at() ? node_.now() : node_.cpu_free_at();
  const Cycles end = start + chunk;
  node_.set_chunk_end(end);
  queue().schedule_at(end, [this, chunk] {
    if (state_ != ProcState::Running) {
      // A process leaves Running only through its own awaitables, never
      // between scheduling a chunk and its end (chunk events are not
      // cancelled), but stay defensive: drop the stale completion.
      return;
    }
    compute_remaining_ -= chunk;
    if (compute_remaining_ == 0) {
      run_coroutine();
    } else {
      schedule_next_chunk();
    }
  });
}

// ---- poll_idle ----
//
// Exactness argument. Between two events nothing a poll loop's check
// reads can change: frames land, handlers commit, timers arm and
// processes wake only inside events, and a node runs one process at a
// time. So every boundary with no event since the previous check is an
// empty check, and skipping it changes nothing. Simulator::run calls
// touch() before any event (other than a resumption) runs; the poller
// then resumes at the end of the iteration that event lands in, exactly
// where the hand loop's next check would run.
//
// Ties: the hand loop's chunk event for boundary b was scheduled at the
// check before it, so the queue orders by (time, scheduled-at, id) and a
// resumption carries the previous boundary as its scheduled-at. Its id
// falls where the chunk event's would: for the first boundary it is the
// id reserved when the poller parked (nothing was scheduled between the
// park and the boundaries a run's end settles on, so it serves those
// too); for a later one it is issued at the first event after the check
// before it.

void Process::start_poll_idle(Cycles deadline, std::coroutine_handle<> h) {
  const Cycles p = node_.cost().poll_iteration;
  Scheduler& s = sched();
  park_.charged = 1;
  if (p == 0 || p > kComputeChunk || s.should_preempt()) {
    // One plain iteration where the grid below does not apply (an
    // iteration that is not exactly one compute chunk) or a preemption
    // is due: compute() preempts here and finishes the iteration on
    // re-dispatch.
    start_compute(p, h);
    return;
  }
  cont_ = h;
  const Cycles now = node_.now();
  park_.prev = now;
  park_.first = std::max(now, node_.cpu_free_at()) + p;
  park_.chunk_id = queue().reserve_id();
  park_.ev = 0;
  park_.base = 0;
  node_.set_chunk_end(park_.first);
  // With another process ready, the first check at or past quantum
  // expiry is followed by a preemption, so the poller must run it.
  Cycles wake = deadline;
  if (s.ready_count() > 0) {
    wake = std::min(wake, s.running_since() + node_.cost().quantum);
  }
  // (A boundary past the end of time is no deadline.)
  if (wake <= kNever - p) {
    const Cycles b =
        wake <= park_.first
            ? park_.first
            : park_.first + (wake - park_.first + p - 1) / p * p;
    schedule_resumption(b);
  }
  node_.simulator().park(this);
}

Cycles Process::boundary_before(Cycles b) const {
  return b == park_.first ? park_.prev : b - node_.cost().poll_iteration;
}

void Process::schedule_resumption(Cycles at) {
  const EventId id =
      at == park_.first ? park_.chunk_id : queue().reserve_id();
  park_.ev = queue().schedule_resumption(at, boundary_before(at), id,
                                         [this] { resume_parked(); });
  park_.ev_at = at;
}

void Process::touch(const EventQueue::Key& e) {
  const Cycles p = node_.cost().poll_iteration;
  // The end of the iteration `e` lands in. On a boundary, `e` runs
  // before that boundary's check iff it sorts before the check's chunk
  // event: scheduled before the previous check, or at it but with an
  // earlier id than the one reserved at the park.
  Cycles end = park_.first;
  if (e.at >= park_.first) {
    const Cycles b = park_.first + (e.at - park_.first) / p * p;
    const Cycles before = boundary_before(b);
    const bool ahead =
        e.sched < before || (e.sched == before && e.id < park_.chunk_id);
    end = e.at == b && ahead ? b : b + p;
  }
  node_.set_chunk_end(end);
  if (park_.ev != 0) {
    assert(park_.ev_at >= end);
    if (park_.ev_at == end) return;  // never re-allocated for one boundary
    queue().cancel(park_.ev);
  }
  schedule_resumption(end);
}

void Process::settle(Cycles limit) {
  if (limit < park_.first) return;
  const Cycles p = node_.cost().poll_iteration;
  const Cycles passed = (limit - park_.first) / p;
  const Cycles last = park_.first + passed * p;
  park_.base += passed + 1;
  park_.prev = last;
  park_.first = last + p;
  node_.set_chunk_end(park_.first);
  queue().advance_to(last);
}

void Process::resume_parked() {
  // Still listed if no event came between the park and this deadline.
  node_.simulator().unpark(this);
  park_.ev = 0;
  const Cycles p = node_.cost().poll_iteration;
  park_.charged = park_.base + 1 + (node_.now() - park_.first) / p;
  run_coroutine();
}

void Process::do_yield(std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  sched().on_running_yielded();
}

void Process::do_sleep(Cycles cycles, std::coroutine_handle<> h) {
  assert(state_ == ProcState::Running);
  cont_ = h;
  sched().on_running_blocked();
  queue().schedule_in(cycles, [this] { wake(false); });
}

void Process::run_coroutine() {
  assert(state_ == ProcState::Running);
  cont_.resume();
  // Control returns here once some coroutine in the stack suspends again
  // (an awaitable has taken over scheduling) or the main coroutine has
  // finished (on_coroutine_done already ran from the final awaiter).
}

void Process::on_coroutine_done() {
  exception_ = main_.promise().exception;
  if (exception_) node_.kernel().record_failure(exception_);
  sched().on_running_exited();
}

Cycles Process::syscall_cost(Cycles work) const {
  const CostModel& c = node_.cost();
  return 2 * c.kernel_crossing + c.syscall_overhead + work;
}

void WaitChannel::notify(bool boost) {
  if (waiters_.empty()) {
    ++tokens_;
    return;
  }
  Process* p = waiters_.front();
  waiters_.pop_front();
  p->wake(boost);
}

bool WaitChannel::remove_waiter(Process* p) {
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (*it == p) {
      waiters_.erase(it);
      return true;
    }
  }
  return false;
}

void WaitChannel::TimedAwaiter::await_suspend(std::coroutine_handle<> h) {
  ch.waiters_.push_back(&p);
  ev = p.queue().schedule_in(timeout, [this] {
    if (ch.remove_waiter(&p)) {
      timed_out = true;
      p.wake(false);
    }
  });
  p.block_on_external(h);
}

bool WaitChannel::TimedAwaiter::await_resume() {
  // Cancel the timeout event (no-op if it already fired); the awaiter is
  // about to be destroyed and the event captures `this`.
  if (ev != 0) p.queue().cancel(ev);
  return !timed_out;
}

}  // namespace ash::sim
