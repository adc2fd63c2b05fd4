// The calibrated cost model of the simulated testbed.
//
// Every constant here is derived from a number the paper states or implies
// for the 40 MHz DECstation 5000/240 running Aegis (see DESIGN.md §4 and
// EXPERIMENTS.md for the calibration narrative). Keeping them all in one
// struct makes each experiment's arithmetic auditable and lets benches run
// ablations (e.g. Ultrix-cost crossings, software budget checks).
#pragma once

#include "sim/event_queue.hpp"

namespace ash::sim {

struct CostModel {
  // --- CPU / kernel (Aegis: "kernel crossing times are five times better
  // than the best reported in the literature") ---

  /// One protected user->kernel->user crossing (trap + return).
  Cycles kernel_crossing = us(1.5);
  /// Fixed overhead of a full system call beyond the crossing
  /// (argument validation, dispatch).
  Cycles syscall_overhead = us(2.0);
  /// Full context switch between processes (save/restore, address space,
  /// scheduler pass; what an upcall avoids — Section V's ~35 us
  /// ASH-vs-upcall advantage comes largely from here).
  Cycles context_switch = us(35.0);
  /// Interrupt entry/exit (device interrupt to handler and back).
  Cycles interrupt_entry = us(2.5);
  /// Round-robin scheduling quantum (Aegis timeslice).
  Cycles quantum = us(15625.0);  // 15.625 ms
  /// Cost of one poll-loop iteration at user level (read notification
  /// ring, test, branch).
  Cycles poll_iteration = us(0.5);
  /// Making a blocked process runnable from kernel context (scheduler
  /// queue manipulation + priority recomputation).
  Cycles wakeup = us(10.0);

  // --- ASH invocation (Section V: timer setup/teardown "approximately
  /// one microsecond each", plus installing the address-space context) ---
  Cycles ash_timer_setup = us(1.0);
  Cycles ash_timer_clear = us(1.0);
  Cycles ash_context_install = us(1.0);
  /// Runtime ceiling: "aborting any ASH that attempts to use two clock
  /// ticks worth of time or more" (3.9 ms ticks on the DECstation).
  Cycles ash_max_runtime = us(7800.0);

  // --- upcalls (Section V: ASH saves ~35us over an upcall in Aegis) ---
  /// Dispatching a fast asynchronous upcall: address-space switch and
  /// user-level handler entry/exit, without a full context switch.
  Cycles upcall_dispatch = us(25.0);
  /// Batching/unbatching overhead of the upcall mechanism (the paper's
  /// explanation for upcalls trailing even polling user level).
  Cycles upcall_batching = us(21.0);

  // --- Ultrix-style costs (Section V: exception + syscall there is ~95us
  /// where Aegis spends ~35us less than an upcall) ---
  Cycles ultrix_crossing_extra = us(60.0);

  // --- memory loops: per-32-bit-word instruction counts of the hand
  /// loops the protocol library uses (calibrated to Table III/IV) ---
  std::uint32_t copy_loop_insns_per_word = 5;   // lw sw addiu addiu bne
  std::uint32_t cksum_loop_insns_per_word = 5;  // lw cksum(2c) addiu bne
  std::uint32_t bswap_loop_insns_per_word = 11;  // lw 6-op-swap sw + loop
  std::uint32_t integrated_cksum_extra = 2;      // cksum32 folded into copy
  std::uint32_t integrated_bswap_extra = 9;      // shift/mask swap folded in

  // --- user-level raw network access (Table I: the user-level path adds
  /// ~70us/RTT over the in-kernel path: scheduling, multiple boundary
  /// crossings, "the full system call interface") ---
  /// Receive-side user work per message: notification-ring processing,
  /// buffer bookkeeping, boundary crossings.
  Cycles an2_user_recv_overhead = us(25.0);
  /// Send-side user work beyond the driver's transmit work (argument
  /// validation, buffer pinning checks).
  Cycles an2_user_send_overhead = us(8.0);

  // --- protocol library (per message, beyond data touching) ---
  /// Fixed cost of invoking the checksum routine (call, fold, compare) —
  /// charged per checksummed packet in addition to the per-byte pass.
  Cycles udp_cksum_setup = us(6.0);
  /// Allocate a send buffer + fill IP/UDP headers (the "43us higher than
  /// raw" UDP observation, split across send and receive).
  Cycles udp_send_overhead = us(12.0);
  Cycles udp_recv_overhead = us(6.0);
  /// TCP segment processing around the header-prediction fast path.
  Cycles tcp_fastpath_overhead = us(18.0);
  /// TCP slow path (full protocol processing).
  Cycles tcp_slowpath_overhead = us(45.0);
  /// TCP sender-side per-write bookkeeping (buffering for retransmit).
  Cycles tcp_send_overhead = us(20.0);
  /// Building and issuing a pure ACK segment.
  Cycles tcp_ack_overhead = us(8.0);
  /// Per-segment bookkeeping the *transparent* library still performs at
  /// user level when a downloaded handler consumed the segment (Section
  /// V-B: "this version of the TCP library implements ASHs completely
  /// transparently to applications" — reads revalidate the TCB, account
  /// buffers, and unbatch, limiting what the handler can save).
  Cycles tcp_handler_read_overhead = us(20.0);

  // --- multi-queue receive path (receive scaling, DESIGN §"Receive
  /// scaling model") ---
  /// One pickup pass of an rx queue already in polling mode (NAPI-style):
  /// the coalescer stays on the CPU, so a batch costs a ring check + batch
  /// pop instead of a full interrupt entry.
  Cycles rxq_poll_pass = us(0.5);
  /// Re-arming the runtime budget timer for the next message of an ASH
  /// dispatch session already entered — one fired RX queue batch, across
  /// all its channels (the timer machinery is hot; only the deadline is
  /// rewritten). Replaces ash_timer_setup for every message after the
  /// session's first; ash_context_install is still paid when the owner
  /// changes, unless the handler is pre-bound.
  Cycles ash_batch_rearm = us(0.25);

  // --- demultiplexing ---
  /// AN2: virtual-circuit index lookup in the driver.
  Cycles demux_an2 = us(1.0);
  /// Ethernet: per-DPF-node visit cost (compiled engine).
  Cycles dpf_node_cost = us(0.4);
};

}  // namespace ash::sim
