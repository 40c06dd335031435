// Cooperative run supervision at simulation-access granularity.
//
// A RunGuard is attached to memsys::Hierarchy (non-owning, through the same
// memsys::Instrumentation bundle as the trace recorder and fault injector)
// and polled once per demand access. It watches two things the fault layer's
// access-count watchdog cannot:
//
//   * a run-wide stop token (the SignalGuard's atomic, or a whole-run
//     deadline expressed as a token flipped by the engine) — tripping it
//     throws RunSuspended, abandoning the in-flight cell so the sweep can
//     suspend at a cell boundary; and
//   * a per-cell wall-clock soft deadline — tripping it throws
//     CellDeadlineExceeded, which the checkpoint engine treats like a
//     failed attempt (retried with deterministic backoff, then
//     quarantined).
//
// The fast path is one decrement-and-branch per access; the wall clock is
// only consulted every `check_period` accesses, so an armed guard costs
// nothing measurable and an unarmed (nullptr) hierarchy is bit-identical
// to the pre-guard code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace selcache::support {

/// Thrown out of Hierarchy::access when the run's stop token trips. The
/// in-flight cell's (fully task-local) state unwinds; the cell stays
/// un-done in the journal and is re-planned on resume.
class RunSuspended : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown out of Hierarchy::access when a cell outlives its wall-clock
/// soft deadline. Complements the fault layer's deterministic access-count
/// watchdog with a real-time bound.
class CellDeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class RunGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// `stop` may be null (no suspension source); nonzero *stop = suspend.
  /// `check_period` is how many accesses pass between wall-clock reads.
  explicit RunGuard(const std::atomic<int>* stop,
                    std::uint64_t check_period = 4096)
      : stop_(stop),
        period_(check_period == 0 ? 1 : check_period),
        countdown_(period_) {}

  /// Arm the per-cell wall-clock deadline, `ms` from now (0 disarms).
  void arm_cell_deadline(std::uint64_t ms) {
    has_deadline_ = ms > 0;
    if (has_deadline_)
      deadline_ = Clock::now() + std::chrono::milliseconds(ms);
  }

  /// Arm the whole-run deadline (an absolute time point, shared across all
  /// cells of the run). Expiring throws RunSuspended — the run suspends at
  /// a cell boundary exactly as a signal would — NOT CellDeadlineExceeded,
  /// which would burn the cell's retry budget for a run-level event.
  void arm_run_deadline(Clock::time_point when) {
    has_run_deadline_ = true;
    run_deadline_ = when;
  }

  /// Per-access poll; called from Hierarchy::access. Throws RunSuspended /
  /// CellDeadlineExceeded — never mutates simulator state first.
  void poll() {
    if (--countdown_ != 0) return;
    countdown_ = period_;
    slow_poll();
  }

 private:
  void slow_poll();  ///< out of line: atomic load + optional clock read

  const std::atomic<int>* stop_;
  const std::uint64_t period_;
  std::uint64_t countdown_;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  bool has_run_deadline_ = false;
  Clock::time_point run_deadline_{};
};

}  // namespace selcache::support
