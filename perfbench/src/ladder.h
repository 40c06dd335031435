// Layer ladder: replay one recorded tape through machines that each add one
// layer to the one below, in one process, interleaved, and take the minimum
// of k repeats per rung. Rung differences give the per-layer host cost of
// one simulated access without putting a probe on the hot path.
//
//   R0    tape::replay_into into a null sink          (tape decode)
//   R2    + memsys::Hierarchy, no scheme              (TLBs, L1/L2, memory)
//   R3    + core::make_scheme scheme, always ON       (MAT/SLDT/buffer or
//                                                      victim caches)
//   full  core::replay_tape                           (+ timing model and
//                                                      controller)
//
// The same cell is also interpreted (core::run_version) and recorded
// (core::record_tape), so the IR front end and the recorder get a number
// from the same process too.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"
#include "workloads/registry.h"

namespace perfbench {

/// Minimum host seconds per rung over the repeats, plus the cell's sizes.
struct LadderTimes {
  double interp = 0.0;       ///< core::run_version (interpretation)
  double record = 0.0;       ///< core::record_tape
  double r0 = 0.0;
  double r2 = 0.0;
  double r3_bypass = 0.0;
  double r3_victim = 0.0;
  double full_bypass = 0.0;  ///< core::replay_tape, bypass scheme
  double full_victim = 0.0;  ///< core::replay_tape, victim scheme
  std::uint64_t accesses = 0;       ///< L1 demand accesses of the cell
  std::uint64_t tape_ops = 0;
  std::uint64_t tape_bytes = 0;
  std::uint64_t data_accesses = 0;  ///< recorded loads + stores
  /// Empty when every rung reproduced the full model's memory-system
  /// counters; otherwise what went wrong.
  std::string error;
};

/// Run the ladder on the Pure Hardware version of `w` (base code, scheme
/// always on) on the Base machine.
LadderTimes run_ladder(const selcache::workloads::WorkloadInfo& w,
                       std::uint64_t data_seed, int repeats,
                       SpanRecorder* rec);

}  // namespace perfbench
