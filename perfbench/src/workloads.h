// The benchmark's three workloads. Each repetition sets up, runs the timed
// operation once and checks every simulated cell against the oracle.
//
//   suite_cold   Base machine, 13x5 cells under the bypass and the victim
//                scheme (130 simulations), interpreted through
//                core::run_version with no tapes and no store.
//   axis_replay  the six Table 3 machines x 13x5 cells, bypass scheme (390
//                simulations): core::record_tape at the Base machine, then
//                core::replay_tape of that tape at the other five.
//   kill_resume  `selcache suite --run-dir D` on the Base machine, serially,
//                SIGKILLed after K done cells (set-up); then `selcache
//                resume D` at nproc threads, then `resume D` once more on the
//                completed run (timed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.h"
#include "util.h"

namespace perfbench {

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned threads = 1;   ///< worker threads (the host's core count)
  std::string cli;        ///< path of the selcache CLI
  std::string work_dir;   ///< scratch directory inside the checkout
  const Oracle* oracle = nullptr;
};

/// Exact model counters summed over a repetition's cells.
struct ModelCounts {
  std::uint64_t l1d_hits = 0, l1d_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t victim_hits = 0, victim_misses = 0;
  std::uint64_t toggles = 0;

  void add(const selcache::StatSet& s);
};

struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;       ///< the timed operation
  double peak_rss_mb = 0.0;  ///< kill_resume: the resume child; else 0
  std::uint64_t accesses = 0;  ///< simulated L1 demand accesses
  std::uint64_t attempted = 0;  ///< cells
  std::uint64_t failed = 0;     ///< cells that threw or missed the oracle
  double paper_mae_pp = 0.0;
  /// (measured, paper) Table 3 averages behind paper_mae_pp.
  std::vector<std::pair<double, double>> table3;
  std::vector<std::string> problems;  ///< why cells failed (first few)
  ModelCounts counts;                 ///< in-process workloads only
  std::vector<double> cell_s;         ///< per-cell host seconds (traced)
  // kill_resume only.
  std::uint64_t cells_from_ledger = 0;
  std::uint64_t cells_resimulated = 0;
  std::string run_dir;
};

bool known_workload(const std::string& name);

/// One repetition of ctx.workload. `rec` (nullable) records a span around
/// every call the operation makes into the library or the CLI; `rep` is
/// the repetition index.
RepResult run_rep(const Context& ctx, SpanRecorder* rec, std::size_t rep);

/// Cells whose benchmark row in `actual` differs from `expected` (five per
/// row: a row's four improvements come from its five versions).
std::uint64_t failed_rows(const std::string& actual,
                          const std::string& expected);

}  // namespace perfbench
