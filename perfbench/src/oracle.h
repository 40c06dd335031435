// Correctness oracle: per-cell digests and the `selcache suite` stdout,
// frozen from a known-good build, plus the paper's Table 3 for the accuracy
// metric.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.h"

namespace perfbench {

/// Data seeds the oracle is frozen for. The first is RunOptions' default —
/// the seed the paper tables and the `selcache` CLI use; the second is held
/// out from every tuning run and only checks that the model behaves the
/// same way on other data.
inline constexpr std::array<std::uint64_t, 2> kDataSeeds = {0x5e1c4c4eULL,
                                                            0x2f6b9a13ULL};

/// The data seed a benchmark seed simulates.
inline std::uint64_t data_seed_for(std::uint64_t seed) {
  return kDataSeeds[seed % kDataSeeds.size()];
}

/// The six Table 3 machines by CLI id, in the paper's row order.
inline const std::vector<std::string>& machine_ids() {
  static const std::vector<std::string> ids = {"base",   "memlat",
                                               "l2size", "l1size",
                                               "l2assoc", "l1assoc"};
  return ids;
}

/// Oracle key of one simulated cell.
std::string cell_key(std::uint64_t data_seed, const std::string& machine,
                     selcache::hw::SchemeKind scheme,
                     const std::string& workload, selcache::core::Version v);

struct FrozenCell {
  std::uint64_t digest = 0;
  std::uint64_t cycles = 0;
  std::uint64_t accesses = 0;
};

class Oracle {
 public:
  /// Load `dir`/cells.txt and `dir`/suite_base_bypass.stdout. Returns an
  /// error message, empty on success.
  std::string load(const std::string& dir);
  /// Write the frozen files into `dir`.
  std::string save(const std::string& dir) const;

  const FrozenCell* find(const std::string& key) const;
  /// Does `r` match the frozen cell `key`? A missing key is a mismatch.
  bool matches(const std::string& key,
               const selcache::core::RunResult& r) const;

  /// Byte-exact stdout of an uninterrupted `selcache suite` (Base machine,
  /// bypass scheme, default data seed).
  const std::string& suite_stdout() const { return suite_stdout_; }

  void set(const std::string& key, const FrozenCell& c) { cells_[key] = c; }
  void set_suite_stdout(std::string s) { suite_stdout_ = std::move(s); }
  /// Flip one bit of a frozen digest (the oracle self-test).
  void corrupt(const std::string& key) { cells_.at(key).digest ^= 1; }

 private:
  std::map<std::string, FrozenCell> cells_;
  std::string suite_stdout_;
};

/// Cycles of one suite pass: [workload index][version index], in registry
/// and kAllVersions order.
using SuiteCycles = std::vector<std::array<std::uint64_t, 5>>;

/// Average improvement (%) over Base across the 13 workloads for version
/// index vi — one Table 3 entry.
double average_improvement(const SuiteCycles& cycles, std::size_t vi);

/// Table 3 of the paper (the values bench/bench_table3.cpp prints beside
/// the measured ones), one row per machine in machine_ids() order.
struct PaperRow {
  double pure_sw, bypass, comb_bypass, sel_bypass;
  double victim, comb_victim, sel_victim;
};
extern const PaperRow kPaperTable3[6];

/// The bypass-scheme Table 3 columns of one row, measured: Pure Software,
/// Cache Bypass, Combined, Selective. Paired with the paper's values.
void add_bypass_columns(const SuiteCycles& bypass, const PaperRow& paper,
                        std::vector<std::pair<double, double>>* pairs);
/// The victim-scheme columns: Victim Caches, Combined, Selective.
void add_victim_columns(const SuiteCycles& victim, const PaperRow& paper,
                        std::vector<std::pair<double, double>>* pairs);

/// Mean absolute difference (percentage points) of (measured, paper) pairs.
double mean_abs_error(const std::vector<std::pair<double, double>>& pairs);

/// One benchmark row of a `format_figure` table, split into cells (the
/// text between '|' separators, trimmed); nullopt when `text` has no row
/// for `workload`.
std::optional<std::vector<std::string>> table_row(const std::string& text,
                                                  const std::string& workload);

}  // namespace perfbench
