#include "oracle.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util.h"

namespace perfbench {

using namespace selcache;

std::string cell_key(std::uint64_t data_seed, const std::string& machine,
                     hw::SchemeKind scheme, const std::string& workload,
                     core::Version v) {
  char seed[17];
  std::snprintf(seed, sizeof(seed), "%08" PRIx64, data_seed);
  return std::string(seed) + "/" + machine + "/" + hw::to_string(scheme) +
         "/" + workload + "/" + core::version_key(v);
}

std::string Oracle::load(const std::string& dir) {
  std::ifstream in(dir + "/cells.txt");
  if (!in) return "cannot read " + dir + "/cells.txt";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    std::string digest;
    FrozenCell c;
    if (!(ls >> key >> digest >> c.cycles >> c.accesses))
      return "malformed oracle line: " + line;
    const char* end = digest.data() + digest.size();
    if (std::from_chars(digest.data(), end, c.digest, 16).ptr != end)
      return "malformed oracle digest: " + line;
    cells_[key] = c;
  }
  suite_stdout_ = read_file(dir + "/suite_base_bypass.stdout");
  if (cells_.empty() || suite_stdout_.empty())
    return "oracle in " + dir + " is empty";
  return {};
}

std::string Oracle::save(const std::string& dir) const {
  std::ofstream out(dir + "/cells.txt");
  out << "# key digest cycles l1_accesses — frozen per-cell results; "
         "regenerate with `run.py --freeze` only on a known-good build\n";
  for (const auto& [key, c] : cells_) {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, c.digest);
    out << key << ' ' << digest << ' ' << c.cycles << ' ' << c.accesses
        << '\n';
  }
  std::ofstream so(dir + "/suite_base_bypass.stdout", std::ios::binary);
  so << suite_stdout_;
  if (!out || !so) return "cannot write the oracle into " + dir;
  return {};
}

const FrozenCell* Oracle::find(const std::string& key) const {
  const auto it = cells_.find(key);
  return it == cells_.end() ? nullptr : &it->second;
}

bool Oracle::matches(const std::string& key, const core::RunResult& r) const {
  const FrozenCell* c = find(key);
  return c != nullptr && c->digest == cell_digest(r) && c->cycles == r.cycles;
}

double average_improvement(const SuiteCycles& cycles, std::size_t vi) {
  double sum = 0.0;
  for (const auto& row : cycles) {
    // Same arithmetic as selcache::improvement_pct, so the averages match
    // the ones the figure tables print.
    const double base = static_cast<double>(row[0]);
    sum += row[0] == 0 ? 0.0
                       : 100.0 * (base - static_cast<double>(row[vi])) / base;
  }
  return cycles.empty() ? 0.0 : sum / static_cast<double>(cycles.size());
}

// Table 3 of the paper, as printed by bench/bench_table3.cpp.
const PaperRow kPaperTable3[6] = {
    {16.12, 5.07, 17.37, 24.98, 1.38, 16.45, 23.82},
    {15.82, 7.69, 17.66, 26.07, 4.52, 16.24, 24.88},
    {14.81, 4.75, 15.79, 22.25, 0.80, 14.05, 20.10},
    {17.42, 4.94, 17.04, 24.17, 1.16, 16.45, 22.55},
    {14.05, 4.82, 15.00, 21.22, 0.92, 13.12, 19.39},
    {13.96, 3.96, 14.51, 20.93, 2.14, 12.06, 19.21},
};

// kAllVersions indices: Base, PureHardware, PureSoftware, Combined,
// Selective.
void add_bypass_columns(const SuiteCycles& bypass, const PaperRow& paper,
                        std::vector<std::pair<double, double>>* pairs) {
  pairs->emplace_back(average_improvement(bypass, 2), paper.pure_sw);
  pairs->emplace_back(average_improvement(bypass, 1), paper.bypass);
  pairs->emplace_back(average_improvement(bypass, 3), paper.comb_bypass);
  pairs->emplace_back(average_improvement(bypass, 4), paper.sel_bypass);
}

void add_victim_columns(const SuiteCycles& victim, const PaperRow& paper,
                        std::vector<std::pair<double, double>>* pairs) {
  pairs->emplace_back(average_improvement(victim, 1), paper.victim);
  pairs->emplace_back(average_improvement(victim, 3), paper.comb_victim);
  pairs->emplace_back(average_improvement(victim, 4), paper.sel_victim);
}

double mean_abs_error(const std::vector<std::pair<double, double>>& pairs) {
  double sum = 0.0;
  for (const auto& [measured, paper] : pairs) sum += std::fabs(measured - paper);
  return pairs.empty() ? 0.0 : sum / static_cast<double>(pairs.size());
}

std::optional<std::vector<std::string>> table_row(
    const std::string& text, const std::string& workload) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::istringstream ls(line);
    std::string cell;
    if (line.empty() || line[0] != '|') continue;
    while (std::getline(ls, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    // cells[0] is the empty text before the leading '|'.
    if (cells.size() > 1 && cells[1] == workload)
      return std::vector<std::string>(cells.begin() + 1, cells.end());
  }
  return std::nullopt;
}

}  // namespace perfbench
