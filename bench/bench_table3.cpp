// Table 3: average improvements of every version over the Base run, for the
// six machine configurations and both hardware schemes — the paper's summary
// table. Paper values are printed alongside for direct comparison.
#include <chrono>
#include <cstdio>

#include "core/report.h"
#include "core/runner.h"
#include "support/table.h"

using namespace selcache;

namespace {

struct PaperRow {
  const char* name;
  double pure_sw, bypass, comb_bypass, sel_bypass;
  double victim, comb_victim, sel_victim;
};

// Table 3 of the paper, verbatim.
constexpr PaperRow kPaper[] = {
    {"Base Confg.", 16.12, 5.07, 17.37, 24.98, 1.38, 16.45, 23.82},
    {"Higher Mem. Lat.", 15.82, 7.69, 17.66, 26.07, 4.52, 16.24, 24.88},
    {"Larger L2 Size", 14.81, 4.75, 15.79, 22.25, 0.80, 14.05, 20.10},
    {"Larger L1 Size", 17.42, 4.94, 17.04, 24.17, 1.16, 16.45, 22.55},
    {"Higher L2 Asc.", 14.05, 4.82, 15.00, 21.22, 0.92, 13.12, 19.39},
    {"Higher L1 Asc.", 13.96, 3.96, 14.51, 20.93, 2.14, 12.06, 19.21},
};

std::string cell(double measured, double paper) {
  return TextTable::num(measured) + " (" + TextTable::num(paper) + ")";
}

}  // namespace

int main() {
  const auto t0 = std::chrono::steady_clock::now();

  TextTable t({"Experiment", "Pure Software", "Cache Bypass",
               "Combined (byp)", "Selective (byp)", "Victim Caches",
               "Combined (vic)", "Selective (vic)"});

  const auto& machines = core::all_machines();
  for (std::size_t k = 0; k < machines.size(); ++k) {
    core::RunOptions bypass;
    bypass.scheme = hw::SchemeKind::Bypass;
    const core::CellPlan plan = core::plan_suite(machines[k]);
    const auto byp_rows = core::execute(plan, bypass).rows;

    core::RunOptions victim;
    victim.scheme = hw::SchemeKind::Victim;
    const auto vic_rows = core::execute(plan, victim).rows;

    const auto avg = [](const std::vector<core::ImprovementRow>& rows,
                        core::Version v) {
      return core::average_improvement(rows, v);
    };
    const PaperRow& pr = kPaper[k];
    t.add_row({machines[k].name,
               cell(avg(byp_rows, core::Version::PureSoftware), pr.pure_sw),
               cell(avg(byp_rows, core::Version::PureHardware), pr.bypass),
               cell(avg(byp_rows, core::Version::Combined), pr.comb_bypass),
               cell(avg(byp_rows, core::Version::Selective), pr.sel_bypass),
               cell(avg(vic_rows, core::Version::PureHardware), pr.victim),
               cell(avg(vic_rows, core::Version::Combined), pr.comb_victim),
               cell(avg(vic_rows, core::Version::Selective), pr.sel_victim)});
    std::fprintf(stderr, "  [table3] %s done\n", machines[k].name.c_str());
  }

  const auto dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("== Table 3: average improvements, measured (paper) ==\n%s",
              t.str().c_str());
  std::printf("(simulated in %.1fs; every cell averages the 13-benchmark "
              "suite)\n", dt);
  return 0;
}
