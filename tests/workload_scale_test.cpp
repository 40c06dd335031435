// Scale regression guards: each benchmark's simulated instruction count
// must stay within a loose band of its documented 1/50 scale target, and
// its base miss regime must stay on the documented side. These catch
// accidental workload edits that would silently invalidate EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "core/runner.h"

namespace selcache::workloads {
namespace {

class ScaleGuard : public ::testing::TestWithParam<const char*> {};

TEST_P(ScaleGuard, InstructionCountNearScaledTarget) {
  const auto& w = workload(GetParam());
  const core::RunResult r = core::run_version(w, core::base_machine(),
                                              core::Version::Base);
  const double target = w.paper_instructions_m * 1e6 / 50.0;
  EXPECT_GT(static_cast<double>(r.instructions), target / 3.5) << w.name;
  EXPECT_LT(static_cast<double>(r.instructions), target * 3.5) << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ScaleGuard,
    ::testing::Values("Perl", "Compress", "Li", "Mgrid", "Chaos", "Vpenta",
                      "Adi", "TPC-C", "TPC-D,Q1", "TPC-D,Q3", "TPC-D,Q6"),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST(ScaleGuard, VpentaStaysTheWorstL1Citizen) {
  // Table 2's defining feature: Vpenta's base L1 miss rate dwarfs the rest.
  const core::RunResult vpenta = core::run_version(
      workload("Vpenta"), core::base_machine(), core::Version::Base);
  for (const char* other : {"Perl", "Li", "Mgrid", "TPC-D,Q6"}) {
    const core::RunResult r = core::run_version(
        workload(other), core::base_machine(), core::Version::Base);
    EXPECT_GT(vpenta.l1_miss_rate, 2.0 * r.l1_miss_rate) << other;
  }
}

TEST(ScaleGuard, ChaosKeepsL2ResidentWorkingSet) {
  // Chaos is the "high L1 miss, low L2 miss" archetype (Table 2: 7.33/1.82).
  const core::RunResult r = core::run_version(
      workload("Chaos"), core::base_machine(), core::Version::Base);
  EXPECT_GT(r.l1_miss_rate, 0.08);
  EXPECT_LT(r.l2_miss_rate, 0.15);
}

TEST(ScaleGuard, RegularCodesGetDoubleDigitSoftwareWins) {
  // The pure-software story must not silently regress.
  for (const char* name : {"Vpenta", "Adi"}) {
    const auto row =
        core::execute(core::plan_workload(workload(name), core::base_machine()))
            .rows[0];
    EXPECT_GT(row.pct.at(core::Version::PureSoftware), 30.0) << name;
  }
}

TEST(ScaleGuard, PerlKeepsItsHardwareWin) {
  const auto row =
      core::execute(core::plan_workload(workload("Perl"), core::base_machine()))
          .rows[0];
  EXPECT_GT(row.pct.at(core::Version::PureHardware), 3.0);
}

}  // namespace
}  // namespace selcache::workloads
