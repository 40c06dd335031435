// Cross-cutting property tests on real suite members (the small ones, to
// keep the test suite fast): the paper's qualitative claims must hold for
// every (workload, scheme) combination tested.
#include <gtest/gtest.h>

#include "core/runner.h"

namespace selcache::core {
namespace {

struct Case {
  const char* workload;
  hw::SchemeKind scheme;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string n = info.param.workload;
  for (char& c : n)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return n + "_" + hw::to_string(info.param.scheme);
}

class SelectiveProperty : public ::testing::TestWithParam<Case> {
 protected:
  ImprovementRow row() const {
    RunOptions opt;
    opt.scheme = GetParam().scheme;
    return execute(plan_workload(workloads::workload(GetParam().workload),
                                 base_machine()),
                   opt)
        .rows[0];
  }
};

TEST_P(SelectiveProperty, SelectiveAtLeastMatchesCombined) {
  // The paper's central claim ("better or at least the same performance for
  // all the benchmarks"), with a small tolerance for toggle overhead.
  const ImprovementRow r = row();
  EXPECT_GE(r.pct.at(Version::Selective), r.pct.at(Version::Combined) - 0.5);
}

TEST_P(SelectiveProperty, SelectiveAtLeastMatchesPureSoftware) {
  const ImprovementRow r = row();
  EXPECT_GE(r.pct.at(Version::Selective),
            r.pct.at(Version::PureSoftware) - 0.5);
}

TEST_P(SelectiveProperty, AllVersionsReturnFiniteImprovements) {
  const ImprovementRow r = row();
  for (const auto& [v, pct] : r.pct) {
    EXPECT_GT(pct, -100.0) << to_string(v);
    EXPECT_LT(pct, 100.0) << to_string(v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallSuite, SelectiveProperty,
    ::testing::Values(Case{"Perl", hw::SchemeKind::Bypass},
                      Case{"Perl", hw::SchemeKind::Victim},
                      Case{"TPC-C", hw::SchemeKind::Bypass},
                      Case{"TPC-C", hw::SchemeKind::Victim},
                      Case{"TPC-D,Q6", hw::SchemeKind::Bypass},
                      Case{"TPC-D,Q6", hw::SchemeKind::Victim},
                      Case{"TPC-D,Q1", hw::SchemeKind::Bypass},
                      Case{"TPC-D,Q3", hw::SchemeKind::Victim}),
    case_name);

class VictimNeverHurts : public ::testing::TestWithParam<const char*> {};

TEST_P(VictimNeverHurts, PureHardwareVictimNonNegative) {
  // §5.2: "victim caches performed always better than the base
  // configuration."
  RunOptions opt;
  opt.scheme = hw::SchemeKind::Victim;
  const ImprovementRow r =
      execute(plan_workload(workloads::workload(GetParam()), base_machine()),
              opt)
          .rows[0];
  EXPECT_GE(r.pct.at(Version::PureHardware), -0.1);
}

INSTANTIATE_TEST_SUITE_P(SmallSuite, VictimNeverHurts,
                         ::testing::Values("Perl", "TPC-C", "TPC-D,Q6"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(SelectiveScaling, HigherMemoryLatencySlowsEveryBaseRun) {
  // Figure 5's precondition: doubling memory latency must slow every
  // benchmark's base run (sanity of the machine-variation plumbing).
  for (const char* name : {"Perl", "TPC-C", "TPC-D,Q6"}) {
    const auto& w = workloads::workload(name);
    const RunResult fast = run_version(w, base_machine(), Version::Base);
    const RunResult slow =
        run_version(w, higher_mem_latency(), Version::Base);
    EXPECT_GT(slow.cycles, fast.cycles) << name;
  }
}

TEST(SelectiveScaling, HigherAssociativityShrinksHardwareValue) {
  // Figures 8/9: more associativity removes the conflict misses the
  // hardware schemes target, so their benefit shrinks.
  const auto& w = workloads::workload("Perl");
  RunOptions opt;
  opt.scheme = hw::SchemeKind::Bypass;
  const ImprovementRow base =
      execute(plan_workload(w, base_machine()), opt).rows[0];
  const ImprovementRow assoc =
      execute(plan_workload(w, higher_l1_assoc()), opt).rows[0];
  EXPECT_LE(assoc.pct.at(Version::PureHardware),
            base.pct.at(Version::PureHardware) + 1.0);
}

}  // namespace
}  // namespace selcache::core
