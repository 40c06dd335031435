// End-to-end integration tests: the paper's qualitative claims on synthetic
// programs engineered to trigger each mechanism, plus cross-version
// invariants on real (small) suite members.
#include <gtest/gtest.h>

#include "core/runner.h"
#include "ir/builder.h"

namespace selcache::core {
namespace {

using workloads::Category;
using workloads::WorkloadInfo;

// A program with a strong phase structure: a hot pointer workload whose
// working set the hardware protects, alternating with a regular streaming
// phase that pollutes MAT state when the mechanism stays on.
ir::Program phase_demo() {
  ir::ProgramBuilder b("phase");
  const auto A = b.array("A", {128, 128});
  const auto B = b.array("B", {128, 128});
  const auto H = b.chase_pool("H", 1024, 32);
  const auto R = b.record_pool("R", 512, 64);
  const auto idx = b.index_array("ridx", 2048,
                                 ir::ArrayDecl::Content::Zipf, 0.9, 512);
  b.begin_loop("t", 0, 4);
  // Irregular phase.
  {
    const auto w = b.begin_loop("w", 0, 4000);
    b.stmt({ir::chase(H),
            ir::load_field(R, ir::Subscript::indexed(idx, ir::x(w)), 0)},
           3);
    b.end_loop();
  }
  // Regular phase (hostile in base; optimizable).
  {
    const auto j = b.begin_loop("j", 0, 128);
    const auto i = b.begin_loop("i", 0, 128);
    b.stmt({ir::load_array(A, {b.sub(i), b.sub(j)}),
            ir::load_array(B, {b.sub(i), b.sub(j)}),
            ir::store_array(B, {b.sub(i), b.sub(j)})},
           2);
    b.end_loop();
    b.end_loop();
  }
  b.end_loop();
  return b.finish();
}

WorkloadInfo phase_info() {
  return {"phase", "synthetic", Category::Mixed, phase_demo, 1, 1, 1};
}

TEST(Integration, SoftwareOptimizationBeatsBaseOnHostileCode) {
  const ImprovementRow row =
      execute(plan_workload(phase_info(), base_machine())).rows[0];
  EXPECT_GT(row.pct.at(Version::PureSoftware), 3.0);
}

TEST(Integration, SelectiveAtLeastMatchesCombinedBypass) {
  RunOptions opt;
  opt.scheme = hw::SchemeKind::Bypass;
  const ImprovementRow row =
      execute(plan_workload(phase_info(), base_machine()), opt).rows[0];
  EXPECT_GE(row.pct.at(Version::Selective),
            row.pct.at(Version::Combined) - 0.25);
}

TEST(Integration, SelectiveAtLeastMatchesCombinedVictim) {
  RunOptions opt;
  opt.scheme = hw::SchemeKind::Victim;
  const ImprovementRow row =
      execute(plan_workload(phase_info(), base_machine()), opt).rows[0];
  EXPECT_GE(row.pct.at(Version::Selective),
            row.pct.at(Version::Combined) - 0.25);
}

TEST(Integration, VictimCacheNeverBelowBase) {
  // §5.2: "victim caches performed always better than the base".
  RunOptions opt;
  opt.scheme = hw::SchemeKind::Victim;
  const ImprovementRow row =
      execute(plan_workload(phase_info(), base_machine()), opt).rows[0];
  EXPECT_GE(row.pct.at(Version::PureHardware), -0.1);
}

TEST(Integration, HigherMemoryLatencyRaisesBaseCycles) {
  const RunResult base100 =
      run_version(phase_info(), base_machine(), Version::Base);
  const RunResult base200 =
      run_version(phase_info(), higher_mem_latency(), Version::Base);
  EXPECT_GT(base200.cycles, base100.cycles);
}

TEST(Integration, LargerL1ReducesMissRate) {
  const RunResult small =
      run_version(phase_info(), base_machine(), Version::Base);
  const RunResult big =
      run_version(phase_info(), larger_l1(), Version::Base);
  EXPECT_LE(big.l1_miss_rate, small.l1_miss_rate + 1e-9);
}

TEST(Integration, SelectiveTogglesScaleWithPhases) {
  const RunResult r =
      run_version(phase_info(), base_machine(), Version::Selective);
  // 4 timesteps x ON+OFF per irregular phase.
  EXPECT_EQ(r.toggles, 8u);
}

// Real suite members (the two smallest) run end-to-end across versions.

TEST(Integration, PerlSelectiveMatchesPureHardwareShape) {
  const auto& w = workloads::workload("Perl");
  const ImprovementRow row =
      execute(plan_workload(w, base_machine())).rows[0];
  // Perl is all-hardware: selective ~ pure hardware (within toggle noise).
  EXPECT_NEAR(row.pct.at(Version::Selective),
              row.pct.at(Version::PureHardware), 1.0);
  // And software alone does nothing for it.
  EXPECT_NEAR(row.pct.at(Version::PureSoftware), 0.0, 0.5);
}

TEST(Integration, Q6SelectiveCombinesBothWorlds) {
  const auto& w = workloads::workload("TPC-D,Q6");
  const ImprovementRow row =
      execute(plan_workload(w, base_machine())).rows[0];
  EXPECT_GE(row.pct.at(Version::Selective),
            row.pct.at(Version::PureSoftware) - 0.25);
  EXPECT_GE(row.pct.at(Version::Selective),
            row.pct.at(Version::Combined) - 0.25);
}

}  // namespace
}  // namespace selcache::core
