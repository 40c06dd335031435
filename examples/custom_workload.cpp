// Build your own workload and machine: the full public API end to end.
//
// A sparse matrix-vector product (CSR-flavored): an irregular gather phase
// over column indices plus a regular vector update — wired into the
// selective framework on a customized machine (small L1, slow memory).
//
//   $ ./build/examples/custom_workload
#include <cstdio>

#include "core/report.h"
#include "core/runner.h"
#include "ir/builder.h"
#include "ir/printer.h"

using namespace selcache;

namespace {

ir::Program build_spmv() {
  constexpr std::int64_t kRows = 4096;
  constexpr std::int64_t kNnzPerRow = 8;
  constexpr std::int64_t kNnz = kRows * kNnzPerRow;

  ir::ProgramBuilder b("spmv");
  const auto vals = b.array("vals", {kNnz});
  const auto xvec = b.array("x", {kRows});
  const auto yvec = b.array("y", {kRows});
  // Column indices: clustered irregularity, as a banded sparse matrix has.
  const auto colidx = b.index_array("colidx", kNnz,
                                    ir::ArrayDecl::Content::Mesh,
                                    /*hop=*/64, kRows);

  b.begin_loop("iter", 0, 8);
  {
    const auto r = b.begin_loop("row", 0, kRows);
    const auto k = b.begin_loop("nz", ir::x(r) * kNnzPerRow,
                                ir::x(r) * kNnzPerRow + kNnzPerRow);
    // y[r] += vals[k] * x[colidx[k]] — the gather is not analyzable.
    b.stmt({ir::load_array(vals, {b.sub(k)}),
            ir::load_array(xvec, {ir::Subscript::indexed(colidx, ir::x(k))}),
            ir::load_array(yvec, {b.sub(r)}),
            ir::store_array(yvec, {b.sub(r)})},
           3, "gather");
    b.end_loop();
    b.end_loop();
  }
  {
    // Regular vector scale (compiler region).
    const auto r = b.begin_loop("scale", 0, kRows);
    b.stmt({ir::load_array(yvec, {b.sub(r)}),
            ir::store_array(yvec, {b.sub(r)})},
           2, "scale");
    b.end_loop();
  }
  b.end_loop();
  return b.finish();
}

}  // namespace

int main() {
  // A custom machine: half-size L1, embedded-class memory.
  core::MachineConfig machine = core::base_machine();
  machine.name = "custom (16K L1, 150-cycle memory)";
  machine.hierarchy.l1d.size_bytes = 16 * 1024;
  machine.hierarchy.mem.access_latency = 150;

  const workloads::WorkloadInfo info{"spmv", "synthetic banded matrix",
                                     workloads::Category::Mixed, build_spmv,
                                     0, 0, 0};

  std::printf("%s\n", core::format_machine(machine).c_str());
  const core::ImprovementRow row =
      core::execute(core::plan_workload(info, machine)).rows.front();
  std::printf("spmv: base %llu cycles\n",
              static_cast<unsigned long long>(row.base_cycles));
  for (core::Version v : core::kEvaluatedVersions)
    std::printf("  %-14s %+7.2f%%\n", to_string(v), row.pct.at(v));

  // The gather statement is 3/4 analyzable references, so at the default
  // threshold 0.5 the whole kernel is a compiler region and Selective never
  // engages the hardware. Raising the threshold reclassifies the gather
  // loop as a hardware region (section 2.3's knob in action).
  core::RunOptions strict;
  strict.optimize.threshold = 0.8;
  const core::RunResult base_r =
      core::run_version(info, machine, core::Version::Base, strict);
  const core::RunResult sel_strict =
      core::run_version(info, machine, core::Version::Selective, strict);
  std::printf("  %-14s %+7.2f%%  (threshold 0.8: %llu toggles)\n",
              "Selective*", improvement_pct(base_r.cycles, sel_strict.cycles),
              static_cast<unsigned long long>(sel_strict.toggles));

  // Peek under the hood: detailed statistics of the threshold-0.8 run.
  const core::RunResult sel = sel_strict;
  std::printf("\nselective-run counters (excerpt):\n");
  for (const char* key :
       {"l1d.hits", "l1d.misses", "l2.misses", "bypass.bypasses",
        "bypass_buffer.hits", "controller.toggles_executed",
        "cpu.mem_stall_cycles"})
    std::printf("  %-28s %llu\n", key,
                static_cast<unsigned long long>(sel.stats.get(key)));
  return 0;
}
