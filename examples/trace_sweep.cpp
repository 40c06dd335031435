// Record a workload's trace tape once, then replay it across every machine
// configuration — the cheap way to sweep hardware parameters when the code
// product is fixed.
//
//   $ ./build/examples/trace_sweep
#include <cstdio>

#include "core/runner.h"
#include "support/table.h"

using namespace selcache;

int main() {
  // Record TPC-C's selective product on the base machine.
  const auto& w = workloads::workload("TPC-C");
  const core::Version v = core::Version::Selective;
  const tape::Tape tape = core::record_tape(w, core::base_machine(), v);
  std::printf("recorded %llu ops (%llu bytes) from %s (Selective product)\n\n",
              static_cast<unsigned long long>(tape.stats.ops()),
              static_cast<unsigned long long>(tape.size_bytes()),
              w.name.c_str());

  // Replay everywhere.
  TextTable t({"Machine", "Cycles", "L1 miss [%]", "L2 miss [%]"});
  for (const auto& m : core::all_machines()) {
    const core::RunResult r = core::replay_tape(tape, m, v);
    t.add_row({m.name, TextTable::count(r.cycles),
               TextTable::num(100.0 * r.l1_miss_rate),
               TextTable::num(100.0 * r.l2_miss_rate)});
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
