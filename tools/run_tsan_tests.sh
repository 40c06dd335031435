#!/usr/bin/env bash
# Build and run the multi-threaded portions of the suite under
# ThreadSanitizer: the cell executor (plain, fault-isolated and
# checkpointed sweeps), the thread pool, and tape record/replay under
# concurrency.
#
#   tools/run_tsan_tests.sh [extra ctest args...]
#
# Uses the `tsan` CMake preset (build-tsan/). Skips with exit 0 and a clear
# message when the toolchain cannot link -fsanitize=thread (some container
# images ship gcc without libtsan) so CI lanes without TSan stay green.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# Probe: can this toolchain actually produce a TSan binary?
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
cxx="${CXX:-c++}"
if ! "$cxx" -fsanitize=thread -o "$probe_dir/probe" "$probe_dir/probe.cc" \
    > "$probe_dir/probe.log" 2>&1 || ! "$probe_dir/probe"; then
  echo "run_tsan_tests: toolchain cannot build/run -fsanitize=thread" \
       "binaries; skipping (see $probe_dir/probe.log if still present)"
  exit 0
fi

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
  parallel_runner_test thread_pool_test tape_test tape_equivalence_test \
  fault_test run_ledger_test selcache

# The concurrency-heavy tests: executor determinism and fail-fast, the pool
# itself, tape record/replay equivalence (shared tape cache), failure
# isolation, and the checkpoint engine (journal appends from worker tasks).
ctest --preset tsan -j 2 \
  -R 'ParallelSweep|ThreadPool|Tape|Resilient|FaultSweep|parallel|Executor|Checkpoint|Journal' "$@"

# A real multi-threaded sweep end to end (4 workers over the full matrix),
# the same under fault injection, and a checkpointed suite: the paths where
# sweep tasks share the tape cache, trace sinks, the failure report, the
# journal and the run directory's store.
build-tsan/tools/selcache sweep --workload Compress --threads 4 > /dev/null
build-tsan/tools/selcache sweep --workload Compress --threads 4 \
  --inject-faults --fault-kind toggle-drop --fault-rate 0.5 \
  --fault-seed 2026 --fault-budget 64 > /dev/null
run_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir" "$run_dir"' EXIT
build-tsan/tools/selcache suite --run-dir "$run_dir/run" --threads 4 \
  > /dev/null
echo "run_tsan_tests: all thread-sanitized tests passed"
