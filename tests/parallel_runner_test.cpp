// Contract of the cell executor (core::execute): a plan fanned out over N
// worker threads must be bit-identical to the serial run — same cycles,
// same improvement percentages, same merged stat counters, same failure
// report and traces — for every hardware scheme, with or without failure
// isolation; a propagated error stops the sweep instead of draining it; and
// the one row builder treats a missing cell the same way everywhere.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/runner.h"
#include "ir/builder.h"

namespace selcache::core {
namespace {

void expect_rows_identical(const std::vector<ImprovementRow>& serial,
                           const std::vector<ImprovementRow>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].benchmark);
    EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
    EXPECT_EQ(serial[i].category, parallel[i].category);
    EXPECT_EQ(serial[i].base_cycles, parallel[i].base_cycles);
    ASSERT_EQ(serial[i].pct.size(), parallel[i].pct.size());
    for (const auto& [v, pct] : serial[i].pct) {
      ASSERT_TRUE(parallel[i].pct.count(v)) << to_string(v);
      // Bit-identical, not approximately equal: both paths must compute the
      // percentage from the same integer cycle counts.
      EXPECT_EQ(pct, parallel[i].pct.at(v)) << to_string(v);
    }
    EXPECT_EQ(serial[i].accesses, parallel[i].accesses);
    EXPECT_EQ(serial[i].stats.all(), parallel[i].stats.all());
  }
}

class SweepDeterminism : public ::testing::TestWithParam<hw::SchemeKind> {};

TEST_P(SweepDeterminism, ParallelSweepMatchesSerialBitForBit) {
  const CellPlan plan = plan_suite(base_machine());
  RunOptions opt;
  opt.scheme = GetParam();

  const auto serial = execute(plan, opt).rows;
  const auto parallel = execute(plan, opt, {.threads = 4}).rows;
  expect_rows_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, SweepDeterminism,
                         ::testing::Values(hw::SchemeKind::Bypass,
                                           hw::SchemeKind::Victim),
                         [](const auto& info) {
                           return std::string(hw::to_string(info.param));
                         });

TEST(SweepDeterminism, SingleWorkloadParallelMatchesSerial) {
  const CellPlan plan =
      plan_workload(workloads::all_workloads().front(), base_machine());
  expect_rows_identical(execute(plan).rows,
                        execute(plan, {}, {.threads = 3}).rows);
}

TEST(SweepDeterminism, RowsCarryAccessCountsAndPrefixedStats) {
  const ImprovementRow row =
      execute(plan_workload(workloads::all_workloads().front(),
                            base_machine()))
          .rows[0];
  EXPECT_GT(row.accesses, 0u);
  EXPECT_GT(row.stats.get("base.l1d.hits") + row.stats.get("base.l1d.misses"),
            0u);
  EXPECT_GT(row.stats.get("selective.cpu.instructions"), 0u);
}

// --- failure isolation ----------------------------------------------------

RunOptions toggle_drop_campaign() {
  RunOptions opt;
  opt.fault.kind = fault::FaultKind::ToggleDrop;
  opt.fault.rate = 0.5;
  opt.fault.seed = 2026;
  return opt;
}

/// The determinism contract extended to faults: the same sweep-level fault
/// seed must yield a bit-identical isolated sweep — rows, FailureReport,
/// and trace captures — at every thread count.
TEST(ResilientDeterminism, FaultedSweepBitIdenticalAcrossThreadCounts) {
  const CellPlan plan = plan_suite(base_machine());
  const RunOptions opt = toggle_drop_campaign();

  const SweepResult serial =
      execute(plan, opt, {.threads = 1, .retries = 1, .trace = true});
  for (unsigned threads : {4u, 8u}) {
    SCOPED_TRACE(threads);
    const SweepResult parallel =
        execute(plan, opt, {.threads = threads, .retries = 1, .trace = true});
    expect_rows_identical(serial.rows, parallel.rows);
    EXPECT_EQ(serial.report, parallel.report);
    ASSERT_EQ(serial.traces.size(), parallel.traces.size());
    for (std::size_t i = 0; i < parallel.traces.size(); ++i) {
      EXPECT_EQ(serial.traces[i].workload, parallel.traces[i].workload);
      EXPECT_EQ(serial.traces[i].version, parallel.traces[i].version);
      EXPECT_EQ(serial.traces[i].recording, parallel.traces[i].recording);
    }
  }
  // The rendered report is part of the contract too.
  EXPECT_EQ(serial.report.csv(),
            execute(plan, opt, {.threads = 4, .retries = 1}).report.csv());
}

/// An injected per-task crash must fail only its own cell: the sweep
/// completes, the cell lands in the FailureReport with its retry count and
/// per-attempt fault seed, and every surviving cell matches the unfaulted
/// sweep bit for bit.
TEST(ResilientDeterminism, InjectedCrashQuarantinesOnlyItsCell) {
  const CellPlan plan = plan_suite(base_machine());
  RunOptions opt;
  opt.fault.kind = fault::FaultKind::TaskCrash;
  opt.fault.rate = 1e-7;  // rare: some cells crash, most survive
  opt.fault.seed = 7;
  const std::uint32_t max_retries = 2;

  const SweepResult rs = execute(plan, opt, {.retries = max_retries});
  ASSERT_EQ(rs.report.cells.size(),
            workloads::all_workloads().size() * kAllVersions.size());
  const std::size_t failed = rs.report.failed_cells();
  ASSERT_GT(failed, 0u) << "campaign must actually crash something";
  ASSERT_LT(failed, rs.report.cells.size()) << "and spare something";

  for (const auto& cell : rs.report.cells) {
    SCOPED_TRACE(cell.workload + "/" + cell.version);
    if (cell.status == fault::CellOutcome::Status::Failed) {
      EXPECT_EQ(cell.attempts, max_retries + 1);
      EXPECT_NE(cell.error.find("injected crash"), std::string::npos);
      std::uint32_t vi = 0;
      while (version_key(kAllVersions[vi]) != cell.version) ++vi;
      EXPECT_EQ(cell.fault_seed,
                fault::task_seed(opt.fault.seed, cell.workload, vi,
                                 max_retries));
    } else {
      EXPECT_EQ(cell.status, fault::CellOutcome::Status::Ok);
    }
  }

  // Surviving cells carry the same numbers an unfaulted sweep produces
  // (TaskCrash perturbs nothing unless it kills the run).
  const auto clean = execute(plan).rows;
  ASSERT_EQ(rs.rows.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    bool row_failed = false;
    for (const auto& cell : rs.report.cells)
      if (cell.workload == clean[i].benchmark &&
          cell.status == fault::CellOutcome::Status::Failed)
        row_failed = true;
    if (row_failed) continue;
    SCOPED_TRACE(clean[i].benchmark);
    EXPECT_EQ(rs.rows[i].base_cycles, clean[i].base_cycles);
    for (const auto& [v, pct] : clean[i].pct)
      EXPECT_EQ(rs.rows[i].pct.at(v), pct) << to_string(v);
  }
}

TEST(ResilientDeterminism, RetrySeedsDifferPerAttempt) {
  const std::uint64_t a0 = fault::task_seed(9, "Swim", 4, 0);
  const std::uint64_t a1 = fault::task_seed(9, "Swim", 4, 1);
  EXPECT_NE(a0, a1) << "each retry must see a fresh fault stream";
}

TEST(ResilientDeterminism, WatchdogAloneQuarantinesEveryCell) {
  RunOptions opt;
  opt.watchdog_accesses = 50;  // far below any real run
  const SweepResult rs =
      execute(plan_workload(workloads::all_workloads().front(), base_machine()),
              opt, {.retries = 0});
  ASSERT_EQ(rs.report.cells.size(), kAllVersions.size());
  for (const auto& cell : rs.report.cells) {
    EXPECT_EQ(cell.status, fault::CellOutcome::Status::Failed);
    EXPECT_EQ(cell.attempts, 1u);
    EXPECT_NE(cell.error.find("watchdog"), std::string::npos);
  }
}

// --- executor mechanics ---------------------------------------------------

/// A workload whose build() runs `body` and yields an empty program, so
/// its cells cost next to nothing to simulate.
workloads::WorkloadInfo tiny_workload(std::string name,
                                      std::function<void()> body) {
  return {std::move(name), "none", workloads::Category::Mixed,
          [body = std::move(body)] {
            body();
            ir::ProgramBuilder b("tiny");
            return b.finish();
          },
          0.0, 0.0, 0.0};
}

/// Without isolation a throwing cell must reach the caller without the
/// rest of the plan being simulated first: the executor drops every queued
/// cell before it rethrows.
TEST(Executor, PropagatedErrorStopsQueuedCells) {
  std::atomic<int> ran{0};
  CellPlan plan{base_machine(), {}};
  plan.workloads.push_back(
      tiny_workload("boom", [] { throw std::runtime_error("boom"); }));
  constexpr int kCounting = 40;
  for (int i = 0; i < kCounting; ++i)
    plan.workloads.push_back(tiny_workload("count", [&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }));
  EXPECT_THROW(execute(plan, {}, {.threads = 2}), std::runtime_error);
  const int total = kCounting * static_cast<int>(kAllVersions.size());
  EXPECT_LT(ran.load(), total) << "queued cells ran before the rethrow";
}

/// The one row builder: a missing version contributes 0.0 improvement and
/// nothing to stats or accesses, while the present versions keep theirs.
TEST(Executor, RowBuilderZeroesOnlyTheMissingVersion) {
  const workloads::WorkloadInfo w = tiny_workload("row", [] {});
  std::array<std::optional<RunResult>, 5> results;
  for (std::size_t vi = 0; vi < results.size(); ++vi) {
    RunResult r;
    r.cycles = 1000 - 100 * vi;
    r.stats.add("l1d.hits", 10 * (vi + 1));
    r.stats.add("l1i.misses", 1);
    results[vi] = r;
  }
  results[2].reset();  // PureSoftware failed

  const ImprovementRow row = make_improvement_row(w, results);
  EXPECT_EQ(row.benchmark, "row");
  EXPECT_EQ(row.base_cycles, 1000u);
  EXPECT_EQ(row.pct.at(Version::PureHardware), improvement_pct(1000, 900));
  EXPECT_EQ(row.pct.at(Version::PureSoftware), 0.0);
  EXPECT_EQ(row.pct.at(Version::Combined), improvement_pct(1000, 700));
  EXPECT_EQ(row.pct.at(Version::Selective), improvement_pct(1000, 600));
  // l1d.hits 10+20+40+50 plus one l1i miss for each of the four present.
  EXPECT_EQ(row.accesses, 124u);
  EXPECT_EQ(row.stats.get("purehw.l1d.hits"), 20u);
  EXPECT_EQ(row.stats.get("selective.l1d.hits"), 50u);
  EXPECT_FALSE(row.stats.has("puresw.l1d.hits"));

  // Without Base every improvement is 0.0; the rest still count.
  results[0].reset();
  const ImprovementRow headless = make_improvement_row(w, results);
  EXPECT_EQ(headless.base_cycles, 0u);
  for (const auto& [v, pct] : headless.pct) EXPECT_EQ(pct, 0.0);
  EXPECT_EQ(headless.accesses, 113u);
}

/// The hook half of the attempt loop: settled cells never run, every other
/// cell sees one begin/failed pair per attempt and one quarantine, and a
/// hook that refuses to begin suspends the sweep.
TEST(Executor, HooksSettleRetryAndSuspend) {
  struct Counting final : CellHooks {
    std::atomic<int> begun{0}, failed{0}, quarantined_cells{0}, done{0};
    bool refuse = false;
    std::optional<SettledCell> settled(std::size_t cell) override {
      if (cell != 0) return std::nullopt;
      RunResult r;
      r.cycles = 7;
      return SettledCell{r, ""};
    }
    bool begin_attempt(std::size_t, std::uint32_t,
                       std::optional<support::RunGuard>&) override {
      if (refuse) return false;
      begun.fetch_add(1);
      return true;
    }
    void attempt_done(std::size_t, std::uint32_t, const RunResult&) override {
      done.fetch_add(1);
    }
    void attempt_failed(std::size_t, std::uint32_t,
                        const std::string&) override {
      failed.fetch_add(1);
    }
    void quarantined(std::size_t, const std::string&) override {
      quarantined_cells.fetch_add(1);
    }
  } hooks;
  const CellPlan plan =
      plan_workload(tiny_workload("t", [] { throw std::runtime_error("x"); }),
                    base_machine());
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    hooks.begun = hooks.failed = hooks.quarantined_cells = hooks.done = 0;
    const SweepResult r = execute(
        plan, {}, {.threads = threads, .retries = 1, .hooks = &hooks});
    EXPECT_FALSE(r.suspended);
    EXPECT_EQ(r.states[0], CellState::Settled);
    EXPECT_EQ(r.rows[0].base_cycles, 7u);
    for (std::size_t i = 1; i < plan.size(); ++i) {
      EXPECT_EQ(r.states[i], CellState::Failed);
      EXPECT_EQ(r.report.cells[i].attempts, 2u);
      EXPECT_EQ(r.report.cells[i].error, "x");
    }
    EXPECT_EQ(hooks.begun.load(), 8);
    EXPECT_EQ(hooks.failed.load(), 8);
    EXPECT_EQ(hooks.quarantined_cells.load(), 4);
    EXPECT_EQ(hooks.done.load(), 0);
  }
  hooks.refuse = true;
  const SweepResult s =
      execute(plan, {}, {.threads = 4, .retries = 1, .hooks = &hooks});
  EXPECT_TRUE(s.suspended);
  for (std::size_t i = 1; i < plan.size(); ++i)
    EXPECT_EQ(s.states[i], CellState::Pending);
}

}  // namespace
}  // namespace selcache::core
