#include "workloads.h"

#include <charconv>
#include <csignal>
#include <filesystem>
#include <future>
#include <memory>
#include <set>

#include "core/runner.h"
#include "run/journal.h"
#include "tape/tape.h"

namespace perfbench {

using namespace selcache;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kMaxProblems = 8;
constexpr std::size_t kVersions = core::kAllVersions.size();

void problem(RepResult& r, const std::string& what) {
  if (r.problems.size() < kMaxProblems) r.problems.push_back(what);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Set-up of the in-process workloads: start the worker threads and run the
/// smallest cell once on each, so first-touch page faults, allocator arenas
/// and lazily built tables are paid before the timed operation starts.
/// Done three times; returns the median, a steadier figure than one
/// millisecond-scale sample.
double warm_up(unsigned threads, const core::MachineConfig& m) {
  const workloads::WorkloadInfo& w = workloads::workload("TPC-D,Q6");
  std::vector<double> s;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    run_tasks(threads, threads, [&](std::size_t, unsigned) {
      core::run_version(w, m, core::Version::Base);
    });
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// One simulated cell of an in-process operation.
struct Outcome {
  core::RunResult result;
  std::string error;  ///< non-empty when the simulation threw
  double seconds = 0.0;
};

/// Check every outcome against the oracle and fold it into `r`.
void settle(const Context& ctx, const std::vector<std::string>& keys,
            const std::vector<Outcome>& out, RepResult& r) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    ++r.attempted;
    r.cell_s.push_back(out[i].seconds);
    if (!out[i].error.empty()) {
      ++r.failed;
      problem(r, keys[i] + " threw: " + out[i].error);
      continue;
    }
    r.accesses += l1_accesses(out[i].result);
    r.counts.add(out[i].result.stats);
    if (!ctx.oracle->matches(keys[i], out[i].result)) {
      ++r.failed;
      problem(r, keys[i] + " does not match the oracle");
    }
  }
}

template <typename Fn>
void guarded(Outcome& o, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    o.error = e.what();
  } catch (...) {
    o.error = "unknown exception";
  }
}

RepResult suite_cold(const Context& ctx, SpanRecorder* rec) {
  RepResult r;
  const auto& suite = workloads::all_workloads();
  const core::MachineConfig m = *core::machine_by_name("base");
  const std::uint64_t dseed = data_seed_for(ctx.seed);
  const hw::SchemeKind schemes[] = {hw::SchemeKind::Bypass,
                                    hw::SchemeKind::Victim};
  std::vector<std::string> keys;
  for (hw::SchemeKind s : schemes)
    for (const auto& w : suite)
      for (core::Version v : core::kAllVersions)
        keys.push_back(cell_key(dseed, "base", s, w.name, v));
  const std::size_t per_scheme = suite.size() * kVersions;

  r.setup_s = warm_up(ctx.threads, m);
  std::vector<Outcome> out(keys.size());
  const auto t0 = Clock::now();
  run_tasks(keys.size(), ctx.threads, [&](std::size_t i, unsigned worker) {
    core::RunOptions opt;
    opt.scheme = schemes[i / per_scheme];
    opt.data_seed = dseed;
    const auto& w = suite[(i % per_scheme) / kVersions];
    const core::Version v = core::kAllVersions[i % kVersions];
    Timed t(rec, "core.run_version", 0, worker + 1);
    guarded(out[i], [&] { out[i].result = core::run_version(w, m, v, opt); });
    out[i].seconds = t.stop();
  });
  r.wall_s = seconds_since(t0);
  settle(ctx, keys, out, r);

  SuiteCycles cyc[2];
  for (auto& c : cyc) c.assign(suite.size(), {});
  for (std::size_t i = 0; i < out.size(); ++i)
    cyc[i / per_scheme][(i % per_scheme) / kVersions][i % kVersions] =
        out[i].result.cycles;
  std::vector<std::pair<double, double>> pairs;
  add_bypass_columns(cyc[0], kPaperTable3[0], &pairs);
  add_victim_columns(cyc[1], kPaperTable3[0], &pairs);
  r.paper_mae_pp = mean_abs_error(pairs);
  r.table3 = std::move(pairs);
  return r;
}

RepResult axis_replay(const Context& ctx, SpanRecorder* rec) {
  RepResult r;
  const auto& suite = workloads::all_workloads();
  const auto& ids = machine_ids();
  std::vector<core::MachineConfig> machines;
  for (const auto& id : ids) machines.push_back(*core::machine_by_name(id));
  const std::uint64_t dseed = data_seed_for(ctx.seed);
  core::RunOptions opt;
  opt.scheme = hw::SchemeKind::Bypass;
  opt.data_seed = dseed;

  // Tasks 0..C-1 record cell c at machines[0]; task C + c*(P-1) + (p-1)
  // replays cell c's tape at machines[p]. Every record task is dequeued
  // before any replay task, so a replay waits at most for a recording
  // already in flight.
  const std::size_t ncells = suite.size() * kVersions;
  const std::size_t np = machines.size();
  std::vector<std::string> keys(ncells * np);
  for (std::size_t c = 0; c < ncells; ++c)
    for (std::size_t p = 0; p < np; ++p)
      keys[c * np + p] =
          cell_key(dseed, ids[p], opt.scheme, suite[c / kVersions].name,
                   core::kAllVersions[c % kVersions]);

  r.setup_s = warm_up(ctx.threads, machines[0]);
  using TapePtr = std::shared_ptr<const tape::Tape>;
  std::vector<std::promise<TapePtr>> recorded(ncells);
  std::vector<std::shared_future<TapePtr>> tapes;
  for (auto& p : recorded) tapes.push_back(p.get_future().share());
  std::vector<Outcome> out(ncells * np);
  const auto t0 = Clock::now();
  run_tasks(ncells * np, ctx.threads, [&](std::size_t i, unsigned worker) {
    const bool is_record = i < ncells;
    const std::size_t c = is_record ? i : (i - ncells) / (np - 1);
    const std::size_t p = is_record ? 0 : 1 + (i - ncells) % (np - 1);
    const auto& w = suite[c / kVersions];
    const core::Version v = core::kAllVersions[c % kVersions];
    Outcome& o = out[c * np + p];
    if (is_record) {
      TapePtr t;
      Timed span(rec, "core.record_tape", 0, worker + 1);
      guarded(o, [&] {
        t = std::make_shared<const tape::Tape>(
            core::record_tape(w, machines[0], v, opt, &o.result));
      });
      o.seconds = span.stop();
      recorded[c].set_value(std::move(t));
      return;
    }
    const TapePtr t = tapes[c].get();
    Timed span(rec, "core.replay_tape", 0, worker + 1);
    if (t == nullptr)
      o.error = "no tape: its recording failed";
    else
      guarded(o, [&] { o.result = core::replay_tape(*t, machines[p], v, opt); });
    o.seconds = span.stop();
  });
  r.wall_s = seconds_since(t0);
  settle(ctx, keys, out, r);

  std::vector<std::pair<double, double>> pairs;
  for (std::size_t p = 0; p < np; ++p) {
    SuiteCycles cyc(suite.size());
    for (std::size_t c = 0; c < ncells; ++c)
      cyc[c / kVersions][c % kVersions] = out[c * np + p].result.cycles;
    add_bypass_columns(cyc, kPaperTable3[p], &pairs);
  }
  r.paper_mae_pp = mean_abs_error(pairs);
  r.table3 = std::move(pairs);
  return r;
}

/// Cells with a `done` record in the run directory's journal.
std::set<std::string> done_cells(const std::string& run_dir) {
  std::set<std::string> done;
  for (const auto& rec : run::read_journal(run_dir + "/journal.wal").records)
    if (rec.type == "done") done.insert(rec.get("cell"));
  return done;
}

std::string describe(const ChildResult& c) {
  if (!c.started) return "could not start";
  if (c.timed_out) return "timed out";
  if (c.exited) return "exited " + std::to_string(c.exit_code);
  return "killed by signal " + std::to_string(c.term_signal);
}

RepResult kill_resume(const Context& ctx, SpanRecorder* rec, std::size_t rep) {
  RepResult r;
  const auto& suite = workloads::all_workloads();
  const std::uint64_t ncells = suite.size() * kVersions;
  const std::string dir = ctx.work_dir + "/kill_resume";
  r.run_dir = dir + "/run";
  // K falls among Perl's five cells, the cheapest of the suite, so neither
  // the killed run (set-up) nor the resumed work (wall_s) depends much on
  // the seed, while the journal and the store still hold trusted cells.
  const std::uint64_t k = 1 + splitmix64(ctx.seed * 1000003 + rep) % 5;
  constexpr double kChildTimeout = 120.0;

  const auto t_setup = Clock::now();
  fs::remove_all(r.run_dir);
  fs::create_directories(dir);
  const ChildResult killed = run_child(
      {ctx.cli, "suite", "--run-dir", r.run_dir},
      {"SELCACHE_CRASH_AFTER_CELLS=" + std::to_string(k)},
      dir + "/killed.out", dir + "/killed.err", kChildTimeout);
  r.setup_s = seconds_since(t_setup);
  r.attempted = ncells;
  if (killed.exited || killed.term_signal != SIGKILL) {
    r.failed = ncells;
    problem(r, "the killed run " + describe(killed) + ", expected SIGKILL");
    return r;
  }
  const std::set<std::string> trusted = done_cells(r.run_dir);
  r.cells_from_ledger = trusted.size();
  if (trusted.size() != k)
    problem(r, "journal holds " + std::to_string(trusted.size()) +
                   " done cells after a kill at " + std::to_string(k));

  const std::string threads = std::to_string(ctx.threads);
  const auto t0 = Clock::now();
  Timed s1(rec, "cli.resume", 0, 0);
  const ChildResult resumed =
      run_child({ctx.cli, "resume", r.run_dir, "--threads", threads}, {},
                dir + "/resumed.out", dir + "/resumed.err", kChildTimeout);
  s1.stop();
  Timed s2(rec, "cli.resume_complete", 0, 0);
  const ChildResult again =
      run_child({ctx.cli, "resume", r.run_dir}, {}, dir + "/again.out",
                dir + "/again.err", kChildTimeout);
  s2.stop();
  r.wall_s = seconds_since(t0);
  r.peak_rss_mb = resumed.max_rss_mb;

  const std::size_t done_after = done_cells(r.run_dir).size();
  r.cells_resimulated =
      done_after > r.cells_from_ledger ? done_after - r.cells_from_ledger : 0;
  for (const auto& w : suite)
    for (core::Version v : core::kAllVersions)
      if (!trusted.count(w.name + "/" + core::version_key(v)))
        if (const FrozenCell* c = ctx.oracle->find(cell_key(
                kDataSeeds[0], "base", hw::SchemeKind::Bypass, w.name, v)))
          r.accesses += c->accesses;

  if (!resumed.exited || resumed.exit_code != 0 || !again.exited ||
      again.exit_code != 0) {
    r.failed = ncells;
    problem(r, "resume " + describe(resumed) + ", second resume " +
                   describe(again));
    return r;
  }
  const std::string out = read_file(dir + "/resumed.out");
  const std::string out2 = read_file(dir + "/again.out");
  // The resumed stdout must equal the uninterrupted run's byte for byte,
  // and so must the re-resume of the completed run.
  if (out != ctx.oracle->suite_stdout()) {
    r.failed = std::max<std::uint64_t>(
        failed_rows(out, ctx.oracle->suite_stdout()), 1);
    problem(r, "resumed stdout differs from the uninterrupted run");
  } else if (out2 != out) {
    r.failed = std::max<std::uint64_t>(failed_rows(out2, out), 1);
    problem(r, "second resume printed different bytes");
  }
  if (!r.problems.empty() && r.failed == 0) r.failed = ncells;

  // Base row of Table 3, bypass columns, as the suite table prints them
  // (Pure HW, Pure SW, Combined, Selective).
  const auto avg = table_row(out, "all 13");
  double col[4] = {};
  bool parsed = avg && avg->size() >= 5;
  for (std::size_t c = 0; parsed && c < 4; ++c) {
    const std::string& text = (*avg)[1 + c];
    const char* end = text.data() + text.size();
    parsed = std::from_chars(text.data(), end, col[c]).ptr == end;
  }
  if (!parsed) {
    problem(r, "no readable 'all 13' average row in the resumed stdout");
    r.failed = ncells;
    return r;
  }
  const PaperRow& p = kPaperTable3[0];
  r.table3 = {{col[1], p.pure_sw},
              {col[0], p.bypass},
              {col[2], p.comb_bypass},
              {col[3], p.sel_bypass}};
  r.paper_mae_pp = mean_abs_error(r.table3);
  return r;
}

}  // namespace

void ModelCounts::add(const StatSet& s) {
  l1d_hits += s.get("l1d.hits");
  l1d_misses += s.get("l1d.misses");
  l2_hits += s.get("l2.hits");
  l2_misses += s.get("l2.misses");
  bypasses += s.get("bypass.bypasses");
  victim_hits += s.get("victim_l1.hits");
  victim_misses += s.get("victim_l1.misses");
  toggles += s.get("controller.toggles_executed");
}

bool known_workload(const std::string& name) {
  return name == "suite_cold" || name == "axis_replay" ||
         name == "kill_resume";
}

RepResult run_rep(const Context& ctx, SpanRecorder* rec, std::size_t rep) {
  if (ctx.workload == "suite_cold") return suite_cold(ctx, rec);
  if (ctx.workload == "axis_replay") return axis_replay(ctx, rec);
  return kill_resume(ctx, rec, rep);
}

std::uint64_t failed_rows(const std::string& actual,
                          const std::string& expected) {
  std::uint64_t failed = 0;
  for (const auto& w : workloads::all_workloads()) {
    const auto a = table_row(actual, w.name);
    if (!a || a != table_row(expected, w.name)) failed += kVersions;
  }
  return failed;
}

}  // namespace perfbench
