// perfbench_driver — runs one benchmark workload for a time budget and
// prints its metrics as one JSON line on stdout (see BENCHMARK.json).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --cli PATH --oracle DIR --work DIR
//   perfbench_driver --freeze --cli PATH --oracle DIR --work DIR
//   perfbench_driver --self-test --oracle DIR
//
// --trace 0 repeats the workload until the budget is spent and reports the
// end-to-end metrics (medians over the repetitions). --trace 1 alternates
// untraced and traced repetitions, then runs the per-layer probes, and
// reports the per-layer metrics; spans go to DIR/trace-W-N.json.
// --freeze writes the oracle from the current build (do this only on a
// build whose results are known to be right). --self-test shows that a
// corrupted oracle entry and a corrupted suite row are caught.
//
// Exit code 0 when the run finished (its "correct" field says whether the
// outputs were right), 2 on bad arguments or an unreadable oracle.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "ladder.h"
#include "oracle.h"
#include "run/journal.h"
#include "store/store.h"
#include "workloads.h"

using namespace selcache;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string cli;
  std::string oracle;
  std::string work;
  bool freeze = false;
  bool self_test = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (f == "--freeze") {
        a->freeze = true;
      } else if (f == "--self-test") {
        a->self_test = true;
      } else if (!has_value) {
        return false;
      } else if (f == "--workload") {
        a->workload = argv[++i];
      } else if (f == "--seed") {
        a->seed = std::stoull(argv[++i]);
      } else if (f == "--seconds") {
        a->seconds = std::stod(argv[++i]);
      } else if (f == "--trace") {
        a->trace = std::stoi(argv[++i]);
      } else if (f == "--cli") {
        a->cli = argv[++i];
      } else if (f == "--oracle") {
        a->oracle = argv[++i];
      } else if (f == "--work") {
        a->work = argv[++i];
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  if (a->self_test) return !a->oracle.empty();
  if (a->freeze) return !a->cli.empty() && !a->oracle.empty() &&
                        !a->work.empty();
  return known_workload(a->workload) && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && !a->cli.empty() &&
         !a->oracle.empty() && !a->work.empty();
}

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// -- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A failed repetition can leave a ratio undefined; JSON has no NaN.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Correctness summary over several repetitions.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(const RepResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& p : r.problems)
      if (problems.size() < 8) problems.push_back(p);
  }
  void add_problem(const std::string& p) {
    ++attempted;
    ++failed;
    problems.push_back(p);
  }
  bool correct() const { return failed == 0 && problems.empty(); }
  void report() const {
    for (const auto& p : problems) std::fprintf(stderr, "FAIL: %s\n", p.c_str());
  }
};

// -- untraced run: end-to-end metrics ----------------------------------------

int run_end_to_end(const Context& ctx, double budget_s) {
  std::vector<RepResult> reps;
  std::vector<double> rep_s;
  Tally tally;
  const auto t0 = Clock::now();
  // Repeat while another repetition of typical length still fits the
  // budget; at least one always runs.
  for (std::size_t i = 0;; ++i) {
    const auto r0 = Clock::now();
    reps.push_back(run_rep(ctx, nullptr, i));
    rep_s.push_back(seconds_since(r0));
    std::fprintf(stderr, "  repetition %zu: setup %.4fs, wall %.4fs\n", i,
                 reps.back().setup_s, reps.back().wall_s);
    tally.add(reps.back());
    if (seconds_since(t0) + median(rep_s) > budget_s) break;
  }
  std::vector<double> wall, setup, rate, rss, mae;
  for (const auto& r : reps) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.accesses) / r.wall_s);
    rss.push_back(r.peak_rss_mb);
    mae.push_back(r.paper_mae_pp);
  }
  const bool in_process = ctx.workload != "kill_resume";
  const double pass_ratio =
      1.0 - static_cast<double>(tally.failed) /
                static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
  std::fprintf(stderr,
               "%s seed=%llu: %zu repetitions, wall %.3fs (min %.3f max "
               "%.3f), setup %.4fs, %llu/%llu cells failed\n",
               ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
               reps.size(), median(wall),
               *std::min_element(wall.begin(), wall.end()),
               *std::max_element(wall.begin(), wall.end()), median(setup),
               static_cast<unsigned long long>(tally.failed),
               static_cast<unsigned long long>(tally.attempted));
  std::string table3;
  for (const auto& [measured, paper] : reps.front().table3) {
    char cell[48];
    std::snprintf(cell, sizeof(cell), " %.2f (%.2f)", measured, paper);
    table3 += cell;
  }
  std::fprintf(stderr, "Table 3 averages, measured (paper):%s\n",
               table3.c_str());
  tally.report();
  print_result(tally.correct(), tally.attempted, tally.failed,
               {{"wall_s", median(wall), "s"},
                {"accesses_per_s", median(rate), "1/s"},
                {"setup_s", median(setup), "s"},
                {"peak_rss_mb", in_process ? process_peak_rss_mb()
                                           : median(rss), "MB"},
                {"pass_ratio", pass_ratio, "ratio"},
                {"paper_mae_pp", median(mae), "pp"}});
  return 0;
}

// -- traced run: per-layer metrics -------------------------------------------

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Mean host time per (workload, version) cell of WorkloadInfo::build and
/// core::prepare_program, minimum of `passes` passes per cell.
void probe_pipeline(SpanRecorder* rec, int passes, double* build_ms,
                    double* prepare_ms) {
  const auto& suite = workloads::all_workloads();
  const transform::OptimizeOptions opt{};
  double build = 0.0;
  double prepare = 0.0;
  for (const auto& w : suite) {
    for (core::Version v : core::kAllVersions) {
      double b = 1e30;
      double p = 1e30;
      for (int k = 0; k < passes; ++k) {
        const std::uint64_t parent = rec->reserve();
        const double start = rec->now();
        Timed tb(rec, "workloads.build", parent, 0);
        const ir::Program base = w.build();
        b = std::min(b, tb.stop());
        Timed tp(rec, "transform.prepare", parent, 0);
        const ir::Program product = core::prepare_program(base, v, opt);
        p = std::min(p, tp.stop());
        rec->add_reserved(parent, "pipeline." + w.name, 0, 0, start,
                          rec->now());
      }
      build += b;
      prepare += p;
    }
  }
  const double n = static_cast<double>(suite.size() * core::kAllVersions.size());
  *build_ms = 1e3 * build / n;
  *prepare_ms = 1e3 * prepare / n;
}

struct StoreProbe {
  double load_us = 0.0;
  double save_us = 0.0;
  double hit_ratio = 0.0;
  double read_journal_ms = 0.0;
  ModelCounts counts;
  std::string error;
};

/// Time ResultStore::load of every cell a completed kill_resume run stored,
/// ResultStore::save of the same results into a fresh store, and
/// run::read_journal of the run's journal.
StoreProbe probe_store(const Context& ctx, const std::string& run_dir,
                       SpanRecorder* rec) {
  StoreProbe out;
  const core::MachineConfig m = *core::machine_by_name("base");
  core::RunOptions opt;
  opt.scheme = hw::SchemeKind::Bypass;
  store::ResultStore stored(run_dir + "/store",
                            store::ResultStore::Options{.read_only = true});
  const std::string copy_dir = ctx.work_dir + "/store_probe";
  fs::remove_all(copy_dir);
  store::ResultStore copy(copy_dir);
  std::uint64_t hits = 0;
  std::uint64_t cells = 0;
  double load_s = 0.0;
  double save_s = 0.0;
  for (const auto& w : workloads::all_workloads()) {
    for (core::Version v : core::kAllVersions) {
      const std::string key = core::store_key(w, m, v, opt);
      ++cells;
      Timed tl(rec, "store.load", 0, 0);
      const std::optional<store::StoredResult> hit = stored.load(key);
      load_s += tl.stop();
      if (!hit) continue;
      ++hits;
      out.counts.add(hit->stats);
      Timed ts(rec, "store.save", 0, 0);
      copy.save(key, *hit);
      save_s += ts.stop();
    }
  }
  out.load_us = 1e6 * load_s / static_cast<double>(cells);
  out.save_us = hits == 0 ? 0.0 : 1e6 * save_s / static_cast<double>(hits);
  out.hit_ratio = ratio(hits, cells);
  if (hits != cells)
    out.error = "the completed run's store misses " +
                std::to_string(cells - hits) + " cells";
  double best = 1e30;
  for (int k = 0; k < 5; ++k) {
    Timed tj(rec, "run.read_journal", 0, 0);
    run::read_journal(run_dir + "/journal.wal");
    best = std::min(best, tj.stop());
  }
  out.read_journal_ms = 1e3 * best;
  return out;
}

int run_traced(const Context& ctx) {
  SpanRecorder rec;
  Tally tally;
  // Untraced and traced repetitions alternate; the minimum of each gives
  // the tracing overhead, and the spans of the fastest traced one give the
  // per-cell numbers.
  double untraced = 1e30;
  double traced = 1e30;
  RepResult best;
  std::vector<Span> best_spans;
  for (std::size_t i = 0; i < 4; ++i) {
    const bool tracing = i % 2 == 1;
    const std::size_t mark = rec.size();
    RepResult r = run_rep(ctx, tracing ? &rec : nullptr, i);
    tally.add(r);
    if (!tracing) {
      untraced = std::min(untraced, r.wall_s);
    } else if (r.wall_s < traced) {
      traced = r.wall_s;
      best_spans = rec.spans_since(mark);
      best = std::move(r);
    }
  }

  const bool kill = ctx.workload == "kill_resume";
  const unsigned span_threads = kill ? 1 : ctx.threads;
  double self_sum = 0.0;
  for (const auto& [id, s] : SpanRecorder::self_times(best_spans)) self_sum += s;
  const double capacity = traced * span_threads;
  std::vector<double> cell_ms;
  double cell_sum = 0.0;
  for (double s : best.cell_s) {
    cell_ms.push_back(1e3 * s);
    cell_sum += s;
  }

  double build_ms = 0.0;
  double prepare_ms = 0.0;
  probe_pipeline(&rec, 3, &build_ms, &prepare_ms);

  // The ladder runs on one regular (hit-heavy) and one irregular
  // (miss-heavy) cell.
  const std::uint64_t dseed = kill ? kDataSeeds[0] : data_seed_for(ctx.seed);
  std::map<std::string, LadderTimes> ladder;
  for (const char* name : {"Swim", "Chaos"}) {
    ladder[name] = run_ladder(workloads::workload(name), dseed, 3, &rec);
    if (!ladder[name].error.empty())
      tally.add_problem(std::string("ladder ") + name + ": " +
                        ladder[name].error);
  }

  StoreProbe sp;
  ModelCounts counts = best.counts;
  if (kill) {
    sp = probe_store(ctx, best.run_dir, &rec);
    if (!sp.error.empty()) tally.add_problem(sp.error);
    counts = sp.counts;
  }

  std::vector<Metric> m;
  m.push_back({"workloads.build_ms", build_ms, "ms"});
  m.push_back({"transform.prepare_ms", prepare_ms, "ms"});
  // Ladder metrics: pooled over both cells, then each cell on its own.
  const auto per_access = [&](const char* name, auto diff) {
    double t = 0.0;
    std::uint64_t n = 0;
    for (const auto& [cell, l] : ladder) {
      t += diff(l);
      n += l.accesses;
    }
    m.push_back({name, n == 0 ? 0.0 : 1e9 * t / static_cast<double>(n),
                 "ns"});
    for (const auto& [cell, l] : ladder) {
      std::string lower = cell;
      for (char& c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      m.push_back({std::string(name) + "." + lower,
                   l.accesses == 0
                       ? 0.0
                       : 1e9 * diff(l) / static_cast<double>(l.accesses),
                   "ns"});
    }
  };
  per_access("codegen.interp_ns_per_access",
             [](const LadderTimes& l) { return l.interp - l.full_bypass; });
  per_access("tape.record_ns_per_access",
             [](const LadderTimes& l) { return l.record - l.interp; });
  per_access("memsys.ns_per_access",
             [](const LadderTimes& l) { return l.r2 - l.r0; });
  per_access("hw.ns_per_access",
             [](const LadderTimes& l) { return l.r3_bypass - l.r2; });
  per_access("hw.victim_ns_per_access",
             [](const LadderTimes& l) { return l.r3_victim - l.r2; });
  per_access("cpu.ns_per_access",
             [](const LadderTimes& l) { return l.full_bypass - l.r3_bypass; });
  {
    double t = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t data = 0;
    for (const auto& [cell, l] : ladder) {
      t += l.r0;
      ops += l.tape_ops;
      bytes += l.tape_bytes;
      data += l.data_accesses;
    }
    m.push_back({"tape.decode_ns_per_op",
                 ops == 0 ? 0.0 : 1e9 * t / static_cast<double>(ops), "ns"});
    m.push_back({"tape.bytes_per_access", ratio(bytes, data), "B"});
  }
  m.push_back({"memsys.l1d_miss_ratio",
               ratio(counts.l1d_misses, counts.l1d_hits + counts.l1d_misses),
               "ratio"});
  m.push_back({"memsys.l2_miss_ratio",
               ratio(counts.l2_misses, counts.l2_hits + counts.l2_misses),
               "ratio"});
  m.push_back({"hw.bypass_ratio", ratio(counts.bypasses, counts.l1d_misses),
               "ratio"});
  m.push_back({"hw.victim_hit_ratio",
               ratio(counts.victim_hits,
                     counts.victim_hits + counts.victim_misses),
               "ratio"});
  m.push_back({"hw.toggles", static_cast<double>(counts.toggles), "count"});
  m.push_back({"core.cell_p50_ms", quantile(cell_ms, 0.5), "ms"});
  m.push_back({"core.cell_p90_ms", quantile(cell_ms, 0.9), "ms"});
  m.push_back({"core.cell_max_ms", quantile(cell_ms, 1.0), "ms"});
  m.push_back({"core.cells", static_cast<double>(cell_ms.size()), "count"});
  m.push_back({"core.parallel_efficiency",
               kill ? 0.0 : cell_sum / (traced * ctx.threads), "ratio"});
  m.push_back({"store.load_us", sp.load_us, "us"});
  m.push_back({"store.save_us", sp.save_us, "us"});
  m.push_back({"store.hit_ratio", sp.hit_ratio, "ratio"});
  m.push_back({"run.read_journal_ms", sp.read_journal_ms, "ms"});
  m.push_back({"run.cells_from_ledger",
               static_cast<double>(best.cells_from_ledger), "count"});
  m.push_back({"run.cells_resimulated",
               static_cast<double>(best.cells_resimulated), "count"});
  m.push_back({"bench.trace_overhead_pct",
               100.0 * (traced - untraced) / untraced, "%"});
  m.push_back({"bench.self_time_residual_pct",
               100.0 * (capacity - self_sum) / capacity, "%"});

  const std::string trace_path = ctx.work_dir + "/trace-" + ctx.workload +
                                 "-" + std::to_string(ctx.seed) + ".json";
  if (!rec.write_json(trace_path))
    std::fprintf(stderr, "warning: could not write %s\n", trace_path.c_str());
  std::fprintf(stderr, "%s seed=%llu traced: untraced %.3fs, traced %.3fs, "
               "spans -> %s\n", ctx.workload.c_str(),
               static_cast<unsigned long long>(ctx.seed), untraced, traced,
               trace_path.c_str());
  tally.report();
  print_result(tally.correct(), tally.attempted, tally.failed, m);
  return 0;
}

// -- freeze and self-test ----------------------------------------------------

/// Simulate every cell the in-process workloads check, for every frozen
/// data seed, and the uninterrupted `selcache suite`; write the oracle.
int freeze(const Args& a) {
  const auto& suite = workloads::all_workloads();
  const auto& ids = machine_ids();
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  Oracle oracle;
  std::map<std::string, core::RunResult> suite_cells;
  for (std::uint64_t dseed : kDataSeeds) {
    struct Job {
      std::string key;
      std::string machine;
      hw::SchemeKind scheme;
      const workloads::WorkloadInfo* w;
      core::Version v;
      bool via_tape;  // record at base, replay here (the axis path)
    };
    std::vector<Job> jobs;
    for (const auto& w : suite)
      for (core::Version v : core::kAllVersions) {
        for (hw::SchemeKind s : {hw::SchemeKind::Bypass, hw::SchemeKind::Victim})
          jobs.push_back({cell_key(dseed, "base", s, w.name, v), "base", s,
                          &w, v, false});
        for (const auto& id : ids)
          jobs.push_back({cell_key(dseed, id, hw::SchemeKind::Bypass, w.name,
                                   v),
                          id, hw::SchemeKind::Bypass, &w, v, true});
      }
    std::vector<core::RunResult> results(jobs.size());
    run_tasks(jobs.size(), threads, [&](std::size_t i, unsigned) {
      const Job& j = jobs[i];
      core::RunOptions opt;
      opt.scheme = j.scheme;
      opt.data_seed = dseed;
      const core::MachineConfig m = *core::machine_by_name(j.machine);
      if (!j.via_tape) {
        results[i] = core::run_version(*j.w, m, j.v, opt);
        return;
      }
      core::RunResult at_base;
      const tape::Tape t = core::record_tape(
          *j.w, *core::machine_by_name("base"), j.v, opt, &at_base);
      results[i] = j.machine == "base" ? at_base
                                       : core::replay_tape(t, m, j.v, opt);
    });
    // Cross-path equality: both paths must agree on every cell they share.
    std::map<std::string, std::uint64_t> seen;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::uint64_t d = cell_digest(results[i]);
      const auto [it, fresh] = seen.emplace(jobs[i].key, d);
      if (!fresh && it->second != d) {
        std::fprintf(stderr, "freeze: %s differs between interpretation and "
                     "the record path\n", jobs[i].key.c_str());
        return 1;
      }
      oracle.set(jobs[i].key, {d, results[i].cycles, l1_accesses(results[i])});
      if (dseed == kDataSeeds[0]) suite_cells[jobs[i].key] = results[i];
    }
  }

  // The uninterrupted checkpointed suite must print what the plain suite
  // prints, and its rows must be the improvements of the cells above.
  fs::create_directories(a.work);
  const std::string run_dir = a.work + "/freeze_run";
  fs::remove_all(run_dir);
  const ChildResult plain = run_child({a.cli, "suite"}, {},
                                      a.work + "/freeze_plain.out",
                                      a.work + "/freeze_plain.err", 600);
  const ChildResult ckpt = run_child({a.cli, "suite", "--run-dir", run_dir},
                                     {}, a.work + "/freeze_ckpt.out",
                                     a.work + "/freeze_ckpt.err", 600);
  const std::string out = read_file(a.work + "/freeze_ckpt.out");
  if (!plain.exited || plain.exit_code != 0 || !ckpt.exited ||
      ckpt.exit_code != 0 || out != read_file(a.work + "/freeze_plain.out")) {
    std::fprintf(stderr, "freeze: the checkpointed suite differs from the "
                 "plain suite or failed\n");
    return 1;
  }
  for (const auto& w : suite) {
    const auto row = table_row(out, w.name);
    const auto cyc = [&](core::Version v) {
      return suite_cells
          .at(cell_key(kDataSeeds[0], "base", hw::SchemeKind::Bypass, w.name,
                       v))
          .cycles;
    };
    const double base = static_cast<double>(cyc(core::Version::Base));
    // Table columns: Pure HW, Pure SW, Combined, Selective.
    const core::Version cols[] = {
        core::Version::PureHardware, core::Version::PureSoftware,
        core::Version::Combined, core::Version::Selective};
    for (std::size_t c = 0; c < 4; ++c) {
      char want[32];
      std::snprintf(want, sizeof(want), "%.2f",
                    100.0 * (base - static_cast<double>(cyc(cols[c]))) / base);
      if (!row || row->size() < 6 || (*row)[2 + c] != want) {
        std::fprintf(stderr, "freeze: suite row %s does not match the "
                     "simulated cells\n", w.name.c_str());
        return 1;
      }
    }
  }
  oracle.set_suite_stdout(out);
  if (const std::string err = oracle.save(a.oracle); !err.empty()) {
    std::fprintf(stderr, "freeze: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "freeze: oracle written to %s\n", a.oracle.c_str());
  return 0;
}

/// Show that the oracle catches a wrong cell and a wrong suite row.
int self_test(Oracle oracle) {
  const core::MachineConfig m = *core::machine_by_name("base");
  const workloads::WorkloadInfo& w = workloads::workload("TPC-D,Q6");
  std::vector<std::pair<std::string, core::RunResult>> cells;
  for (core::Version v : core::kAllVersions)
    cells.emplace_back(cell_key(kDataSeeds[0], "base", hw::SchemeKind::Bypass,
                                w.name, v),
                       core::run_version(w, m, v));
  const auto fail_ratio = [&](const Oracle& o) {
    std::size_t failed = 0;
    for (const auto& [key, r] : cells) failed += o.matches(key, r) ? 0 : 1;
    return static_cast<double>(failed) / static_cast<double>(cells.size());
  };
  const double clean = fail_ratio(oracle);
  oracle.corrupt(cells[2].first);
  const double corrupted = fail_ratio(oracle);

  std::string bad = oracle.suite_stdout();
  const std::size_t at = bad.find("| Swim");
  const std::size_t digit = bad.find_first_of("0123456789", at + 6);
  bad[digit] = bad[digit] == '9' ? '8' : static_cast<char>(bad[digit] + 1);
  const std::uint64_t clean_rows = failed_rows(oracle.suite_stdout(),
                                               oracle.suite_stdout());
  const std::uint64_t bad_rows = failed_rows(bad, oracle.suite_stdout());

  std::printf("cells: fail_ratio %.2f clean, %.2f with one corrupted digest\n"
              "suite rows: %llu failed cells clean, %llu with one corrupted "
              "row\n", clean, corrupted,
              static_cast<unsigned long long>(clean_rows),
              static_cast<unsigned long long>(bad_rows));
  const bool ok = clean == 0.0 && corrupted == 0.2 && clean_rows == 0 &&
                  bad_rows == core::kAllVersions.size();
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload suite_cold|axis_replay|"
                 "kill_resume --seed N --seconds S --trace 0|1 --cli PATH "
                 "--oracle DIR --work DIR\n"
                 "       perfbench_driver --freeze --cli PATH --oracle DIR "
                 "--work DIR\n"
                 "       perfbench_driver --self-test --oracle DIR\n");
    return 2;
  }
  if (a.freeze) return freeze(a);
  Oracle oracle;
  if (const std::string err = oracle.load(a.oracle); !err.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  if (a.self_test) return self_test(oracle);

  fs::create_directories(a.work);
  Context ctx;
  ctx.workload = a.workload;
  ctx.seed = a.seed;
  ctx.threads = std::max(1u, std::thread::hardware_concurrency());
  ctx.cli = a.cli;
  ctx.work_dir = a.work;
  ctx.oracle = &oracle;
  return a.trace == 1 ? run_traced(ctx) : run_end_to_end(ctx, a.seconds);
}
