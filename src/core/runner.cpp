#include "core/runner.h"

#include <array>
#include <bit>
#include <cstdio>
#include <exception>
#include <future>
#include <optional>

#include "codegen/trace_engine.h"
#include "fault/injector.h"
#include "store/store.h"
#include "support/fingerprint.h"
#include "support/thread_pool.h"
#include "tape/cache.h"
#include "tape/recording_model.h"
#include "tape/replayer.h"
#include "trace/recorder.h"

namespace selcache::core {

namespace {

std::uint64_t l1_accesses(const RunResult& r) {
  return r.stats.get("l1d.hits") + r.stats.get("l1d.misses") +
         r.stats.get("l1i.hits") + r.stats.get("l1i.misses");
}

}  // namespace

/// Assemble one figure row from the five per-version results. Shared by the
/// serial, parallel, and checkpoint paths so their outputs are bit-identical.
ImprovementRow make_improvement_row(const workloads::WorkloadInfo& w,
                                    const std::array<RunResult, 5>& results) {
  ImprovementRow row;
  row.benchmark = w.name;
  row.category = w.category;
  row.base_cycles = results[0].cycles;
  for (std::size_t i = 0; i < kAllVersions.size(); ++i) {
    const Version v = kAllVersions[i];
    if (v != Version::Base)
      row.pct[v] = improvement_pct(row.base_cycles, results[i].cycles);
    row.accesses += l1_accesses(results[i]);
    row.stats.merge(results[i].stats, std::string(version_key(v)) + ".");
  }
  return row;
}

const char* version_key(Version v) {
  switch (v) {
    case Version::Base: return "base";
    case Version::PureHardware: return "purehw";
    case Version::PureSoftware: return "puresw";
    case Version::Combined: return "combined";
    case Version::Selective: return "selective";
  }
  return "?";
}

namespace {

memsys::HierarchyConfig hierarchy_config(const MachineConfig& m,
                                         const RunOptions& opt) {
  memsys::HierarchyConfig hcfg = m.hierarchy;
  hcfg.classify_misses = opt.classify_misses;
  return hcfg;
}

/// All mutable machine state one simulation owns: hierarchy + scheme +
/// controller + timing model, with the optional fault injector and phase
/// recorder attached. Shared by the interpret, record, and replay paths so
/// a replayed run reconstructs *exactly* the machine an interpreted run
/// would see (attachment and source-registration order are part of the
/// bit-identical contract — the recorder is attached BEFORE the initial
/// force() so the timeline starts with the synthetic Toggle event, and the
/// stat sources register in hierarchy, cpu, controller, injector order).
struct Simulation {
  memsys::Hierarchy hierarchy;
  std::unique_ptr<memsys::HwScheme> scheme;
  hw::Controller controller;
  std::optional<fault::Injector> injector;
  std::optional<trace::MemorySink> sink;
  std::optional<trace::Recorder> rec;
  cpu::TimingModel cpu;

  Simulation(const MachineConfig& m, Version v, const RunOptions& opt,
             trace::Recording* trace_out)
      : hierarchy(hierarchy_config(m, opt)),
        scheme(v == Version::Base || v == Version::PureSoftware
                   ? nullptr
                   : make_scheme(opt.scheme, m)),
        controller(scheme.get()),
        cpu(m.cpu, hierarchy, controller) {
    hierarchy.attach_hw(scheme.get());
    // Optional run supervision (stop token / wall-clock deadline): exports
    // no stats and changes no results — only adds exit paths — so it is
    // invisible to the tape and store eligibility rules.
    if (opt.run_guard != nullptr) hierarchy.set_run_guard(opt.run_guard);

    // Optional fault campaign: the injector lives on this task's stack like
    // the trace recorder, and attaching it is the only thing that makes any
    // fault hook non-null. Without it this simulation compiles down to the
    // pre-fault-layer machine.
    if (opt.fault.enabled() || opt.watchdog_accesses > 0) {
      injector.emplace(opt.fault, opt.watchdog_accesses);
      hierarchy.set_fault(&*injector);
      if (scheme != nullptr) scheme->set_fault(&*injector);
      controller.set_fault(&*injector);
    }
    if (opt.degrade.armed()) controller.set_degrade_policy(opt.degrade);

    // Optional phase tracing. The recorder and its sink live on this task's
    // stack: a parallel sweep never shares trace state between tasks.
    if (trace_out != nullptr) {
      sink.emplace(*trace_out);
      rec.emplace(*sink, opt.trace_epoch);
      rec->register_source(
          [this](StatSet& s) { hierarchy.export_stats(s); });
      hierarchy.set_trace(&*rec);
      if (scheme != nullptr) scheme->set_trace(&*rec);
      controller.set_trace(&*rec);
    }
    controller.force(hw_always_on(v));  // Selective starts OFF; toggles drive
    if (rec) {
      rec->register_source([this](StatSet& s) { cpu.export_stats(s); });
      rec->register_source(
          [this](StatSet& s) { controller.export_stats(s); });
      if (injector)
        rec->register_source(
            [this](StatSet& s) { injector->export_stats(s); });
    }
  }

  /// Finish the phase recording (if any) and harvest the run's results.
  RunResult collect() {
    if (rec) rec->finish();
    RunResult r;
    r.cycles = cpu.cycles();
    r.instructions = cpu.instructions();
    r.l1_miss_rate = hierarchy.l1_miss_rate();
    r.l2_miss_rate = hierarchy.l2_miss_rate();
    if (const auto* c = hierarchy.classifier())
      r.conflict_share = c->conflict_share();
    r.toggles = controller.toggles_executed();
    r.degradations = controller.degradations();
    hierarchy.export_stats(r.stats);
    cpu.export_stats(r.stats);
    controller.export_stats(r.stats);
    if (injector) {
      r.faults_injected = injector->injected();
      injector->export_stats(r.stats);
    }
    return r;
  }
};

constexpr auto fnv1a = fnv1a_u64;  // shared fold (support/fingerprint.h)

}  // namespace

/// Hash of every RunOptions field the recorded stream depends on. The
/// machine and scheme are deliberately excluded (the stream is invariant
/// under both: geometry only changes the hierarchy's response, and the
/// scheme never feeds back into address generation); the verification
/// hooks (log / after_stage) observe the pipeline without changing its
/// output, so they are excluded too.
std::uint64_t stream_fingerprint(const RunOptions& opt) {
  const transform::OptimizeOptions& o = opt.optimize;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, opt.data_seed);
  h = fnv1a(h, std::bit_cast<std::uint64_t>(o.threshold));
  h = fnv1a(h, static_cast<std::uint64_t>(o.tiling.tile));
  h = fnv1a(h, static_cast<std::uint64_t>(o.tiling.min_tile));
  h = fnv1a(h, o.tiling.cache_bytes);
  h = fnv1a(h, o.unroll);
  std::uint64_t bits = 0;
  for (bool b : {o.enable_fusion, o.enable_interchange, o.enable_tiling,
                 o.enable_unroll_jam, o.enable_scalar_replacement,
                 o.enable_layout_selection, o.insert_markers,
                 o.eliminate_markers,
                 static_cast<bool>(o.method_predictor)})
    bits = (bits << 1) | (b ? 1 : 0);
  h = fnv1a(h, bits);
  // A method predictor reshapes the marked program, so its configuration
  // fingerprint is part of the stream identity.
  return fnv1a(h, o.method_predictor_fingerprint);
}

/// Fingerprint of every machine parameter a simulation's outputs depend
/// on. Scheme *configurations* are pure functions of (kind, machine) — see
/// make_scheme — so hashing the kind plus these fields covers them too.
std::uint64_t machine_fingerprint(const MachineConfig& m) {
  std::uint64_t h = kFnv1aOffset;
  for (const memsys::CacheConfig* c :
       {&m.hierarchy.l1d, &m.hierarchy.l1i, &m.hierarchy.l2}) {
    h = fnv1a(h, c->size_bytes);
    h = fnv1a(h, c->assoc);
    h = fnv1a(h, c->block_size);
    h = fnv1a(h, c->latency);
  }
  for (const memsys::TlbConfig* t : {&m.hierarchy.dtlb, &m.hierarchy.itlb}) {
    h = fnv1a(h, t->entries);
    h = fnv1a(h, t->assoc);
    h = fnv1a(h, t->page_size);
    h = fnv1a(h, t->miss_penalty);
  }
  h = fnv1a(h, m.hierarchy.mem.access_latency);
  h = fnv1a(h, m.hierarchy.mem.bus_width);
  h = fnv1a(h, m.cpu.issue_width);
  h = fnv1a(h, m.cpu.ruu_entries);
  h = fnv1a(h, m.cpu.lsq_entries);
  h = fnv1a(h, m.cpu.memory_ports);
  h = fnv1a(h, m.cpu.bimodal_entries);
  h = fnv1a(h, m.cpu.mispredict_penalty);
  h = fnv1a(h, m.cpu.overlap_bandwidth_cycles);
  h = fnv1a(h, m.cpu.toggle_latency);
  h = fnv1a(h, m.cpu.model_ifetch ? 1 : 0);
  return h;
}

namespace {

/// Is this run allowed on the tape path? Fault campaigns and watchdogs
/// perturb or truncate the run midstream, so they always interpret.
bool tape_eligible(const RunOptions& opt) {
  return opt.reuse_tape && !opt.fault.enabled() && opt.watchdog_accesses == 0;
}

/// Is this run allowed on the persistent-store path? Stored results carry
/// no fault/degradation counters and no trace recording, so any of those
/// features forces a live simulation.
bool store_eligible(const RunOptions& opt, const trace::Recording* trace_out) {
  return opt.result_store != nullptr && trace_out == nullptr &&
         !opt.fault.enabled() && opt.watchdog_accesses == 0 &&
         !opt.degrade.armed();
}

store::StoredResult to_stored(const RunResult& r) {
  // faults_injected / degradations are structurally 0 on the store path
  // (store_eligible excludes every run that could set them).
  return {.cycles = r.cycles,
          .instructions = r.instructions,
          .l1_miss_rate = r.l1_miss_rate,
          .l2_miss_rate = r.l2_miss_rate,
          .conflict_share = r.conflict_share,
          .toggles = r.toggles,
          .stats = r.stats};
}

RunResult from_stored(const store::StoredResult& s) {
  RunResult r;
  r.cycles = s.cycles;
  r.instructions = s.instructions;
  r.l1_miss_rate = s.l1_miss_rate;
  r.l2_miss_rate = s.l2_miss_rate;
  r.conflict_share = s.conflict_share;
  r.toggles = s.toggles;
  r.stats = s.stats;
  return r;
}

}  // namespace

std::string tape_key(const workloads::WorkloadInfo& w, Version v,
                     const RunOptions& opt) {
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(stream_fingerprint(opt)));
  return w.name + "/" + version_key(v) + "/" + fp;
}

std::string store_key(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt) {
  char fp[40];
  std::snprintf(fp, sizeof(fp), "%016llx/%016llx",
                static_cast<unsigned long long>(machine_fingerprint(m)),
                static_cast<unsigned long long>(stream_fingerprint(opt)));
  // Readable prefix (workload/version/scheme) + machine and stream
  // fingerprints + the 3C flag (it adds classifier counters to the
  // StatSet) + the store format version, which invalidates everything at
  // once when the encoding or this derivation changes.
  return w.name + "/" + version_key(v) + "/" + hw::to_string(opt.scheme) +
         "/" + fp + (opt.classify_misses ? "/3c" : "/-") + "/s" +
         std::to_string(store::kStoreFormatVersion);
}

tape::Tape record_tape(const workloads::WorkloadInfo& w,
                       const MachineConfig& m, Version v,
                       const RunOptions& opt, RunResult* result,
                       trace::Recording* trace_out) {
  SELCACHE_CHECK_MSG(!opt.fault.enabled() && opt.watchdog_accesses == 0,
                     "cannot record a tape under a fault campaign");
  // Code product (§4.4), then the instrumented interpretation: the
  // RecordingTimingModel shim tees every timing-model call into the tape
  // builder while the real model simulates, so the recording run's results
  // are ordinary simulation results.
  const ir::Program base = w.build();
  ir::Program product = prepare_program(base, v, opt.optimize);
  Simulation sim(m, v, opt, trace_out);
  codegen::DataEnv env(product, {.seed = opt.data_seed});
  tape::TapeBuilder builder;
  tape::RecordingTimingModel shim(sim.cpu, builder);
  codegen::BasicTraceEngine<tape::RecordingTimingModel> engine(product, env,
                                                               shim);
  engine.run();
  RunResult r = sim.collect();  // always: finishes the phase recording too
  if (result != nullptr) *result = std::move(r);
  return builder.take();
}

RunResult replay_tape(const tape::Tape& t, const MachineConfig& m, Version v,
                      const RunOptions& opt, trace::Recording* trace_out) {
  Simulation sim(m, v, opt, trace_out);
  tape::TapeReplayer::replay(t, sim.cpu);
  return sim.collect();
}

RunResult run_version(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt,
                      trace::Recording* trace_out) {
  // Persistent-store fast path: a hit reconstructs the whole RunResult
  // from disk and skips simulation entirely (including the tape path — a
  // stored result is strictly cheaper than a replay). A miss falls through
  // to whichever execution path applies and persists its result.
  const bool stored = store_eligible(opt, trace_out);
  std::string skey;
  if (stored) {
    skey = store_key(w, m, v, opt);
    if (std::optional<store::StoredResult> hit = opt.result_store->load(skey))
      return from_stored(*hit);
  }

  RunResult result = [&]() -> RunResult {
    if (tape_eligible(opt)) {
      tape::TapeCache& cache = opt.tape_cache != nullptr
                                   ? *opt.tape_cache
                                   : tape::TapeCache::global();
      // First run for this key records (and its results are used directly —
      // the recording run IS the interpreted run); every later run replays.
      std::optional<RunResult> recorded;
      const tape::TapeCache::TapePtr t =
          cache.get_or_record(tape_key(w, v, opt), [&] {
            RunResult r;
            tape::Tape fresh = record_tape(w, m, v, opt, &r, trace_out);
            recorded = std::move(r);
            return fresh;
          });
      if (recorded) return std::move(*recorded);
      return replay_tape(*t, m, v, opt, trace_out);
    }

    // Plain interpretation: code product (§4.4), machine, execute, collect.
    const ir::Program base = w.build();
    ir::Program product = prepare_program(base, v, opt.optimize);
    Simulation sim(m, v, opt, trace_out);
    codegen::DataEnv env(product, {.seed = opt.data_seed});
    codegen::TraceEngine engine(product, env, sim.cpu);
    engine.run();
    return sim.collect();
  }();

  if (stored) opt.result_store->save(skey, to_stored(result));
  return result;
}

namespace {

/// Append one workload's five recordings to `traces` in kAllVersions order
/// (the trace half of the determinism contract).
void append_captures(const workloads::WorkloadInfo& w,
                     std::array<trace::Recording, 5>& recs,
                     std::vector<TraceCapture>* traces) {
  if (traces == nullptr) return;
  for (std::size_t i = 0; i < kAllVersions.size(); ++i)
    traces->push_back({w.name, kAllVersions[i], std::move(recs[i])});
}

}  // namespace

ImprovementRow improvements_for(const workloads::WorkloadInfo& w,
                                const MachineConfig& m, const RunOptions& opt,
                                const ParallelSweepOptions& par,
                                std::vector<TraceCapture>* traces) {
  std::array<RunResult, 5> results;
  std::array<trace::Recording, 5> recs;
  const bool tracing = traces != nullptr;
  if (par.num_threads > 1) {
    support::ThreadPool pool(par.num_threads);
    std::array<std::future<RunResult>, 5> futures;
    for (std::size_t i = 0; i < kAllVersions.size(); ++i)
      futures[i] = pool.submit(
          [&w, &m, v = kAllVersions[i], &opt,
           tr = tracing ? &recs[i] : nullptr] {
            return run_version(w, m, v, opt, tr);
          });
    for (std::size_t i = 0; i < kAllVersions.size(); ++i)
      results[i] = futures[i].get();
  } else {
    for (std::size_t i = 0; i < kAllVersions.size(); ++i)
      results[i] = run_version(w, m, kAllVersions[i], opt,
                               tracing ? &recs[i] : nullptr);
  }
  append_captures(w, recs, traces);
  return make_improvement_row(w, results);
}

std::vector<ImprovementRow> sweep_suite(const MachineConfig& m,
                                        const RunOptions& opt,
                                        const ParallelSweepOptions& par,
                                        std::vector<TraceCapture>* traces) {
  const auto& suite = workloads::all_workloads();
  std::vector<ImprovementRow> rows;
  rows.reserve(suite.size());

  if (par.num_threads <= 1) {
    for (const auto& w : suite)
      rows.push_back(improvements_for(w, m, opt, {}, traces));
    return rows;
  }

  // Fan out every (workload, version) pair as one task — 13x5 independent
  // simulations, each owning its full machine state. Futures are collected
  // in submission order, so assembly below is deterministic no matter how
  // the pool schedules the work. Trace recordings follow the same contract:
  // each task writes its own pre-allocated slot; captures are appended in
  // (workload, version) order afterwards.
  support::ThreadPool pool(par.num_threads);
  std::vector<std::array<std::future<RunResult>, 5>> futures(suite.size());
  std::vector<std::array<trace::Recording, 5>> recs(
      traces != nullptr ? suite.size() : 0);
  for (std::size_t wi = 0; wi < suite.size(); ++wi)
    for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi)
      futures[wi][vi] = pool.submit(
          [&w = suite[wi], &m, v = kAllVersions[vi], &opt,
           tr = traces != nullptr ? &recs[wi][vi] : nullptr] {
            return run_version(w, m, v, opt, tr);
          });

  for (std::size_t wi = 0; wi < suite.size(); ++wi) {
    std::array<RunResult, 5> results;
    for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi)
      results[vi] = futures[wi][vi].get();
    rows.push_back(make_improvement_row(suite[wi], results));
    if (traces != nullptr) append_captures(suite[wi], recs[wi], traces);
  }
  return rows;
}

namespace {

/// One guarded (workload, version) cell of a resilient sweep.
struct CellRun {
  std::optional<RunResult> result;  ///< nullopt when all attempts failed
  fault::CellOutcome outcome;
  trace::Recording recording;  ///< from the successful attempt (if any)
};

/// Run one cell with retry. Catches everything a simulation can throw —
/// injected crashes, watchdog kills, internal check failures — so the
/// caller's sweep loop never unwinds. Each attempt reseeds the injector
/// deterministically and records into a fresh Recording, so a failed
/// attempt leaves no partial trace behind.
CellRun run_cell_guarded(const workloads::WorkloadInfo& w,
                         const MachineConfig& m, std::size_t vi,
                         const RunOptions& base_opt,
                         const FaultSweepOptions& fopt, bool want_trace) {
  const Version v = kAllVersions[vi];
  CellRun cell;
  cell.outcome.workload = w.name;
  cell.outcome.version = version_key(v);
  for (std::uint32_t attempt = 0;; ++attempt) {
    RunOptions opt = base_opt;
    opt.fault = fopt.fault;
    opt.fault.seed = fault::task_seed(fopt.fault.seed, w.name,
                                      static_cast<std::uint32_t>(vi), attempt);
    opt.watchdog_accesses = fopt.watchdog_accesses;
    opt.degrade = fopt.degrade;
    cell.outcome.fault_seed = opt.fault.seed;
    cell.outcome.attempts = attempt + 1;
    trace::Recording rec;
    try {
      RunResult r = run_version(w, m, v, opt, want_trace ? &rec : nullptr);
      cell.outcome.status = r.degradations > 0
                                ? fault::CellOutcome::Status::Degraded
                                : fault::CellOutcome::Status::Ok;
      cell.outcome.faults_injected = r.faults_injected;
      cell.outcome.degradations = r.degradations;
      cell.outcome.error.clear();
      cell.result = std::move(r);
      cell.recording = std::move(rec);
      return cell;
    } catch (const std::exception& e) {
      cell.outcome.status = fault::CellOutcome::Status::Failed;
      cell.outcome.error = e.what();
      cell.outcome.faults_injected = 0;
      cell.outcome.degradations = 0;
      if (attempt >= fopt.max_retries) return cell;
    } catch (...) {
      cell.outcome.status = fault::CellOutcome::Status::Failed;
      cell.outcome.error = "unknown exception";
      cell.outcome.faults_injected = 0;
      cell.outcome.degradations = 0;
      if (attempt >= fopt.max_retries) return cell;
    }
  }
}

/// make_row over possibly-missing per-version results. A quarantined cell
/// contributes 0.0 improvement (figure tables always render a full row);
/// the FailureReport tells readers which numbers to trust.
ImprovementRow make_row_partial(
    const workloads::WorkloadInfo& w,
    const std::array<std::optional<RunResult>, 5>& results) {
  ImprovementRow row;
  row.benchmark = w.name;
  row.category = w.category;
  row.base_cycles = results[0] ? results[0]->cycles : 0;
  for (std::size_t i = 0; i < kAllVersions.size(); ++i) {
    const Version v = kAllVersions[i];
    if (v != Version::Base)
      row.pct[v] = results[0] && results[i]
                       ? improvement_pct(row.base_cycles, results[i]->cycles)
                       : 0.0;
    if (results[i]) {
      row.accesses += l1_accesses(*results[i]);
      row.stats.merge(results[i]->stats, std::string(version_key(v)) + ".");
    }
  }
  return row;
}

/// Shared body of the resilient entry points: guard every (workload,
/// version) cell, then assemble rows / report / captures in fixed order so
/// the whole ResilientSweep is bit-identical at any thread count.
ResilientSweep run_resilient(
    const std::vector<const workloads::WorkloadInfo*>& suite,
    const MachineConfig& m, const RunOptions& opt,
    const ParallelSweepOptions& par, const FaultSweepOptions& fopt,
    std::vector<TraceCapture>* traces) {
  const bool tracing = traces != nullptr;
  std::vector<std::array<CellRun, 5>> cells(suite.size());

  if (par.num_threads > 1) {
    support::ThreadPool pool(par.num_threads);
    std::vector<std::array<std::future<CellRun>, 5>> futures(suite.size());
    for (std::size_t wi = 0; wi < suite.size(); ++wi)
      for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi)
        futures[wi][vi] =
            pool.submit([w = suite[wi], &m, vi, &opt, &fopt, tracing] {
              return run_cell_guarded(*w, m, vi, opt, fopt, tracing);
            });
    for (std::size_t wi = 0; wi < suite.size(); ++wi)
      for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi)
        cells[wi][vi] = futures[wi][vi].get();
  } else {
    for (std::size_t wi = 0; wi < suite.size(); ++wi)
      for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi)
        cells[wi][vi] = run_cell_guarded(*suite[wi], m, vi, opt, fopt,
                                         tracing);
  }

  ResilientSweep out;
  out.rows.reserve(suite.size());
  out.report.cells.reserve(suite.size() * kAllVersions.size());
  for (std::size_t wi = 0; wi < suite.size(); ++wi) {
    std::array<std::optional<RunResult>, 5> results;
    for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi) {
      results[vi] = std::move(cells[wi][vi].result);
      out.report.cells.push_back(std::move(cells[wi][vi].outcome));
    }
    out.rows.push_back(make_row_partial(*suite[wi], results));
    if (tracing)
      for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi)
        traces->push_back({suite[wi]->name, kAllVersions[vi],
                           std::move(cells[wi][vi].recording)});
  }
  return out;
}

}  // namespace

ResilientSweep improvements_for_resilient(const workloads::WorkloadInfo& w,
                                          const MachineConfig& m,
                                          const RunOptions& opt,
                                          const ParallelSweepOptions& par,
                                          const FaultSweepOptions& fopt,
                                          std::vector<TraceCapture>* traces) {
  return run_resilient({&w}, m, opt, par, fopt, traces);
}

ResilientSweep sweep_suite_resilient(const MachineConfig& m,
                                     const RunOptions& opt,
                                     const ParallelSweepOptions& par,
                                     const FaultSweepOptions& fopt,
                                     std::vector<TraceCapture>* traces) {
  const auto& suite = workloads::all_workloads();
  std::vector<const workloads::WorkloadInfo*> ptrs;
  ptrs.reserve(suite.size());
  for (const auto& w : suite) ptrs.push_back(&w);
  return run_resilient(ptrs, m, opt, par, fopt, traces);
}

double average_improvement(const std::vector<ImprovementRow>& rows, Version v,
                           const workloads::Category* filter) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& row : rows) {
    if (filter != nullptr && row.category != *filter) continue;
    auto it = row.pct.find(v);
    if (it == row.pct.end()) continue;
    sum += it->second;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace selcache::core
