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

ImprovementRow make_improvement_row(
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
    if (!results[i]) continue;
    row.accesses += l1_accesses(*results[i]);
    row.stats.merge(results[i]->stats, std::string(version_key(v)) + ".");
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
/// recorder built first and attached through one Instrumentation. Shared by
/// the interpret, record, and replay paths so a replayed run reconstructs
/// *exactly* the machine an interpreted run would see (attachment and
/// source-registration order are part of the bit-identical contract — the
/// controller reports to the recorder from construction, so the timeline
/// starts with the synthetic Toggle event of the initial force(), and the
/// stat sources register in hierarchy, cpu, controller, injector order).
struct Simulation {
  // Optional fault campaign and phase tracing: they live on this task's
  // stack, so a parallel sweep never shares fault or trace state between
  // tasks. Without them every hook stays nullptr and this simulation runs
  // the uninstrumented machine.
  std::optional<fault::Injector> injector;
  std::optional<trace::MemorySink> sink;
  std::optional<trace::Recorder> rec;
  // The hooks above, plus the optional run supervision (stop token /
  // wall-clock deadline), which exports no stats and changes no results —
  // it only adds exit paths — so it is invisible to the tape and store
  // eligibility rules.
  memsys::Instrumentation inst;
  memsys::Hierarchy hierarchy;
  std::unique_ptr<memsys::HwScheme> scheme;
  hw::Controller controller;
  cpu::TimingModel cpu;

  Simulation(const MachineConfig& m, Version v, const RunOptions& opt,
             trace::Recording* trace_out)
      : injector(opt.fault.enabled() || opt.watchdog_accesses > 0
                     ? std::make_optional<fault::Injector>(
                           opt.fault, opt.watchdog_accesses)
                     : std::nullopt),
        sink(trace_out != nullptr
                 ? std::make_optional<trace::MemorySink>(*trace_out)
                 : std::nullopt),
        rec(sink ? std::make_optional<trace::Recorder>(*sink, opt.trace_epoch)
                 : std::nullopt),
        inst{.trace = rec ? &*rec : nullptr,
             .fault = injector ? &*injector : nullptr,
             .guard = opt.run_guard},
        hierarchy(hierarchy_config(m, opt), inst),
        scheme(v == Version::Base || v == Version::PureSoftware
                   ? nullptr
                   : make_scheme(opt.scheme, m, inst)),
        controller(scheme.get(), inst),
        cpu(m.cpu, hierarchy, controller) {
    hierarchy.attach_hw(scheme.get());
    if (opt.degrade.armed()) controller.set_degrade_policy(opt.degrade);
    controller.force(hw_always_on(v));  // Selective starts OFF; toggles drive
    if (rec) {
      rec->register_source(
          [this](StatSet& s) { hierarchy.export_stats(s); });
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

std::optional<RunResult> stored_result(const workloads::WorkloadInfo& w,
                                       const MachineConfig& m, Version v,
                                       const RunOptions& opt) {
  if (opt.result_store == nullptr) return std::nullopt;
  std::optional<store::StoredResult> hit =
      opt.result_store->load(store_key(w, m, v, opt));
  if (!hit) return std::nullopt;
  return from_stored(*hit);
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
  if (stored)
    if (std::optional<RunResult> hit = stored_result(w, m, v, opt))
      return std::move(*hit);

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

  if (stored)
    opt.result_store->save(store_key(w, m, v, opt), to_stored(result));
  return result;
}

CellPlan plan_suite(const MachineConfig& m) {
  return {m, workloads::all_workloads()};
}

CellPlan plan_workload(const workloads::WorkloadInfo& w,
                       const MachineConfig& m) {
  return {m, {w}};
}

namespace {

/// One cell after its attempt loop.
struct CellRun {
  CellState state = CellState::Pending;
  bool suspended = false;
  std::optional<RunResult> result;
  fault::CellOutcome outcome;
  trace::Recording recording;  ///< from the successful attempt (if any)
};

/// A cell before it runs: named, no attempts, status Ok until one fails.
CellRun blank_cell(const CellPlan& plan, std::size_t i, const RunOptions& opt) {
  CellRun c;
  c.outcome.workload = plan.workloads[i / kAllVersions.size()].name;
  c.outcome.version = version_key(kAllVersions[i % kAllVersions.size()]);
  c.outcome.attempts = 0;
  c.outcome.fault_seed = opt.fault.seed;
  return c;
}

/// The attempt loop: the one place a cell is run, retried, reseeded and
/// reported. Without isolation the first exception propagates; with it
/// every exception (injected crash, watchdog kill, internal check, cell
/// deadline) fails only the attempt, and RunSuspended only the cell. Each
/// attempt records into a fresh Recording, so a failed attempt leaves no
/// partial trace behind.
CellRun run_cell(const CellPlan& plan, std::size_t i, const RunOptions& opt,
                 const ExecPolicy& policy) {
  const workloads::WorkloadInfo& w = plan.workloads[i / kAllVersions.size()];
  const std::size_t vi = i % kAllVersions.size();
  const bool isolate = policy.retries.has_value();
  CellRun cell = blank_cell(plan, i, opt);
  for (std::uint32_t attempt = 0;; ++attempt) {
    std::optional<support::RunGuard> guard;
    if (policy.hooks != nullptr &&
        !policy.hooks->begin_attempt(i, attempt, guard)) {
      cell.suspended = true;
      return cell;
    }
    RunOptions o = opt;
    if (isolate)
      o.fault.seed = fault::task_seed(opt.fault.seed, w.name,
                                      static_cast<std::uint32_t>(vi), attempt);
    if (guard) o.run_guard = &*guard;
    cell.outcome.fault_seed = o.fault.seed;
    cell.outcome.attempts = attempt + 1;
    trace::Recording rec;
    std::string reason;
    try {
      cell.result = run_version(w, plan.machine, kAllVersions[vi], o,
                                policy.trace ? &rec : nullptr);
    } catch (const support::RunSuspended&) {
      if (!isolate) throw;
      cell.suspended = true;
      return cell;
    } catch (const std::exception& e) {
      if (!isolate) throw;
      reason = e.what();
    } catch (...) {
      if (!isolate) throw;
      reason = "unknown exception";
    }
    if (cell.result) {
      cell.state = CellState::Done;
      cell.outcome.status = cell.result->degradations > 0
                                ? fault::CellOutcome::Status::Degraded
                                : fault::CellOutcome::Status::Ok;
      cell.outcome.faults_injected = cell.result->faults_injected;
      cell.outcome.degradations = cell.result->degradations;
      cell.outcome.error.clear();
      cell.recording = std::move(rec);
      if (policy.hooks != nullptr)
        policy.hooks->attempt_done(i, attempt, *cell.result);
      return cell;
    }
    cell.outcome.status = fault::CellOutcome::Status::Failed;
    cell.outcome.error = reason;
    if (policy.hooks != nullptr)
      policy.hooks->attempt_failed(i, attempt, reason);
    if (attempt >= *policy.retries) {
      cell.state = CellState::Failed;
      if (policy.hooks != nullptr) policy.hooks->quarantined(i, reason);
      return cell;
    }
  }
}

}  // namespace

SweepResult execute(const CellPlan& plan, const RunOptions& opt,
                    const ExecPolicy& policy) {
  SELCACHE_CHECK_MSG(policy.hooks == nullptr || policy.retries,
                     "cell hooks need failure isolation");
  const std::size_t n = plan.size();
  std::vector<CellRun> cells;
  std::vector<std::size_t> pending;
  cells.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells.push_back(blank_cell(plan, i, opt));
    std::optional<SettledCell> s;
    if (policy.hooks != nullptr) s = policy.hooks->settled(i);
    if (!s) {
      pending.push_back(i);
      continue;
    }
    CellRun& c = cells[i];
    c.state = s->result ? CellState::Settled : CellState::Failed;
    if (!s->result) c.outcome.status = fault::CellOutcome::Status::Failed;
    c.outcome.error = std::move(s->reason);
    c.result = std::move(s->result);
  }

  // Fan out over the pool, or run in plan order on this thread. Either way
  // results land by cell index, so scheduling never reaches the output.
  bool suspended = false;
  if (policy.threads > 1 && pending.size() > 1) {
    support::ThreadPool pool(policy.threads);
    std::vector<std::future<CellRun>> futures;
    futures.reserve(pending.size());
    for (const std::size_t i : pending)
      futures.push_back(pool.submit([&plan, i, &opt, &policy] {
        return run_cell(plan, i, opt, policy);
      }));
    for (std::size_t k = 0; k < futures.size(); ++k) {
      CellRun& c = cells[pending[k]];
      try {
        c = futures[k].get();
      } catch (const std::future_error&) {
        continue;  // dropped by request_stop() before it ran: pending
      } catch (...) {
        // Fail fast: drop every queued cell before the error reaches the
        // caller, instead of letting ~ThreadPool simulate them first.
        pool.request_stop();
        throw;
      }
      if (c.suspended && !suspended) {
        suspended = true;
        // Cancel everything still queued. Running cells finish or unwind
        // on their own guard; their futures resolve normally.
        pool.request_stop();
      }
    }
  } else {
    for (const std::size_t i : pending) {
      cells[i] = run_cell(plan, i, opt, policy);
      if (cells[i].suspended) {
        suspended = true;
        break;
      }
    }
  }

  SweepResult out;
  out.suspended = suspended;
  out.rows.reserve(plan.workloads.size());
  out.report.cells.reserve(n);
  out.states.reserve(n);
  for (std::size_t wi = 0; wi < plan.workloads.size(); ++wi) {
    std::array<std::optional<RunResult>, 5> results;
    for (std::size_t vi = 0; vi < kAllVersions.size(); ++vi) {
      CellRun& c = cells[wi * kAllVersions.size() + vi];
      results[vi] = std::move(c.result);
      out.states.push_back(c.state);
      out.report.cells.push_back(std::move(c.outcome));
      if (policy.trace)
        out.traces.push_back({plan.workloads[wi].name, kAllVersions[vi],
                              std::move(c.recording)});
    }
    out.rows.push_back(make_improvement_row(plan.workloads[wi], results));
  }
  return out;
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
