// Experiment runner: execute (workload x machine x version x scheme) and
// report cycles, miss rates, and improvement over the Base version.
//
// Every sweep is a CellPlan of independent (workload, version) cells on one
// machine, run by one executor (execute) under an ExecPolicy. Each cell's
// simulation owns all of its mutable state (Hierarchy, HwScheme, Controller,
// TimingModel, DataEnv), so the executor may run cells on any number of
// threads and still merge rows, traces and the FailureReport in plan order —
// the output is bit-identical to a serial run, regardless of thread count or
// scheduling.
#pragma once

#include <array>
#include <map>
#include <optional>

#include "core/versions.h"
#include "fault/fault.h"
#include "fault/report.h"
#include "support/run_guard.h"
#include "tape/tape.h"
#include "trace/sink.h"
#include "workloads/registry.h"

namespace selcache::tape {
class TapeCache;
}

namespace selcache::store {
class ResultStore;
}

namespace selcache::core {

struct RunOptions {
  hw::SchemeKind scheme = hw::SchemeKind::Bypass;
  transform::OptimizeOptions optimize{};
  bool classify_misses = false;  ///< maintain the 3C shadow (Table 2 column)
  std::uint64_t data_seed = 0x5e1c4c4eULL;
  /// Epoch length (demand accesses per metrics snapshot) when a trace
  /// recording is requested; ignored otherwise.
  std::uint64_t trace_epoch = 10000;
  /// Fault campaign for this run. Default (kind None, rate 0) means no
  /// injector is built and every fault hook stays nullptr — the run is
  /// bit-identical to a pre-fault-layer simulation.
  fault::FaultConfig fault{};
  /// Abort the run (fault::WatchdogExceeded) after this many hierarchy
  /// accesses; 0 disables the watchdog.
  std::uint64_t watchdog_accesses = 0;
  /// Controller self-check policy; default-disarmed.
  hw::DegradePolicy degrade{};
  /// Record-once / replay-many: serve this run from a trace tape when one
  /// exists for its (workload, version, stream-fingerprint) key, recording
  /// it on first use. Replay is bit-identical to interpretation, so machine
  /// sweeps over a fixed cell matrix pay the IR pipeline once per cell.
  /// Fault-armed runs (a fault campaign or an access watchdog) always fall
  /// back to plain interpretation and never touch the cache.
  bool reuse_tape = false;
  /// Cache consulted by reuse_tape; nullptr = the process-global cache.
  tape::TapeCache* tape_cache = nullptr;
  /// Persistent result store consulted before simulating and updated after
  /// (nullptr = no store). A hit skips the whole simulation — program
  /// construction, pipeline, interpretation — and reconstructs the
  /// RunResult from disk, bit-identical to a fresh run. Fault-armed,
  /// watchdog-armed, degrade-armed, and traced runs bypass the store
  /// (mirroring the tape rule: their outputs are not pure functions of the
  /// cell key, or carry a recording the store does not).
  store::ResultStore* result_store = nullptr;
  /// Run-supervision guard polled once per hierarchy access (nullptr = no
  /// supervision). Unlike the fault injector it exports no stats and never
  /// perturbs results, so it does NOT affect tape or store eligibility —
  /// it only adds two exit paths (support::RunSuspended on the run's stop
  /// token, support::CellDeadlineExceeded on the cell's wall clock). Not
  /// thread-safe: give each parallel task its own guard.
  support::RunGuard* run_guard = nullptr;
};

struct RunResult {
  Cycle cycles = 0;
  InstrCount instructions = 0;
  double l1_miss_rate = 0.0;  ///< combined L1 (data + instruction), Table 2
  double l2_miss_rate = 0.0;
  double conflict_share = 0.0;  ///< of classified L1D misses (if enabled)
  std::uint64_t toggles = 0;
  std::uint64_t faults_injected = 0;  ///< 0 unless a fault campaign ran
  std::uint64_t degradations = 0;     ///< safe-mode demotions (0 or 1)
  StatSet stats;
};

/// Simulate one version of one workload on one machine. When `trace_out` is
/// non-null the run records a phase trace into it (epoch metrics every
/// opt.trace_epoch accesses plus discrete toggle/decay/bypass/promotion
/// events); pass nullptr for an untraced run at full speed.
RunResult run_version(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt = {},
                      trace::Recording* trace_out = nullptr);

/// The result `opt.result_store` holds for this cell, or nullopt (no store,
/// a miss, or a rejected entry). Loads only; never simulates.
std::optional<RunResult> stored_result(const workloads::WorkloadInfo& w,
                                       const MachineConfig& m, Version v,
                                       const RunOptions& opt);

/// TapeCache key for one run: workload, version, plus a fingerprint of
/// everything else the recorded stream depends on (data seed, optimization
/// pipeline settings). The machine is deliberately absent — the stream is
/// machine-invariant, which is what makes record-once/replay-many sweeps
/// possible.
std::string tape_key(const workloads::WorkloadInfo& w, Version v,
                     const RunOptions& opt);

/// Persistent-store key for one cell: workload, version, scheme, a
/// fingerprint of every machine parameter, the stream fingerprint (data
/// seed + optimization pipeline + method-predictor configuration), the
/// miss-classification flag, and the store format version. Unlike
/// tape_key, the machine IS part of the identity — a stored result is the
/// response of one machine to the stream, not the stream itself.
std::string store_key(const workloads::WorkloadInfo& w, const MachineConfig& m,
                      Version v, const RunOptions& opt);

/// Record one (workload, version) trace tape by running an instrumented
/// interpretation on machine `m`. The recording run is a bona fide
/// simulation: pass `result` / `trace_out` to keep its results. Must not be
/// called with a fault campaign or watchdog armed (the tape would capture a
/// truncated or perturbed stream); run_version enforces the same rule by
/// falling back to interpretation.
tape::Tape record_tape(const workloads::WorkloadInfo& w,
                       const MachineConfig& m, Version v,
                       const RunOptions& opt = {}, RunResult* result = nullptr,
                       trace::Recording* trace_out = nullptr);

/// Replay a recorded tape on machine `m` as version `v`, reconstructing the
/// machine exactly as run_version would and driving it with the tape
/// instead of the IR. Bit-identical to the interpreted run for any machine.
RunResult replay_tape(const tape::Tape& t, const MachineConfig& m, Version v,
                      const RunOptions& opt = {},
                      trace::Recording* trace_out = nullptr);

/// One (workload, version) phase-trace recording from a sweep.
struct TraceCapture {
  std::string workload;
  Version version = Version::Base;
  trace::Recording recording;
};

/// Improvements (%) of the four evaluated versions over Base for one
/// workload on one machine — one bar group of Figures 4-9.
struct ImprovementRow {
  std::string benchmark;
  workloads::Category category = workloads::Category::Mixed;
  Cycle base_cycles = 0;
  /// Keyed by version; percent improvement in execution cycles over Base.
  std::map<Version, double> pct;
  /// Simulated L1 (data + instruction) demand accesses summed over all five
  /// versions — the work metric for engine-throughput benchmarks.
  std::uint64_t accesses = 0;
  /// Per-version simulator counters, merged with a "<version>." prefix
  /// (e.g. "selective.l1d.misses"). Part of the determinism contract.
  StatSet stats;
};

/// Assemble one figure row from the five per-version results (kAllVersions
/// order). The only row builder: every sweep, fresh, faulted or resumed,
/// goes through it, which is what keeps their outputs bit-identical. A
/// missing result (failed or unfinished cell) contributes 0.0 improvement
/// (every improvement is 0.0 when Base is missing) and nothing to accesses
/// or stats; the FailureReport says which numbers to trust.
ImprovementRow make_improvement_row(
    const workloads::WorkloadInfo& w,
    const std::array<std::optional<RunResult>, 5>& results);

/// Fingerprint of every RunOptions field the recorded access stream depends
/// on (data seed + optimization pipeline + method-predictor config). One
/// input of the run-ledger RunId.
std::uint64_t stream_fingerprint(const RunOptions& opt);

/// Fingerprint of every machine parameter a simulation's outputs depend on.
/// The other machine-side input of the run-ledger RunId.
std::uint64_t machine_fingerprint(const MachineConfig& m);

/// An ordered plan of (workload, version) cells on one machine: cell i is
/// (workloads[i / 5], kAllVersions[i % 5]), and each workload is one row of
/// the result.
struct CellPlan {
  MachineConfig machine;
  std::vector<workloads::WorkloadInfo> workloads;

  std::size_t size() const { return workloads.size() * kAllVersions.size(); }
};

/// The whole 13-benchmark suite on machine `m`, in Table 2 order.
CellPlan plan_suite(const MachineConfig& m);

/// The five versions of one workload on machine `m`.
CellPlan plan_workload(const workloads::WorkloadInfo& w,
                       const MachineConfig& m);

/// Where a cell stands after execute().
enum class CellState : std::uint8_t {
  Done,     ///< simulated by this call
  Settled,  ///< taken as is from CellHooks::settled (a stored result)
  Failed,   ///< every attempt failed (or settled as quarantined)
  Pending,  ///< never finished: the run suspended first
};

/// A cell a previous run already settled: its stored result, or (no
/// result) the reason it was quarantined.
struct SettledCell {
  std::optional<RunResult> result;
  std::string reason;
};

/// Policy attached to the executor's attempt loop by the checkpoint engine:
/// journal every transition, supervise and pace each attempt, and skip the
/// cells an earlier run settled. Attempt numbers are 0-based per call.
/// Called from worker threads: implementations synchronize themselves.
class CellHooks {
 public:
  /// Called once per cell on the calling thread before any cell runs.
  virtual std::optional<SettledCell> settled(std::size_t cell) = 0;
  /// Before each attempt: back off, then return false to suspend the cell
  /// instead of running it. May arm `guard`, which supervises the attempt.
  virtual bool begin_attempt(std::size_t cell, std::uint32_t attempt,
                             std::optional<support::RunGuard>& guard) = 0;
  virtual void attempt_done(std::size_t cell, std::uint32_t attempt,
                            const RunResult& r) = 0;
  virtual void attempt_failed(std::size_t cell, std::uint32_t attempt,
                              const std::string& reason) = 0;
  virtual void quarantined(std::size_t cell, const std::string& reason) = 0;

 protected:
  ~CellHooks() = default;  ///< never owned or deleted through this interface
};

/// How execute() runs a plan.
struct ExecPolicy {
  unsigned threads = 0;  ///< 0/1 = serially on the calling thread
  /// Failure isolation. Unset: the first cell that throws stops the sweep
  /// (queued cells are dropped) and its exception propagates. Set to N:
  /// every cell gets up to N+1 attempts, attempt k reseeding the fault
  /// injector with fault::task_seed(opt.fault.seed, workload, version
  /// index, k), and a cell that fails them all is reported, not thrown.
  std::optional<std::uint32_t> retries = std::nullopt;
  bool trace = false;          ///< record every cell's phase trace
  CellHooks* hooks = nullptr;  ///< checkpoint policy (needs `retries`)
};

/// Everything a plan produced, merged in plan order.
struct SweepResult {
  std::vector<ImprovementRow> rows;  ///< one per plan workload
  fault::FailureReport report;       ///< one outcome per cell
  std::vector<CellState> states;     ///< one per cell
  std::vector<TraceCapture> traces;  ///< one per cell when policy.trace
  bool suspended = false;  ///< a hook or guard suspended some cell
};

/// Run every cell of `plan` under `opt` and `policy`. The one sweep engine:
/// the CLI, the figure benches and the checkpoint engine all run through it.
SweepResult execute(const CellPlan& plan, const RunOptions& opt = {},
                    const ExecPolicy& policy = {});

/// Average of a version's improvement across rows, optionally filtered by
/// category (nullptr = all).
double average_improvement(const std::vector<ImprovementRow>& rows, Version v,
                           const workloads::Category* filter = nullptr);

/// Stable lowercase key for stat prefixes ("base", "purehw", "puresw",
/// "combined", "selective").
const char* version_key(Version v);

}  // namespace selcache::core
