#include "run/checkpoint.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "store/store.h"
#include "support/fingerprint.h"
#include "support/io.h"
#include "support/run_guard.h"
#include "support/table.h"
#include "tape/cache.h"

namespace selcache::run {

namespace fs = std::filesystem;

namespace {

std::string journal_path(const std::string& run_dir) {
  return (fs::path(run_dir) / "journal.wal").string();
}

std::string store_dir(const std::string& run_dir) {
  return (fs::path(run_dir) / "store").string();
}

std::string ledger_path(const std::string& run_dir) {
  return (fs::path(run_dir) / "cells.csv").string();
}

std::optional<hw::SchemeKind> scheme_by_short_name(const std::string& n) {
  for (hw::SchemeKind k :
       {hw::SchemeKind::None, hw::SchemeKind::Bypass, hw::SchemeKind::Victim,
        hw::SchemeKind::Prefetch, hw::SchemeKind::Composite})
    if (n == hw::to_string(k)) return k;
  if (n.empty()) return hw::SchemeKind::Bypass;
  return std::nullopt;
}

/// Content fingerprint of one cell result — journaled with the `done`
/// record and re-verified against the stored result on resume, so a store
/// entry that drifted from what the journal promised degrades to a re-run
/// instead of silently changing the output.
std::uint64_t result_fingerprint(const core::RunResult& r) {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_u64(h, r.cycles);
  h = fnv1a_u64(h, r.instructions);
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.l1_miss_rate));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.l2_miss_rate));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(r.conflict_share));
  h = fnv1a_u64(h, r.toggles);
  for (const auto& [k, v] : r.stats.all()) {
    h = fnv1a_str(h, k);
    h = fnv1a_u64(h, v);
  }
  return h;
}

/// Crash hook for the kill-resume test harness: SELCACHE_CRASH_AFTER_CELLS=N
/// raises SIGKILL immediately after the N-th `done` record of this process
/// is journaled (and therefore durable). Parsed once per execute().
struct CrashHook {
  std::uint64_t after = 0;  ///< 0 = disarmed
  std::atomic<std::uint64_t> done{0};

  CrashHook() {
    const char* env = std::getenv("SELCACHE_CRASH_AFTER_CELLS");
    if (env != nullptr && *env != '\0') after = std::strtoull(env, nullptr, 10);
  }

  void tick() {
    if (after == 0) return;
    if (done.fetch_add(1, std::memory_order_relaxed) + 1 == after)
      std::raise(SIGKILL);
  }
};

/// What the journal already knows about one cell.
struct CellHistory {
  std::uint32_t attempts = 0;  ///< `started` records seen
  bool done = false;
  bool quarantined = false;
  std::uint64_t done_fp = 0;
  std::string reason;
};

std::string cell_name(const workloads::WorkloadInfo& w, std::size_t vi) {
  return w.name + "/" + core::version_key(core::kAllVersions[vi]);
}

/// The checkpoint policy on core::execute's attempt loop: journal every
/// transition, supervise each attempt with a RunGuard (stop token, cell and
/// run deadlines), back off between attempts, and settle the cells whose
/// `done` record the store still substantiates.
struct Journaled final : core::CellHooks {
  const CheckpointOptions& opts;
  const core::CellPlan& plan;
  const core::RunOptions& opt;
  JournalWriter& journal;
  const std::vector<CellHistory>& history;
  CrashHook crash;
  std::atomic<bool> journal_failed{false};
  std::atomic<std::uint64_t> failed_attempts{0};
  std::optional<support::RunGuard::Clock::time_point> run_deadline;

  Journaled(const CheckpointOptions& o, const core::CellPlan& p,
            const core::RunOptions& ro, JournalWriter& j,
            const std::vector<CellHistory>& h)
      : opts(o), plan(p), opt(ro), journal(j), history(h) {
    if (opts.run_deadline_ms > 0)
      run_deadline = support::RunGuard::Clock::now() +
                     std::chrono::milliseconds(opts.run_deadline_ms);
  }

  const workloads::WorkloadInfo& workload(std::size_t i) const {
    return plan.workloads[i / core::kAllVersions.size()];
  }
  std::string name(std::size_t i) const {
    return cell_name(workload(i), i % core::kAllVersions.size());
  }
  /// Attempt number across every run of this cell, as journaled.
  std::uint64_t nth(std::size_t i, std::uint32_t attempt) const {
    return std::uint64_t{history[i].attempts} + attempt;
  }

  void append(const JournalRecord& rec) {
    if (!journal.append(rec))
      journal_failed.store(true, std::memory_order_relaxed);
  }

  bool stop_requested() const {
    if (opts.stop != nullptr &&
        opts.stop->load(std::memory_order_relaxed) != 0)
      return true;
    return run_deadline && support::RunGuard::Clock::now() > *run_deadline;
  }

  std::optional<core::SettledCell> settled(std::size_t i) override {
    if (history[i].quarantined)
      return core::SettledCell{std::nullopt, history[i].reason};
    if (!history[i].done) return std::nullopt;
    // A `done` record is trusted only when the stored result round-trips
    // with the journaled fingerprint; a lost, torn or drifted store file
    // re-runs the cell.
    std::optional<core::RunResult> r = core::stored_result(
        workload(i), plan.machine,
        core::kAllVersions[i % core::kAllVersions.size()], opt);
    if (!r || result_fingerprint(*r) != history[i].done_fp)
      return std::nullopt;
    return core::SettledCell{std::move(r), ""};
  }

  bool begin_attempt(std::size_t i, std::uint32_t attempt,
                     std::optional<support::RunGuard>& guard) override {
    if (attempt > 0 && opts.retry_backoff_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          retry_backoff_delay_ms(opts.retry_backoff_ms, workload(i).name,
                                 i % core::kAllVersions.size(),
                                 static_cast<std::uint32_t>(nth(i, attempt)))));
    // Suspend at the attempt boundary, so a stop raised while this task was
    // queued or backing off never starts another multi-second simulation.
    if (stop_requested()) return false;
    append(JournalRecord("started")
               .add("cell", name(i))
               .add("attempt", nth(i, attempt))
               .add("seed", opt.data_seed));
    guard.emplace(opts.stop);
    guard->arm_cell_deadline(opts.cell_deadline_ms);
    if (run_deadline) guard->arm_run_deadline(*run_deadline);
    return true;
  }

  void attempt_done(std::size_t i, std::uint32_t attempt,
                    const core::RunResult& r) override {
    append(JournalRecord("done")
               .add("cell", name(i))
               .add("fp", result_fingerprint(r))
               .add("attempt", nth(i, attempt)));
    crash.tick();
  }

  void attempt_failed(std::size_t i, std::uint32_t attempt,
                      const std::string& reason) override {
    failed_attempts.fetch_add(1, std::memory_order_relaxed);
    append(JournalRecord("failed")
               .add("cell", name(i))
               .add("attempt", nth(i, attempt))
               .add("reason", reason));
  }

  void quarantined(std::size_t i, const std::string& reason) override {
    append(JournalRecord("quarantined")
               .add("cell", name(i))
               .add("reason", reason));
  }
};

/// cells.csv: the human-readable status ledger, rewritten atomically at
/// every suspend/finish so an operator can see where a run stands without
/// decoding the journal.
void flush_ledger(const std::string& run_dir,
                  const std::vector<CellOutcome>& cells) {
  std::string csv = "workload,version,status,attempts,reason\n";
  for (const CellOutcome& c : cells)
    csv += csv_field(c.workload) + "," + csv_field(c.version) + "," +
           c.status + "," + std::to_string(c.attempts) + "," +
           csv_field(c.reason) + "\n";
  support::write_file_atomic(ledger_path(run_dir), csv);
}

CheckpointOutcome execute(const std::string& run_dir, const RunSpec& spec,
                          const CheckpointOptions& opts,
                          const JournalReadResult& existing) {
  CheckpointOutcome out;
  out.id = run_id(spec);

  const std::optional<core::MachineConfig> m =
      core::machine_by_name(spec.machine);
  if (!m) {
    out.error = "unknown machine '" + spec.machine + "'";
    return out;
  }
  const std::optional<hw::SchemeKind> scheme =
      scheme_by_short_name(spec.scheme);
  if (!scheme) {
    out.error = "unknown scheme '" + spec.scheme + "'";
    return out;
  }

  core::CellPlan plan;
  if (spec.kind == "sweep") {
    try {
      plan = core::plan_workload(workloads::workload(spec.workload), *m);
    } catch (const std::exception&) {
      out.error = "unknown workload '" + spec.workload + "'";
      return out;
    }
  } else if (spec.kind == "suite") {
    plan = core::plan_suite(*m);
  } else {
    out.error = "unknown run kind '" + spec.kind + "'";
    return out;
  }

  std::error_code ec;
  fs::create_directories(run_dir, ec);
  if (ec) {
    out.error = "cannot create run directory: " + ec.message();
    return out;
  }
  tape::TapeCache tapes;
  std::unique_ptr<store::ResultStore> store;
  try {
    store = store::open_sweep_store(store_dir(run_dir), false, false,
                                    spec.reuse_tape ? &tapes : nullptr);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }

  core::RunOptions opt;
  opt.scheme = *scheme;
  opt.reuse_tape = spec.reuse_tape;
  opt.tape_cache = &tapes;
  opt.result_store = store.get();

  JournalWriter journal(journal_path(run_dir));
  if (!journal.ok()) {
    out.error = "cannot open journal: " + journal.last_error();
    return out;
  }

  // Replay history (attempt counts, done fingerprints, quarantines) from
  // the existing journal, or lay down the header + plan for a fresh run.
  const std::size_t n_cells = plan.size();
  std::vector<CellHistory> history(n_cells);
  Journaled hooks(opts, plan, opt, journal, history);
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n_cells; ++i) index.emplace(hooks.name(i), i);

  if (existing.records.empty()) {
    hooks.append(to_record(spec));
    for (std::size_t i = 0; i < n_cells; ++i)
      hooks.append(JournalRecord("planned").add("cell", hooks.name(i)));
  } else {
    for (const JournalRecord& rec : existing.records) {
      const std::string* cell = rec.find("cell");
      if (cell == nullptr) continue;
      const auto it = index.find(*cell);
      if (it == index.end()) continue;  // foreign journal line: ignored
      CellHistory& h = history[it->second];
      if (rec.type == "started") ++h.attempts;
      if (rec.type == "done") {
        h.done = true;
        h.done_fp = rec.get_u64("fp");
      }
      if (rec.type == "failed") h.reason = rec.get("reason");
      if (rec.type == "quarantined") {
        h.quarantined = true;
        h.reason = rec.get("reason");
      }
    }
  }

  core::SweepResult res = core::execute(
      plan, opt,
      {.threads = opts.threads, .retries = opts.cell_retries, .hooks = &hooks});

  // Tally + outcome ledger in fixed (workload, version) order.
  bool all_terminal = true;
  for (std::size_t i = 0; i < n_cells; ++i) {
    const fault::CellOutcome& c = res.report.cells[i];
    CellOutcome o{c.workload, c.version, "pending",
                  history[i].attempts + c.attempts, c.error};
    switch (res.states[i]) {
      case core::CellState::Done:
        o.status = "done";
        ++out.cells_done;
        break;
      case core::CellState::Settled:
        o.status = "stored";
        ++out.cells_from_store;
        break;
      case core::CellState::Failed:
        o.status = "quarantined";
        ++out.cells_quarantined;
        break;
      case core::CellState::Pending:
        all_terminal = false;
        break;
    }
    out.cells.push_back(std::move(o));
  }
  out.failed_attempts = hooks.failed_attempts.load();

  if (spec.reuse_tape) store->persist_tapes(tapes);

  out.suspended = res.suspended || (!all_terminal && hooks.stop_requested());
  out.complete = all_terminal && !out.suspended;
  if (out.suspended) {
    hooks.append(JournalRecord("suspended")
                     .add("cells_done", out.cells_done)
                     .add("cells_from_store", out.cells_from_store));
  } else if (out.complete) {
    hooks.append(JournalRecord("complete")
                     .add("cells_done", out.cells_done)
                     .add("cells_from_store", out.cells_from_store)
                     .add("cells_quarantined", out.cells_quarantined));
  }
  flush_ledger(run_dir, out.cells);

  // Rows only for a finished run: a suspended sweep has no figure yet (the
  // whole point is that `resume` produces it later, byte-identical). Rows
  // with quarantined cells render 0.0 for the missing versions; byte
  // equality with an uninterrupted run holds for quarantine-free runs.
  if (out.complete) out.rows = std::move(res.rows);

  if (hooks.journal_failed.load(std::memory_order_relaxed))
    out.error = "journal append failed: " + journal.last_error();
  return out;
}

}  // namespace

std::uint64_t retry_backoff_delay_ms(std::uint64_t base_ms,
                                     const std::string& workload,
                                     std::size_t version_index,
                                     std::uint32_t attempt) {
  if (base_ms == 0 || attempt == 0) return 0;
  // Bounded exponential: cap the exponent so a long retry history cannot
  // overflow into a multi-hour sleep.
  const std::uint32_t exp = attempt - 1 < 6 ? attempt - 1 : 6;
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_str(h, workload);
  h = fnv1a_u64(h, version_index);
  h = fnv1a_u64(h, attempt);
  return base_ms * (std::uint64_t{1} << exp) + h % base_ms;
}

CheckpointOutcome run_checkpointed(const std::string& run_dir,
                                   const RunSpec& spec,
                                   const CheckpointOptions& opts) {
  const JournalReadResult existing = read_journal(journal_path(run_dir));
  if (!existing.records.empty()) {
    // The directory already holds a run: only continue if it is THIS run.
    const std::optional<RunSpec> prior = from_record(existing.records.front());
    CheckpointOutcome bad;
    if (!prior) {
      bad.error = "run directory has a journal but no usable run header";
      return bad;
    }
    if (run_id(*prior) != run_id(spec)) {
      bad.error = "run directory belongs to a different run (journal id " +
                  run_id(*prior) + ", requested " + run_id(spec) + ")";
      return bad;
    }
  }
  return execute(run_dir, spec, opts, existing);
}

CheckpointOutcome resume_checkpointed(const std::string& run_dir,
                                      const CheckpointOptions& opts) {
  const JournalReadResult existing = read_journal(journal_path(run_dir));
  CheckpointOutcome bad;
  if (existing.records.empty()) {
    bad.error = "no journal found in '" + run_dir + "'";
    return bad;
  }
  const std::optional<RunSpec> spec = from_record(existing.records.front());
  if (!spec) {
    bad.error = "journal header is missing or fails its id check";
    return bad;
  }
  return execute(run_dir, *spec, opts, existing);
}

RunStatus inspect_run(const std::string& run_dir) {
  RunStatus st;
  const JournalReadResult j = read_journal(journal_path(run_dir));
  if (j.records.empty()) {
    st.error = "no journal found in '" + run_dir + "'";
    return st;
  }
  const std::optional<RunSpec> spec = from_record(j.records.front());
  if (!spec) {
    st.error = "journal header is missing or fails its id check";
    return st;
  }
  st.spec = *spec;
  st.id = run_id(*spec);
  st.torn_tail = j.torn_tail;
  st.bytes_dropped = j.bytes_dropped;

  // Fold records into per-cell status, preserving first-seen (plan) order.
  std::vector<std::string> order;
  std::vector<CellOutcome> cells;
  auto slot = [&](const std::string& name) -> CellOutcome& {
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] == name) return cells[i];
    order.push_back(name);
    CellOutcome o;
    const std::size_t sep = name.rfind('/');
    o.workload = sep == std::string::npos ? name : name.substr(0, sep);
    o.version = sep == std::string::npos ? "" : name.substr(sep + 1);
    o.status = "planned";
    cells.push_back(std::move(o));
    return cells.back();
  };
  for (const JournalRecord& rec : j.records) {
    if (rec.type == "suspended") st.suspended = true;
    if (rec.type == "complete") st.complete = true;
    const std::string* cell = rec.find("cell");
    if (cell == nullptr) continue;
    CellOutcome& o = slot(*cell);
    if (rec.type == "started") {
      ++o.attempts;
      o.status = "started";
    } else if (rec.type == "done") {
      o.status = "done";
    } else if (rec.type == "failed") {
      o.status = "failed";
      o.reason = rec.get("reason");
    } else if (rec.type == "quarantined") {
      o.status = "quarantined";
      o.reason = rec.get("reason");
    }
  }
  st.cells = std::move(cells);
  return st;
}

}  // namespace selcache::run
