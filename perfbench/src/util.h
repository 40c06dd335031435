// Small helpers shared by the benchmark driver: clocks, order statistics,
// a fixed fan-out over worker threads, the span recorder, the cell digest
// and child-process launching.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Run fn(0) .. fn(n-1) on `threads` worker threads that pull indices in
/// order from a shared counter. fn(i, worker) must not throw.
void run_tasks(std::size_t n, unsigned threads,
               const std::function<void(std::size_t, unsigned)>& fn);

// -- spans -------------------------------------------------------------------

/// One timed call into a layer. Times are seconds since the recorder's
/// origin; parent 0 means a top-level span.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  unsigned thread = 0;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store, written out as JSON when the run ends. Safe to
/// record from several threads.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  double now() const { return seconds_since(origin_); }
  /// Record a finished span and return its id.
  std::uint64_t add(std::string name, std::uint64_t parent, unsigned thread,
                    double start, double end);
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t reserve() { return next_id_.fetch_add(1) + 1; }
  void add_reserved(std::uint64_t id, std::string name, std::uint64_t parent,
                    unsigned thread, double start, double end);

  std::vector<Span> spans() const;
  /// Spans recorded since `mark` (an index into the recording order).
  std::vector<Span> spans_since(std::size_t mark) const;
  std::size_t size() const;

  /// Self time of every span: its duration minus the part of it that its
  /// child spans cover. Keyed by span id.
  static std::map<std::uint64_t, double> self_times(
      const std::vector<Span>& spans);

  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Times one call and records it as a span when a recorder is attached
/// (rec == nullptr records nothing).
class Timed {
 public:
  Timed(SpanRecorder* rec, const char* name, std::uint64_t parent,
        unsigned thread)
      : rec_(rec), name_(name), parent_(parent), thread_(thread),
        t0_(Clock::now()), start_(rec != nullptr ? rec->now() : 0.0) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Seconds since construction; records the span on the first call.
  double stop() {
    if (!stopped_) {
      elapsed_ = seconds_since(t0_);
      stopped_ = true;
      if (rec_ != nullptr)
        rec_->add(name_, parent_, thread_, start_, start_ + elapsed_);
    }
    return elapsed_;
  }

 private:
  SpanRecorder* rec_;
  const char* name_;
  std::uint64_t parent_;
  unsigned thread_;
  Clock::time_point t0_;
  double start_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

// -- cells -------------------------------------------------------------------

/// FNV-1a digest of a simulated cell: cycles, instructions, toggles and
/// every StatSet counter by name. Kept in the benchmark (not shared with the
/// library) so a change to the library's own fingerprints cannot move it.
std::uint64_t cell_digest(const selcache::core::RunResult& r);

/// Simulated L1 (data + instruction) demand accesses of one cell.
std::uint64_t l1_accesses(const selcache::core::RunResult& r);

// -- child processes ---------------------------------------------------------

struct ChildResult {
  bool started = false;
  bool exited = false;      ///< normal exit; exit_code is valid
  int exit_code = -1;
  int term_signal = 0;      ///< signal that ended it, 0 if none
  bool timed_out = false;   ///< killed by the benchmark after `timeout_s`
  double wall_s = 0.0;
  double max_rss_mb = 0.0;  ///< from wait4's rusage
};

/// Start argv[0] (a path) with stdout and stderr sent to the given files
/// and `env_extra` ("NAME=value") added to the environment, wait for it,
/// and kill it if it runs longer than timeout_s.
ChildResult run_child(const std::vector<std::string>& argv,
                      const std::vector<std::string>& env_extra,
                      const std::string& stdout_path,
                      const std::string& stderr_path, double timeout_s);

std::string read_file(const std::string& path);

}  // namespace perfbench
