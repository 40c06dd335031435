// Shared driver for the figure/table benches: run the 13-benchmark suite on
// one machine configuration — or a whole axis of them — and print the
// paper-style improvement table per point.
//
// Every figure bench accepts the same flags (strict — unknown flags and
// malformed numbers exit 2 with the usage line):
//   --threads N       worker threads for the (workload, version) fan-out
//                     (default: SELCACHE_THREADS env, else serial; both
//                     must be a plain non-negative integer <= 4096)
//   --no-reuse-tape   interpret every point instead of record-once/
//                     replay-many (the default records each (workload,
//                     version) cell at the first machine point and replays
//                     the tape for every other point)
//   --max-points N    truncate a sweep axis to its first N points (smoke
//                     tests / CI)
//   --store DIR       persistent result store: cells already in DIR are
//                     loaded instead of simulated; new cells (and tapes)
//                     are written back for the next run
//   --store-readonly  consult the store but never write to it
//   --store-clear     empty the store before the run (cold-start baseline)
#pragma once

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/runner.h"
#include "store/store.h"
#include "support/signal_guard.h"
#include "tape/cache.h"

namespace selcache::bench {

struct FigureOptions {
  unsigned threads = 0;     ///< 0 = serial
  bool reuse_tape = true;   ///< record-once / replay-many across points
  int max_points = -1;      ///< -1 = all points of a sweep axis
  std::string store_dir;    ///< empty = no persistent store
  bool store_readonly = false;
  bool store_clear = false;
};

/// Parse the shared figure-bench flags; exits(2) on anything unrecognized
/// or malformed.
inline FigureOptions parse_figure_options(int argc, char** argv) {
  FigureOptions f;
  const auto usage = [&argv]() {
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--no-reuse-tape]"
                 " [--max-points N] [--store DIR] [--store-readonly]"
                 " [--store-clear]\n",
                 argv[0]);
    std::exit(2);
  };
  // Strict count parse: the whole string is decimal digits and the value is
  // at most `max`, so "abc", "4x", "-1" or "" exit 2 instead of becoming 0.
  const auto count = [&](const char* what, const char* s,
                         unsigned long long max) {
    errno = 0;
    const unsigned long long v = std::strtoull(s, nullptr, 10);
    if (*s == '\0' || std::strspn(s, "0123456789") != std::strlen(s) ||
        errno == ERANGE || v > max) {
      std::fprintf(stderr,
                   "%s: %s expects a non-negative integer <= %llu, got '%s'\n",
                   argv[0], what, max, s);
      usage();
    }
    return v;
  };
  if (const char* env = std::getenv("SELCACHE_THREADS"))
    f.threads = static_cast<unsigned>(count("SELCACHE_THREADS", env, 4096));
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      f.threads = static_cast<unsigned>(count("--threads", argv[++i], 4096));
    } else if (std::strcmp(argv[i], "--no-reuse-tape") == 0) {
      f.reuse_tape = false;
    } else if (std::strcmp(argv[i], "--max-points") == 0 && i + 1 < argc) {
      f.max_points =
          static_cast<int>(count("--max-points", argv[++i], INT_MAX));
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      f.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--store-readonly") == 0) {
      f.store_readonly = true;
    } else if (std::strcmp(argv[i], "--store-clear") == 0) {
      f.store_clear = true;
    } else {
      usage();
    }
  }
  if (f.store_dir.empty() && (f.store_readonly || f.store_clear)) {
    std::fprintf(stderr,
                 "%s: --store-readonly / --store-clear require --store DIR\n",
                 argv[0]);
    std::exit(2);
  }
  if (f.store_readonly && f.store_clear) {
    std::fprintf(stderr,
                 "%s: --store-readonly and --store-clear are exclusive\n",
                 argv[0]);
    std::exit(2);
  }
  return f;
}

/// One machine point of a sweep axis.
struct SweepPoint {
  core::MachineConfig machine;
  std::string title;  ///< full figure title printed above this point's table
};

namespace detail {

inline void maybe_write_csv(const std::string& title,
                            const std::vector<core::ImprovementRow>& rows) {
  // Optional plotting output: SELCACHE_CSV_DIR=<dir> writes one CSV per
  // figure point, named after the title's leading word(s).
  const char* dir = std::getenv("SELCACHE_CSV_DIR");
  if (dir == nullptr) return;
  std::string slug;
  for (char c : title) {
    if (c == ':') break;
    slug.push_back(isalnum(static_cast<unsigned char>(c))
                       ? static_cast<char>(tolower(c))
                       : '_');
  }
  const std::string path = std::string(dir) + "/" + slug + ".csv";
  if (!core::write_text_file(path, core::figure_csv(rows)))
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

}  // namespace detail

/// Run the full suite over every machine point of one axis. With
/// fopt.reuse_tape (the default) the 13x5 cell tapes are recorded at the
/// first point and replayed — bit-identically — for every later point, so
/// an N-point axis pays the IR pipeline once, not N times.
inline int run_figure_sweep(std::vector<SweepPoint> points,
                            hw::SchemeKind scheme, const FigureOptions& fopt) {
  if (fopt.max_points >= 0 &&
      static_cast<std::size_t>(fopt.max_points) < points.size())
    points.resize(static_cast<std::size_t>(fopt.max_points));

  tape::TapeCache cache;
  core::RunOptions opt;
  opt.scheme = scheme;
  // A single-point run has nothing to replay, so skip the recording cost.
  opt.reuse_tape = fopt.reuse_tape && points.size() > 1;
  opt.tape_cache = &cache;

  // Persistent store: cells already on disk are loaded instead of simulated,
  // and persisted tapes make even the cold cells replay-from-disk (with
  // every point's tapes preloaded, "recorded" below is really replayed). A
  // warm store turns a whole figure run into pure load + formatting.
  tape::TapeCache* const tapes = opt.reuse_tape ? &cache : nullptr;
  std::unique_ptr<store::ResultStore> rstore;
  if (!fopt.store_dir.empty()) {
    try {
      rstore = store::open_sweep_store(fopt.store_dir, fopt.store_readonly,
                                       fopt.store_clear, tapes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot open store: %s\n", e.what());
      return 2;
    }
    opt.result_store = rstore.get();
  }

  // Graceful shutdown: a SIGINT/SIGTERM mid-axis finishes nothing torn —
  // the current machine point is abandoned between points, tapes and store
  // cells already persisted stay valid (a rerun serves them as hits), and
  // the process exits with the conventional 128+signo code.
  support::SignalGuard guard;

  const auto sweep_t0 = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < points.size(); ++i) {
    if (support::SignalGuard::stop_requested()) {
      std::fprintf(stderr,
                   "interrupted after %zu of %zu machine points; persisted "
                   "store entries stay valid for the next run\n",
                   i, points.size());
      if (rstore != nullptr && tapes != nullptr) rstore->persist_tapes(cache);
      return support::SignalGuard::exit_code();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows =
        core::execute(core::plan_suite(points[i].machine), opt,
                      {.threads = fopt.threads})
            .rows;
    const auto dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::printf("%s", core::format_machine(points[i].machine).c_str());
    std::printf("%s", core::format_figure(points[i].title, rows).c_str());
    const char* mode = !opt.reuse_tape ? "interpreted"
                       : i == 0        ? "recorded"
                                       : "replayed";
    std::printf("(simulated in %.1fs, scheme=%s, %s)\n\n", dt,
                hw::to_string(scheme), mode);
    detail::maybe_write_csv(points[i].title, rows);
  }
  const auto total = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_t0)
                         .count();
  if (points.size() > 1)
    std::printf("axis total: %zu machine points in %.1fs%s\n",
                points.size(), total,
                fopt.reuse_tape ? " (record-once/replay-many)" : "");
  if (rstore != nullptr) store::finish_sweep_store(*rstore, tapes);
  return 0;
}

/// Single-point figure (Figure 4 and the ablations).
inline int run_figure(const core::MachineConfig& machine,
                      const std::string& title,
                      hw::SchemeKind scheme = hw::SchemeKind::Bypass,
                      const FigureOptions& fopt = {}) {
  return run_figure_sweep({{machine, title}}, scheme, fopt);
}

}  // namespace selcache::bench
