#include "util.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void run_tasks(std::size_t n, unsigned threads,
               const std::function<void(std::size_t, unsigned)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&](unsigned w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
      fn(i, w);
  };
  std::vector<std::thread> pool;
  const unsigned t = std::max(1u, threads);
  pool.reserve(t);
  for (unsigned w = 0; w < t; ++w) pool.emplace_back(worker, w);
  for (auto& th : pool) th.join();
}

// -- spans -------------------------------------------------------------------

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t parent,
                                unsigned thread, double start, double end) {
  const std::uint64_t id = reserve();
  add_reserved(id, std::move(name), parent, thread, start, end);
  return id;
}

void SpanRecorder::add_reserved(std::uint64_t id, std::string name,
                                std::uint64_t parent, unsigned thread,
                                double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), id, parent, thread, start, end});
}

std::vector<Span> SpanRecorder::spans() const { return spans_since(0); }

std::vector<Span> SpanRecorder::spans_since(std::size_t mark) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (mark >= spans_.size()) return {};
  return {spans_.begin() + static_cast<std::ptrdiff_t>(mark), spans_.end()};
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::uint64_t, double> SpanRecorder::self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  std::map<std::uint64_t, double> self;
  for (const Span& s : spans) {
    auto& iv = children[s.id];
    std::sort(iv.begin(), iv.end());
    // Union of the child intervals, clipped to the parent.
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.id] = (s.end - s.start) - covered;
  }
  return self;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const auto self = self_times(all);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                  "\"thread\": %u, \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"self_s\": %.9f}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.thread,
                  s.start, s.end, self.at(s.id),
                  i + 1 < all.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// -- cells -------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fold(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return fold(h, s.size());
}

}  // namespace

std::uint64_t cell_digest(const selcache::core::RunResult& r) {
  std::uint64_t h = kFnvOffset;
  h = fold(h, r.cycles);
  h = fold(h, r.instructions);
  h = fold(h, r.toggles);
  for (const auto& [k, v] : r.stats.all()) {
    h = fold(h, k);
    h = fold(h, v);
  }
  return h;
}

std::uint64_t l1_accesses(const selcache::core::RunResult& r) {
  return r.stats.get("l1d.hits") + r.stats.get("l1d.misses") +
         r.stats.get("l1i.hits") + r.stats.get("l1i.misses");
}

// -- child processes ---------------------------------------------------------

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::vector<std::string>& env_extra,
                      const std::string& stdout_path,
                      const std::string& stderr_path, double timeout_s) {
  ChildResult res;
  // The child's environment: ours, minus the crash hook and any variable
  // the caller sets, plus the caller's additions.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    bool drop = name == "SELCACHE_CRASH_AFTER_CELLS";
    for (const auto& x : env_extra)
      drop = drop || x.substr(0, x.find('=')) == name;
    if (!drop) env.push_back(kv);
  }
  env.insert(env.end(), env_extra.begin(), env_extra.end());
  std::vector<char*> envp;
  for (auto& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (auto& s : args) argp.push_back(s.data());
  argp.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&pid, argp[0], &fa, nullptr, argp.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return res;
  res.started = true;

  // A watchdog kills the child at the deadline. The child is waited for
  // without being reaped first (WNOWAIT), so its pid cannot be reused
  // before the watchdog has stood down.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                     [&] { return done; })) {
      kill(pid, SIGKILL);
      res.timed_out = true;
    }
  });
  siginfo_t info{};
  while (waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) < 0 &&
         errno == EINTR) {
  }
  res.wall_s = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  watchdog.join();
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  res.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (WIFEXITED(status)) {
    res.exited = true;
    res.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    res.term_signal = WTERMSIG(status);
  }
  return res;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace perfbench
