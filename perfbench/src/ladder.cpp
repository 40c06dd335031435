#include "ladder.h"

#include <algorithm>
#include <limits>

#include "core/runner.h"
#include "tape/tape.h"

namespace perfbench {

using namespace selcache;

namespace {

/// R0: consumes every decoded operand so the decode cannot be optimised
/// away, and simulates nothing.
struct NullSink {
  std::uint64_t sum = 0;
  void compute(std::uint64_t n) { sum += n; }
  void load(Addr a, bool dependent) { sum += a + (dependent ? 1 : 0); }
  void store(Addr a) { sum += a; }
  void branch(Addr pc, bool taken) { sum += pc + (taken ? 1 : 0); }
  void toggle(bool on, std::int32_t region) {
    sum += static_cast<std::uint64_t>(region) + (on ? 1 : 0);
  }
  void touch_code(Addr pc, std::uint32_t n) { sum += pc + n; }
};

/// R2/R3: drives the hierarchy exactly as cpu::TimingModel does (one access
/// per load/store, one per I-cache block an I-fetch group spans) and keeps
/// no timing state.
struct MemorySink {
  memsys::Hierarchy& h;
  bool model_ifetch;
  std::uint32_t block;  ///< L1I block size (a power of two)

  void compute(std::uint64_t) {}
  void load(Addr a, bool) { h.access(a, memsys::AccessKind::Load); }
  void store(Addr a) { h.access(a, memsys::AccessKind::Store); }
  void branch(Addr, bool) {}
  void toggle(bool, std::int32_t) {}
  void touch_code(Addr pc, std::uint32_t n) {
    if (!model_ifetch) return;
    const Addr bytes = Addr{n} * 4;
    const Addr first = pc & ~Addr{block - 1};
    const Addr last = (pc + (bytes > 0 ? bytes - 1 : 0)) & ~Addr{block - 1};
    for (Addr a = first; a <= last; a += block)
      h.access(a, memsys::AccessKind::IFetch);
  }
};

/// Replay into a bare hierarchy, with `kind`'s scheme attached and forced ON
/// unless kind is None. Returns the hierarchy's counters.
StatSet replay_memory(const tape::Tape& t, const core::MachineConfig& m,
                      hw::SchemeKind kind) {
  memsys::Hierarchy h(m.hierarchy);
  std::unique_ptr<memsys::HwScheme> scheme;
  if (kind != hw::SchemeKind::None) {
    scheme = core::make_scheme(kind, m);
    scheme->set_active(true);
    h.attach_hw(scheme.get());
  }
  MemorySink sink{h, m.cpu.model_ifetch, m.hierarchy.l1i.block_size};
  tape::replay_into(t, sink);
  StatSet s;
  h.export_stats(s);
  return s;
}

/// Every counter of the rung's hierarchy must equal the full model's.
std::string compare(const StatSet& rung, const StatSet& full,
                    const char* what) {
  for (const auto& [k, v] : rung.all())
    if (full.get(k) != v)
      return std::string(what) + " differs from the full model on " + k;
  return {};
}

}  // namespace

LadderTimes run_ladder(const workloads::WorkloadInfo& w,
                       std::uint64_t data_seed, int repeats,
                       SpanRecorder* rec) {
  const core::MachineConfig m = *core::machine_by_name("base");
  const core::Version v = core::Version::PureHardware;
  core::RunOptions bypass;
  bypass.data_seed = data_seed;
  bypass.scheme = hw::SchemeKind::Bypass;
  core::RunOptions victim = bypass;
  victim.scheme = hw::SchemeKind::Victim;

  LadderTimes out;
  const tape::Tape tape = core::record_tape(w, m, v, bypass);
  out.tape_ops = tape.stats.ops();
  out.tape_bytes = tape.size_bytes();
  out.data_accesses = tape.stats.data_accesses();

  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best[8] = {kInf, kInf, kInf, kInf, kInf, kInf, kInf, kInf};
  std::uint64_t sink_sum = 0;
  for (int k = 0; k < repeats; ++k) {
    const std::uint64_t parent = rec != nullptr ? rec->reserve() : 0;
    const double rep_start = rec != nullptr ? rec->now() : 0.0;
    const auto time = [&](int slot, const char* name, auto&& fn) {
      Timed t(rec, name, parent, 0);
      fn();
      best[slot] = std::min(best[slot], t.stop());
    };
    core::RunResult full_b;
    core::RunResult full_v;
    StatSet r2;
    StatSet r3b;
    StatSet r3v;
    time(0, "codegen.interpret", [&] {
      out.accesses = l1_accesses(core::run_version(w, m, v, bypass));
    });
    time(1, "tape.record", [&] { core::record_tape(w, m, v, bypass); });
    time(2, "ladder.r0", [&] {
      NullSink s;
      tape::replay_into(tape, s);
      sink_sum += s.sum;
    });
    time(3, "ladder.r2",
         [&] { r2 = replay_memory(tape, m, hw::SchemeKind::None); });
    time(4, "ladder.r3_bypass",
         [&] { r3b = replay_memory(tape, m, hw::SchemeKind::Bypass); });
    time(5, "ladder.r3_victim",
         [&] { r3v = replay_memory(tape, m, hw::SchemeKind::Victim); });
    time(6, "ladder.full_bypass",
         [&] { full_b = core::replay_tape(tape, m, v, bypass); });
    time(7, "ladder.full_victim",
         [&] { full_v = core::replay_tape(tape, m, v, victim); });
    if (rec != nullptr)
      rec->add_reserved(parent, "ladder." + w.name, 0, 0, rep_start,
                        rec->now());
    if (out.error.empty()) out.error = compare(r3b, full_b.stats, "R3 bypass");
    if (out.error.empty()) out.error = compare(r3v, full_v.stats, "R3 victim");
    // R2 has no scheme, so only the demand counters of L1D are comparable
    // with a schemed run; check that the data stream reached it whole.
    if (out.error.empty() &&
        r2.get("l1d.hits") + r2.get("l1d.misses") !=
            full_b.stats.get("l1d.hits") + full_b.stats.get("l1d.misses"))
      out.error = "R2 saw a different number of L1D accesses";
  }
  if (sink_sum == 0) out.error = "R0 decoded nothing";
  out.interp = best[0];
  out.record = best[1];
  out.r0 = best[2];
  out.r2 = best[3];
  out.r3_bypass = best[4];
  out.r3_victim = best[5];
  out.full_bypass = best[6];
  out.full_victim = best[7];
  return out;
}

}  // namespace perfbench
