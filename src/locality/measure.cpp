#include "locality/measure.h"

#include <algorithm>
#include <vector>

#include "codegen/data_env.h"
#include "codegen/trace_engine.h"
#include "hw/controller.h"
#include "support/check.h"

namespace selcache::locality {
namespace {

/// Attributes L1D accesses to entities by address interval.
class EntityProbe final : public memsys::DataAccessProbe {
 public:
  EntityProbe(const ir::Program& p, const codegen::DataEnv& env,
              MeasuredProfile& out)
      : out_(out) {
    for (std::size_t a = 0; a < p.arrays().size(); ++a) {
      const auto& layout = env.array_layout(static_cast<ir::ArrayId>(a));
      add(layout.base(), layout.footprint_bytes(), p.arrays()[a].name);
    }
    if (!p.scalars().empty())
      add(env.scalar_addr(0), 8ull * p.scalars().size(), "(scalars)");
    for (std::size_t pl = 0; pl < p.pools().size(); ++pl) {
      const auto& decl = p.pools()[pl];
      add(env.record_addr(static_cast<ir::PoolId>(pl), 0, 0),
          static_cast<std::uint64_t>(decl.count) * decl.elem_size, decl.name);
    }
    std::sort(spans_.begin(), spans_.end(),
              [](const Span& a, const Span& b) { return a.base < b.base; });
  }

  void on_l1d_access(Addr addr, bool /*is_write*/, bool hit) override {
    ++out_.l1d_accesses;
    if (!hit) ++out_.l1d_misses;
    // Entities are page-aligned and non-overlapping: the last span starting
    // at or below addr is the only candidate.
    auto it = std::upper_bound(
        spans_.begin(), spans_.end(), addr,
        [](Addr a, const Span& s) { return a < s.base; });
    if (it == spans_.begin() || addr >= (it - 1)->end) {
      ++out_.unattributed;
      return;
    }
    auto& e = out_.entities[(it - 1)->name];
    ++e.accesses;
    if (!hit) ++e.l1d_misses;
  }

 private:
  struct Span {
    Addr base = 0;
    Addr end = 0;
    std::string name;
  };

  void add(Addr base, std::uint64_t bytes, std::string name) {
    spans_.push_back({base, base + bytes, std::move(name)});
  }

  MeasuredProfile& out_;
  std::vector<Span> spans_;
};

}  // namespace

MeasuredProfile measure_program(const ir::Program& p,
                                const MeasureOptions& opt) {
  MeasuredProfile out;
  codegen::DataEnv env(p, {.seed = opt.data_seed});
  EntityProbe probe(p, env, out);
  memsys::Hierarchy hierarchy(opt.hierarchy, {.probe = &probe});
  hw::Controller controller(nullptr);
  cpu::TimingModel cpu(opt.cpu, hierarchy, controller);

  codegen::TraceEngine engine(p, env, cpu);
  engine.run();

  StatSet stats;
  hierarchy.export_stats(stats);
  out.l2_accesses = stats.get("l2.hits") + stats.get("l2.misses");
  out.l2_misses = stats.get("l2.misses");
  out.cycles = cpu.cycles();
  SELCACHE_CHECK_MSG(
      out.l1d_accesses == engine.loads_executed() + engine.stores_executed(),
      "probe missed data accesses");
  return out;
}

}  // namespace selcache::locality
