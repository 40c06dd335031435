#include "core/versions.h"

#include <algorithm>

#include "hw/bypass_scheme.h"
#include "hw/composite_scheme.h"
#include "hw/stride_prefetcher.h"
#include "hw/victim_scheme.h"

namespace selcache::core {

ir::Program prepare_program(const ir::Program& base_program, Version v,
                            const transform::OptimizeOptions& opt) {
  ir::Program p = base_program.clone();
  switch (v) {
    case Version::Base:
    case Version::PureHardware:
      return p;
    case Version::PureSoftware:
    case Version::Combined: {
      transform::OptimizeOptions o = opt;
      o.insert_markers = false;
      transform::optimize_program(p, o);
      return p;
    }
    case Version::Selective: {
      transform::OptimizeOptions o = opt;
      o.insert_markers = true;
      transform::optimize_program(p, o);
      return p;
    }
  }
  return p;
}

std::unique_ptr<memsys::HwScheme> make_scheme(hw::SchemeKind kind,
                                              const MachineConfig& m,
                                              memsys::Instrumentation inst) {
  switch (kind) {
    case hw::SchemeKind::None:
      return nullptr;
    case hw::SchemeKind::Bypass: {
      hw::BypassSchemeConfig cfg;
      cfg.sldt.block_size = m.hierarchy.l1d.block_size;
      cfg.buffer_block_size = m.hierarchy.l1d.block_size;
      cfg.buffer_entries = std::max(1u, 512u / m.hierarchy.l1d.block_size);
      return std::make_unique<hw::BypassScheme>(cfg, inst);
    }
    case hw::SchemeKind::Victim: {
      hw::VictimSchemeConfig cfg;
      cfg.l1_block_size = m.hierarchy.l1d.block_size;
      cfg.l2_block_size = m.hierarchy.l2.block_size;
      return std::make_unique<hw::VictimScheme>(cfg, inst);
    }
    case hw::SchemeKind::Prefetch: {
      hw::StridePrefetcherConfig cfg;
      cfg.block_size = m.hierarchy.l1d.block_size;
      return std::make_unique<hw::StridePrefetcher>(cfg);
    }
    case hw::SchemeKind::Composite: {
      hw::CompositeSchemeConfig cfg;
      cfg.bypass.sldt.block_size = m.hierarchy.l1d.block_size;
      cfg.bypass.buffer_block_size = m.hierarchy.l1d.block_size;
      cfg.bypass.buffer_entries =
          std::max(1u, 512u / m.hierarchy.l1d.block_size);
      cfg.victim.l1_block_size = m.hierarchy.l1d.block_size;
      cfg.victim.l2_block_size = m.hierarchy.l2.block_size;
      return std::make_unique<hw::CompositeScheme>(cfg, inst);
    }
  }
  return nullptr;
}

}  // namespace selcache::core
