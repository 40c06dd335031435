#include "hw/victim_scheme.h"

#include "support/check.h"
#include "trace/recorder.h"

namespace selcache::hw {

using memsys::FillDecision;
using memsys::Level;

VictimScheme::VictimScheme(VictimSchemeConfig cfg,
                           memsys::Instrumentation inst)
    : cfg_(cfg),
      l1v_("victim_l1", cfg.l1_entries, cfg.l1_block_size,
           fault::BufferSite::L1Victim, inst),
      l2v_("victim_l2", cfg.l2_entries, cfg.l2_block_size,
           fault::BufferSite::L2Victim, inst),
      trace_(inst.trace) {}

void VictimScheme::on_access(Level /*level*/, Addr /*addr*/, bool /*is_write*/,
                             bool /*hit*/) {
  // Victim caching keeps no access-frequency state.
}

std::optional<memsys::HwScheme::AuxHit> VictimScheme::service_miss(
    Level level, Addr addr, bool /*is_write*/) {
  memsys::VictimCache& vc = (level == Level::L1D) ? l1v_ : l2v_;
  if (level != Level::L1D && level != Level::L2) return std::nullopt;
  if (auto dirty = vc.extract(addr)) {
    // Classic swap: the block is promoted back into the main cache, and the
    // hierarchy will hand us the displaced block via on_eviction.
    if (trace_ != nullptr)
      trace_->event({.kind = trace::EventKind::VictimPromotion,
                     .addr = addr,
                     .level = static_cast<std::uint8_t>(level)});
    return AuxHit{.extra_latency = cfg_.swap_latency,
                  .promote = true,
                  .dirty = *dirty};
  }
  return std::nullopt;
}

FillDecision VictimScheme::fill_decision(Level /*level*/, Addr /*addr*/,
                                         std::optional<Addr> /*victim*/) {
  return FillDecision::Fill;  // victim caching never bypasses
}

void VictimScheme::on_bypassed(Level /*level*/, Addr /*addr*/,
                               bool /*is_write*/) {
  SELCACHE_CHECK_MSG(false, "victim scheme never bypasses");
}

void VictimScheme::on_eviction(Level level, Addr block_addr, bool dirty) {
  if (level == Level::L1D) {
    l1v_.insert(block_addr, dirty);
  } else if (level == Level::L2) {
    l2v_.insert(block_addr, dirty);
  }
}

std::uint32_t VictimScheme::fetch_width(Level /*level*/, Addr /*addr*/) {
  return 1;
}

void VictimScheme::export_stats(StatSet& out) const {
  l1v_.export_stats(out);
  l2v_.export_stats(out);
}

}  // namespace selcache::hw
