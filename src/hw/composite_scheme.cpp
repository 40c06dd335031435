#include "hw/composite_scheme.h"

namespace selcache::hw {

using memsys::FillDecision;
using memsys::Level;

CompositeScheme::CompositeScheme(CompositeSchemeConfig cfg,
                                 memsys::Instrumentation inst)
    : bypass_(cfg.bypass, inst), victim_(cfg.victim, inst) {
  // The sub-schemes are always consulted through the composite, which is
  // gated by the controller; keep them permanently active internally.
  bypass_.set_active(true);
  victim_.set_active(true);
}

void CompositeScheme::on_access(Level level, Addr addr, bool is_write,
                                bool hit) {
  bypass_.on_access(level, addr, is_write, hit);
  victim_.on_access(level, addr, is_write, hit);
}

std::optional<memsys::HwScheme::AuxHit> CompositeScheme::service_miss(
    Level level, Addr addr, bool is_write) {
  // The bypass buffer is closest to the core; the victim cache backs it.
  if (auto aux = bypass_.service_miss(level, addr, is_write)) return aux;
  return victim_.service_miss(level, addr, is_write);
}

FillDecision CompositeScheme::fill_decision(Level level, Addr addr,
                                            std::optional<Addr> victim) {
  return bypass_.fill_decision(level, addr, victim);
}

void CompositeScheme::on_bypassed(Level level, Addr addr, bool is_write) {
  bypass_.on_bypassed(level, addr, is_write);
}

void CompositeScheme::on_eviction(Level level, Addr block_addr, bool dirty) {
  victim_.on_eviction(level, block_addr, dirty);
}

std::uint32_t CompositeScheme::fetch_width(Level level, Addr addr) {
  return std::max(bypass_.fetch_width(level, addr),
                  victim_.fetch_width(level, addr));
}

void CompositeScheme::export_stats(StatSet& out) const {
  bypass_.export_stats(out);
  victim_.export_stats(out);
}

}  // namespace selcache::hw
