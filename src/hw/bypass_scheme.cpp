#include "hw/bypass_scheme.h"

#include "support/check.h"
#include "trace/recorder.h"

namespace selcache::hw {

using memsys::FillDecision;
using memsys::Level;

BypassScheme::BypassScheme(BypassSchemeConfig cfg,
                           memsys::Instrumentation inst)
    : cfg_(cfg),
      mat_(cfg.mat, inst),
      sldt_(cfg.sldt, inst),
      buffer_(cfg.buffer_entries, cfg.buffer_block_size, inst),
      trace_(inst.trace) {}

void BypassScheme::on_access(Level level, Addr addr, bool /*is_write*/,
                             bool /*hit*/) {
  if (level != Level::L1D) return;
  mat_.touch(addr);
  sldt_.note(addr);
}

std::optional<memsys::HwScheme::AuxHit> BypassScheme::service_miss(
    Level level, Addr addr, bool is_write) {
  if (level != Level::L1D) return std::nullopt;
  if (!buffer_.access(addr, is_write)) return std::nullopt;
  // Served out of the bypass buffer: no promotion into L1 — that is the
  // whole point of bypassing (keep the low-frequency data out of the cache).
  return AuxHit{.extra_latency = cfg_.buffer_hit_extra,
                .promote = false,
                .dirty = false};
}

FillDecision BypassScheme::fill_decision(Level level, Addr addr,
                                         std::optional<Addr> victim) {
  if (level != Level::L1D) return FillDecision::Fill;
  if (!victim.has_value()) return FillDecision::Fill;  // free way: no conflict
  const double incoming = static_cast<double>(mat_.frequency(addr));
  const double resident = static_cast<double>(mat_.frequency(*victim));
  if (resident >= static_cast<double>(cfg_.min_victim_freq) &&
      resident >= incoming * cfg_.bypass_bias) {
    ++bypasses_;
    if (trace_ != nullptr)
      trace_->event({.kind = trace::EventKind::BypassDecision,
                     .addr = addr,
                     .level = static_cast<std::uint8_t>(level)});
    return FillDecision::Bypass;
  }
  return FillDecision::Fill;
}

void BypassScheme::on_bypassed(Level level, Addr addr, bool is_write) {
  SELCACHE_CHECK(level == Level::L1D);
  buffer_.insert(addr, is_write);
}

void BypassScheme::on_eviction(Level level, Addr block_addr,
                               bool /*dirty*/) {
  // Losing a replacement costs MAT standing (after [8]).
  if (cfg_.punish_on_eviction && level == Level::L1D)
    mat_.punish(block_addr);
}

std::uint32_t BypassScheme::fetch_width(Level level, Addr addr) {
  if (level != Level::L1D) return 1;
  if (sldt_.spatial(addr)) {
    ++widened_;
    return 2;
  }
  return 1;
}

void BypassScheme::export_stats(StatSet& out) const {
  mat_.export_stats(out);
  sldt_.export_stats(out);
  buffer_.export_stats(out);
  out.add("bypass.bypasses", bypasses_);
  out.add("bypass.widened_fetches", widened_);
}

}  // namespace selcache::hw
