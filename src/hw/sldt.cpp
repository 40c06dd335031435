#include "hw/sldt.h"

#include "fault/injector.h"
#include "support/check.h"

namespace selcache::hw {

Sldt::Sldt(SldtConfig cfg, memsys::Instrumentation inst)
    : cfg_(cfg), fault_(inst.fault) {
  SELCACHE_CHECK(cfg_.entries > 0);
  SELCACHE_CHECK(cfg_.block_size > 0);
  SELCACHE_CHECK(cfg_.counter_entries > 0);
  block_pow2_ = is_pow2(cfg_.block_size);
  if (block_pow2_) block_shift_ = log2_exact(cfg_.block_size);
  macro_pow2_ = is_pow2(cfg_.macro_block_size);
  if (macro_pow2_) macro_shift_ = log2_exact(cfg_.macro_block_size);
  window_pow2_ = is_pow2(cfg_.entries);
  if (window_pow2_) window_mask_ = cfg_.entries - 1;
  counters_pow2_ = is_pow2(cfg_.counter_entries);
  if (counters_pow2_) counter_mask_ = cfg_.counter_entries - 1;
  window_.resize(cfg_.entries);
  counters_.assign(cfg_.counter_entries,
                   SaturatingCounter<std::uint32_t>(cfg_.counter_max,
                                                    cfg_.counter_initial));
}

void Sldt::note_fault(SaturatingCounter<std::uint32_t>& ctr) {
  if (auto raw = fault_->corrupt_counter(ctr.value(), cfg_.counter_max,
                                         fault::CounterSite::Sldt))
    ctr.corrupt(*raw);
}

bool Sldt::check_integrity() const {
  for (const auto& ctr : counters_)
    if (ctr.value() > cfg_.counter_max) return false;
  return true;
}

void Sldt::export_stats(StatSet& out) const {
  out.add("sldt.spatial_hits", spatial_hits_);
  out.add("sldt.spatial_misses", spatial_misses_);
}

}  // namespace selcache::hw
