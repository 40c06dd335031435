#include "hw/mat.h"

#include "fault/injector.h"
#include "support/check.h"
#include "trace/recorder.h"

namespace selcache::hw {

Mat::Mat(MatConfig cfg, memsys::Instrumentation inst)
    : cfg_(cfg), trace_(inst.trace), fault_(inst.fault) {
  SELCACHE_CHECK(cfg_.entries > 0);
  SELCACHE_CHECK(cfg_.macro_block_size > 0);
  mb_pow2_ = is_pow2(cfg_.macro_block_size);
  if (mb_pow2_) mb_shift_ = log2_exact(cfg_.macro_block_size);
  entries_pow2_ = is_pow2(cfg_.entries);
  if (entries_pow2_) entry_mask_ = cfg_.entries - 1;
  if (cfg_.decay_interval != 0 && is_pow2(cfg_.decay_interval))
    decay_mask_ = cfg_.decay_interval - 1;
  table_.resize(cfg_.entries);
  for (Entry& e : table_)
    e.count = SaturatingCounter<std::uint32_t>(cfg_.counter_max, 0);
}

void Mat::touch_fault(Entry& e) {
  if (auto raw = fault_->corrupt_counter(e.count.value(), cfg_.counter_max,
                                         fault::CounterSite::Mat))
    e.count.corrupt(*raw);
}

void Mat::decay_sweep() {
  ++decays_;
  for (Entry& t : table_) t.count.decay();
  if (trace_ != nullptr) trace_->event({.kind = trace::EventKind::MatDecay});
}

void Mat::punish(Addr addr, std::uint32_t by) {
  const Addr mb = macro_block(addr);
  Entry& e = table_[index_of(mb)];
  if (e.valid && e.tag == mb) e.count.decrement(by);
}

void Mat::clear() {
  for (Entry& e : table_) {
    e.valid = false;
    e.count.reset(0);
  }
  touches_ = 0;
}

bool Mat::check_integrity() const {
  for (std::uint32_t i = 0; i < table_.size(); ++i) {
    const Entry& e = table_[i];
    if (!e.valid) continue;
    if (e.count.value() > cfg_.counter_max) return false;
    if (index_of(e.tag) != i) return false;
  }
  return true;
}

void Mat::export_stats(StatSet& out) const {
  out.add("mat.touches", touches_);
  out.add("mat.replacements", replacements_);
  out.add("mat.decays", decays_);
}

}  // namespace selcache::hw
