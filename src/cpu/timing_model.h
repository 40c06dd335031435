// Interval-style out-of-order timing model — the stand-in for SimpleScalar's
// sim-outorder.
//
// The model charges cycles from three sources:
//   1. issue bandwidth: every instruction consumes one of `issue_width`
//      slots per cycle;
//   2. branch mispredictions: a fixed redirect penalty per miss of the
//      bimodal predictor;
//   3. exposed memory latency: each data access pays its hierarchy latency
//      beyond the pipelined L1 hit time, with bounded overlap.
//
// Overlap (memory-level parallelism) follows an interval model: while a miss
// is outstanding ("shadow"), further *independent* misses overlap with it —
// up to `memory_ports` in flight — and only extend the shadow instead of
// stalling; the first miss of a shadow is partially hidden by the RUU window
// (the out-of-order core keeps issuing ~RUU/width cycles of work under it).
// *Dependent* accesses (pointer chasing — the load's address comes from the
// previous load) serialize fully, which is what gives irregular codes their
// low MLP. This reproduces the first-order behavior the paper's results
// depend on: miss counts translate to cycles, streams get MLP, chains don't.
#pragma once

#include <algorithm>

#include "cpu/branch_predictor.h"
#include "hw/controller.h"
#include "memsys/hierarchy.h"
#include "support/bitutil.h"

namespace selcache::cpu {

struct CpuConfig {
  std::uint32_t issue_width = 4;
  std::uint32_t ruu_entries = 64;
  std::uint32_t lsq_entries = 32;
  std::uint32_t memory_ports = 2;
  std::uint32_t bimodal_entries = 2048;
  Cycle mispredict_penalty = 3;
  /// Bandwidth floor: even a fully overlapped miss occupies the L1-L2 path
  /// for this long. Bounds the MLP a miss stream can extract — without it,
  /// pathological miss inflation (e.g. rampant bypassing) would be free.
  Cycle overlap_bandwidth_cycles = 2;
  Cycle toggle_latency = 1;  ///< extra decode cycle for an ON/OFF instruction
  bool model_ifetch = true;  ///< simulate the instruction-fetch stream
};

class TimingModel {
 public:
  TimingModel(CpuConfig cfg, memsys::Hierarchy& hierarchy,
              hw::Controller& controller);

  // The six entry points are defined inline: every simulated instruction
  // passes through exactly one of them, and together with the inline
  // hierarchy hit path this keeps the whole hit-case event in one call
  // frame — the throughput floor of both the IR interpreter and the
  // trace-tape replay loop.

  /// `n` plain ALU instructions.
  void compute(std::uint64_t n) {
    retire_slots(n);
  }

  /// One load instruction. `dependent` marks address-dependent loads
  /// (pointer chasing) that cannot overlap with outstanding misses.
  void load(Addr addr, bool dependent = false) {
    retire_slots(1);
    controller_.tick();
    const Cycle lat = hierarchy_.access(addr, memsys::AccessKind::Load);
    charge_memory(lat, hierarchy_.config().l1d.latency, dependent);
  }

  /// One store instruction (write-allocate; retires through the LSQ).
  void store(Addr addr) {
    retire_slots(1);
    controller_.tick();
    const Cycle lat = hierarchy_.access(addr, memsys::AccessKind::Store);
    // Stores retire through the store queue; they only expose latency when
    // the LSQ would back up. Approximate by halving the exposed latency.
    const Cycle l1 = hierarchy_.config().l1d.latency;
    const Cycle extra = lat > l1 ? (lat - l1) / 2 : 0;
    charge_memory(l1 + extra, l1, /*dependent=*/false);
  }

  /// One conditional branch at `pc` with actual outcome `taken`.
  void branch(Addr pc, bool taken) {
    retire_slots(1);
    if (!bpred_.predict_and_train(pc, taken))
      branch_stall_ += cfg_.mispredict_penalty;
  }

  /// One activate/deactivate instruction: flips the controller and pays the
  /// documented overhead (§4.1: "the performance overhead of ON/OFF
  /// instructions have also been taken into account"). `region` is the
  /// static source-region id the marker belongs to (-1 = unattributed).
  void toggle(bool on, std::int32_t region = -1) {
    retire_slots(1);
    toggle_stall_ += cfg_.toggle_latency;
    controller_.toggle(on, region);
  }

  /// Fetch the code block(s) for `n_instr` instructions located at `pc`.
  void touch_code(Addr pc, std::uint32_t n_instr) {
    if (!cfg_.model_ifetch) return;
    // 4 bytes per instruction; touch each I-cache block the group spans.
    // Block size is validated power-of-two, so the span bounds are shifts.
    const std::uint32_t bytes = n_instr * 4;
    const std::uint32_t bs = hierarchy_.config().l1i.block_size;
    const Addr first = (pc >> l1i_shift_) << l1i_shift_;
    const Addr end = pc + (bytes > 0 ? bytes - 1 : 0);
    const Addr last = (end >> l1i_shift_) << l1i_shift_;
    for (Addr a = first; a <= last; a += bs) {
      const Cycle lat = hierarchy_.access(a, memsys::AccessKind::IFetch);
      const Cycle l1 = hierarchy_.config().l1i.latency;
      // Frontend stalls are partly absorbed by the fetch queue.
      if (lat > l1) mem_stall_ += (lat - l1) / 2;
    }
  }

  Cycle cycles() const {
    const Cycle issue = (slots_ + cfg_.issue_width - 1) / cfg_.issue_width;
    return issue + mem_stall_ + branch_stall_ + toggle_stall_;
  }
  InstrCount instructions() const { return instructions_; }
  /// Cycles lost to exposed memory latency (diagnostic).
  Cycle memory_stall_cycles() const { return mem_stall_; }
  Cycle branch_penalty_cycles() const { return branch_stall_; }

  const BimodalPredictor& predictor() const { return bpred_; }
  const CpuConfig& config() const { return cfg_; }

  void export_stats(StatSet& out) const;

 private:
  /// Cycles the RUU window can hide under a fresh miss shadow.
  Cycle hide_window() const { return cfg_.ruu_entries / cfg_.issue_width; }

  void retire_slots(std::uint64_t n) {
    slots_ += n;
    instructions_ += n;
  }

  /// Charge an access whose total latency was `lat`; `pipelined_lat` is the
  /// portion absorbed by the pipeline (L1 hit time). Inline: the early
  /// return (fully pipelined hit) is the overwhelmingly common case.
  void charge_memory(Cycle lat, Cycle pipelined_lat, bool dependent) {
    const Cycle extra = lat > pipelined_lat ? lat - pipelined_lat : 0;
    if (extra == 0) return;
    charge_memory_slow(extra, dependent);
  }

  /// Miss accounting (interval/MLP model); out of line.
  void charge_memory_slow(Cycle extra, bool dependent);

  CpuConfig cfg_;
  unsigned l1i_shift_ = 0;  ///< log2(l1i block size); validated pow2
  memsys::Hierarchy& hierarchy_;
  hw::Controller& controller_;
  BimodalPredictor bpred_;

  std::uint64_t slots_ = 0;        ///< issued instruction slots
  Cycle mem_stall_ = 0;
  Cycle branch_stall_ = 0;
  Cycle toggle_stall_ = 0;
  InstrCount instructions_ = 0;

  Cycle shadow_end_ = 0;           ///< cycle when outstanding misses resolve
  std::uint32_t inflight_ = 0;     ///< misses overlapped in current shadow
  std::uint64_t overlapped_misses_ = 0;
  std::uint64_t serialized_misses_ = 0;
};

}  // namespace selcache::cpu
