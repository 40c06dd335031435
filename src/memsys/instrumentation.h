// The one attachment point for everything that observes a simulation.
//
// A phase-trace recorder, a fault injector, an L1D access probe and a
// run-supervision guard are all optional, non-owning and fixed when the
// machine is built: Hierarchy, Controller and core::make_scheme take one
// Instrumentation as their last constructor argument and hand it down to
// the components that report to it (MAT, SLDT, bypass buffer, victim
// caches). A default-constructed bundle attaches nothing, and an
// uninstrumented machine runs the unobserved access path.
#pragma once

#include "support/types.h"

namespace selcache::trace {
class Recorder;
}

namespace selcache::fault {
class Injector;
}

namespace selcache::support {
class RunGuard;
}

namespace selcache::memsys {

/// Per-access observer of the L1D data path (loads/stores only), invoked
/// after the tag check with the demand address and hit/miss outcome. Used by
/// the static-locality measurement harness to attribute misses to data
/// entities.
class DataAccessProbe {
 public:
  virtual ~DataAccessProbe() = default;
  virtual void on_l1d_access(Addr addr, bool is_write, bool hit) = 0;
};

struct Instrumentation {
  /// Phase-trace recorder: the hierarchy drives its epoch clock (one tick
  /// per completed demand access); schemes and the controller report
  /// discrete events (toggles, decays, bypasses, promotions, demotions).
  trace::Recorder* trace = nullptr;
  /// Fault injector: one watchdog / crash callback per demand access, and
  /// corruption opportunities in MAT/SLDT counters, the bypass buffer, the
  /// victim caches and marker delivery.
  fault::Injector* fault = nullptr;
  /// L1D access probe (see DataAccessProbe).
  DataAccessProbe* probe = nullptr;
  /// Run-supervision guard, polled once per demand access before any state
  /// changes. It may throw support::RunSuspended or
  /// support::CellDeadlineExceeded, but exports no stats, so attaching it
  /// leaves the simulation's results bit-identical.
  support::RunGuard* guard = nullptr;

  /// Is anything attached?
  bool any() const {
    return trace != nullptr || fault != nullptr || probe != nullptr ||
           guard != nullptr;
  }
};

}  // namespace selcache::memsys
