// The simulated versions of §4.3 and the code products of §4.4.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/machine_config.h"
#include "hw/controller.h"
#include "ir/program.h"
#include "transform/pipeline.h"

namespace selcache::core {

enum class Version {
  Base,          ///< base code, hardware off (the 100% reference)
  PureHardware,  ///< base code, hardware always on
  PureSoftware,  ///< optimized code, hardware off
  Combined,      ///< optimized code, hardware always on
  Selective      ///< optimized code + ON/OFF markers (this paper)
};

inline const char* to_string(Version v) {
  switch (v) {
    case Version::Base: return "Base";
    case Version::PureHardware: return "Pure Hardware";
    case Version::PureSoftware: return "Pure Software";
    case Version::Combined: return "Combined";
    case Version::Selective: return "Selective";
  }
  return "?";
}

/// The four versions Figures 4-9 compare against Base, in plot order.
inline const Version kEvaluatedVersions[] = {
    Version::PureHardware, Version::PureSoftware, Version::Combined,
    Version::Selective};

/// Base plus the four evaluated versions, in simulation order — the product
/// set the runner simulates and the static verifier sweeps.
inline constexpr std::array<Version, 5> kAllVersions = {
    Version::Base, Version::PureHardware, Version::PureSoftware,
    Version::Combined, Version::Selective};

/// Derive the code product a version runs from the base program (§4.4).
/// Base/PureHardware: base code. PureSoftware/Combined: optimized code.
/// Selective: optimized code + markers.
ir::Program prepare_program(const ir::Program& base_program, Version v,
                            const transform::OptimizeOptions& opt);

/// Does this version force the hardware scheme on for the whole run?
inline bool hw_always_on(Version v) {
  return v == Version::PureHardware || v == Version::Combined;
}

/// Build the hardware scheme for a machine (geometry-matched buffers),
/// reporting to `inst` (see memsys::Instrumentation).
std::unique_ptr<memsys::HwScheme> make_scheme(
    hw::SchemeKind kind, const MachineConfig& m,
    memsys::Instrumentation inst = {});

}  // namespace selcache::core
