// Sabotage — deliberate state corruption for the fuzzer's mutation checks.
//
// Every oracle of the InvariantSuite must be shown to fire: the fuzzer's
// --sabotage-* lanes break exactly the invariant one oracle guards and
// expect the run to fail on it. The corruptions reach into the kernel, the
// HW Task Manager and the supervisor through a `friend` declaration, the
// way KernelInspector reads them, so the production classes carry no test
// hooks. This file is linked only into the fuzz library.
#pragma once

#include "util/types.hpp"

namespace minova::nova {
class Kernel;
class ProtectionDomain;
class Supervisor;
}  // namespace minova::nova

namespace minova::hwmgr {
class ManagerService;
}  // namespace minova::hwmgr

namespace minova::fuzz {

// Each function applies one corruption kind; the kinds are listed on
// ScenarioOptions::sabotage_{smp,hw,sv}_kind (fuzz/scenario.hpp).
class Sabotage {
 public:
  static void smp(nova::Kernel& kernel, u32 kind);  // no-op below 2 cores
  static void hw(hwmgr::ManagerService& manager, u32 kind);
  static void sv(nova::Supervisor& sup, u32 kind);
  /// Overwrites the capability mask without rebuilding the portal table:
  /// the caps/portal inconsistency the portal-caps oracle must catch.
  static void caps(nova::ProtectionDomain& pd, u32 caps);
};

}  // namespace minova::fuzz
