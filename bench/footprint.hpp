// Kernel footprint (§V.B): the paper reports 25 hypercalls, 5,363 LoC of
// kernel+services compiling to ~40 KB of ELF, and a 20 MB runtime
// footprint. run_all's `footprint` section reports the model's analogues:
// the hypercall count, the kernel text laid out at boot, the physical
// reservation per subsystem, and what one more VM costs in kernel heap and
// page-table pool bytes (eager vs lazy boot). Every value is simulated and
// deterministic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "density.hpp"
#include "ucos/system.hpp"

namespace minova::bench {

struct PerVmCost {
  std::string config;
  u32 heap_bytes = 0;  // vCPU save area + vGIC list + IVC-free objects
  u32 pt_bytes = 0;    // L1 + L2 tables
};

struct Footprint {
  u32 hypercalls = 0;
  u32 kernel_text_bytes = 0;   // laid out at boot
  u32 kernel_heap_bytes = 0;   // after boot + settle, 4 guests
  u32 reservation_bytes = 0;   // text + heap + bitstreams + manager
  u64 resident_kib = 0;        // DRAM frames touched, 4 guests
  std::vector<PerVmCost> per_vm;  // eager, lazy, lazy after first touch
};

/// Marginal cost of the (n+1)-th VM: difference of live accounting around
/// one create_vm. `materialize` forces a lazy VM's first touch first.
inline PerVmCost marginal_vm_cost(const char* config, bool lazy,
                                  bool materialize) {
  Platform platform;
  nova::KernelConfig kcfg;
  kcfg.lazy_vm_boot = lazy;
  nova::Kernel kernel(platform, kcfg);
  kernel.create_vm("base", 1, std::make_unique<DensityGuest>());
  const u32 heap0 = kernel.heap().bytes_live();
  const u32 pt0 = kernel.pt_pool().bytes_live();
  auto& pd = kernel.create_vm("probe", 1, std::make_unique<DensityGuest>());
  if (materialize) kernel.ensure_space(pd);
  return {config, kernel.heap().bytes_live() - heap0,
          kernel.pt_pool().bytes_live() - pt0};
}

inline Footprint measure_footprint() {
  ucos::SystemConfig cfg;
  cfg.num_guests = 4;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(50'000);  // boot + settle
  Footprint f;
  f.hypercalls = nova::kNumHypercalls;
  f.kernel_text_bytes = sys.kernel().text_bytes();
  f.kernel_heap_bytes = sys.kernel().heap().bytes_used();
  f.reservation_bytes = nova::kKernelTextSize + nova::kKernelHeapSize +
                        nova::kBitstreamSize + nova::kManagerSize;
  f.resident_kib = u64(sys.platform().dram().resident_frames()) * 4;
  f.per_vm = {marginal_vm_cost("eager", false, false),
              marginal_vm_cost("lazy", true, false),
              marginal_vm_cost("lazy_touched", true, true)};
  return f;
}

}  // namespace minova::bench
