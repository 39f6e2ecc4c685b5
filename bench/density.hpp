// VM-density harness (density tentpole): N compute-bound VMs under lazy
// boot and a tiny quantum, measuring the per-switch cost as the population
// grows 8 -> 1024. The kernel's claim is O(1): slab pools, ASID-generation
// recycling and count-gated run-loop scans keep the switch latency flat no
// matter how many VMs exist.
//
// Simulated quantities (cycles per switch, heap bytes per VM, ASID
// generation) are deterministic and diffable; host ns/switch is
// machine-dependent and reported alongside (harness.hpp convention).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nova/kernel.hpp"

namespace minova::bench {

/// "d17"-style VM names without std::string concatenation (GCC 12's
/// -Wrestrict false-fires on operator+ with a literal at -O2).
inline std::string vm_name(const char* prefix, u32 i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%u", prefix, i);
  return buf;
}

/// Pure compute guest: burns its budget, never touches guest memory (a VM
/// beyond the physical slab window must stay memoryless), never halts.
class DensityGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "density"; }
  void boot(nova::GuestContext&) override {}
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override {
    ctx.spend_insns(budget / 2 + 1);
    return nova::StepExit::kBudget;
  }
  void on_virq(nova::GuestContext&, u32) override {}
};

struct DensityPoint {
  u32 vms = 0;
  u64 switches = 0;
  // Simulated: deterministic across hosts.
  double sim_cycles_per_switch = 0;
  double heap_bytes_per_vm = 0;
  u32 asid_generation = 0;
  // Host-side: machine-dependent.
  double host_ns_per_switch = 0;
};

inline const std::vector<u32>& density_sweep() {
  static const std::vector<u32> kSweep = {8, 16, 32, 64, 128, 256, 512, 1024};
  return kSweep;
}

/// Run `vms` VMs for one warm-up rotation plus `rotations` measured ones
/// and report the per-switch averages.
inline DensityPoint measure_density(u32 vms, u32 rotations = 2) {
  Platform platform;
  nova::KernelConfig kcfg;
  kcfg.lazy_vm_boot = true;   // creation must be O(1) and slab-unbounded
  kcfg.quantum_ms = 0.05;     // rotate fast: every tick expires a quantum
  kcfg.tick_period_us = 50;
  nova::Kernel kernel(platform, kcfg);

  const u32 heap_before = kernel.heap().bytes_live();
  for (u32 i = 0; i < vms; ++i)
    kernel.create_vm(vm_name("d", i), 1, std::make_unique<DensityGuest>());
  const u32 heap_after = kernel.heap().bytes_live();

  const double rotation_us = double(vms) * kcfg.quantum_ms * 1000.0;
  kernel.run_for_us(rotation_us);  // warm up: caches, first dispatches

  const u64 sw0 = kernel.vm_switch_count();
  const u64 cy0 = kernel.vm_switch_cycles_total();
  const double t0 = detail::now_s();
  kernel.run_for_us(rotation_us * rotations);
  const double host_s = detail::now_s() - t0;

  DensityPoint p;
  p.vms = vms;
  p.switches = kernel.vm_switch_count() - sw0;
  if (p.switches > 0) {
    p.sim_cycles_per_switch =
        double(kernel.vm_switch_cycles_total() - cy0) / double(p.switches);
    p.host_ns_per_switch = host_s * 1e9 / double(p.switches);
  }
  p.heap_bytes_per_vm = double(heap_after - heap_before) / double(vms);
  p.asid_generation = kernel.asid_generation();
  return p;
}

struct ChurnResult {
  u32 vms = 0;
  u32 cycles = 0;
  bool heap_flat = true;  // live bytes/blocks + high-water equal each cycle
  u64 vms_destroyed = 0;
  u32 asid_generation = 0;
};

/// Create/destroy `vms` VMs `cycles` times; after the first cycle primes
/// the pools, every later cycle must leave the kernel heap byte-identical.
inline ChurnResult run_churn(u32 vms, u32 cycles) {
  Platform platform;
  nova::KernelConfig kcfg;
  kcfg.lazy_vm_boot = true;
  kcfg.quantum_ms = 0.05;
  kcfg.tick_period_us = 50;
  nova::Kernel kernel(platform, kcfg);

  ChurnResult r;
  r.vms = vms;
  r.cycles = cycles;
  u32 base_live = 0, base_blocks = 0, base_high = 0, base_ctrl = 0;
  for (u32 c = 0; c < cycles; ++c) {
    std::vector<nova::PdId> ids;
    ids.reserve(vms);
    for (u32 i = 0; i < vms; ++i)
      ids.push_back(
          kernel.create_vm(vm_name("c", i), 1, std::make_unique<DensityGuest>())
              .id());
    kernel.run_for_us(500.0);  // let a handful of them actually dispatch
    for (nova::PdId id : ids) kernel.destroy_vm(id);

    const auto& heap = kernel.heap();
    if (c == 0) {
      base_live = heap.bytes_live();
      base_blocks = heap.live_blocks();
      base_high = heap.high_water();
      base_ctrl = heap.ctrl_high_water();
    } else if (heap.bytes_live() != base_live ||
               heap.live_blocks() != base_blocks ||
               heap.high_water() != base_high ||
               heap.ctrl_high_water() != base_ctrl) {
      r.heap_flat = false;
    }
  }
  r.vms_destroyed = kernel.vms_destroyed();
  r.asid_generation = kernel.asid_generation();
  return r;
}

}  // namespace minova::bench
