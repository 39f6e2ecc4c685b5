// SMP scaling points for run_all's "smp" JSON section: the
// Table III 4-guest configuration re-run with the kernel sliced across
// 1..8 simulated cores. The cores=1 point must be bit-identical to the
// plain Table III 4-guest row — that is the SMP refactor's regression
// gate, asserted by bench/check_table3.py.
#pragma once

#include "harness.hpp"

namespace minova::bench {

struct SmpPoint {
  u32 cores = 1;
  Measurement m;
  // SMP protocol volume (simulated, deterministic).
  u64 ipis_sent = 0;
  u64 steals = 0;
  u64 shootdowns_sent = 0;
  u64 shootdown_acks = 0;
  u64 cross_core_irqs = 0;
  u64 vm_switches = 0;
};

inline SmpPoint run_smp_point(u32 cores, double sim_ms, u64 seed = 42) {
  ucos::SystemConfig cfg;
  cfg.kernel.num_cores = cores;
  cfg.num_guests = 4;
  cfg.seed = seed;
  ucos::VirtualizedSystem sys(cfg);
  detail::HostTimer timer;
  sys.run_for_us(sim_ms * 1000.0);
  SmpPoint p;
  p.cores = cores;
  p.m.host_seconds = timer.elapsed_s();
  p.m.sim_us = sim_ms * 1000.0;
  auto& lat = sys.kernel().hwmgr_latencies();
  if (lat.entry_us.count() > 0) {
    p.m.entry = lat.entry_us.mean();
    p.m.exit = lat.exit_us.mean();
    p.m.exec = lat.exec_us.mean();
    p.m.total = lat.total_us.mean();
    p.m.samples = lat.entry_us.count();
  }
  if (lat.pl_irq_entry_us.count() > 0)
    p.m.irq_entry = lat.pl_irq_entry_us.mean();
  auto& stats = sys.kernel().platform().stats();
  p.m.hypercalls = stats.counter("kernel.trap.hypercall");
  p.m.irq_traps = stats.counter("kernel.trap.irq");
  detail::collect_memory_rates(p.m, sys.kernel().platform().cpu());
  p.ipis_sent = stats.counter("kernel.ipi.sent");
  p.steals = stats.counter("kernel.smp.steals");
  p.shootdowns_sent = sys.kernel().shootdowns_sent();
  p.shootdown_acks = stats.counter("kernel.smp.shootdown_acks");
  p.cross_core_irqs = stats.counter("kernel.irq.cross_core");
  p.vm_switches = sys.kernel().vm_switch_count();
  return p;
}

}  // namespace minova::bench
