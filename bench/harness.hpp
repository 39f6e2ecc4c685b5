// Shared measurement harness for run_all's table3, smp and ablations
// sections: runs the paper's Fig. 8 setup (native, or N paravirtualized
// guests, optionally reconfigured) and collects the hardware-task-management
// latencies plus the system counters the design-choice ablations compare.
//
// The harness is self-timing: every run records host wall-clock seconds
// alongside the simulated time, so each bench can report the simulation
// rate (simulated us per host second). Host timing never feeds back into
// the simulation — simulated numbers stay bit-identical regardless of how
// fast the host executes them (DESIGN.md §10).
#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "ucos/native.hpp"
#include "ucos/system.hpp"

namespace minova::bench {

struct Measurement {
  double entry = 0, exit = 0, irq_entry = 0, exec = 0, total = 0;
  std::size_t samples = 0;
  // Trap accounting (virtualized runs only): how many kernel entries the
  // latencies above amortize over. Native runs take no traps.
  u64 hypercalls = 0, irq_traps = 0;
  // Memory fast-path health: hit rates of each level the simulated access
  // path traverses (micro-TLB -> main TLB -> L1D -> L2), plus TLB
  // maintenance traffic. Simulated quantities — identical across hosts.
  double utlb_hit_rate = 0, tlb_hit_rate = 0;
  double l1d_hit_rate = 0, l2_hit_rate = 0;
  u64 tlb_va_flushes = 0;
  double tlb_miss_rate = 0, l1i_miss_rate = 0;
  u64 tlb_flushes = 0;  // full invalidations (every VM switch without ASIDs)
  // System counters (virtualized runs only). vfp_transfers counts VFP frame
  // saves and restores, lazy (on the UND trap) or eager (on every switch).
  u64 vm_switches = 0, vfp_transfers = 0, guest_ticks = 0;
  // T_hw client totals and the manager/PCAP traffic behind them.
  u64 requests = 0, grants = 0, busy = 0, jobs = 0;
  u64 grants_no_reconfig = 0, reclaims = 0, pcaps = 0;
  // SMP protocol volume (zero on one core).
  u64 ipis_sent = 0, steals = 0, shootdowns_sent = 0, shootdown_acks = 0;
  u64 cross_core_irqs = 0;
  // Host-side self-timing: wall-clock cost of this run and the resulting
  // simulation rate (simulated microseconds per host second).
  double host_seconds = 0;
  double sim_us = 0;
  double sim_us_per_host_s() const {
    return host_seconds > 0 ? sim_us / host_seconds : 0.0;
  }
};

namespace detail {

/// Monotonic host clock, in seconds: every bench section's stopwatch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void collect_memory_rates(Measurement& m, cpu::Core& core) {
  const auto& ts = core.tlb().stats();
  m.tlb_hit_rate = ts.hit_rate();
  m.tlb_miss_rate = ts.miss_rate();
  m.tlb_va_flushes = ts.va_flushes;
  m.tlb_flushes = ts.flushes;
  m.l1i_miss_rate = core.caches().l1i().stats().miss_rate();
  m.utlb_hit_rate = core.mmu().micro_stats().hit_rate();
  const auto& l1d = core.caches().l1d().stats();
  m.l1d_hit_rate = 1.0 - l1d.miss_rate();
  const auto& l2 = core.caches().l2().stats();
  m.l2_hit_rate = 1.0 - l2.miss_rate();
}

}  // namespace detail

inline Measurement run_native(double sim_ms, u64 seed,
                              ucos::NativeConfig cfg = {}) {
  Platform platform;
  cfg.seed = seed;
  ucos::NativeSystem sys(platform, cfg);
  const double t0 = detail::now_s();
  sys.run_for_us(sim_ms * 1000.0);
  Measurement m;
  m.host_seconds = detail::now_s() - t0;
  m.sim_us = sim_ms * 1000.0;
  auto& exec = sys.allocator().exec_us();
  if (exec.count() > 0) m.exec = exec.mean();
  m.total = m.exec;  // direct function call: no entry/exit/IRQ overhead
  m.samples = exec.count();
  detail::collect_memory_rates(m, platform.cpu());
  return m;
}

/// Runs `guests` paravirtualized guests for `sim_ms`. `cfg` selects the
/// kernel, platform and workload variant; `before_run` tunes the built
/// system (manager policy switches) before simulated time starts.
inline Measurement run_virtualized(
    u32 guests, double sim_ms, u64 seed, ucos::SystemConfig cfg = {},
    const std::function<void(ucos::VirtualizedSystem&)>& before_run = {}) {
  cfg.num_guests = guests;
  cfg.seed = seed;
  ucos::VirtualizedSystem sys(cfg);
  if (before_run) before_run(sys);
  const double t0 = detail::now_s();
  sys.run_for_us(sim_ms * 1000.0);
  Measurement m;
  m.host_seconds = detail::now_s() - t0;
  m.sim_us = sim_ms * 1000.0;
  auto& lat = sys.kernel().hwmgr_latencies();
  if (lat.entry_us.count() > 0) {
    m.entry = lat.entry_us.mean();
    m.exit = lat.exit_us.mean();
    m.exec = lat.exec_us.mean();
    m.total = lat.total_us.mean();
    m.samples = lat.entry_us.count();
  }
  if (lat.pl_irq_entry_us.count() > 0)
    m.irq_entry = lat.pl_irq_entry_us.mean();
  const auto& stats = sys.kernel().platform().stats();
  m.hypercalls = stats.counter_value("kernel.trap.hypercall");
  m.irq_traps = stats.counter_value("kernel.trap.irq");
  detail::collect_memory_rates(m, sys.kernel().platform().cpu());
  m.vm_switches = sys.kernel().vm_switch_count();
  m.vfp_transfers = stats.counter_value("kernel.vfp_frames");
  for (u32 g = 0; g < sys.num_guests(); ++g)
    m.guest_ticks += sys.guest(g).os().tick_count();
  const auto thw = sys.total_thw_stats();
  m.requests = thw.requests;
  m.grants = thw.grants;
  m.busy = thw.busy_retries;
  m.jobs = thw.jobs_completed;
  m.grants_no_reconfig = sys.manager().stats().grants_no_reconfig;
  m.reclaims = sys.manager().stats().reclaims;
  m.pcaps = sys.platform().pcap().transfers_completed();
  m.ipis_sent = stats.counter_value("kernel.ipi.sent");
  m.steals = stats.counter_value("kernel.smp.steals");
  m.shootdowns_sent = sys.kernel().shootdowns_sent();
  m.shootdown_acks = stats.counter_value("kernel.smp.shootdown_acks");
  m.cross_core_irqs = stats.counter_value("kernel.irq.cross_core");
  return m;
}

}  // namespace minova::bench
