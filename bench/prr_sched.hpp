// PRR-scheduler contention sweep (DESIGN.md §15): two low-priority owners
// saturate the large FFT regions while a high-priority latecomer arrives
// every round, so each iteration exercises the full preempt → park →
// resume-from-saved-registers cycle plus the bitstream cache on the hot
// task set. The same script runs under three manager configurations:
//
//   legacy       default-off SchedConfig: priority-blind reclaim, no queue,
//                no cache (the bit-identical baseline);
//   sched        priorities + admission queue, cache off — every reconfig
//                streams the full bitstream;
//   sched_cache  priorities + queue + 4-entry LRU cache with prefetch — the
//                hot set fits, so steady-state reconfigs are header-only.
//
// Simulated quantities (grant/preempt/cache counters, the request-to-ready
// latency in simulated µs) are deterministic and diffable; host seconds are
// machine-dependent and reported alongside (harness.hpp convention).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "hwmgr/manager.hpp"
#include "hwtask/library.hpp"
#include "nova/kernel.hpp"

namespace minova::bench {

/// Minimal guest for the scheduler sweep: every request goes through the
/// real hypercall gate, so the guest itself only needs to exist as a
/// protection domain (it never runs).
class PrrSchedGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "prrsched"; }
  void boot(nova::GuestContext&) override {}
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override {
    ctx.spend_insns(budget / 2 + 1);
    return nova::StepExit::kBudget;
  }
  void on_virq(nova::GuestContext&, u32) override {}
};

struct PrrSchedPoint {
  std::string name;
  u32 iterations = 0;
  hwmgr::ManagerStats stats;
  // Simulated: deterministic across hosts.
  double hit_rate = 0;       // cache_hits / (hits + misses), 0 when cache off
  double avg_grant_us = 0;   // high-priority request -> region Ready
  // Host-side: machine-dependent.
  double host_seconds = 0;
};

/// Run `iterations` contention rounds under `cfg` and report the manager
/// counters plus the average high-priority request-to-ready latency.
inline PrrSchedPoint measure_prr_sched(const std::string& name,
                                       const hwmgr::SchedConfig& cfg,
                                       u32 iterations) {
  Platform platform;
  nova::Kernel kernel(platform);
  hwmgr::ManagerService manager(kernel);
  manager.install(/*priority=*/6);
  manager.set_sched_config(cfg);

  auto& low0 = kernel.create_vm("low0", 1, std::make_unique<PrrSchedGuest>());
  auto& low1 = kernel.create_vm("low1", 1, std::make_unique<PrrSchedGuest>());
  auto& high = kernel.create_vm("high", 3, std::make_unique<PrrSchedGuest>());
  kernel.run_for_us(200);

  const auto hypercall = [&](nova::ProtectionDomain& pd, nova::Hypercall hc,
                             u32 r0, u32 r1 = 0, u32 r2 = 0) {
    nova::GuestContext ctx(kernel, pd, platform.cpu());
    return ctx.hypercall(hc, r0, r1, r2);
  };
  const auto request = [&](nova::ProtectionDomain& pd, hwtask::TaskId task) {
    return hypercall(pd, nova::Hypercall::kHwTaskRequest, task,
                     nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  };
  const auto release = [&](nova::ProtectionDomain& pd, hwtask::TaskId task) {
    return hypercall(pd, nova::Hypercall::kHwTaskRelease, task);
  };
  const auto poll = [&](nova::ProtectionDomain& pd) {
    return hypercall(pd, nova::Hypercall::kHwTaskQuery,
                     nova::kHwQueryReconfig).r1;
  };
  const auto drain = [&](double ms = 30.0) {
    const cycles_t end =
        platform.clock().now() + platform.clock().ms_to_cycles(ms);
    cycles_t dl;
    while (platform.events().next_deadline(dl) && dl < end) {
      platform.clock().advance_to(dl);
      platform.pump();
    }
  };

  // Hot task set: three FFT bitstreams cycling through the two large
  // regions. With a 4-entry cache the set fits; without one, every round
  // streams full images.
  const hwtask::TaskId kLowA = hwtask::TaskLibrary::kFft256;
  const hwtask::TaskId kLowB = hwtask::TaskLibrary::kFft512;
  const hwtask::TaskId kHighC = hwtask::TaskLibrary::kFft1024;

  PrrSchedPoint p;
  p.name = name;
  p.iterations = iterations;

  u64 latency_cycles = 0;
  const double t0 = detail::now_s();
  for (u32 it = 0; it < iterations; ++it) {
    // Both large regions saturated by the low-priority owners.
    request(low0, kLowA);
    drain();
    request(low1, kLowB);
    drain();

    // High-priority latecomer: with priorities on this preempts the PRR0
    // owner through the §IV.C save path; legacy reclaims it blindly.
    // Latency is measured event-by-event from the hypercall to the first
    // Ready poll — simulated time, so it is host-independent.
    const cycles_t req_at = platform.clock().now();
    request(high, kHighC);
    cycles_t dl;
    while (poll(high) != nova::kReconfigReady &&
           platform.events().next_deadline(dl)) {
      platform.clock().advance_to(dl);
      platform.pump();
    }
    latency_cycles += platform.clock().now() - req_at;
    drain();

    // Freeing the region hands it back to the parked victim (resume path);
    // legacy has no parked victim, so the release is just a release.
    release(high, kHighC);
    drain();

    release(low0, kLowA);  // no-op under legacy (the reclaim evicted it)
    release(low1, kLowB);
    drain();
  }
  p.host_seconds = detail::now_s() - t0;

  p.stats = manager.stats();
  const u64 looked_up = p.stats.cache_hits + p.stats.cache_misses;
  if (looked_up > 0)
    p.hit_rate = double(p.stats.cache_hits) / double(looked_up);
  if (iterations > 0)
    p.avg_grant_us =
        platform.clock().cycles_to_us(latency_cycles) / double(iterations);
  return p;
}

/// The three standard sweep configurations (see file header).
inline std::vector<PrrSchedPoint> run_prr_sched_sweep(u32 iterations) {
  std::vector<PrrSchedPoint> out;
  out.push_back(measure_prr_sched("legacy", hwmgr::SchedConfig{}, iterations));

  hwmgr::SchedConfig sched;
  sched.priorities = true;
  sched.queue_depth = 8;
  out.push_back(measure_prr_sched("sched", sched, iterations));

  hwmgr::SchedConfig cached = sched;
  cached.cache_capacity = 4;
  cached.prefetch = true;
  out.push_back(measure_prr_sched("sched_cache", cached, iterations));
  return out;
}

}  // namespace minova::bench
