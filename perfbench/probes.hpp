// Public-call probes for the traced run: host ns per call of one layer's
// entry point, on a stand-alone fixture whose access pattern forces one
// outcome class (a micro-TLB hit, a main-TLB hit, a walk; an L1 hit, an L2
// hit, a DRAM access; a GIC scan with 1 or 64 pending sources). Each probe
// checks through the layer's own statistics that every timed call really
// took the intended class and reports the fraction that did.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "irq/gic.hpp"
#include "ledger.hpp"
#include "mem/phys_mem.hpp"
#include "mmu/mmu.hpp"
#include "mmu/page_table.hpp"

namespace perfbench {

struct ProbeResult {
  std::string name;
  double ns_per_call = 0;
  double purity = 0;  // share of timed calls that took the intended class
};

namespace detail {

inline volatile minova::u64 g_probe_sink = 0;

/// Median over `reps` timed passes of `calls` calls each, ns per call.
inline double time_calls(minova::u64 calls, const std::function<void(minova::u64)>& fn,
                         int reps = 5) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const u64 t0 = host_ns();
    fn(calls);
    per_call.push_back(double(host_ns() - t0) / double(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

struct MmuFixture {
  static constexpr minova::vaddr_t kVa = 0x40'0000;
  static constexpr minova::paddr_t kPa = 0x80'0000;
  static constexpr minova::u32 kPages = 512;

  minova::mem::PhysMem ram{0, 16 * minova::kMiB};
  minova::cache::MemHierarchy hierarchy;
  minova::cache::Tlb tlb{128};
  minova::mmu::PageTableAllocator alloc{ram, 1 * minova::kMiB, 4 * minova::kMiB};
  minova::mmu::AddressSpace as{ram, alloc};
  minova::mmu::Mmu mmu{ram, hierarchy, tlb};

  MmuFixture() {
    for (minova::u32 p = 0; p < kPages; ++p)
      as.map_page(kVa + p * minova::mmu::kPageSize,
                  kPa + p * minova::mmu::kPageSize, minova::mmu::MapAttrs{});
    mmu.set_ttbr0(as.root());
    mmu.set_dacr(minova::mmu::dacr_set(0, 0, minova::mmu::DomainMode::kManager));
    mmu.set_enabled(true);
  }
  minova::vaddr_t page(minova::u64 i) const {
    return kVa + minova::vaddr_t(i % kPages) * minova::mmu::kPageSize;
  }
  void translate(minova::vaddr_t va) {
    g_probe_sink = g_probe_sink +
                   mmu.translate(va, minova::mmu::AccessKind::kRead, false).pa;
  }
};

}  // namespace detail

inline std::vector<ProbeResult> run_probes(minova::u64 calls = 200'000) {
  using namespace minova;
  std::vector<ProbeResult> out;
  const int kReps = 5;
  const double total = double(calls) * kReps;

  {  // Micro-TLB hit: one page, over and over.
    detail::MmuFixture f;
    f.translate(f.page(0));
    const u64 h0 = f.mmu.micro_stats().hits;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i) f.translate(f.page(0));
    });
    out.push_back({"mmu.translate_ns.utlb_hit", ns,
                   double(f.mmu.micro_stats().hits - h0) / total});
  }
  {  // Main-TLB hit: pages 0 and 16 share a direct-mapped micro-TLB slot.
    detail::MmuFixture f;
    f.translate(f.page(0));
    f.translate(f.page(16));
    const u64 m0 = f.mmu.micro_stats().misses, t0 = f.tlb.stats().hits;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i) f.translate(f.page((i & 1) * 16));
    });
    const double umiss = double(f.mmu.micro_stats().misses - m0) / total;
    const double thit = double(f.tlb.stats().hits - t0) / total;
    out.push_back({"mmu.translate_ns.tlb_hit", ns, std::min(umiss, thit)});
  }
  {  // Walk: cycling 512 pages through a 128-entry LRU TLB always misses.
    detail::MmuFixture f;
    const u64 m0 = f.tlb.stats().misses;
    u64 cursor = 0;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i) f.translate(f.page(cursor++));
    });
    out.push_back({"mmu.translate_ns.walk", ns,
                   double(f.tlb.stats().misses - m0) / total});
  }

  constexpr u32 kLine = 32;
  {  // L1 hit: one line.
    cache::MemHierarchy h;
    h.access_data(0x10'0000, false);
    const u64 h0 = h.l1d().stats().hits;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i)
        detail::g_probe_sink = detail::g_probe_sink + h.access_data(0x10'0000, false);
    });
    out.push_back({"cache.access_ns.l1_hit", ns,
                   double(h.l1d().stats().hits - h0) / total});
  }
  {  // L2 hit: a 256 KiB ring fits L2 (invalid ways fill first) and is 8x
     // L1, whose random replacement keeps nothing across one lap.
    cache::MemHierarchy h;
    constexpr u32 kRingLines = 256 * 1024 / kLine;
    for (u32 i = 0; i < kRingLines; ++i) h.access_data(0x10'0000 + i * kLine, false);
    const u64 l1m0 = h.l1d().stats().misses, l2h0 = h.l2().stats().hits;
    u64 cursor = 0;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i)
        detail::g_probe_sink =
            detail::g_probe_sink +
            h.access_data(0x10'0000 + paddr_t(cursor++ % kRingLines) * kLine, false);
    });
    const double l1m = double(h.l1d().stats().misses - l1m0) / total;
    const double l2h = double(h.l2().stats().hits - l2h0) / total;
    out.push_back({"cache.access_ns.l2_hit", ns, std::min(l1m, l2h)});
  }
  {  // DRAM: every access is a line never touched before.
    cache::MemHierarchy h;
    const u64 m0 = h.l2().stats().misses;
    u64 cursor = 0;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i)
        detail::g_probe_sink =
            detail::g_probe_sink + h.access_data(paddr_t(cursor++) * kLine, false);
    });
    out.push_back({"cache.access_ns.dram", ns,
                   double(h.l2().stats().misses - m0) / total});
  }

  for (u32 pending : {1u, 64u}) {  // GIC pending scan via irq_asserted().
    irq::Gic gic;
    for (u32 i = 0; i < pending; ++i) {
      gic.enable_irq(32 + i);
      gic.raise(32 + i);
    }
    u64 asserted = 0;
    const double ns = detail::time_calls(calls, [&](u64 n) {
      for (u64 i = 0; i < n; ++i) asserted += gic.irq_asserted() ? 1 : 0;
    });
    out.push_back({"irq.highest_pending_ns." + std::to_string(pending), ns,
                   double(asserted) / total});
  }
  return out;
}

}  // namespace perfbench
