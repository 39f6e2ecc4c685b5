// Self-timing harness for the memory fast path: drives the *same*
// deterministic translate+access traces through
//   (a) a reference engine — the pre-optimization memory path, verbatim:
//       linear-scan `RefTlb`, no micro-TLB, string-free but index-free; and
//   (b) the live `mmu::Mmu` + hash-indexed `cache::Tlb` fast path,
// asserts access-for-access identical simulated results (pa, fault, walk
// cost), then measures host wall-clock ns/op for each. The speedup column
// is the host-side win; every simulated number is bit-identical by
// construction (DESIGN.md §10).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/ref_tlb.hpp"
#include "cache/tlb.hpp"
#include "harness.hpp"
#include "hwtask/fft_core.hpp"
#include "mem/phys_mem.hpp"
#include "mmu/mmu.hpp"
#include "mmu/page_table.hpp"
#include "sim/clock.hpp"
#include "util/rng.hpp"
#include "workloads/adpcm.hpp"

namespace minova::bench {

/// One (asid, va) access of a trace.
struct Access {
  u32 asid;
  vaddr_t va;
};

/// Result of one trace mix: host time per access for the reference and the
/// optimized engine, and the (identical) simulated cost both charged.
struct MixResult {
  std::string name;
  u64 accesses = 0;     // total timed accesses per engine
  double ref_ns_per_op = 0;
  double new_ns_per_op = 0;
  double speedup = 0;   // ref / new (host time)
  cycles_t sim_cycles = 0;      // simulated cycles charged by either engine
  double sim_us = 0;            // same, at the platform clock frequency
  double sim_us_per_host_s = 0; // optimized-engine simulation rate
};

namespace detail {

/// The pre-change translation path, kept verbatim as a host-performance
/// baseline: linear-scan TLB (`RefTlb`), no micro-TLB, same walk, same
/// attribute packing, same permission model (domain checks elided — the
/// traces below use Manager-domain-free client mappings that always pass,
/// and both engines share the check code anyway, so it would only add
/// identical constant work to both sides).
class RefEngine {
 public:
  RefEngine(mem::PhysMem& ram, cache::MemHierarchy& hierarchy,
            cache::RefTlb& tlb)
      : ram_(ram), hierarchy_(hierarchy), tlb_(tlb) {}

  void set_ttbr0(paddr_t root) { ttbr0_ = root; }
  void set_asid(u32 asid) { asid_ = asid & 0xFFu; }

  /// Old `Mmu::translate` success path: TLB probe, walk + insert on miss.
  struct Out {
    paddr_t pa = 0;
    cycles_t cost = 0;
    bool ok = false;
    bool hit = false;
  };
  Out translate(vaddr_t va) {
    Out out;
    const cache::TlbEntry* entry = tlb_.lookup(asid_, va);
    if (entry == nullptr) {
      cache::TlbEntry e;
      if (!walk(va, out.cost, e)) return out;
      tlb_.insert(e);
      out.ok = true;
      out.pa = pa_of(e, va);
      return out;
    }
    out.ok = true;
    out.hit = true;
    out.pa = pa_of(*entry, va);
    return out;
  }

 private:
  static paddr_t pa_of(const cache::TlbEntry& e, vaddr_t va) {
    return e.large ? ((e.ppage << 12) | (va & (mmu::kSectionSize - 1)))
                   : ((e.ppage << 12) | (va & (mmu::kPageSize - 1)));
  }

  bool walk(vaddr_t va, cycles_t& cost, cache::TlbEntry& e) {
    const paddr_t l1_slot = ttbr0_ + mmu::l1_index(va) * 4;
    cost += hierarchy_.access_walk(l1_slot);
    const mmu::L1Desc l1 = mmu::L1Desc::decode(ram_.read32(l1_slot));
    switch (l1.type) {
      case mmu::L1Type::kFault:
        return false;
      case mmu::L1Type::kSection:
        e.valid = true;
        e.large = true;
        e.asid = asid_;
        e.global = !l1.ng;
        e.vpage = (va >> 20) << 8;
        e.ppage = l1.section_base >> 12;
        e.attrs = 0;
        return true;
      case mmu::L1Type::kPageTable: {
        const paddr_t l2_slot = l1.l2_base + mmu::l2_index(va) * 4;
        cost += hierarchy_.access_walk(l2_slot);
        const mmu::L2Desc l2 = mmu::L2Desc::decode(ram_.read32(l2_slot));
        if (!l2.valid) return false;
        e.valid = true;
        e.large = false;
        e.asid = asid_;
        e.global = !l2.ng;
        e.vpage = va >> 12;
        e.ppage = l2.page_base >> 12;
        e.attrs = 0;
        return true;
      }
    }
    return false;
  }

  mem::PhysMem& ram_;
  cache::MemHierarchy& hierarchy_;
  cache::RefTlb& tlb_;
  paddr_t ttbr0_ = 0;
  u32 asid_ = 0;
};

/// A complete simulated memory subsystem around one engine. Both fixtures
/// map the same 512-page region so every trace below resolves.
struct Region {
  static constexpr vaddr_t kVaBase = 0x40'0000;
  static constexpr paddr_t kPaBase = 0x80'0000;
  static constexpr u32 kPages = 512;
};

template <typename Tlb>
struct Fixture {
  mem::PhysMem ram{0, 16 * kMiB};
  cache::MemHierarchy hierarchy;
  Tlb tlb{128};
  mmu::PageTableAllocator alloc{ram, 1 * kMiB, 4 * kMiB};
  mmu::AddressSpace as{ram, alloc};

  Fixture() {
    for (u32 p = 0; p < Region::kPages; ++p)
      as.map_page(Region::kVaBase + p * mmu::kPageSize,
                  Region::kPaBase + p * mmu::kPageSize, mmu::MapAttrs{});
  }
};

}  // namespace detail

/// Deterministic trace mixes over a 512-page region. Each stresses a
/// different level of the fast path:
///   hot         warm all 128 TLB entries, then 8 scattered pages
///               round-robin: micro-TLB hits (old: mid-array linear scans)
///   resident    96 pages random: main-TLB hits, micro-TLB conflict misses
///   miss        all 512 pages random: > TLB capacity, walk-dominated
///   asid_thrash 4 ASIDs x 48 pages, ASID switch every 64 accesses
inline std::vector<Access> make_trace(const std::string& mix, u64 len) {
  using detail::Region;
  std::vector<Access> t;
  t.reserve(len);
  util::Xoshiro256 rng(0xC0FFEEull + len);
  const auto page_va = [](u32 p) {
    return vaddr_t(Region::kVaBase + p * mmu::kPageSize);
  };
  if (mix == "hot") {
    // Warm the whole 128-entry TLB, then hammer 8 pages scattered across
    // it (stride 17 keeps their micro-TLB slots distinct). The reference
    // engine's linear scan pays a mid-array walk on every one of these
    // hits; the optimized engine serves them from the micro-TLB.
    for (u32 p = 0; p < 128 && t.size() < len; ++p)
      t.push_back(Access{0, page_va(p)});
    for (u64 i = 0; t.size() < len; ++i)
      t.push_back(Access{0, page_va(8 + 17 * u32(i % 8))});
  } else if (mix == "resident") {
    for (u64 i = 0; i < len; ++i)
      t.push_back(Access{0, page_va(u32(rng.next() % 96))});
  } else if (mix == "miss") {
    for (u64 i = 0; i < len; ++i)
      t.push_back(Access{0, page_va(u32(rng.next() % Region::kPages))});
  } else {  // asid_thrash
    for (u64 i = 0; i < len; ++i) {
      const u32 asid = u32((i / 64) % 4);
      t.push_back(Access{asid, page_va(asid * 48 + u32(rng.next() % 48))});
    }
  }
  return t;
}

/// Run one mix through both engines: verification pass first (simulated
/// results must be access-for-access identical), then `reps` timed passes
/// per engine. Throws via MINOVA_ASSERT-style abort on divergence.
inline MixResult run_mix(const std::string& mix, u64 trace_len = 20'000,
                         u32 reps = 10) {
  const std::vector<Access> trace = make_trace(mix, trace_len);

  detail::Fixture<cache::RefTlb> rf;
  detail::RefEngine ref(rf.ram, rf.hierarchy, rf.tlb);
  ref.set_ttbr0(rf.as.root());

  detail::Fixture<cache::Tlb> nf;
  mmu::Mmu mmu(nf.ram, nf.hierarchy, nf.tlb);
  mmu.set_ttbr0(nf.as.root());
  mmu.set_dacr(mmu::dacr_set(0, 0, mmu::DomainMode::kManager));
  mmu.set_enabled(true);

  // Verification pass: identical pa / ok / walk cost / hit on every access.
  cycles_t sim_cycles = 0;
  u32 ref_asid = 0xFFFF'FFFFu, new_asid = 0xFFFF'FFFFu;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Access& a = trace[i];
    if (a.asid != ref_asid) ref.set_asid(ref_asid = a.asid);
    if (a.asid != new_asid) mmu.set_asid(new_asid = a.asid);
    const auto r = ref.translate(a.va);
    const auto n = mmu.translate(a.va, mmu::AccessKind::kRead, false);
    if (r.ok != n.ok() || r.pa != n.pa || r.cost != n.cost ||
        r.hit != n.tlb_hit) {
      std::fprintf(stderr,
                   "selftime: engines diverged at access %zu of mix '%s'\n",
                   i, mix.c_str());
      std::abort();
    }
    sim_cycles += n.cost;
    sim_cycles += nf.hierarchy.access_data(n.pa, false);
    rf.hierarchy.access_data(r.pa, false);
  }

  // Timed passes: both engines now warm; identical work per pass.
  MixResult out;
  out.name = mix;
  out.accesses = trace.size() * reps;
  out.sim_cycles = sim_cycles;
  out.sim_us = sim::Clock().cycles_to_us(sim_cycles);

  const double t0 = detail::now_s();
  for (u32 rep = 0; rep < reps; ++rep) {
    for (const Access& a : trace) {
      if (a.asid != ref_asid) ref.set_asid(ref_asid = a.asid);
      const auto r = ref.translate(a.va);
      rf.hierarchy.access_data(r.pa, false);
    }
  }
  const double t1 = detail::now_s();
  for (u32 rep = 0; rep < reps; ++rep) {
    for (const Access& a : trace) {
      if (a.asid != new_asid) mmu.set_asid(new_asid = a.asid);
      const auto n = mmu.translate(a.va, mmu::AccessKind::kRead, false);
      nf.hierarchy.access_data(n.pa, false);
    }
  }
  const double t2 = detail::now_s();

  const double ref_s = t1 - t0, new_s = t2 - t1;
  out.ref_ns_per_op = ref_s * 1e9 / double(out.accesses);
  out.new_ns_per_op = new_s * 1e9 / double(out.accesses);
  out.speedup = new_s > 0 ? ref_s / new_s : 0.0;
  // Simulation rate of the optimized engine over the timed passes (the
  // timed passes re-charge the same per-pass simulated cost `reps` times).
  const double timed_sim_us = sim::Clock().cycles_to_us(sim_cycles);
  out.sim_us_per_host_s =
      new_s > 0 ? timed_sim_us * double(reps) / new_s : 0.0;
  return out;
}

inline std::vector<MixResult> run_all_mixes(u64 trace_len = 20'000,
                                            u32 reps = 10) {
  std::vector<MixResult> r;
  for (const char* mix : {"hot", "resident", "miss", "asid_thrash"})
    r.push_back(run_mix(mix, trace_len, reps));
  return r;
}

/// Host cost of what no mix isolates: an L1D hit, a streaming L1D access
/// (a new line every access), and the guest payload the Fig. 8 workloads
/// run natively (one FFT-1024 frame, one 1024-sample ADPCM block). Host
/// numbers only; nothing here is simulated state or golden-diffed.
struct PrimitiveTimes {
  double l1d_hit_ns = 0, l1d_stream_ns = 0;
  double fft1024_us = 0, adpcm1024_us = 0;
};

inline PrimitiveTimes run_primitives() {
  u64 sink = 0;  // consumed below so no loop body is optimized away
  const auto per_op_s = [](u32 n, auto&& op) {
    const double t0 = detail::now_s();
    for (u32 i = 0; i < n; ++i) op(i);
    return (detail::now_s() - t0) / n;
  };
  PrimitiveTimes out;
  cache::MemHierarchy hot, stream;
  hot.access_data(0x1000, false);
  out.l1d_hit_ns = 1e9 * per_op_s(1'000'000, [&](u32) {
    sink += hot.access_data(0x1000, false);
  });
  out.l1d_stream_ns = 1e9 * per_op_s(1'000'000, [&](u32 i) {
    sink += stream.access_data(paddr_t(i) * 32, false);
  });
  hwtask::FftCore fft(1024);
  const std::vector<u8> frame(1024 * 8, 0x5A);
  out.fft1024_us = 1e6 * per_op_s(200, [&](u32) {
    sink += fft.process(frame).front();
  });
  workloads::AdpcmCodec::State st;
  std::vector<i16> pcm(1024);
  for (std::size_t i = 0; i < pcm.size(); ++i) pcm[i] = i16((i * 37) % 8000);
  out.adpcm1024_us = 1e6 * per_op_s(2'000, [&](u32) {
    sink += workloads::AdpcmCodec::encode(pcm, st).front();
  });
  volatile u64 keep = sink;
  (void)keep;
  return out;
}

}  // namespace minova::bench
