#include "rigs.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/platform.hpp"
#include "hwmgr/manager.hpp"
#include "hwtask/library.hpp"
#include "nova/inspector.hpp"
#include "table3.hpp"
#include "ucos/guest.hpp"
#include "util/rng.hpp"
#include "workloads/compute.hpp"

namespace perfbench {

using namespace minova;

namespace {

std::string name_of(const char* prefix, u64 i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%llu", prefix, (unsigned long long)i);
  return buf;
}

void fnv(u64& h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFu;
    h *= 0x0000'0100'0000'01B3ull;
  }
}

u64 bits_of(double d) {
  u64 b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double ratio(u64 num, u64 den) { return den == 0 ? 0.0 : double(num) / double(den); }

/// Samples [from, end) of a live simulator accumulator, copied so that
/// summarizing never reorders the simulator's own vector.
std::vector<double> window_of(const sim::LatencyStat& s, std::size_t from) {
  const auto& all = s.samples();
  if (from >= all.size()) return {};
  return std::vector<double>(all.begin() + std::ptrdiff_t(from), all.end());
}

void put_summary(Metrics& m, const std::string& name,
                 const std::vector<double>& samples, const char* unit) {
  const Summary s = summarize(samples);
  m.set(name + ".p50", s.p50, unit);
  m.set(name + ".tail", s.tail, unit);
  m.set(name + ".tail_pct", s.tail_pct, "pct");
  m.set(name + ".n", double(s.n), "count");
}

/// Counters every kernel-based rig reads at mark() and snapshot().
struct KernelCounters {
  u64 switches = 0, switch_cycles = 0, hypercalls = 0;
  u64 trap[5] = {};
  u64 virq = 0, lazy_faults = 0, ipis = 0, steals = 0, shootdowns = 0;
  u64 tlb_hit = 0, tlb_miss = 0, va_flushes = 0, utlb_hit = 0, utlb_miss = 0;
  u64 l1d_hit = 0, l1d_miss = 0, l2_hit = 0, l2_miss = 0;
  u64 irq_raised = 0, irq_acked = 0, pcap_transfers = 0, pcap_stalls = 0;
  double sim_us = 0;

  static KernelCounters read(Platform& p, nova::Kernel& k) {
    KernelCounters c;
    const nova::KernelInspector insp(k);
    c.switches = k.vm_switch_count();
    c.switch_cycles = k.vm_switch_cycles_total();
    c.hypercalls = k.hypercall_count();
    for (u32 t = 0; t < 5; ++t)
      c.trap[t] = p.stats().counter_value(
          std::string("kernel.trap.") +
          nova::trap_kind_name(nova::TrapKind(t)));
    c.virq = p.stats().counter_value("kernel.virq_injected");
    c.lazy_faults = k.lazy_space_faults();
    for (u32 i = 0; i < insp.num_cores(); ++i) {
      c.ipis += insp.core(i).ipis_sent();
      c.steals += insp.core(i).steals();
    }
    c.shootdowns = k.shootdowns_sent();
    for (u32 i = 0; i < p.num_lanes(); ++i) {
      cpu::Core& lane = p.lane(i);
      c.tlb_hit += lane.tlb().stats().hits;
      c.tlb_miss += lane.tlb().stats().misses;
      c.va_flushes += lane.tlb().stats().va_flushes;
      c.utlb_hit += lane.mmu().micro_stats().hits;
      c.utlb_miss += lane.mmu().micro_stats().misses;
      c.l1d_hit += lane.caches().l1d().stats().hits;
      c.l1d_miss += lane.caches().l1d().stats().misses;
      c.l2_hit += lane.caches().l2().stats().hits;
      c.l2_miss += lane.caches().l2().stats().misses;
    }
    c.irq_raised = p.gic().raised_count();
    c.irq_acked = p.gic().acked_count();
    c.pcap_transfers = p.pcap().transfers_completed();
    c.pcap_stalls = p.pcap().stalls();
    c.sim_us = p.clock().now_us();
    return c;
  }
};

/// Shared plumbing: owns the platform and kernel, creates VMs (wrapped and
/// timed when traced), and reports the kernel-wide window counters.
class KernelRig : public Rig {
 public:
  double sim_us() override { return platform_->clock().now_us(); }

  void mark() override {
    base_ = KernelCounters::read(*platform_, *kernel_);
    mark_extra();
  }

  void snapshot(Metrics& m, u64& digest) override {
    const KernelCounters now = KernelCounters::read(*platform_, *kernel_);
    const KernelCounters& b = base_;
    const u64 sw = now.switches - b.switches;
    m.set("sim.window_us", now.sim_us - b.sim_us, "us");
    m.set("vm_switch_cycles", ratio(now.switch_cycles - b.switch_cycles, sw),
          "cycles");
    m.set("heap_bytes_per_vm",
          double(kernel_->heap().bytes_live() - heap_base_) / double(live_vms()),
          "B");
    m.set("nova.vm_switches", double(sw), "count");
    for (u32 t = 0; t < 5; ++t)
      m.set(std::string("nova.trap.") + nova::trap_kind_name(nova::TrapKind(t)),
            double(now.trap[t] - b.trap[t]), "count");
    m.set("nova.hypercalls", double(now.hypercalls - b.hypercalls), "count");
    m.set("nova.virq_injected", double(now.virq - b.virq), "count");
    m.set("nova.lazy_space_faults", double(now.lazy_faults - b.lazy_faults),
          "count");
    m.set("nova.asid_generation", double(kernel_->asid_generation()), "count");
    m.set("nova.ipis", double(now.ipis - b.ipis), "count");
    m.set("nova.steals", double(now.steals - b.steals), "count");
    m.set("nova.shootdowns", double(now.shootdowns - b.shootdowns), "count");
    m.set("mmu.utlb_hit_ratio",
          ratio(now.utlb_hit - b.utlb_hit,
                (now.utlb_hit - b.utlb_hit) + (now.utlb_miss - b.utlb_miss)),
          "ratio");
    m.set("cache.tlb_hit_ratio",
          ratio(now.tlb_hit - b.tlb_hit,
                (now.tlb_hit - b.tlb_hit) + (now.tlb_miss - b.tlb_miss)),
          "ratio");
    m.set("cache.l1d_hit_ratio",
          ratio(now.l1d_hit - b.l1d_hit,
                (now.l1d_hit - b.l1d_hit) + (now.l1d_miss - b.l1d_miss)),
          "ratio");
    m.set("cache.l2_hit_ratio",
          ratio(now.l2_hit - b.l2_hit,
                (now.l2_hit - b.l2_hit) + (now.l2_miss - b.l2_miss)),
          "ratio");
    m.set("cache.tlb_va_flushes", double(now.va_flushes - b.va_flushes),
          "count");
    m.set("irq.raised", double(now.irq_raised - b.irq_raised), "count");
    m.set("irq.acked", double(now.irq_acked - b.irq_acked), "count");
    m.set("pl.pcap_transfers", double(now.pcap_transfers - b.pcap_transfers),
          "count");
    m.set("pl.pcap_stalls", double(now.pcap_stalls - b.pcap_stalls), "count");
    snapshot_extra(m);

    // Digest: every simulated value above plus per-core and guest state.
    u64 h = 0xCBF2'9CE4'8422'2325ull;
    for (const auto& e : m.items) {
      for (char ch : e.name) fnv(h, u64(u8(ch)));
      fnv(h, bits_of(e.value));
    }
    const nova::KernelInspector insp(*kernel_);
    fnv(h, platform_->clock().now());
    for (u32 i = 0; i < insp.num_cores(); ++i) {
      fnv(h, insp.core(i).local_now());
      fnv(h, insp.core(i).vm_switches());
    }
    digest_extra(h);
    digest = h;
  }

 protected:
  KernelRig(const RigOptions& opt) : opt_(opt) {}

  void build(const PlatformConfig& pcfg, const nova::KernelConfig& kcfg) {
    platform_ = std::make_unique<Platform>(pcfg);
    kernel_ = std::make_unique<nova::Kernel>(*platform_, kcfg);
  }
  /// Heap bytes before any VM exists: heap_bytes_per_vm is the marginal
  /// kernel-heap cost of the live VMs.
  void set_heap_base() { heap_base_ = kernel_->heap().bytes_live(); }

  nova::ProtectionDomain& create_vm(const std::string& name, u32 prio,
                                    std::unique_ptr<nova::GuestOs> guest) {
    if (opt_.log != nullptr)
      guest = std::make_unique<TracedGuest>(std::move(guest), *opt_.log);
    ScopedSpan s(opt_.log, "nova.create_vm");
    return kernel_->create_vm(name, prio, std::move(guest));
  }
  bool destroy_vm(nova::PdId id) {
    ScopedSpan s(opt_.log, "nova.destroy_vm");
    return kernel_->destroy_vm(id);
  }
  /// Chunk `index` of the 1-simulated-ms run-loop workloads: absolute
  /// deadlines, so chunk boundaries never drift.
  void run_ms_chunk(u64 index) {
    kernel_->run_until(t0_ + (index + 1) * platform_->clock().us_to_cycles(1000.0));
  }
  void start_clock() { t0_ = platform_->clock().now(); }

  virtual u32 live_vms() const = 0;
  virtual void mark_extra() {}
  virtual void snapshot_extra(Metrics&) {}
  virtual void digest_extra(u64&) {}

  RigOptions opt_;
  std::unique_ptr<Platform> platform_;
  std::unique_ptr<nova::Kernel> kernel_;
  u32 heap_base_ = 0;
  cycles_t t0_ = 0;
  KernelCounters base_;
};

void put_hwmgr(Metrics& m, const hwmgr::ManagerStats& now,
               const hwmgr::ManagerStats& b) {
  m.set("hwmgr.requests", double(now.requests - b.requests), "count");
  m.set("hwmgr.grants_with_reconfig",
        double(now.grants_with_reconfig - b.grants_with_reconfig), "count");
  m.set("hwmgr.busy_rejections", double(now.busy_rejections - b.busy_rejections),
        "count");
  m.set("hwmgr.reclaims", double(now.reclaims - b.reclaims), "count");
  m.set("hwmgr.preemptions", double(now.preemptions - b.preemptions), "count");
  m.set("hwmgr.resumes", double(now.resumes - b.resumes), "count");
  const u64 hits = now.cache_hits - b.cache_hits;
  m.set("hwmgr.cache_hit_ratio",
        ratio(hits, hits + (now.cache_misses - b.cache_misses)), "ratio");
}

// ---- paper_fig8 -----------------------------------------------------------

/// The paper's Fig. 8 system, assembled exactly as ucos::VirtualizedSystem
/// assembles it (4 guests, manager at priority 2, guest seeds seed*1000+i)
/// so the traced build can wrap each guest in the span decorator.
class Fig8Rig final : public KernelRig {
 public:
  static constexpr u32 kGuests = 4;

  explicit Fig8Rig(const RigOptions& opt) : KernelRig(opt) {
    build(PlatformConfig{}, nova::KernelConfig{});
    manager_ = std::make_unique<hwmgr::ManagerService>(*kernel_);
    manager_->install(/*priority=*/2);
    set_heap_base();
    for (u32 i = 0; i < kGuests; ++i) {
      ucos::GuestConfig gc;
      gc.vm_index = i;
      gc.seed = opt.seed * 1000 + i;
      auto g = std::make_unique<ucos::UcosGuest>(platform_->task_library(), gc);
      guests_.push_back(g.get());
      create_vm(name_of("vm", i), /*priority=*/1, std::move(g));
    }
    start_clock();
  }

  bool chunk(u64 index) override {
    run_ms_chunk(index);
    return true;
  }
  u64 warmup_chunks() const override { return 200; }
  u64 window_chunks() const override { return 2000; }
  // About 2% of chunks form a band near 1.7x the median host time and
  // about 0.5% a sparser band above it. A 2000-chunk block's tail (p99.5)
  // falls on the gap between the two and flips across it from run to run;
  // a 1000-chunk block's tail (p99) lies inside the denser band.
  u64 tail_block_chunks() const override { return 1000; }

  void verify(Verdict& v) override {
    const workloads::ThwStats t = thw_total();
    v.expect(t.validation_failures == 0, "paper_fig8: T_hw validation failures");
    v.expect(t.fail_status + t.fail_length + t.fail_content == 0,
             "paper_fig8: T_hw fail_status/length/content");
    v.expect(t.jobs_completed > 0, "paper_fig8: no hardware job completed");
    v.expect(kernel_->hwmgr_latencies().total_us.count() > lat_base_,
             "paper_fig8: no Table III sample in the window");
  }

 private:
  u32 live_vms() const override { return kGuests; }

  workloads::ThwStats thw_total() const {
    workloads::ThwStats t;
    for (const ucos::UcosGuest* g : guests_)
      if (const workloads::ThwStats* s = g->thw_stats()) {
        t.requests += s->requests;
        t.busy_retries += s->busy_retries;
        t.jobs_completed += s->jobs_completed;
        t.validation_failures += s->validation_failures;
        t.fail_status += s->fail_status;
        t.fail_length += s->fail_length;
        t.fail_content += s->fail_content;
      }
    return t;
  }

  void mark_extra() override {
    mgr_base_ = manager_->stats();
    thw_base_ = thw_total();
    lat_base_ = kernel_->hwmgr_latencies().total_us.count();
    irq_lat_base_ = kernel_->hwmgr_latencies().pl_irq_entry_us.count();
  }

  void snapshot_extra(Metrics& m) override {
    put_hwmgr(m, manager_->stats(), mgr_base_);
    const workloads::ThwStats t = thw_total();
    m.set("ucos.thw_requests", double(t.requests - thw_base_.requests), "count");
    m.set("ucos.thw_busy_retries",
          double(t.busy_retries - thw_base_.busy_retries), "count");
    m.set("ucos.thw_jobs_completed",
          double(t.jobs_completed - thw_base_.jobs_completed), "count");

    auto& lat = kernel_->hwmgr_latencies();
    const std::vector<double> total = window_of(lat.total_us, lat_base_);
    put_summary(m, "hwtask_us", total, "us");
    const double rows[] = {
        summarize(window_of(lat.entry_us, lat_base_)).mean,
        summarize(window_of(lat.exit_us, lat_base_)).mean,
        summarize(window_of(lat.pl_irq_entry_us, irq_lat_base_)).mean,
        summarize(window_of(lat.exec_us, lat_base_)).mean,
        summarize(total).mean,
    };
    for (std::size_t i = 0; i < kTable3Rows.size(); ++i) {
      const Table3Row& r = kTable3Rows[i];
      m.set(std::string("table3.") + r.name + "_us", rows[i], "us");
      m.set(std::string("table3.") + r.name + "_err_pct",
            std::fabs(rows[i] - r.paper_us) / r.paper_us * 100.0, "pct");
    }
    m.set("paper_err_pct", m.get("table3.total_err_pct"), "pct");
  }

  void digest_extra(u64& h) override {
    for (const ucos::UcosGuest* g : guests_) {
      fnv(h, g->virqs_handled());
      if (const workloads::ThwStats* s = g->thw_stats()) {
        fnv(h, s->requests);
        fnv(h, s->jobs_completed);
      }
    }
  }

  std::unique_ptr<hwmgr::ManagerService> manager_;
  std::vector<ucos::UcosGuest*> guests_;  // owned by their PDs
  hwmgr::ManagerStats mgr_base_;
  workloads::ThwStats thw_base_;
  std::size_t lat_base_ = 0, irq_lat_base_ = 0;
};

// ---- smp_compute ----------------------------------------------------------

/// The `mt` configuration: 4 simulated cores, two StreamComputeGuests per
/// core, 1 ms quantum, 200 µs sync window. Timed on 1 host thread: with 2,
/// episodic vCPU stalls on the shared host slowed a quarter of the runs by
/// 30-50% (see README). The 2-thread run of the same seed is the
/// thread-invariance reference.
class SmpRig final : public KernelRig {
 public:
  static constexpr u32 kCores = 4;
  static constexpr u32 kDefaultThreads = 1;
  static constexpr u32 kReferenceThreads = 2;

  explicit SmpRig(const RigOptions& opt) : KernelRig(opt) {
    nova::KernelConfig cfg;
    cfg.num_cores = kCores;
    cfg.host_threads = opt.host_threads != 0 ? opt.host_threads : kDefaultThreads;
    cfg.quantum_ms = 1.0;
    cfg.smp_window_us = 200.0;
    build(PlatformConfig{}, cfg);
    set_heap_base();
    for (u32 i = 0; i < kCores * 2; ++i) {
      workloads::StreamComputeConfig gc;
      gc.seed = opt.seed * 1000 + i;
      auto g = std::make_unique<workloads::StreamComputeGuest>(gc);
      guests_.push_back(g.get());
      create_vm(name_of("mt", i), 1, std::move(g));
    }
    start_clock();
  }

  bool chunk(u64 index) override {
    run_ms_chunk(index);
    return true;
  }
  u64 warmup_chunks() const override { return 50; }
  u64 window_chunks() const override { return 300; }
  u32 host_threads() const override { return kernel_->config().host_threads; }
  u32 reference_threads() const override {
    return host_threads() == kReferenceThreads ? 0 : kReferenceThreads;
  }

  void verify(Verdict& v) override {
    u64 steps = 0;
    for (const auto* g : guests_) steps += g->steps();
    v.expect(steps > 0, "smp_compute: no guest step ran");
  }

 private:
  u32 live_vms() const override { return kCores * 2; }
  void digest_extra(u64& h) override {
    const nova::KernelInspector insp(*kernel_);
    for (u32 i = 0; i < insp.num_cores(); ++i) {
      fnv(h, insp.core(i).ipis_sent());
      fnv(h, insp.core(i).steals());
    }
    for (const auto* g : guests_) {
      fnv(h, g->checksum());
      fnv(h, g->steps());
    }
  }

  std::vector<workloads::StreamComputeGuest*> guests_;
};

// ---- density_churn --------------------------------------------------------

/// Pure compute guest: burns its budget and never touches guest memory, so
/// density_churn isolates the switch/scheduler/GIC/ASID paths (and
/// prr_preempt's PDs, whose hypercalls the benchmark issues, stay inert).
class BurnGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "burn"; }
  void boot(nova::GuestContext&) override {}
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override {
    ctx.spend_insns(budget / 2 + 1);
    return nova::StepExit::kBudget;
  }
  void on_virq(nova::GuestContext&, u32) override {}
};

/// 1024 lazily booted VMs on a 50 µs quantum and tick. At every rotation
/// boundary a seeded slice of kSlice VMs is destroyed and recreated.
class DensityRig final : public KernelRig {
 public:
  static constexpr u32 kVms = 1024;
  static constexpr u32 kSlice = 64;
  // One rotation = kVms quanta of 50 µs = 51.2 simulated ms.
  static constexpr u64 kRotationChunks = 52;

  explicit DensityRig(const RigOptions& opt) : KernelRig(opt), rng_(opt.seed) {
    nova::KernelConfig cfg;
    cfg.lazy_vm_boot = true;
    cfg.quantum_ms = 0.05;
    cfg.tick_period_us = 50;
    build(PlatformConfig{}, cfg);
    set_heap_base();
    for (u32 i = 0; i < kVms; ++i)
      slots_.push_back(
          create_vm(name_of("d", next_name_++), 1, std::make_unique<BurnGuest>())
              .id());
    start_clock();
  }

  bool chunk(u64 index) override {
    run_ms_chunk(index);
    if ((index + 1) % kRotationChunks != 0) return true;
    return churn();
  }
  u64 warmup_chunks() const override { return 2 * kRotationChunks; }
  // 20 rotations: the chunk tail percentile (p99) lands among churn chunks.
  u64 window_chunks() const override { return 20 * kRotationChunks; }
  const char* chunk_unit() const override {
    return "1 simulated ms (+ churn slice every 52nd)";
  }

  void verify(Verdict& v) override {
    v.expect(failed_destroys_ == 0, "density_churn: destroy_vm failed");
    v.expect(heap_flat_, "density_churn: kernel heap not byte-flat across churn epochs");
    v.expect(epochs_ >= 2, "density_churn: fewer than two churn epochs ran");
    v.expect(kernel_->vms_destroyed() == u64(epochs_) * kSlice,
             "density_churn: destroyed-VM count disagrees with churn ledger");
  }

 private:
  u32 live_vms() const override { return kVms; }

  bool churn() {
    // Seeded choice of kSlice distinct slots (partial Fisher-Yates).
    std::vector<u32> order(kVms);
    for (u32 i = 0; i < kVms; ++i) order[i] = i;
    for (u32 i = 0; i < kSlice; ++i) {
      const u32 j = i + u32(rng_.next() % (kVms - i));
      std::swap(order[i], order[j]);
    }
    bool ok = true;
    for (u32 i = 0; i < kSlice; ++i) {
      if (!destroy_vm(slots_[order[i]])) {
        ++failed_destroys_;
        ok = false;
      }
    }
    for (u32 i = 0; i < kSlice; ++i)
      slots_[order[i]] =
          create_vm(name_of("d", next_name_++), 1, std::make_unique<BurnGuest>())
              .id();
    // Byte-flat heap: every epoch after the first must leave the kernel
    // heap exactly where the first left it.
    const auto& heap = kernel_->heap();
    const u32 sig[4] = {heap.bytes_live(), heap.live_blocks(), heap.high_water(),
                        heap.ctrl_high_water()};
    if (epochs_ == 0) {
      std::memcpy(heap_sig_, sig, sizeof(sig));
    } else if (std::memcmp(heap_sig_, sig, sizeof(sig)) != 0) {
      heap_flat_ = false;
      ok = false;
    }
    ++epochs_;
    return ok;
  }

  void snapshot_extra(Metrics& m) override {
    m.set("nova.vms_destroyed", double(kernel_->vms_destroyed()), "count");
  }
  void digest_extra(u64& h) override {
    for (nova::PdId id : slots_) fnv(h, id);
  }

  util::Xoshiro256 rng_;
  std::vector<nova::PdId> slots_;
  u64 next_name_ = 0;
  u32 epochs_ = 0;
  u32 failed_destroys_ = 0;
  bool heap_flat_ = true;
  u32 heap_sig_[4] = {};
};

// ---- prr_preempt ----------------------------------------------------------

/// bench_prr_sched's sched_cache round, repeated: two low-priority owners
/// saturate both large regions, a high-priority latecomer preempts one
/// through the §IV.C record, then releases so the victim resumes. The seed
/// picks the three FFT bitstreams of the hot set.
///
/// The system is rebuilt (untimed) every kRoundsPerSystem rounds: the
/// simulator's event queue keeps one callback slot per event ever
/// scheduled, ~10 KiB per round, and an unbounded run would hold
/// gigabytes. peak_rss_mib still shows the growth of one system's life.
class PrrRig final : public KernelRig {
 public:
  static constexpr u64 kRoundsPerSystem = 2000;

  explicit PrrRig(const RigOptions& opt) : KernelRig(opt) {
    std::vector<hwtask::TaskId> ffts = {
        hwtask::TaskLibrary::kFft256,  hwtask::TaskLibrary::kFft512,
        hwtask::TaskLibrary::kFft1024, hwtask::TaskLibrary::kFft2048,
        hwtask::TaskLibrary::kFft4096, hwtask::TaskLibrary::kFft8192};
    util::Xoshiro256 rng(opt.seed);
    for (u32 i = 0; i < 3; ++i) {
      const u32 j = i + u32(rng.next() % (ffts.size() - i));
      std::swap(ffts[i], ffts[j]);
    }
    task_low_a_ = ffts[0];
    task_low_b_ = ffts[1];
    task_high_ = ffts[2];
    build_system();
  }

  double sim_us() override { return sim_before_ + KernelRig::sim_us(); }

  bool chunk(u64) override {
    bool ok = true;
    const auto expect_ok = [&](const nova::HypercallResult& r) {
      if (!r.ok()) ok = false;
    };
    expect_ok(request(*low0_, task_low_a_));
    drain();
    expect_ok(request(*low1_, task_low_b_));
    drain();

    const cycles_t req_at = platform_->clock().now();
    expect_ok(request(*high_, task_high_));
    bool ready = false;
    cycles_t dl = 0;
    for (;;) {
      const auto q = query(*high_);
      expect_ok(q);
      if (q.r1 == nova::kReconfigReady) {
        ready = true;
        break;
      }
      if (!platform_->events().next_deadline(dl)) break;
      ScopedSpan s(opt_.log, "sim.pump");
      platform_->clock().advance_to(dl);
      platform_->pump();
    }
    grant_us_.push_back(platform_->clock().cycles_to_us(platform_->clock().now() - req_at));
    drain();

    expect_ok(release(*high_, task_high_));
    drain();
    expect_ok(release(*low0_, task_low_a_));
    expect_ok(release(*low1_, task_low_b_));
    drain();
    ++rounds_;
    return ok && ready;
  }
  u64 warmup_chunks() const override { return 10; }
  u64 window_chunks() const override { return 1000; }
  // Above p95 a round's host time is the host's, not the program's: at
  // p99 (1000-round blocks) it is set by how many rounds host interference
  // slows, at p99.9 by the memory bandwidth of the copies that grow
  // sim::EventQueue's callback vector. A 200-round block reports p95.
  u64 tail_block_chunks() const override { return 200; }
  const char* chunk_unit() const override { return "1 contention round"; }

  bool needs_refresh() const override {
    return rounds_ - rounds_before_ >= kRoundsPerSystem;
  }
  void refresh() override {
    retire_system();
    build_system();
    // The fresh system warms its bitstream cache before timing resumes.
    for (u64 i = 0; i < warmup_chunks(); ++i) chunk(i);
  }

  void verify(Verdict& v) override {
    const hwmgr::ManagerStats& s = manager_->stats();
    v.expect(preempt_before_ + s.preemptions == rounds_,
             "prr_preempt: preemptions != rounds");
    v.expect(resume_before_ + s.resumes == rounds_,
             "prr_preempt: resumes != rounds");
  }

 private:
  u32 live_vms() const override { return 3; }

  void build_system() {
    build(PlatformConfig{}, nova::KernelConfig{});
    manager_ = std::make_unique<hwmgr::ManagerService>(*kernel_);
    manager_->install(/*priority=*/6);
    hwmgr::SchedConfig sc;
    sc.priorities = true;
    sc.queue_depth = 8;
    sc.cache_capacity = 4;
    sc.prefetch = true;
    manager_->set_sched_config(sc);
    set_heap_base();
    low0_ = &create_vm("low0", 1, std::make_unique<BurnGuest>());
    low1_ = &create_vm("low1", 1, std::make_unique<BurnGuest>());
    high_ = &create_vm("high", 3, std::make_unique<BurnGuest>());
    kernel_->run_for_us(200);
  }
  void retire_system() {
    sim_before_ += KernelRig::sim_us();
    preempt_before_ += manager_->stats().preemptions;
    resume_before_ += manager_->stats().resumes;
    rounds_before_ = rounds_;
    manager_.reset();  // references the kernel
    kernel_.reset();
    platform_.reset();
  }

  nova::HypercallResult hypercall(nova::ProtectionDomain& pd, nova::Hypercall hc,
                                  u32 r0, u32 r1 = 0, u32 r2 = 0) {
    nova::GuestContext ctx(*kernel_, pd, platform_->cpu());
    return ctx.hypercall(hc, r0, r1, r2);
  }
  nova::HypercallResult request(nova::ProtectionDomain& pd, hwtask::TaskId t) {
    ScopedSpan s(opt_.log, "hc.request");
    return hypercall(pd, nova::Hypercall::kHwTaskRequest, t,
                     nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  }
  nova::HypercallResult release(nova::ProtectionDomain& pd, hwtask::TaskId t) {
    ScopedSpan s(opt_.log, "hc.release");
    return hypercall(pd, nova::Hypercall::kHwTaskRelease, t);
  }
  nova::HypercallResult query(nova::ProtectionDomain& pd) {
    ScopedSpan s(opt_.log, "hc.query");
    return hypercall(pd, nova::Hypercall::kHwTaskQuery, nova::kHwQueryReconfig);
  }
  /// Let 30 simulated ms of device events fire.
  void drain() {
    ScopedSpan s(opt_.log, "sim.pump");
    const cycles_t end =
        platform_->clock().now() + platform_->clock().ms_to_cycles(30.0);
    cycles_t dl = 0;
    while (platform_->events().next_deadline(dl) && dl < end) {
      platform_->clock().advance_to(dl);
      platform_->pump();
    }
  }

  void mark_extra() override {
    mgr_base_ = manager_->stats();
    grant_base_ = grant_us_.size();
  }
  void snapshot_extra(Metrics& m) override {
    put_hwmgr(m, manager_->stats(), mgr_base_);
    put_summary(m, "grant_us",
                std::vector<double>(grant_us_.begin() + std::ptrdiff_t(grant_base_),
                                    grant_us_.end()),
                "us");
  }
  void digest_extra(u64& h) override {
    for (double g : grant_us_) fnv(h, bits_of(g));
  }

  std::unique_ptr<hwmgr::ManagerService> manager_;
  nova::ProtectionDomain* low0_ = nullptr;
  nova::ProtectionDomain* low1_ = nullptr;
  nova::ProtectionDomain* high_ = nullptr;
  hwtask::TaskId task_low_a_ = 0, task_low_b_ = 0, task_high_ = 0;
  std::vector<double> grant_us_;
  std::size_t grant_base_ = 0;
  u64 rounds_ = 0, rounds_before_ = 0;
  u64 preempt_before_ = 0, resume_before_ = 0;
  double sim_before_ = 0;
  hwmgr::ManagerStats mgr_base_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_fig8", "smp_compute",
                                                  "density_churn", "prr_preempt"};
  return kNames;
}

std::unique_ptr<Rig> make_rig(const std::string& workload, const RigOptions& opt) {
  if (workload == "paper_fig8") return std::make_unique<Fig8Rig>(opt);
  if (workload == "smp_compute") return std::make_unique<SmpRig>(opt);
  if (workload == "density_churn") return std::make_unique<DensityRig>(opt);
  if (workload == "prr_preempt") return std::make_unique<PrrRig>(opt);
  return nullptr;
}

}  // namespace perfbench
