// Bench driver: runs every macro-benchmark of the evaluation and writes one
// machine-readable BENCH_results.json. Sections:
//   table3     Table III (native, 1-4 guests); stdout also prints it and the
//              Fig. 9 ratios next to the paper's values
//   smp        the 4-guest configuration at 1/2/4/8 simulated cores
//   mt         the host-parallel engine at 1/2/4 host threads
//   selftime   memory fast path, reference vs live engine (host ns/op),
//              plus host-only L1D and guest-payload timings
//   density    VM switch cost and heap per VM from 8 to 1024 VMs, churn
//   prr_sched  PRR-scheduler contention sweep
//   ablations  the paper's design choices against their alternatives
//   pcap       PCAP reconfiguration latency vs bitstream size
//   footprint  §V.B: hypercalls, kernel text, reservation, per-VM cost
//   hw_vs_sw   §I: software FFT vs the DPR hardware task, cold and warm
//
// The JSON separates two kinds of numbers:
//   * simulated quantities (latency rows, trap counts, hit rates) — these
//     are deterministic; bench/check_table3.py diffs them against
//     bench/golden_table3.json and checks each section's shape gates;
//   * host quantities (wall-clock seconds, ns/op, speedups, sim-rate) —
//     machine-dependent, reported but never golden-diffed.
//
// Usage: run_all [sim_ms_per_config] [output.json]
// sim_ms sets the table3, smp and mt durations. Every other section runs a
// fixed simulated workload, so its values are diffable at any argument.
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "density.hpp"
#include "footprint.hpp"
#include "harness.hpp"
#include "hw_vs_sw.hpp"
#include "mt.hpp"
#include "pl/pcap.hpp"
#include "prr_sched.hpp"
#include "selftime.hpp"
#include "util/table.hpp"

using namespace minova;

namespace {

using M = bench::Measurement;

// ---- JSON -------------------------------------------------------------------

std::string jv(double v) {  // full-precision JSON double
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string jv(bool v) { return v ? "true" : "false"; }
std::string jv(const std::string& s) { return "\"" + s + "\""; }
template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
std::string jv(T v) {
  return std::to_string(v);
}
template <class T>
std::string jv(const std::vector<T>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + jv(v[i]);
  return s + "]";
}

/// A JSON object written one `"key": value` per line at nesting `depth`.
class Obj {
 public:
  explicit Obj(int depth) : depth_(depth) {}
  template <class T>
  Obj& kv(const std::string& key, const T& v) {
    fields_.push_back(jv(key) + ": " + jv(v));
    return *this;
  }
  Obj& kv(const std::string& key, const Obj& o) {
    fields_.push_back(jv(key) + ": " + o.str());
    return *this;
  }
  /// The array emitter: `"key": [get(p) for p in pts]`, where `get` is a
  /// member pointer or a callable.
  template <class Pts, class Get>
  Obj& col(const std::string& key, const Pts& pts, Get get) {
    std::vector<std::decay_t<
        std::invoke_result_t<Get, const typename Pts::value_type&>>>
        v;
    for (const auto& p : pts) v.push_back(std::invoke(get, p));
    return kv(key, v);
  }
  std::string str() const {
    const std::string pad(2 * (depth_ + 1), ' ');
    std::string s = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      s += pad + fields_[i] + (i + 1 < fields_.size() ? ",\n" : "\n");
    return s + std::string(2 * depth_, ' ') + "}";
  }

 private:
  int depth_;
  std::vector<std::string> fields_;
};

/// The latency and trap rows table3 and smp share, one value per point.
void latency_rows(Obj& o, const std::vector<M>& ms) {
  o.col("entry", ms, &M::entry)
      .col("exit", ms, &M::exit)
      .col("irq_entry", ms, &M::irq_entry)
      .col("exec", ms, &M::exec)
      .col("total", ms, &M::total)
      .col("samples", ms, &M::samples)
      .col("hypercalls", ms, &M::hypercalls)
      .col("irq_traps", ms, &M::irq_traps);
}

double host_seconds(const std::vector<M>& ms) {
  double s = 0;
  for (const auto& m : ms) s += m.host_seconds;
  return s;
}

std::string f2(double v) { return util::TextTable::fmt_double(v, 2); }
std::string f3(double v) { return util::TextTable::fmt_double(v, 3); }

// ---- table3: the paper's values, columns native and 1-4 guest OSes ---------

constexpr const char* kRowNames[5] = {"HW Manager entry", "HW Manager exit",
                                      "PL IRQ entry", "HW Manager execution",
                                      "Total overhead"};
constexpr double M::* kRowFields[5] = {&M::entry, &M::exit, &M::irq_entry,
                                       &M::exec, &M::total};
// Table III, us.
constexpr double kPaperTable3[5][5] = {{0, 0.87, 1.11, 1.26, 1.29},
                                       {0, 0.72, 0.91, 0.96, 0.99},
                                       {0, 0.23, 0.46, 0.50, 0.51},
                                       {15.01, 15.46, 15.83, 16.11, 16.31},
                                       {15.01, 17.06, 17.84, 18.33, 18.57}};
// Fig. 9 degradation ratio R_D. Entry, exit and IRQ entry are zero
// natively, so the paper normalizes them to 1 OS (native column unused);
// execution and total are normalized to native.
constexpr double kPaperFig9[5][5] = {{0, 1.000, 1.270, 1.443, 1.655},
                                     {0, 1.000, 1.255, 1.328, 1.366},
                                     {0, 1.000, 1.981, 2.115, 2.221},
                                     {1.000, 1.032, 1.056, 1.075, 1.085},
                                     {1.000, 1.138, 1.191, 1.223, 1.227}};

void print_table3(const std::vector<M>& rows) {
  const std::vector<std::string> header = {"measured (paper)", "Native", "1",
                                           "2", "3", "4"};
  util::TextTable t3(header), f9(header);
  for (int r = 0; r < 5; ++r) {
    std::vector<std::string> a{kRowNames[r]}, b{kRowNames[r]};
    const double base = rows[r < 3 ? 1 : 0].*kRowFields[r];
    for (int c = 0; c < 5; ++c) {
      a.push_back(f2(rows[c].*kRowFields[r]) + " (" +
                  f2(kPaperTable3[r][c]) + ")");
      b.push_back(r < 3 && c == 0 ? "-"
                                  : f3(rows[c].*kRowFields[r] / base) + " (" +
                                        f3(kPaperFig9[r][c]) + ")");
    }
    t3.add_row(std::move(a));
    f9.add_row(std::move(b));
  }
  std::vector<std::string> samples{"(samples)"};
  for (const auto& m : rows) samples.push_back(std::to_string(m.samples));
  t3.add_row(std::move(samples));
  std::printf("\nTable III: overhead of hardware task management (us)\n%s",
              t3.to_string().c_str());
  std::printf("\nFig. 9: degradation ratio R_D (entry/exit/IRQ entry vs 1 "
              "OS, execution/total vs native)\n%s",
              f9.to_string().c_str());
}

// ---- ablations: the paper's design choices against their alternatives -----

// Long enough for every shape gate in check_table3.py to hold: at 200 ms the
// floorplan sweep's PCAP counts and jobs are not yet monotonic.
constexpr double kAblationSimMs = 500.0;

struct Variant {
  std::string name;
  u32 guests;
  std::function<void(ucos::SystemConfig&)> config = {};
  std::function<void(ucos::VirtualizedSystem&)> before_run = {};
};

// paper_4os / paper_2os are the unmodified Fig. 8 system, the baseline each
// alternative below is compared against:
//   vfp_active     Table I: switch VFP and L2 control eagerly on every switch
//   tlb_flush_*    §III.C: full TLB flush per VM switch instead of ASIDs
//   pcap_blocking  §IV.E: the manager waits for the PCAP transfer
//   quantum_*      §V.B: guest time slice other than 33 ms
//   first_fit, lru_region  Fig. 7 stage 2: ignore task residency
//   prr_*          floorplans other than the paper's 2 large + 2 small PRRs
std::vector<Variant> ablation_variants() {
  using Cfg = ucos::SystemConfig;
  using Sys = ucos::VirtualizedSystem;
  const auto policy = [](hwmgr::AllocPolicy p) {
    return [p](Sys& s) { s.manager().set_policy(p); };
  };
  const auto floorplan = [](u32 n) {
    return [n](Cfg& c) { c.platform.large_prrs = c.platform.small_prrs = n; };
  };
  const auto quantum = [](double ms) {
    return [ms](Cfg& c) { c.kernel.quantum_ms = ms; };
  };
  const auto flush = [](Cfg& c) { c.kernel.use_asid = false; };
  return {
      {"paper_4os", 4},
      {"paper_2os", 2},
      {"vfp_active", 4,
       [](Cfg& c) { c.kernel.lazy_vfp = c.kernel.lazy_l2ctrl = false; }},
      {"tlb_flush_2os", 2, flush},
      {"tlb_flush_4os", 4, flush},
      {"pcap_blocking", 2, {},
       [](Sys& s) { s.manager().set_blocking_reconfig(true); }},
      {"quantum_8ms", 4, quantum(8.0)},
      {"quantum_132ms", 4, quantum(132.0)},
      {"first_fit", 4, {}, policy(hwmgr::AllocPolicy::kFirstFit)},
      {"lru_region", 4, {}, policy(hwmgr::AllocPolicy::kLruRegion)},
      {"prr_1L1S", 4, floorplan(1)},
      {"prr_3L3S", 4, floorplan(3)},
      {"prr_4L4S", 4, floorplan(4)},
  };
}

// The simulated ablation columns (JSON sim_rows and stdout table), with the
// decimals stdout prints a double column at.
struct AblationCol {
  const char* key;
  std::variant<u64 M::*, double M::*> field;
  int decimals = 2;
};
const AblationCol kAblationCols[] = {
    {"vm_switches", &M::vm_switches},
    {"vfp_transfers", &M::vfp_transfers},
    {"entry", &M::entry},
    {"exec", &M::exec},
    {"total", &M::total},
    {"tlb_miss_rate", &M::tlb_miss_rate, 4},
    {"tlb_flushes", &M::tlb_flushes},
    {"l1i_miss_rate", &M::l1i_miss_rate, 4},
    {"requests", &M::requests},
    {"grants", &M::grants},
    {"busy", &M::busy},
    {"grants_no_reconfig", &M::grants_no_reconfig},
    {"reclaims", &M::reclaims},
    {"pcaps", &M::pcaps},
    {"jobs", &M::jobs},
    {"guest_ticks", &M::guest_ticks},
};

// ---- pcap: reconfiguration latency vs bitstream size (§V.B, ref [17]) ------

struct PcapPoint {
  std::string task;
  u32 bytes = 0;
  double model_us = 0, measured_us = 0, kib_per_ms = 0;
};

/// For every task in the evaluation set: the model's PCAP transfer time and
/// an end-to-end measurement (program the devcfg engine, advance to the
/// completion event) on one fresh platform.
std::vector<PcapPoint> run_pcap_sweep() {
  std::vector<PcapPoint> out;
  Platform platform;
  auto& bus = platform.bus();
  auto& clock = platform.clock();
  auto& lib = platform.task_library();
  for (hwtask::TaskId id : lib.ids()) {
    const hwtask::TaskInfo* info = lib.find(id);
    PcapPoint p{info->name, info->bitstream_bytes};
    p.model_us = clock.cycles_to_us(
        platform.pcap().transfer_cycles(info->bitstream_bytes));
    const cycles_t t0 = clock.now();
    bus.write32(mem::kDevcfgBase + pl::kPcapSrcAddr, 0x0080'0000u);
    bus.write32(mem::kDevcfgBase + pl::kPcapLen, info->bitstream_bytes);
    bus.write32(mem::kDevcfgBase + pl::kPcapTarget,
                info->compatible_prrs.front());
    bus.write32(mem::kDevcfgBase + pl::kPcapTaskId, id);
    bus.write32(mem::kDevcfgBase + pl::kPcapCtrl, 1);
    u32 status = 0;
    cycles_t dl = 0;
    while (!(status & pl::kPcapStatusDone) &&
           platform.events().next_deadline(dl)) {
      clock.advance_to(dl);
      platform.pump();
      bus.read32(mem::kDevcfgBase + pl::kPcapStatus, status);
    }
    // W1C the done bit for the next round.
    bus.write32(mem::kDevcfgBase + pl::kPcapStatus, pl::kPcapStatusDone);
    p.measured_us = clock.cycles_to_us(clock.now() - t0);
    p.kib_per_ms = double(p.bytes) / kKiB / (p.measured_us / 1000.0);
    out.push_back(p);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double sim_ms = 50.0;
  const char* out_path = "BENCH_results.json";
  if (argc > 1) sim_ms = std::stod(argv[1]);
  if (argc > 2) out_path = argv[2];

  std::printf("run_all: Table III (%g ms/config) ...\n", sim_ms);
  std::vector<M> t3{bench::run_native(sim_ms, 42)};
  for (u32 g = 1; g <= 4; ++g)
    t3.push_back(bench::run_virtualized(g, sim_ms, 42));

  std::printf("run_all: SMP scaling 1/2/4/8 cores ...\n");
  const std::vector<u32> smp_cores = {1, 2, 4, 8};
  std::vector<M> smp;
  for (u32 c : smp_cores) {
    ucos::SystemConfig cfg;
    cfg.kernel.num_cores = c;
    smp.push_back(bench::run_virtualized(4, sim_ms, 42, cfg));
  }

  std::printf("run_all: host-parallel 4 cores x 1/2/4 threads ...\n");
  std::vector<bench::MtPoint> mt;
  for (u32 t : {1u, 2u, 4u}) mt.push_back(bench::run_mt_point(4, t, sim_ms));

  std::printf("run_all: self-timing mixes ...\n");
  const auto mixes = bench::run_all_mixes();
  const auto prims = bench::run_primitives();

  std::printf("run_all: density sweep 8 -> 1024 VMs ...\n");
  std::vector<bench::DensityPoint> density;
  for (u32 n : bench::density_sweep())
    density.push_back(bench::measure_density(n));
  const bench::ChurnResult churn = bench::run_churn(1024, 3);

  std::printf("run_all: PRR scheduler contention sweep (40 rounds) ...\n");
  const u32 prr_iters = 40;  // fixed so the simulated counters are diffable
  const auto prr = bench::run_prr_sched_sweep(prr_iters);

  std::printf("run_all: ablations (%g ms/variant) ...\n", kAblationSimMs);
  const auto variants = ablation_variants();
  std::vector<M> abl;
  for (const auto& v : variants) {
    ucos::SystemConfig cfg;
    if (v.config) v.config(cfg);
    abl.push_back(bench::run_virtualized(v.guests, kAblationSimMs, 42, cfg,
                                         v.before_run));
  }

  std::printf("run_all: PCAP latency vs bitstream size ...\n");
  const auto pcap = run_pcap_sweep();

  std::printf("run_all: footprint and hardware vs software ...\n");
  const bench::Footprint fp = bench::measure_footprint();
  const auto hvs = bench::run_hw_vs_sw();

  // ---- JSON ----
  Obj root(0);
  root.kv("schema", std::string("minova-bench-1"));
  {
    Obj rows(2);
    latency_rows(rows, t3);
    rows.col("utlb_hit_rate", t3, &M::utlb_hit_rate)
        .col("tlb_hit_rate", t3, &M::tlb_hit_rate)
        .col("l1d_hit_rate", t3, &M::l1d_hit_rate)
        .col("l2_hit_rate", t3, &M::l2_hit_rate)
        .col("tlb_va_flushes", t3, &M::tlb_va_flushes);
    double sim_us = 0;
    for (const auto& m : t3) sim_us += m.sim_us;
    const double host_s = host_seconds(t3);
    Obj host(2);
    host.kv("seconds", host_s)
        .kv("sim_us_per_host_s", host_s > 0 ? sim_us / host_s : 0.0);
    root.kv("table3", Obj(1)
                          .kv("sim_ms", sim_ms)
                          .kv("configs", std::vector<std::string>{
                                             "native", "1", "2", "3", "4"})
                          .kv("sim_rows", rows)
                          .kv("host", host));
  }
  {
    // The cores=1 latency and trap rows are golden-gated: check_table3.py
    // asserts they are bit-identical to the table3 4-guest column (the
    // unicore kernel takes none of the SMP paths).
    Obj o(1);
    o.kv("cores", smp_cores);
    latency_rows(o, smp);
    o.col("ipis_sent", smp, &M::ipis_sent)
        .col("steals", smp, &M::steals)
        .col("shootdowns_sent", smp, &M::shootdowns_sent)
        .col("shootdown_acks", smp, &M::shootdown_acks)
        .col("cross_core_irqs", smp, &M::cross_core_irqs)
        .col("vm_switches", smp, &M::vm_switches);
    root.kv("smp", o);
  }
  {
    // Host-parallel engine (DESIGN.md §14). sim_digest is simulated and must
    // be identical across the thread sweep; host_seconds / host_speedup are
    // machine numbers, the speedup floor gated only on hosts with >= 4 CPUs.
    const double t1 = mt[0].host_seconds;
    Obj o(1);
    o.kv("cores", mt[0].cores)
        .col("threads", mt, &bench::MtPoint::threads)
        .col("host_seconds", mt, &bench::MtPoint::host_seconds)
        .col("host_speedup", mt,
             [t1](const bench::MtPoint& p) {
               return p.host_seconds > 0 ? t1 / p.host_seconds : 0.0;
             })
        .col("sim_us_per_host_s", mt, &bench::MtPoint::sim_us_per_host_s)
        .col("sim_digest", mt,
             [](const bench::MtPoint& p) {
               char buf[24];
               std::snprintf(buf, sizeof(buf), "%016llx",
                             (unsigned long long)p.sim_digest);
               return std::string(buf);
             })
        .kv("host_cpus", std::thread::hardware_concurrency());
    root.kv("mt", o);
  }
  {
    using R = bench::MixResult;
    root.kv("selftime", Obj(1)
                            .col("mix", mixes, &R::name)
                            .col("accesses", mixes, &R::accesses)
                            .col("sim_us", mixes, &R::sim_us)
                            .col("ref_ns_per_op", mixes, &R::ref_ns_per_op)
                            .col("new_ns_per_op", mixes, &R::new_ns_per_op)
                            .col("speedup", mixes, &R::speedup)
                            .col("sim_us_per_host_s", mixes,
                                 &R::sim_us_per_host_s)
                            .kv("l1d_hit_ns_per_op", prims.l1d_hit_ns)
                            .kv("l1d_stream_ns_per_op", prims.l1d_stream_ns)
                            .kv("fft1024_payload_us", prims.fft1024_us)
                            .kv("adpcm1024_payload_us", prims.adpcm1024_us));
  }
  {
    using D = bench::DensityPoint;
    root.kv("density",
            Obj(1)
                .col("vms", density, &D::vms)
                .col("switches", density, &D::switches)
                .col("sim_cycles_per_switch", density,
                     &D::sim_cycles_per_switch)
                .col("heap_bytes_per_vm", density, &D::heap_bytes_per_vm)
                .col("asid_generation", density, &D::asid_generation)
                .col("host_ns_per_switch", density, &D::host_ns_per_switch)
                .kv("churn", Obj(2)
                                 .kv("vms", churn.vms)
                                 .kv("cycles", churn.cycles)
                                 .kv("heap_flat", churn.heap_flat)
                                 .kv("vms_destroyed", churn.vms_destroyed)
                                 .kv("asid_generation",
                                     churn.asid_generation)));
  }
  {
    // PRR scheduler (DESIGN.md §15): counters and grant latency are
    // simulated and gated by check_table3.py; host seconds are reported.
    using P = bench::PrrSchedPoint;
    using S = hwmgr::ManagerStats;
    Obj o(1);
    o.kv("iterations", prr_iters).col("configs", prr, &P::name);
    for (const auto& [key, field] :
         {std::pair{"preemptions", &S::preemptions},
          {"resumes", &S::resumes},
          {"wait_grants", &S::wait_grants},
          {"reclaims", &S::reclaims},
          {"grants_with_reconfig", &S::grants_with_reconfig},
          {"cache_hits", &S::cache_hits},
          {"cache_misses", &S::cache_misses},
          {"cache_evictions", &S::cache_evictions}})
      o.col(key, prr, [f = field](const P& p) { return p.stats.*f; });
    o.col("hit_rate", prr, &P::hit_rate)
        .col("avg_grant_us", prr, &P::avg_grant_us)
        .col("host_seconds", prr, &P::host_seconds);
    root.kv("prr_sched", o);
  }
  {
    Obj rows(2);
    for (const auto& c : kAblationCols)
      std::visit([&](auto field) { rows.col(c.key, abl, field); }, c.field);
    root.kv("ablations", Obj(1)
                             .kv("sim_ms", kAblationSimMs)
                             .col("variants", variants, &Variant::name)
                             .col("guests", variants, &Variant::guests)
                             .kv("sim_rows", rows)
                             .col("host_seconds", abl, &M::host_seconds));
  }
  root.kv("pcap",
          Obj(1)
              .col("tasks", pcap, &PcapPoint::task)
              .kv("sim_rows", Obj(2)
                                  .col("bytes", pcap, &PcapPoint::bytes)
                                  .col("model_us", pcap, &PcapPoint::model_us)
                                  .col("measured_us", pcap,
                                       &PcapPoint::measured_us)
                                  .col("kib_per_ms", pcap,
                                       &PcapPoint::kib_per_ms)));
  {
    using C = bench::PerVmCost;
    root.kv("footprint",
            Obj(1)
                .kv("hypercalls", fp.hypercalls)
                .kv("kernel_text_bytes", fp.kernel_text_bytes)
                .kv("kernel_text_region_bytes", nova::kKernelTextSize)
                .kv("kernel_heap_bytes", fp.kernel_heap_bytes)
                .kv("reservation_bytes", fp.reservation_bytes)
                .kv("resident_kib", fp.resident_kib)
                .col("configs", fp.per_vm, &C::config)
                .kv("sim_rows",
                    Obj(2)
                        .col("heap_bytes_per_vm", fp.per_vm, &C::heap_bytes)
                        .col("pt_bytes_per_vm", fp.per_vm, &C::pt_bytes)));
  }
  {
    using H = bench::HwVsSwPoint;
    root.kv("hw_vs_sw", Obj(1)
                            .col("tasks", hvs, &H::task)
                            .kv("sim_rows", Obj(2)
                                                .col("points", hvs, &H::points)
                                                .col("sw_us", hvs, &H::sw_us)
                                                .col("hw_cold_us", hvs,
                                                     &H::hw_cold_us)
                                                .col("hw_warm_us", hvs,
                                                     &H::hw_warm_us)
                                                .col("speedup", hvs,
                                                     &H::speedup)));
  }

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "run_all: cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "%s\n", root.str().c_str());
  std::fclose(f);
  std::printf("run_all: wrote %s\n", out_path);

  // ---- stdout ----
  print_table3(t3);
  std::printf("[host] table3 %.2f s wall clock\n\n", host_seconds(t3));
  for (const auto& p : mt)
    std::printf("  mt %u cores x %u thread(s): %.3fs host (%.2fx), digest %016llx\n",
                p.cores, p.threads, p.host_seconds,
                p.host_seconds > 0 ? mt[0].host_seconds / p.host_seconds : 0.0,
                (unsigned long long)p.sim_digest);
  for (const auto& m : mixes)
    std::printf("  selftime %-12s %.1f -> %.1f ns/op (%.2fx)\n",
                m.name.c_str(), m.ref_ns_per_op, m.new_ns_per_op, m.speedup);
  std::printf("  selftime L1D hit %.1f ns, streaming L1D %.1f ns, payload "
              "FFT-1024 %.1f us, ADPCM 1024-sample block %.1f us\n",
              prims.l1d_hit_ns, prims.l1d_stream_ns, prims.fft1024_us,
              prims.adpcm1024_us);
  for (const auto& p : prr)
    std::printf("  prr_sched %-11s preempt %llu reclaim %llu hit %.1f%% "
                "grant %.2f us\n",
                p.name.c_str(), (unsigned long long)p.stats.preemptions,
                (unsigned long long)p.stats.reclaims, p.hit_rate * 100.0,
                p.avg_grant_us);

  std::vector<std::string> head{"variant", "guests"};
  for (const auto& c : kAblationCols) head.push_back(c.key);
  util::TextTable at(head);
  for (std::size_t i = 0; i < abl.size(); ++i) {
    std::vector<std::string> row{variants[i].name,
                                 std::to_string(variants[i].guests)};
    for (const auto& c : kAblationCols)
      row.push_back(std::visit(
          [&](auto field) {
            if constexpr (std::is_same_v<decltype(field), double M::*>)
              return util::TextTable::fmt_double(abl[i].*field, c.decimals);
            else
              return std::to_string(abl[i].*field);
          },
          c.field));
    at.add_row(std::move(row));
  }
  std::printf("\nAblations (%g ms simulated per variant)\n%s", kAblationSimMs,
              at.to_string().c_str());

  util::TextTable pt({"task", ".bit size (KiB)", "model (us)",
                      "measured (us)", "KiB/ms"});
  for (const auto& p : pcap)
    pt.add_row({p.task, std::to_string(p.bytes / kKiB),
                util::TextTable::fmt_double(p.model_us, 1),
                util::TextTable::fmt_double(p.measured_us, 1),
                util::TextTable::fmt_double(p.kib_per_ms, 0)});
  std::printf("\nPCAP reconfiguration latency vs bitstream size\n%s",
              pt.to_string().c_str());

  std::printf("\nFootprint (paper SV.B): %u hypercalls (paper 25), %u B kernel "
              "text (~40 KB ELF), %u B kernel heap, %u MiB reservation "
              "(20 MB), %llu KiB resident after boot (4 guests)\n",
              fp.hypercalls, fp.kernel_text_bytes, fp.kernel_heap_bytes,
              fp.reservation_bytes / kMiB, (unsigned long long)fp.resident_kib);
  for (const auto& c : fp.per_vm)
    std::printf("  per VM, %-12s %u B kernel heap, %u B page tables\n",
                c.config.c_str(), c.heap_bytes, c.pt_bytes);

  util::TextTable ht({"FFT size", "software (us)", "hw cold (us, +PCAP)",
                      "hw warm (us)", "speedup (warm)"});
  for (const auto& h : hvs)
    ht.add_row({h.task, util::TextTable::fmt_double(h.sw_us, 1),
                util::TextTable::fmt_double(h.hw_cold_us, 1),
                util::TextTable::fmt_double(h.hw_warm_us, 1),
                util::TextTable::fmt_double(h.speedup, 1) + "x"});
  std::printf("\nMotivation (paper SI): software DSP vs DPR hardware task\n%s",
              ht.to_string().c_str());
  return 0;
}
