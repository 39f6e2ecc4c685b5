// Bench driver: runs the Table III configurations and the memory fast-path
// self-timing mixes, then writes one machine-readable BENCH_results.json.
//
// The JSON separates two kinds of numbers:
//   * simulated quantities (latency rows, trap counts, hit rates) — these
//     are deterministic and diffed against bench/golden_table3.json in CI
//     (bench/check_table3.py);
//   * host quantities (wall-clock seconds, ns/op, speedups, sim-rate) —
//     machine-dependent, reported but never golden-diffed.
//
// Usage: run_all [sim_ms_per_config] [output.json]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <thread>

#include "density.hpp"
#include "harness.hpp"
#include "mt.hpp"
#include "prr_sched.hpp"
#include "selftime.hpp"
#include "smp.hpp"

using namespace minova;

namespace {

std::string jd(double v) {  // full-precision JSON double
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double sim_ms = 50.0;
  const char* out_path = "BENCH_results.json";
  if (argc > 1) sim_ms = std::stod(argv[1]);
  if (argc > 2) out_path = argv[2];

  std::printf("run_all: Table III (%g ms/config) ...\n", sim_ms);
  bench::Measurement rows[5];
  rows[0] = bench::run_native(sim_ms, 42);
  for (u32 g = 1; g <= 4; ++g)
    rows[g] = bench::run_virtualized(g, sim_ms, 42);

  std::printf("run_all: SMP scaling 1/2/4/8 cores ...\n");
  std::vector<bench::SmpPoint> smp;
  for (u32 c : {1u, 2u, 4u, 8u})
    smp.push_back(bench::run_smp_point(c, sim_ms));

  std::printf("run_all: host-parallel 4 cores x 1/2/4 threads ...\n");
  std::vector<bench::MtPoint> mt;
  for (u32 t : {1u, 2u, 4u}) mt.push_back(bench::run_mt_point(4, t, sim_ms));

  std::printf("run_all: self-timing mixes ...\n");
  const auto mixes = bench::run_all_mixes();

  std::printf("run_all: density sweep 8 -> 1024 VMs ...\n");
  std::vector<bench::DensityPoint> density;
  for (u32 n : bench::density_sweep())
    density.push_back(bench::measure_density(n));
  const bench::ChurnResult churn = bench::run_churn(1024, 3);

  std::printf("run_all: PRR scheduler contention sweep (40 rounds) ...\n");
  const u32 prr_iters = 40;  // fixed so the simulated counters are diffable
  const auto prr = bench::run_prr_sched_sweep(prr_iters);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "run_all: cannot open %s\n", out_path);
    return 1;
  }

  const auto row_d = [&](const char* name, double bench::Measurement::* m,
                         bool last = false) {
    std::fprintf(f, "      \"%s\": [", name);
    for (int i = 0; i < 5; ++i)
      std::fprintf(f, "%s%s", jd(rows[i].*m).c_str(), i < 4 ? ", " : "");
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };
  const auto row_u = [&](const char* name, u64 bench::Measurement::* m,
                         bool last = false) {
    std::fprintf(f, "      \"%s\": [", name);
    for (int i = 0; i < 5; ++i)
      std::fprintf(f, "%llu%s", (unsigned long long)(rows[i].*m),
                   i < 4 ? ", " : "");
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };

  std::fprintf(f, "{\n  \"schema\": \"minova-bench-1\",\n");
  std::fprintf(f, "  \"table3\": {\n    \"sim_ms\": %s,\n", jd(sim_ms).c_str());
  std::fprintf(f, "    \"configs\": [\"native\", \"1\", \"2\", \"3\", \"4\"],\n");
  std::fprintf(f, "    \"sim_rows\": {\n");
  row_d("entry", &bench::Measurement::entry);
  row_d("exit", &bench::Measurement::exit);
  row_d("irq_entry", &bench::Measurement::irq_entry);
  row_d("exec", &bench::Measurement::exec);
  row_d("total", &bench::Measurement::total);
  {
    std::fprintf(f, "      \"samples\": [");
    for (int i = 0; i < 5; ++i)
      std::fprintf(f, "%zu%s", rows[i].samples, i < 4 ? ", " : "");
    std::fprintf(f, "],\n");
  }
  row_u("hypercalls", &bench::Measurement::hypercalls);
  row_u("irq_traps", &bench::Measurement::irq_traps);
  row_d("utlb_hit_rate", &bench::Measurement::utlb_hit_rate);
  row_d("tlb_hit_rate", &bench::Measurement::tlb_hit_rate);
  row_d("l1d_hit_rate", &bench::Measurement::l1d_hit_rate);
  row_d("l2_hit_rate", &bench::Measurement::l2_hit_rate);
  row_u("tlb_va_flushes", &bench::Measurement::tlb_va_flushes, true);
  std::fprintf(f, "    },\n");
  {
    double host_s = 0, sim_us = 0;
    for (const auto& r : rows) {
      host_s += r.host_seconds;
      sim_us += r.sim_us;
    }
    std::fprintf(f, "    \"host\": {\"seconds\": %s, \"sim_us_per_host_s\": %s}\n",
                 jd(host_s).c_str(),
                 jd(host_s > 0 ? sim_us / host_s : 0.0).c_str());
  }
  // SMP section: the same 4-guest configuration at 1/2/4/8 cores. The
  // cores=1 latency and trap rows are golden-gated: check_table3.py asserts
  // they are bit-identical to the table3 4-guest column above (the unicore
  // kernel takes none of the SMP paths).
  std::fprintf(f, "  },\n  \"smp\": {\n    \"cores\": [");
  for (std::size_t i = 0; i < smp.size(); ++i)
    std::fprintf(f, "%u%s", smp[i].cores, i + 1 < smp.size() ? ", " : "");
  std::fprintf(f, "],\n");
  const auto smp_d = [&](const char* name,
                         double bench::Measurement::* m, bool last = false) {
    std::fprintf(f, "    \"%s\": [", name);
    for (std::size_t i = 0; i < smp.size(); ++i)
      std::fprintf(f, "%s%s", jd(smp[i].m.*m).c_str(),
                   i + 1 < smp.size() ? ", " : "");
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };
  const auto smp_u = [&](const char* name, u64 bench::SmpPoint::* m,
                         bool last = false) {
    std::fprintf(f, "    \"%s\": [", name);
    for (std::size_t i = 0; i < smp.size(); ++i)
      std::fprintf(f, "%llu%s", (unsigned long long)(smp[i].*m),
                   i + 1 < smp.size() ? ", " : "");
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };
  smp_d("entry", &bench::Measurement::entry);
  smp_d("exit", &bench::Measurement::exit);
  smp_d("irq_entry", &bench::Measurement::irq_entry);
  smp_d("exec", &bench::Measurement::exec);
  smp_d("total", &bench::Measurement::total);
  {
    std::fprintf(f, "    \"samples\": [");
    for (std::size_t i = 0; i < smp.size(); ++i)
      std::fprintf(f, "%zu%s", smp[i].m.samples,
                   i + 1 < smp.size() ? ", " : "");
    std::fprintf(f, "],\n");
  }
  const auto smp_m = [&](const char* name, u64 bench::Measurement::* m) {
    std::fprintf(f, "    \"%s\": [", name);
    for (std::size_t i = 0; i < smp.size(); ++i)
      std::fprintf(f, "%llu%s", (unsigned long long)(smp[i].m.*m),
                   i + 1 < smp.size() ? ", " : "");
    std::fprintf(f, "],\n");
  };
  smp_m("hypercalls", &bench::Measurement::hypercalls);
  smp_m("irq_traps", &bench::Measurement::irq_traps);
  smp_u("ipis_sent", &bench::SmpPoint::ipis_sent);
  smp_u("steals", &bench::SmpPoint::steals);
  smp_u("shootdowns_sent", &bench::SmpPoint::shootdowns_sent);
  smp_u("shootdown_acks", &bench::SmpPoint::shootdown_acks);
  smp_u("cross_core_irqs", &bench::SmpPoint::cross_core_irqs);
  smp_u("vm_switches", &bench::SmpPoint::vm_switches, true);
  // Host-parallel section (DESIGN.md §14): the compute-saturated 4-core
  // configuration at 1/2/4 host threads. sim_digest is a simulated
  // quantity and must be identical across the thread sweep (check_table3.py
  // fails on divergence); host_seconds / host_speedup are machine numbers —
  // the speedup floor is only gated when the host has >= 4 CPUs.
  std::fprintf(f, "  },\n  \"mt\": {\n    \"cores\": %u,\n    \"threads\": [",
               mt.empty() ? 0 : mt[0].cores);
  for (std::size_t i = 0; i < mt.size(); ++i)
    std::fprintf(f, "%u%s", mt[i].threads, i + 1 < mt.size() ? ", " : "");
  std::fprintf(f, "],\n    \"host_seconds\": [");
  for (std::size_t i = 0; i < mt.size(); ++i)
    std::fprintf(f, "%s%s", jd(mt[i].host_seconds).c_str(),
                 i + 1 < mt.size() ? ", " : "");
  std::fprintf(f, "],\n    \"host_speedup\": [");
  for (std::size_t i = 0; i < mt.size(); ++i)
    std::fprintf(f, "%s%s",
                 jd(mt[i].host_seconds > 0
                        ? mt[0].host_seconds / mt[i].host_seconds
                        : 0.0)
                     .c_str(),
                 i + 1 < mt.size() ? ", " : "");
  std::fprintf(f, "],\n    \"sim_us_per_host_s\": [");
  for (std::size_t i = 0; i < mt.size(); ++i)
    std::fprintf(f, "%s%s", jd(mt[i].sim_us_per_host_s()).c_str(),
                 i + 1 < mt.size() ? ", " : "");
  std::fprintf(f, "],\n    \"sim_digest\": [");
  for (std::size_t i = 0; i < mt.size(); ++i)
    std::fprintf(f, "\"%016llx\"%s", (unsigned long long)mt[i].sim_digest,
                 i + 1 < mt.size() ? ", " : "");
  std::fprintf(f, "],\n    \"host_cpus\": %u\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  },\n  \"selftime\": [\n");
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const auto& m = mixes[i];
    std::fprintf(f,
                 "    {\"mix\": \"%s\", \"accesses\": %llu, "
                 "\"sim_us\": %s, \"ref_ns_per_op\": %s, "
                 "\"new_ns_per_op\": %s, \"speedup\": %s, "
                 "\"sim_us_per_host_s\": %s}%s\n",
                 m.name.c_str(), (unsigned long long)m.accesses,
                 jd(m.sim_us).c_str(), jd(m.ref_ns_per_op).c_str(),
                 jd(m.new_ns_per_op).c_str(), jd(m.speedup).c_str(),
                 jd(m.sim_us_per_host_s).c_str(),
                 i + 1 < mixes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"density\": {\n");
  const auto density_row = [&](const char* name, auto get, bool last = false) {
    std::fprintf(f, "    \"%s\": [", name);
    for (std::size_t i = 0; i < density.size(); ++i)
      std::fprintf(f, "%s%s", get(density[i]).c_str(),
                   i + 1 < density.size() ? ", " : "");
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };
  density_row("vms", [](const bench::DensityPoint& p) {
    return std::to_string(p.vms);
  });
  density_row("switches", [](const bench::DensityPoint& p) {
    return std::to_string(p.switches);
  });
  density_row("sim_cycles_per_switch", [&](const bench::DensityPoint& p) {
    return jd(p.sim_cycles_per_switch);
  });
  density_row("heap_bytes_per_vm", [&](const bench::DensityPoint& p) {
    return jd(p.heap_bytes_per_vm);
  });
  density_row("asid_generation", [](const bench::DensityPoint& p) {
    return std::to_string(p.asid_generation);
  });
  density_row("host_ns_per_switch", [&](const bench::DensityPoint& p) {
    return jd(p.host_ns_per_switch);
  });
  std::fprintf(f,
               "    \"churn\": {\"vms\": %u, \"cycles\": %u, "
               "\"heap_flat\": %s, \"vms_destroyed\": %llu, "
               "\"asid_generation\": %u}\n",
               churn.vms, churn.cycles, churn.heap_flat ? "true" : "false",
               (unsigned long long)churn.vms_destroyed, churn.asid_generation);
  // PRR scheduler section (DESIGN.md §15): the legacy/sched/sched_cache
  // contention sweep. Counters and grant latency are simulated and gated by
  // check_table3.py acceptance thresholds; host seconds are reported only.
  std::fprintf(f, "  },\n  \"prr_sched\": {\n    \"iterations\": %u,\n",
               prr_iters);
  std::fprintf(f, "    \"configs\": [");
  for (std::size_t i = 0; i < prr.size(); ++i)
    std::fprintf(f, "\"%s\"%s", prr[i].name.c_str(),
                 i + 1 < prr.size() ? ", " : "");
  std::fprintf(f, "],\n");
  const auto prr_u = [&](const char* name, u64 hwmgr::ManagerStats::* m,
                         bool last = false) {
    std::fprintf(f, "    \"%s\": [", name);
    for (std::size_t i = 0; i < prr.size(); ++i)
      std::fprintf(f, "%llu%s", (unsigned long long)(prr[i].stats.*m),
                   i + 1 < prr.size() ? ", " : "");
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };
  prr_u("preemptions", &hwmgr::ManagerStats::preemptions);
  prr_u("resumes", &hwmgr::ManagerStats::resumes);
  prr_u("wait_grants", &hwmgr::ManagerStats::wait_grants);
  prr_u("reclaims", &hwmgr::ManagerStats::reclaims);
  prr_u("grants_with_reconfig", &hwmgr::ManagerStats::grants_with_reconfig);
  prr_u("cache_hits", &hwmgr::ManagerStats::cache_hits);
  prr_u("cache_misses", &hwmgr::ManagerStats::cache_misses);
  prr_u("cache_evictions", &hwmgr::ManagerStats::cache_evictions);
  std::fprintf(f, "    \"hit_rate\": [");
  for (std::size_t i = 0; i < prr.size(); ++i)
    std::fprintf(f, "%s%s", jd(prr[i].hit_rate).c_str(),
                 i + 1 < prr.size() ? ", " : "");
  std::fprintf(f, "],\n    \"avg_grant_us\": [");
  for (std::size_t i = 0; i < prr.size(); ++i)
    std::fprintf(f, "%s%s", jd(prr[i].avg_grant_us).c_str(),
                 i + 1 < prr.size() ? ", " : "");
  std::fprintf(f, "],\n    \"host_seconds\": [");
  for (std::size_t i = 0; i < prr.size(); ++i)
    std::fprintf(f, "%s%s", jd(prr[i].host_seconds).c_str(),
                 i + 1 < prr.size() ? ", " : "");
  std::fprintf(f, "]\n  }\n}\n");
  std::fclose(f);

  std::printf("run_all: wrote %s\n", out_path);
  for (const auto& p : mt)
    std::printf("  mt %u cores x %u thread(s): %.3fs host (%.2fx), digest %016llx\n",
                p.cores, p.threads, p.host_seconds,
                p.host_seconds > 0 ? mt[0].host_seconds / p.host_seconds : 0.0,
                (unsigned long long)p.sim_digest);
  for (const auto& m : mixes)
    std::printf("  selftime %-12s %.1f -> %.1f ns/op (%.2fx)\n",
                m.name.c_str(), m.ref_ns_per_op, m.new_ns_per_op, m.speedup);
  for (const auto& p : prr)
    std::printf("  prr_sched %-11s preempt %llu reclaim %llu hit %.1f%% "
                "grant %.2f us\n",
                p.name.c_str(), (unsigned long long)p.stats.preemptions,
                (unsigned long long)p.stats.reclaims, p.hit_rate * 100.0,
                p.avg_grant_us);
  return 0;
}
