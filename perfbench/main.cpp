// perfbench_driver — runs one benchmark workload in this process and prints
// its metrics, one per line with its unit, then a final JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>] [--commit <id>]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up is
// repeated several times (median reported), a warm-up fills the caches and
// finishes lazy VM boot, then chunks run closed-loop for --seconds.
// --trace 1 runs the workload twice, untraced and traced, checks that every
// simulated value is identical, and reports the per-layer ledger; the
// traced run's spans are written as Chrome trace-event JSON into --out-dir.
//
// Simulated values are snapshotted after a fixed number of chunks (the
// window), so they are deterministic for a seed and compare exactly
// between commits; host values cover the whole timed phase.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "probes.hpp"
#include "rigs.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb = perfbench;
using pb::u32;
using pb::u64;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the emitted keys against it).
const std::vector<MetricSpec> kEndToEnd = {
    {"sim_rate", "us/s"},          {"chunk_host_us.p50", "us"},
    {"chunk_host_us.tail", "us"},  {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},       {"vm_switch_cycles", "cycles"},
    {"heap_bytes_per_vm", "B"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"guest.step_host_us.p50", "us"},
    {"guest.step_host_us.tail", "us"},
    {"guest.steps", "count"},
    {"ucos.thw_requests", "count"},
    {"ucos.thw_busy_retries", "count"},
    {"ucos.thw_jobs_completed", "count"},
    {"nova.kernel_self_us", "us"},
    {"nova.switch_host_ns", "ns"},
    {"nova.trap.hypercall", "count"},
    {"nova.trap.irq", "count"},
    {"nova.trap.guest_fault", "count"},
    {"nova.trap.vfp_switch", "count"},
    {"nova.trap.service_call", "count"},
    {"nova.vm_switches", "count"},
    {"nova.virq_injected", "count"},
    {"nova.lazy_space_faults", "count"},
    {"nova.asid_generation", "count"},
    {"nova.ipis", "count"},
    {"nova.steals", "count"},
    {"nova.shootdowns", "count"},
    {"nova.create_vm_us", "us"},
    {"nova.destroy_vm_us", "us"},
    {"nova.hypercall_ns.request", "ns"},
    {"nova.hypercall_ns.release", "ns"},
    {"nova.hypercall_ns.query", "ns"},
    {"host_pool.parallel_efficiency", "ratio"},
    {"mmu.utlb_hit_ratio", "ratio"},
    {"cache.tlb_hit_ratio", "ratio"},
    {"cache.l1d_hit_ratio", "ratio"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.tlb_va_flushes", "count"},
    {"mmu.translate_ns.utlb_hit", "ns"},
    {"mmu.translate_ns.tlb_hit", "ns"},
    {"mmu.translate_ns.walk", "ns"},
    {"cache.access_ns.l1_hit", "ns"},
    {"cache.access_ns.l2_hit", "ns"},
    {"cache.access_ns.dram", "ns"},
    {"irq.raised", "count"},
    {"irq.acked", "count"},
    {"irq.highest_pending_ns.1", "ns"},
    {"irq.highest_pending_ns.64", "ns"},
    {"hwmgr.requests", "count"},
    {"hwmgr.grants_with_reconfig", "count"},
    {"hwmgr.busy_rejections", "count"},
    {"hwmgr.reclaims", "count"},
    {"hwmgr.preemptions", "count"},
    {"hwmgr.resumes", "count"},
    {"hwmgr.cache_hit_ratio", "ratio"},
    {"pl.pcap_transfers", "count"},
    {"pl.pcap_stalls", "count"},
    {"sim.pump_us", "us"},
    {"table3.entry_err_pct", "pct"},
    {"table3.exit_err_pct", "pct"},
    {"table3.irq_entry_err_pct", "pct"},
    {"table3.exec_err_pct", "pct"},
    {"table3.total_err_pct", "pct"},
    {"hwtask_us.p50", "us"},
    {"hwtask_us.tail", "us"},
    {"paper_err_pct", "pct"},
    {"grant_us.p50", "us"},
    {"grant_us.tail", "us"},
    {"trace.overhead_pct", "pct"},
};

// Simulated values printed as the workload's own end-to-end figures.
const char* const kSimHeadline[] = {"hwtask_us", "paper_err_pct", "grant_us",
                                    "vm_switch_cycles", "heap_bytes_per_vm"};

constexpr int kSetupRepeats = 15;
constexpr std::size_t kKeepSpans = 100'000;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("bad --seconds");
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("bad --trace");
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// The benchmark's own arithmetic on synthetic data; any mismatch makes
/// the run incorrect.
void self_check(pb::Verdict& v) {
  std::vector<double> s1000, s999, s15;
  for (int i = 1; i <= 1000; ++i) s1000.push_back(1001 - i);  // unsorted
  for (int i = 1; i <= 999; ++i) s999.push_back(i);
  for (int i = 1; i <= 15; ++i) s15.push_back(i);
  const pb::Summary a = pb::summarize(s1000);
  v.expect(a.p50 == 500 && a.tail_pct == 99.0 && a.tail == 990,
           "self-check: tail of 1..1000 must be p99 = 990");
  const pb::Summary b = pb::summarize(s999);
  v.expect(b.tail_pct == 95.0 && b.tail == 950,
           "self-check: tail of 1..999 must be p95 = 950");
  const pb::Summary c = pb::summarize(s15);
  v.expect(c.tail_pct == 0 && c.tail == 15,
           "self-check: tail of 15 samples must be the max");
  std::vector<double> s3001;
  for (int i = 1; i <= 3001; ++i) s3001.push_back(i);
  std::size_t blocks = 0;
  const pb::Summary d = pb::block_tail(s3001, 1000, blocks);
  v.expect(blocks == 3 && d.tail_pct == 99.0 && d.tail == 1990,
           "self-check: block tail of 1..3001 in 1000-blocks must be the "
           "median block p99 = 1990");

  const pb::Span parent{"p", 100, 200};
  const std::vector<pb::Span> kids = {{"a", 110, 130}, {"b", 120, 140},
                                      {"c", 190, 220}, {"d", 250, 260}};
  v.expect(pb::self_time_ns(parent, kids) == 60,
           "self-check: overlapping/outside children must leave 60 ns self");
  v.expect(pb::self_time_ns(parent, {}) == 100,
           "self-check: childless span is all self time");
  v.expect(pb::self_time_ns(parent, {{"x", 50, 300}}) == 0,
           "self-check: a covering child leaves no self time");
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the launching process's high-water mark
/// across exec, so it would report the Python runner's footprint.
double peak_rss_mib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Aggregates of the traced phase, built chunk by chunk from the span log.
/// Guest-step durations are kept for the window's chunks only (a fixed
/// amount of work), which bounds their memory on step-heavy workloads.
struct Ledger {
  std::vector<double> step_us;
  u64 chunk_ns = 0, guest_ns = 0, self_ns = 0, chunks = 0;
  pb::NameTotals by_name;

  void add(const pb::Span& root, const std::vector<pb::Span>& kids, bool in_window) {
    std::vector<pb::Span> guest;
    for (const pb::Span& s : kids) {
      by_name.add(s);
      if (std::strncmp(s.name, "guest.", 6) == 0) {
        guest.push_back(s);
        guest_ns += s.dur();
      }
      if (in_window && std::strcmp(s.name, "guest.step") == 0) {
        step_us.push_back(double(s.dur()) / 1e3);
      }
    }
    chunk_ns += root.dur();
    self_ns += pb::self_time_ns(root, guest);
    ++chunks;
  }
};

/// Host seconds of timed chunks per sim_rate block.
constexpr double kRateBlockS = 0.5;

/// One measured pass over a built rig: warm-up, then chunks until both the
/// window is complete and `seconds` have passed (seconds <= 0: window only).
/// Once the window is complete, `between` (if set) runs untimed after every
/// kRateBlockS of timed chunks.
struct Phase {
  std::vector<double> chunk_us;
  std::vector<double> chunk_sim_us;
  u64 failed = 0;
  double wall_s = 0;
  double window_host_s = 0;  // host time of the window's chunks alone
  double rss_mib = 0;  // peak RSS when the window completes
  pb::Metrics snap;
  u64 digest = 0;
};

Phase run_phase(pb::Rig& rig, double seconds, pb::SpanLog* log, Ledger* ledger,
                const std::function<void()>& between = {}) {
  Phase ph;
  const u64 warm = rig.warmup_chunks(), window = rig.window_chunks();
  std::vector<pb::Span> kids;
  const auto one = [&](u64 i, bool timed, bool in_window) {
    if (log != nullptr) log->begin_chunk(i);
    const double sim0 = timed ? rig.sim_us() : 0.0;
    const u64 t0 = pb::host_ns();
    const bool ok = rig.chunk(i);
    const u64 t1 = pb::host_ns();
    if (log != nullptr) {
      const pb::Span root = log->end_chunk(kids);
      if (timed && ledger != nullptr) ledger->add(root, kids, in_window);
    }
    if (!timed) return;
    ph.chunk_us.push_back(double(t1 - t0) / 1e3);
    ph.chunk_sim_us.push_back(rig.sim_us() - sim0);
    if (in_window) ph.window_host_s += double(t1 - t0) / 1e9;
    if (!ok) ++ph.failed;
  };
  for (u64 i = 0; i < warm; ++i) one(i, false, false);

  rig.mark();
  const u64 start = pb::host_ns();
  const u64 budget_ns = seconds > 0 ? u64(seconds * 1e9) : 0;
  u64 untimed_ns = 0;  // system rebuilds and `between` calls
  double since_between_us = 0;
  u64 i = warm;
  for (;;) {
    const u64 done = i - warm;
    if (done == window) {
      rig.snapshot(ph.snap, ph.digest);
      ph.rss_mib = peak_rss_mib();
    }
    if (done >= window && pb::host_ns() - start - untimed_ns >= budget_ns) break;
    one(i++, true, done < window);
    if (rig.needs_refresh()) {
      const u64 t0 = pb::host_ns();
      rig.refresh();
      untimed_ns += pb::host_ns() - t0;
    }
    if (between && done >= window) {
      since_between_us += ph.chunk_us.back();
      if (since_between_us >= kRateBlockS * 1e6) {
        const u64 t0 = pb::host_ns();
        between();
        untimed_ns += pb::host_ns() - t0;
        since_between_us = 0;
      }
    }
  }
  ph.wall_s = double(pb::host_ns() - start - untimed_ns) / 1e9;
  return ph;
}

/// Median simulation rate over consecutive blocks of at least
/// kRateBlockS host seconds of chunks: robust to a transient host stall.
double block_sim_rate(const Phase& ph) {
  std::vector<double> rates;
  double host = 0, sim = 0;
  for (std::size_t i = 0; i < ph.chunk_us.size(); ++i) {
    host += ph.chunk_us[i] / 1e6;
    sim += ph.chunk_sim_us[i];
    if (host >= kRateBlockS) {
      rates.push_back(sim / host);
      host = sim = 0;
    }
  }
  if (rates.empty() && host > 0) rates.push_back(sim / host);
  return pb::summarize(rates).p50;
}

/// A workload on the host-parallel engine must reproduce, bit for bit, the
/// simulated window of the same seed at another host thread count.
void check_thread_invariance(const Args& a, const pb::Rig& rig, u64 digest,
                             pb::Verdict& v) {
  if (rig.reference_threads() == 0) return;
  pb::RigOptions ro;
  ro.seed = a.seed;
  ro.host_threads = rig.reference_threads();
  auto ref = pb::make_rig(a.workload, ro);
  const Phase rp = run_phase(*ref, 0, nullptr, nullptr);
  v.expect(rp.digest == digest,
           a.workload + ": simulated digest differs from a " +
               std::to_string(ro.host_threads) + "-host-thread run");
}

void print_metric(const std::string& name, double value, const std::string& unit,
                  const std::string& note = "") {
  std::printf("  %-32s %.6g %s%s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

std::string tail_note(double pct, double n, const std::string& more = "") {
  char buf[64];
  if (pct > 0)
    std::snprintf(buf, sizeof(buf), "  (p%g, n=%.0f", pct, n);
  else
    std::snprintf(buf, sizeof(buf), "  (max, n=%.0f", n);
  return buf + more + ")";
}

void print_sim_headlines(const pb::Metrics& snap) {
  for (const char* key : kSimHeadline) {
    const std::string k = key;
    if (const pb::Metrics::Entry* e = snap.find(k)) {
      print_metric(k, e->value, e->unit);
    } else if (snap.find(k + ".p50") != nullptr) {
      print_metric(k + ".p50", snap.get(k + ".p50"), "us");
      print_metric(k + ".tail", snap.get(k + ".tail"), "us",
                   tail_note(snap.get(k + ".tail_pct"), snap.get(k + ".n")));
    }
  }
}

void emit_json(bool correct, u64 attempted, u64 failed,
               const std::vector<MetricSpec>& specs,
               const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
  }
  std::printf("}}\n");
}

void print_verdict(const pb::Verdict& v, u64 attempted, u64 failed) {
  std::printf("  %-32s %.6g  (%llu/%llu operations)\n", "fail_ratio",
              attempted ? double(failed) / double(attempted) : 0.0,
              (unsigned long long)failed, (unsigned long long)attempted);
  for (const auto& f : v.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());
}

int run_untraced(const Args& a, pb::Verdict& v) {
  pb::RigOptions opt;
  opt.seed = a.seed;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const u64 t0 = pb::host_ns();
    auto r = pb::make_rig(a.workload, opt);
    setup_s.push_back(double(pb::host_ns() - t0) / 1e9);
    return r;
  };
  std::unique_ptr<pb::Rig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    rig = set_up();
  }
  // Host speed drifts over seconds, so set-up is also sampled across the
  // timed phase: one more system is built (and dropped) per rate block.
  const Phase ph = run_phase(*rig, a.seconds, nullptr, nullptr, [&] { set_up(); });
  rig->verify(v);
  check_thread_invariance(a, *rig, ph.digest, v);

  const pb::Summary cs = pb::summarize(ph.chunk_us);
  std::size_t tail_blocks = 0;
  const pb::Summary ct =
      pb::block_tail(ph.chunk_us, rig->tail_block_chunks(), tail_blocks);
  std::map<std::string, double> m;
  m["sim_rate"] = block_sim_rate(ph);
  m["chunk_host_us.p50"] = cs.p50;
  m["chunk_host_us.tail"] = ct.tail;
  m["setup_s"] = pb::summarize(setup_s).p50;
  m["peak_rss_mib"] = ph.rss_mib;
  m["vm_switch_cycles"] = ph.snap.get("vm_switch_cycles");
  m["heap_bytes_per_vm"] = ph.snap.get("heap_bytes_per_vm");

  std::printf("stamp: nproc=%u host_threads=%u compiler=\"%s\" build_type=%s "
              "commit=%s\n",
              std::thread::hardware_concurrency(), rig->host_threads(),
              compiler_id().c_str(), PERFBENCH_BUILD_TYPE, a.commit.c_str());
  std::printf("chunk = %s; %zu timed chunks in %.3f s; window = %llu chunks "
              "after %llu warm-up; sim_digest = %016llx\n",
              rig->chunk_unit(), ph.chunk_us.size(), ph.wall_s,
              (unsigned long long)rig->window_chunks(),
              (unsigned long long)rig->warmup_chunks(),
              (unsigned long long)ph.digest);
  std::printf("host (tracing off):\n");
  print_metric("sim_rate", m["sim_rate"], "us/s",
               "  (median over 0.5 s blocks of the timed phase)");
  print_metric("chunk_host_us.p50", cs.p50, "us");
  print_metric("chunk_host_us.tail", ct.tail, "us",
               tail_note(ct.tail_pct, double(ct.n),
                         ", median over " + std::to_string(tail_blocks) +
                             " blocks of " +
                             std::to_string(rig->tail_block_chunks()) +
                             " chunks"));
  print_metric("setup_s", m["setup_s"], "s",
               "  (median of " + std::to_string(setup_s.size()) + ")");
  print_metric("peak_rss_mib", m["peak_rss_mib"], "MiB",
               "  (VmHWM when the window completes)");
  std::printf("simulated (window):\n");
  print_sim_headlines(ph.snap);

  const u64 attempted = ph.chunk_us.size();
  const u64 failed = v.ok() ? ph.failed : attempted;
  print_verdict(v, attempted, failed);
  emit_json(v.ok() && failed == 0, attempted, failed, kEndToEnd, m);
  return 0;
}

int run_traced(const Args& a, pb::Verdict& v) {
  // Untraced reference pass over the window only.
  pb::RigOptions opt;
  opt.seed = a.seed;
  auto plain = pb::make_rig(a.workload, opt);
  const Phase up = run_phase(*plain, 0, nullptr, nullptr);
  plain->verify(v);
  check_thread_invariance(a, *plain, up.digest, v);
  const u32 threads = plain->host_threads();
  plain.reset();

  pb::SpanLog log(kKeepSpans);
  opt.log = &log;
  auto rig = pb::make_rig(a.workload, opt);
  Ledger led;
  const Phase tp = run_phase(*rig, a.seconds, &log, &led);
  rig->verify(v);

  // Tracing must not change a single simulated value.
  v.expect(tp.digest == up.digest, a.workload + ": traced digest differs");
  for (const auto& e : up.snap.items)
    v.expect(tp.snap.find(e.name) != nullptr && tp.snap.get(e.name) == e.value,
             a.workload + ": traced run changed simulated " + e.name);

  std::map<std::string, double> m;
  for (const auto& e : tp.snap.items) m[e.name] = e.value;
  const pb::Summary st = pb::summarize(led.step_us);
  m["guest.step_host_us.p50"] = st.p50;
  m["guest.step_host_us.tail"] = st.tail;
  m["guest.steps"] = double(led.step_us.size());
  m["nova.kernel_self_us"] =
      led.chunks ? double(led.self_ns) / 1e3 / double(led.chunks) : 0.0;
  m["nova.switch_host_ns"] =
      tp.snap.get("nova.vm_switches") > 0
          ? tp.window_host_s * 1e9 / tp.snap.get("nova.vm_switches")
          : 0.0;
  const auto mean_us = [&](const char* name) {
    const auto t = log.total(name);
    return t.count ? double(t.ns) / 1e3 / double(t.count) : 0.0;
  };
  m["nova.create_vm_us"] = mean_us("nova.create_vm");
  m["nova.destroy_vm_us"] = mean_us("nova.destroy_vm");
  m["nova.hypercall_ns.request"] = led.by_name.mean_ns("hc.request");
  m["nova.hypercall_ns.release"] = led.by_name.mean_ns("hc.release");
  m["nova.hypercall_ns.query"] = led.by_name.mean_ns("hc.query");
  m["host_pool.parallel_efficiency"] =
      led.chunk_ns ? double(led.guest_ns) / (double(threads) * double(led.chunk_ns))
                   : 0.0;
  m["sim.pump_us"] =
      led.chunks ? double(led.by_name.get("sim.pump").ns) / 1e3 / double(led.chunks) : 0.0;
  m["trace.overhead_pct"] =
      up.window_host_s > 0 ? (tp.window_host_s / up.window_host_s - 1.0) * 100.0
                           : 0.0;
  const auto probes = pb::run_probes();
  for (const auto& p : probes) {
    m[p.name] = p.ns_per_call;
    v.expect(p.purity >= 0.99, "probe " + p.name + " missed its class");
  }

  std::printf("stamp: nproc=%u host_threads=%u compiler=\"%s\" build_type=%s "
              "commit=%s\n",
              std::thread::hardware_concurrency(), threads, compiler_id().c_str(),
              PERFBENCH_BUILD_TYPE, a.commit.c_str());
  std::printf("traced: %zu timed chunks in %.3f s; sim_digest = %016llx "
              "(untraced %016llx)\n",
              tp.chunk_us.size(), tp.wall_s, (unsigned long long)tp.digest,
              (unsigned long long)up.digest);
  std::printf("per-layer:\n");
  for (const auto& s : kPerLayer) {
    std::string note;
    const std::string n = s.name;
    if (n == "guest.step_host_us.tail") note = tail_note(st.tail_pct, double(st.n));
    for (const char* base : {"hwtask_us", "grant_us"})
      if (n == std::string(base) + ".tail")
        note = tail_note(tp.snap.get(std::string(base) + ".tail_pct"),
                         tp.snap.get(std::string(base) + ".n"));
    print_metric(n, m.count(n) ? m[n] : 0.0, s.unit, note);
  }
  for (const auto& p : probes)
    std::printf("  probe %-26s purity %.4f\n", p.name.c_str(), p.purity);

  const std::string path =
      a.out_dir + "/trace_" + a.workload + ".json";
  char meta[512];
  std::snprintf(meta, sizeof(meta),
                "\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
                "\"host_threads\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"commit\":\"%s\",\"spans_dropped\":%llu",
                a.workload.c_str(), (unsigned long long)a.seed,
                std::thread::hardware_concurrency(), threads,
                compiler_id().c_str(), PERFBENCH_BUILD_TYPE, a.commit.c_str(),
                (unsigned long long)log.dropped());
  if (log.write_chrome(path, meta))
    std::printf("trace: %zu spans kept (%llu beyond the cap) -> %s\n", log.kept(),
                (unsigned long long)log.dropped(), path.c_str());
  else
    v.expect(false, "cannot write " + path);

  const u64 attempted = up.chunk_us.size() + tp.chunk_us.size();
  const u64 failed = v.ok() ? up.failed + tp.failed : attempted;
  print_verdict(v, attempted, failed);
  emit_json(v.ok() && failed == 0, attempted, failed, kPerLayer, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const auto& names = pb::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload");
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), (unsigned long long)a.seed, a.seconds, a.trace);
  pb::Verdict v;
  self_check(v);
  return a.trace == 0 ? run_untraced(a, v) : run_traced(a, v);
}
