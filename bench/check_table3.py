#!/usr/bin/env python3
"""Diff a BENCH_results.json against the checked-in Table III golden.

Only *simulated* quantities are compared (latency rows, trap counts, hit
rates): these are deterministic across hosts — any drift means a change
altered simulated behaviour, violating the bit-identical invariant
(DESIGN.md §10). Host-side numbers (wall clock, ns/op, speedups) are
machine-dependent and ignored.

Integers must match exactly. Floats are compared with a tiny relative
tolerance that only absorbs printf round-tripping, not behavioural drift.

The table3, ablations, pcap, footprint and hw_vs_sw sections are diffed
against the golden by one function (golden_diff); the sections that carry
a claim also get shape gates, so a regenerated golden cannot silently drop
the claim. Every section (table3, density, smp, mt, prr_sched, ablations,
pcap, footprint, hw_vs_sw) is required. All of them are checked even when an earlier one fails, and the
exit status is non-zero if any failed.

Usage: check_table3.py BENCH_results.json [golden_table3.json]
"""
import json
import math
import pathlib
import sys

REL_TOL = 1e-9
# Density acceptance: per-switch cost flat within 10% across 8 -> 1024 VMs.
DENSITY_SPREAD_MAX = 0.10
# PRR scheduler acceptance: the 4-entry cache must hold the sweep's hot
# task set (ISSUE gate: >= 50% hit rate with the scheduler features on).
PRR_HIT_RATE_MIN = 0.50
# Preempt + park + resume may cost the high-priority client at most this
# multiple of the legacy blind-reclaim grant latency.
PRR_SCHED_LATENCY_MAX = 1.5
# Overlapped PCAP (§IV.E): making the manager wait for the transfer must
# inflate the response by at least this factor.
PCAP_BLOCKING_MIN_RATIO = 50.0
# PCAP throughput is one constant rate: latency scales with .bit size.
PCAP_RATE_SPREAD_MAX = 0.01
# §V.B: the kernel provides 25 hypercalls in a 20 MB runtime footprint.
PAPER_HYPERCALLS = 25
PAPER_RESERVATION_MAX_BYTES = 20 * 10**6


class CheckFailed(Exception):
    """A section violated a gate; main() reports it and checks the rest."""


def fail(msg: str) -> None:
    raise CheckFailed(msg)


def check_density(density: dict) -> None:
    """Validate the VM-density section: O(1) switch cost and leak-free churn.

    These are acceptance thresholds rather than golden values: the curve
    shape is the claim, exact cycle counts may legitimately shift when the
    switch path itself changes (the Table III golden catches that).
    """
    vms = density.get("vms", [])
    cyc = density.get("sim_cycles_per_switch", [])
    if len(vms) < 2 or len(cyc) != len(vms):
        fail("density section malformed (need matched vms/cycles arrays)")
    lo, hi = min(cyc), max(cyc)
    if lo <= 0:
        fail("density sweep measured no switches")
    spread = hi / lo - 1.0
    if spread >= DENSITY_SPREAD_MAX:
        fail(f"switch cost not flat: {spread:.2%} spread across "
             f"{vms[0]} -> {vms[-1]} VMs (max {DENSITY_SPREAD_MAX:.0%})")
    churn = density.get("churn", {})
    if churn.get("heap_flat") is not True:
        fail(f"churn cycles grew the kernel heap: {churn}")
    print(f"check_table3: density OK — {spread:.2%} switch-cost spread over "
          f"{vms[0]}..{vms[-1]} VMs, churn heap flat "
          f"({churn.get('vms_destroyed')} VMs destroyed)")


def check_prr_sched(ps: dict) -> None:
    """Validate the PRR-scheduler contention sweep (DESIGN.md §15).

    Acceptance thresholds, not golden values: the legacy leg proves the
    default-off config stays priority-blind with zero cache traffic, the
    scheduler legs prove preempt/park/resume fires every round, and the
    cached leg proves the bitstream cache earns its keep (>= 50% hit rate
    and a lower high-priority grant latency than the uncached leg).
    """
    configs = ps.get("configs", [])
    iters = int(ps.get("iterations", 0))
    if configs[:1] != ["legacy"] or len(configs) < 3 or iters <= 0:
        fail(f"prr_sched section malformed: configs={configs}, "
             f"iterations={iters}")

    def col(name: str, i: int):
        vals = ps.get(name, [])
        if i >= len(vals):
            fail(f"prr_sched row '{name}' missing config index {i}")
        return vals[i]

    bad = 0
    # Legacy: priority-blind reclaim, no scheduler machinery.
    if col("preemptions", 0) != 0 or col("resumes", 0) != 0:
        print("  prr_sched legacy leg ran the preemption path")
        bad += 1
    if col("cache_hits", 0) + col("cache_misses", 0) != 0:
        print("  prr_sched legacy leg generated cache traffic")
        bad += 1
    if col("reclaims", 0) != iters:
        print(f"  prr_sched legacy reclaims {col('reclaims', 0)} != "
              f"{iters} rounds")
        bad += 1
    # Scheduler legs: one preempt -> park -> resume cycle per round.
    for i, name in enumerate(configs[1:], start=1):
        for row in ("preemptions", "resumes", "wait_grants"):
            if col(row, i) != iters:
                print(f"  prr_sched {name} '{row}' {col(row, i)} != {iters}")
                bad += 1
        # `reclaims` counts every takeover, `preemptions` the
        # priority-checked subset: equal means no blind takeover happened.
        if col("reclaims", i) != col("preemptions", i):
            print(f"  prr_sched {name} fell back to blind reclaim")
            bad += 1
    # Uncached scheduler leg: the cache stays out of the way, and park +
    # resume costs the high-priority client little over a blind reclaim.
    if col("cache_hits", 1) + col("cache_misses", 1) != 0:
        print(f"  prr_sched {configs[1]} leg generated cache traffic")
        bad += 1
    if float(col("avg_grant_us", 1)) >= (PRR_SCHED_LATENCY_MAX *
                                         float(col("avg_grant_us", 0))):
        print(f"  prr_sched {configs[1]} grant latency "
              f"{col('avg_grant_us', 1)} us not below "
              f"{PRR_SCHED_LATENCY_MAX}x legacy {col('avg_grant_us', 0)} us")
        bad += 1
    # Cached leg (last config): hit rate and latency win.
    last = len(configs) - 1
    hit_rate = float(col("hit_rate", last))
    if hit_rate < PRR_HIT_RATE_MIN:
        print(f"  prr_sched {configs[last]} hit rate {hit_rate:.1%} below "
              f"{PRR_HIT_RATE_MIN:.0%}")
        bad += 1
    lookups = col("cache_hits", last) + col("cache_misses", last)
    if lookups != col("grants_with_reconfig", last):
        print(f"  prr_sched {configs[last]} cache lookups {lookups} != "
              f"reconfig grants {col('grants_with_reconfig', last)}")
        bad += 1
    if float(col("avg_grant_us", last)) >= float(col("avg_grant_us",
                                                     last - 1)):
        print(f"  prr_sched cache did not cut grant latency: "
              f"{col('avg_grant_us', last)} vs {col('avg_grant_us', last-1)}")
        bad += 1
    if bad:
        fail(f"{bad} PRR-scheduler value(s) violated the acceptance gates")
    print(f"check_table3: prr_sched OK — {iters} preempt/resume rounds, "
          f"{hit_rate:.1%} cache hit rate, grant latency "
          f"{float(col('avg_grant_us', last)):.2f} us (cached) vs "
          f"{float(col('avg_grant_us', last - 1)):.2f} us (uncached)")


def check_smp(smp: dict, t3: dict) -> None:
    """Validate the SMP section against the unicore Table III results.

    The cores=1 point runs the exact Table III 4-guest configuration on a
    one-core kernel, so every latency row must be bit-identical to the
    table3 section's last column — the SMP refactor's no-regression gate.
    Multi-core points must show live protocol machinery (IPIs, shootdowns).
    """
    cores = smp.get("cores", [])
    if not cores or cores[0] != 1:
        fail("smp section must lead with a cores=1 point")
    rows = t3.get("sim_rows", {})
    bad = 0
    for name in ("entry", "exit", "irq_entry", "exec", "total", "samples",
                 "hypercalls", "irq_traps"):
        got = smp.get(name, [None])[0]
        want = rows.get(name, [None])[-1]  # table3's 4-guest column
        if got is None or want is None:
            print(f"  smp row '{name}' missing")
            bad += 1
            continue
        if not math.isclose(float(got), float(want), rel_tol=REL_TOL,
                            abs_tol=1e-12):
            print(f"  smp cores=1 '{name}': got {got}, table3 4-guest {want}")
            bad += 1
    for name in ("ipis_sent", "shootdowns_sent", "steals"):
        if smp.get(name, [None])[0] != 0:
            print(f"  smp cores=1 '{name}' nonzero: unicore ran SMP paths")
            bad += 1
    for i, n in enumerate(cores[1:], start=1):
        for name in ("ipis_sent", "shootdowns_sent", "shootdown_acks"):
            vals = smp.get(name, [])
            if i >= len(vals) or vals[i] == 0:
                print(f"  smp cores={n} '{name}' is zero: protocol dead")
                bad += 1
    if bad:
        fail(f"{bad} SMP value(s) violated the scaling gates")
    print(f"check_table3: smp OK — cores=1 bit-identical to the 4-guest "
          f"row; protocol live at cores={cores[1:]}")


def check_mt(mt: dict, gates: dict) -> None:
    """Validate the host-parallel section (DESIGN.md §14).

    sim_digest is simulated and must be identical at every thread count —
    any divergence means the host-thread engine leaked into simulated
    state, which fails the build unconditionally. Throughput (host_speedup
    at the highest thread count) is a machine number: it is gated against
    the golden floor only when the host has at least that many CPUs,
    otherwise skipped with a note.
    """
    threads = mt.get("threads", [])
    digests = mt.get("sim_digest", [])
    if not threads or threads[0] != 1 or len(digests) != len(threads):
        fail("mt section must lead with a threads=1 point and carry one "
             "digest per point")
    bad = 0
    for t, d in zip(threads[1:], digests[1:]):
        if d != digests[0]:
            print(f"  mt threads={t} digest {d} != threads=1 {digests[0]}")
            bad += 1
    if bad:
        fail(f"{bad} host-thread digest(s) diverged — simulated state "
             "depends on the thread count")

    floor = float(gates.get("mt_min_speedup_top", 0.0))
    rate_floor = float(gates.get("mt_min_sim_us_per_host_s", 0.0))
    top_t = threads[-1]
    speedup = float(mt.get("host_speedup", [0.0])[-1])
    host_cpus = int(mt.get("host_cpus", 0))
    if rate_floor > 0:
        rate = float(mt.get("sim_us_per_host_s", [0.0])[0])
        if rate < rate_floor:
            fail(f"mt threads=1 simulation rate {rate:.0f} us/s below "
                 f"floor {rate_floor:.0f}")
    if floor > 0:
        if host_cpus >= top_t:
            if speedup < floor:
                fail(f"mt threads={top_t} host speedup {speedup:.2f}x below "
                     f"golden floor {floor:.2f}x")
            print(f"check_table3: mt OK — digests thread-invariant, "
                  f"{speedup:.2f}x at {top_t} threads (floor {floor:.2f}x)")
            return
        print(f"check_table3: mt digests thread-invariant; speedup gate "
              f"SKIPPED (host has {host_cpus} CPUs < {top_t})")
        return
    print("check_table3: mt OK — digests thread-invariant (no speedup gate)")


def golden_diff(name: str, got: dict, want: dict, label_key: str) -> int:
    """Diff one section's simulated values against its golden, bit for bit.

    Every golden key but sim_rows (the duration, the point labels) must
    match exactly. Every sim_rows value must match: integers exactly,
    floats to REL_TOL. Prints each mismatch and returns their count.
    """
    for key, w in want.items():
        if key != "sim_rows" and got.get(key) != w:
            fail(f"{name} '{key}' mismatch: results {got.get(key)}, "
                 f"golden {w}")
    labels = want[label_key]
    rows = got.get("sim_rows", {})
    bad = 0
    for row, wvals in want["sim_rows"].items():
        gvals = rows.get(row)
        if gvals is None or len(gvals) != len(wvals):
            print(f"  {name}: row '{row}' missing or wrong length")
            bad += 1
            continue
        for label, g, w in zip(labels, gvals, wvals):
            if isinstance(w, int) and isinstance(g, int):
                ok = g == w
            else:
                ok = math.isclose(float(g), float(w), rel_tol=REL_TOL,
                                  abs_tol=1e-12)
            if not ok:
                print(f"  {name} row '{row}' {label}: got {g}, golden {w}")
                bad += 1
    extra = set(rows) - set(want["sim_rows"])
    if extra:
        print(f"  note: {name} rows not in golden (ignored): {sorted(extra)}")
    return bad


def shape_gates(name: str, diverged: int, gates: list) -> None:
    """Print every (claim, holds) gate that does not hold; fail the section
    if any did or if `diverged` values differed from the golden."""
    broken = [claim for claim, holds in gates if not holds]
    for claim in broken:
        print(f"  {name} shape gate violated: {claim}")
    if diverged or broken:
        fail(f"{name}: {diverged} value(s) diverged from golden, "
             f"{len(broken)} shape gate(s) violated")


def check_table3(t3: dict, golden: dict) -> None:
    """Diff the Table III rows against the golden, bit for bit.

    The Fig. 9 ratios derived from these rows are printed by run_all but
    not gated: at the golden's 2-3 samples per configuration the total's
    growth does not decelerate with the OS count (it only does in runs of
    several seconds; EXPERIMENTS.md).
    """
    shape_gates("table3", golden_diff("table3", t3, golden, "configs"), [])
    print(f"check_table3: table3 OK — {len(golden['sim_rows'])} rows "
          f"bit-identical to the golden")


def check_ablations(ab: dict, golden: dict) -> None:
    """Golden-diff the design-choice ablations, then gate their claims."""
    bad = golden_diff("ablations", ab, golden, "variants")
    idx = {n: i for i, n in enumerate(ab["variants"])}
    rows = ab["sim_rows"]

    def v(row: str, variant: str):
        return rows[row][idx[variant]]

    floorplans = ["prr_1L1S", "paper_4os", "prr_3L3S", "prr_4L4S"]
    pcaps = [v("pcaps", p) for p in floorplans]
    jobs = [v("jobs", p) for p in floorplans]
    others = ("first_fit", "lru_region")
    shape_gates("ablations", bad, [
        ("ASID mode takes no full TLB flush",
         v("tlb_flushes", "paper_2os") == 0 == v("tlb_flushes", "paper_4os")),
        *[(f"flush mode flushes on every VM switch ({g})",
           v("tlb_flushes", f"tlb_flush_{g}") >= v("vm_switches",
                                                    f"tlb_flush_{g}") > 0)
          for g in ("2os", "4os")],
        *[(f"ASIDs lower the TLB miss rate ({g})",
           v("tlb_miss_rate", f"paper_{g}") < v("tlb_miss_rate",
                                               f"tlb_flush_{g}"))
          for g in ("2os", "4os")],
        ("lazy switching moves fewer VFP frames",
         v("vfp_transfers", "paper_4os") < v("vfp_transfers", "vfp_active")),
        ("lazy switching lowers manager entry",
         v("entry", "paper_4os") < v("entry", "vfp_active")),
        (f"blocking PCAP response >= {PCAP_BLOCKING_MIN_RATIO:g}x overlapped",
         v("total", "pcap_blocking") >=
         PCAP_BLOCKING_MIN_RATIO * v("total", "paper_2os")),
        ("VM switches non-increasing as the quantum grows (8/33/132 ms)",
         v("vm_switches", "quantum_8ms") >= v("vm_switches", "paper_4os") >=
         v("vm_switches", "quantum_132ms")),
        ("resident-first has the most no-reconfig grants",
         v("grants_no_reconfig", "paper_4os") >
         max(v("grants_no_reconfig", o) for o in others)),
        ("resident-first has the fewest PCAPs",
         v("pcaps", "paper_4os") < min(v("pcaps", o) for o in others)),
        (f"PCAPs strictly fall from 1L+1S to 4L+4S: {pcaps}",
         all(a > b for a, b in zip(pcaps, pcaps[1:]))),
        (f"jobs do not fall from 1L+1S to 4L+4S: {jobs}",
         all(a <= b for a, b in zip(jobs, jobs[1:]))),
    ])
    print(f"check_table3: ablations OK — {len(idx)} variants bit-identical, "
          f"blocking PCAP "
          f"{v('total', 'pcap_blocking') / v('total', 'paper_2os'):.0f}x "
          f"overlapped, floorplan PCAPs {pcaps}")


def check_pcap(pc: dict, golden: dict) -> None:
    """Golden-diff the PCAP sweep; latency must follow the model exactly
    and throughput must be one constant rate across bitstream sizes."""
    bad = golden_diff("pcap", pc, golden, "tasks")
    rows = pc["sim_rows"]
    rate = rows["kib_per_ms"]
    shape_gates("pcap", bad, [
        *[(f"{t} measured latency equals the model",
           math.isclose(m, model, rel_tol=REL_TOL))
          for t, m, model in zip(pc["tasks"], rows["measured_us"],
                                 rows["model_us"])],
        (f"throughput constant within {PCAP_RATE_SPREAD_MAX:.0%} "
         f"({min(rate):.1f}..{max(rate):.1f} KiB/ms)",
         max(rate) / min(rate) - 1.0 <= PCAP_RATE_SPREAD_MAX),
    ])
    print(f"check_table3: pcap OK — {len(pc['tasks'])} tasks at model "
          f"latency, {min(rate):.1f}..{max(rate):.1f} KiB/ms")


def check_footprint(fp: dict, golden: dict, density: dict) -> None:
    """Golden-diff the §V.B footprint, then gate the paper's claims and the
    lazy-boot accounting against the density sweep."""
    bad = golden_diff("footprint", fp, golden, "configs")
    cost = {c: (heap, pt) for c, heap, pt in
            zip(fp["configs"], fp["sim_rows"]["heap_bytes_per_vm"],
                fp["sim_rows"]["pt_bytes_per_vm"])}
    dens = density.get("heap_bytes_per_vm", [])
    shape_gates("footprint", bad, [
        (f"{PAPER_HYPERCALLS} hypercalls",
         fp["hypercalls"] == PAPER_HYPERCALLS),
        ("lazy boot holds no page tables before first touch",
         cost["lazy"][1] == 0),
        ("lazy boot after first touch holds the eager page tables",
         cost["lazy_touched"][1] == cost["eager"][1]),
        (f"lazy-boot heap per VM {cost['lazy'][0]} B equals every density "
         f"point {sorted(set(dens))}",
         bool(dens) and all(h == cost["lazy"][0] for h in dens)),
        ("kernel text laid out within its region",
         0 < fp["kernel_text_bytes"] <= fp["kernel_text_region_bytes"]),
        ("kernel reservation within the paper's 20 MB",
         fp["reservation_bytes"] <= PAPER_RESERVATION_MAX_BYTES),
    ])
    print(f"check_table3: footprint OK — {fp['hypercalls']} hypercalls, "
          f"{fp['kernel_text_bytes']} B kernel text, "
          f"{fp['reservation_bytes'] // 2**20} MiB reservation")


def check_hw_vs_sw(hv: dict, golden: dict, pcap: dict) -> None:
    """Golden-diff the §I motivation; a resident hardware task must beat
    software by more as the FFT grows, and a cold one must pay the PCAP."""
    bad = golden_diff("hw_vs_sw", hv, golden, "tasks")
    rows = hv["sim_rows"]
    model = dict(zip(pcap.get("tasks", []),
                     pcap.get("sim_rows", {}).get("model_us", [])))
    speedup = rows["speedup"]
    shape_gates("hw_vs_sw", bad, [
        *[(f"{t} warm hardware faster than software", w < s)
          for t, s, w in zip(hv["tasks"], rows["sw_us"], rows["hw_warm_us"])],
        ("warm speedup rises strictly with size: "
         f"{[round(x, 1) for x in speedup]}",
         all(a < b for a, b in zip(speedup, speedup[1:]))),
        *[(f"{t} cold - warm >= the pcap model's "
           f"{model.get(t, math.nan):.1f} us",
           t in model and c - w >= model[t])
          for t, c, w in zip(hv["tasks"], rows["hw_cold_us"],
                             rows["hw_warm_us"])],
    ])
    print(f"check_table3: hw_vs_sw OK — warm speedup "
          f"{', '.join(f'{x:.1f}x' for x in speedup)} over {hv['tasks']}")


def main() -> None:
    if len(sys.argv) < 2:
        print("usage: check_table3.py BENCH_results.json [golden.json]")
        sys.exit(2)
    results_path = pathlib.Path(sys.argv[1])
    golden_path = (pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else
                   pathlib.Path(__file__).parent / "golden_table3.json")

    results = json.loads(results_path.read_text())
    golden = json.loads(golden_path.read_text())
    t3 = results.get("table3") or {}

    sections = [
        ("table3", lambda s: check_table3(s, golden["table3"])),
        ("density", check_density),
        ("smp", lambda s: check_smp(s, t3)),
        ("mt", lambda s: check_mt(s, golden.get("host_gates", {}))),
        ("prr_sched", check_prr_sched),
        ("ablations", lambda s: check_ablations(s, golden["ablations"])),
        ("pcap", lambda s: check_pcap(s, golden["pcap"])),
        ("footprint", lambda s: check_footprint(
            s, golden["footprint"], results.get("density") or {})),
        ("hw_vs_sw", lambda s: check_hw_vs_sw(
            s, golden["hw_vs_sw"], results.get("pcap") or {})),
    ]
    failed = []
    for name, check in sections:
        try:
            if name not in results:
                fail(f"no '{name}' section in results")
            check(results[name])
        except CheckFailed as e:
            print(f"check_table3: FAIL: {e}")
            failed.append(name)
    if failed:
        print(f"check_table3: {len(failed)} section(s) failed: "
              f"{', '.join(failed)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
