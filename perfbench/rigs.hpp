// The four benchmark workloads ("rigs"). A rig is one fully built system —
// platform, kernel, services and VMs — driven one chunk at a time by the
// benchmark loop in main.cpp:
//
//   paper_fig8     1 simulated ms of the paper's Fig. 8 setup per chunk
//   smp_compute    1 simulated ms of the host-parallel `mt` configuration
//   density_churn  1 simulated ms of 1024 tiny-quantum VMs, plus one churn
//                  slice (destroy + recreate) at every rotation boundary
//   prr_preempt    one PRR-scheduler contention round (§IV.C preempt/resume
//                  with the bitstream cache), hypercalls issued from here
//
// Every rig is measured from outside: counts come from the simulator's
// public statistics and the KernelInspector; host spans are recorded only
// around calls the benchmark itself makes (chunk, guest decorator, VM
// create/destroy, hypercalls, event drains). A rig built with a SpanLog
// must produce bit-identical simulated numbers to one built without.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "nova/guest_iface.hpp"
#include "nova/kernel.hpp"
#include "util/types.hpp"

namespace perfbench {

/// Ordered (name, value, unit) list; simulated snapshots compare exactly.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> items;

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& e : items)
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    items.push_back({name, value, unit});
  }
  const Entry* find(const std::string& name) const {
    for (const auto& e : items)
      if (e.name == name) return &e;
    return nullptr;
  }
  double get(const std::string& name) const {
    const Entry* e = find(name);
    return e != nullptr ? e->value : 0.0;
  }
};

/// Correctness findings of one run. Any finding fails every operation.
struct Verdict {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

class Rig {
 public:
  virtual ~Rig() = default;

  /// Run chunk `index` (chunks are numbered from 0 across warm-up and the
  /// timed phase). Returns false when an operation inside it failed.
  virtual bool chunk(u64 index) = 0;
  /// Simulated time, µs.
  virtual double sim_us() = 0;
  /// Start the measurement window: counters are deltas from here.
  virtual void mark() = 0;
  /// Simulated values over the window (deterministic for a seed) plus a
  /// digest of guest-visible state.
  virtual void snapshot(Metrics& m, u64& digest) = 0;
  /// Workload-specific correctness checks on everything run so far.
  virtual void verify(Verdict& v) = 0;
  /// A workload that must rebuild its system between chunks says so here;
  /// the loop then calls refresh() outside every timed interval.
  virtual bool needs_refresh() const { return false; }
  virtual void refresh() {}

  /// Chunks run before mark() (caches fill, lazy boot finishes) and the
  /// window length at which simulated values are snapshotted.
  virtual u64 warmup_chunks() const = 0;
  virtual u64 window_chunks() const = 0;
  /// Chunks per block of the chunk-time tail (see block_tail): the block
  /// size fixes the tail percentile.
  virtual u64 tail_block_chunks() const { return window_chunks(); }
  virtual u32 host_threads() const { return 1; }
  /// Host threads of the thread-invariance reference run, 0 for none. The
  /// reference's window digest must equal this rig's bit for bit.
  virtual u32 reference_threads() const { return 0; }
  /// Simulated µs per chunk as the workload defines it (for the report).
  virtual const char* chunk_unit() const { return "1 simulated ms"; }
};

struct RigOptions {
  u64 seed = 1;
  SpanLog* log = nullptr;     // non-null: traced build
  u32 host_threads = 0;       // 0: the workload's own default
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown workload name.
std::unique_ptr<Rig> make_rig(const std::string& workload,
                              const RigOptions& opt);

/// Forwarding GuestOs decorator for the traced run: records a host span
/// around every boot/step/on_virq and changes no simulated result.
class TracedGuest final : public minova::nova::GuestOs {
 public:
  TracedGuest(std::unique_ptr<minova::nova::GuestOs> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  const char* guest_name() const override { return inner_->guest_name(); }
  void boot(minova::nova::GuestContext& ctx) override {
    ScopedSpan s(&log_, "guest.boot");
    inner_->boot(ctx);
  }
  minova::nova::StepExit step(minova::nova::GuestContext& ctx,
                              minova::cycles_t budget) override {
    ScopedSpan s(&log_, "guest.step");
    return inner_->step(ctx, budget);
  }
  void on_virq(minova::nova::GuestContext& ctx, minova::u32 irq) override {
    ScopedSpan s(&log_, "guest.on_virq");
    inner_->on_virq(ctx, irq);
  }
  bool next_step_is_compute() const override {
    return inner_->next_step_is_compute();
  }

 private:
  std::unique_ptr<minova::nova::GuestOs> inner_;
  SpanLog& log_;
};

}  // namespace perfbench
