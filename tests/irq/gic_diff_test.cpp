// Differential test: the ready-bitmap `Gic` must be indistinguishable from
// a plain linear-scan GIC model — same nIRQ state overall and per CPU
// interface, same acknowledge result, same sequence of `irq_line` edges —
// under seeded random traffic over every distributor and CPU-interface
// mutator. The reference model lives only here (DESIGN.md §10.5).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "irq/gic.hpp"
#include "util/rng.hpp"

namespace minova::irq {
namespace {

// The pre-bitmap GIC: a full 0..N scan on every query, with the strict
// `<` priority compare that gives the lowest id a priority tie.
class RefGic {
 public:
  explicit RefGic(u32 num_irqs) : state_(num_irqs) {}

  std::vector<bool>* line_log = nullptr;

  void enable_irq(u32 id) { state_[id].enabled = true; update_line(); }
  void disable_irq(u32 id) { state_[id].enabled = false; update_line(); }
  void set_priority(u32 id, u8 prio) { state_[id].prio = prio; update_line(); }
  void raise(u32 id) { state_[id].pending = true; update_line(); }
  void clear_pending(u32 id) { state_[id].pending = false; update_line(); }
  void set_target_mask(u32 id, u8 mask) {
    state_[id].targets = mask;
    update_line();
  }
  void set_priority_mask(u8 mask) { priority_mask_ = mask; update_line(); }

  u32 acknowledge_for(u8 cpu_mask) {
    const int id = highest_pending(cpu_mask);
    if (id < 0) return kSpuriousIrq;
    state_[u32(id)].pending = false;
    state_[u32(id)].active = true;
    update_line();
    return u32(id);
  }
  void eoi(u32 id) { state_[id].active = false; update_line(); }

  bool irq_asserted() const { return highest_pending(0xFFu) >= 0; }
  bool irq_asserted_for(u8 cpu_mask) const {
    return highest_pending(cpu_mask) >= 0;
  }

 private:
  struct IrqState {
    bool enabled = false;
    bool pending = false;
    bool active = false;
    u8 prio = 0xA0;
    u8 targets = 0x01;
  };

  int highest_pending(u8 cpu_mask) const {
    int best = -1;
    for (u32 i = 0; i < state_.size(); ++i) {
      const IrqState& s = state_[i];
      if (!s.enabled || !s.pending || s.active) continue;
      if ((s.targets & cpu_mask) == 0) continue;
      if (s.prio >= priority_mask_) continue;
      if (best < 0 || s.prio < state_[u32(best)].prio) best = int(i);
    }
    return best;
  }

  void update_line() {
    const bool asserted = irq_asserted();
    if (asserted != line_state_) {
      line_state_ = asserted;
      if (line_log != nullptr) line_log->push_back(asserted);
    }
  }

  std::vector<IrqState> state_;
  u8 priority_mask_ = 0xFF;
  bool line_state_ = false;
};

// Word-boundary ids (63/64), both ends (0/95), the private timer (29) and
// the PL IRQs 61/62 (DESIGN.md §13.4).
constexpr std::array<u32, 7> kForcedIds = {0, 29, 61, 62, 63, 64, 95};
// Few distinct levels so that priority ties are common.
constexpr std::array<u8, 4> kPrios = {0x20, 0x80, 0xA0, 0xA0};

void run_campaign(u64 seed, u64 steps) {
  Gic gic;
  RefGic ref(gic.num_irqs());
  std::vector<bool> gic_edges;
  std::vector<bool> ref_edges;
  gic.set_irq_line([&](bool on) { gic_edges.push_back(on); });
  ref.line_log = &ref_edges;
  util::Xoshiro256 rng(seed);

  const auto rand_id = [&]() -> u32 {
    if (rng.next_below(2) == 0)
      return kForcedIds[rng.next_below(kForcedIds.size())];
    return u32(rng.next_below(gic.num_irqs()));
  };
  const auto rand_cpu_mask = [&]() -> u8 {
    return rng.next_below(4) == 0 ? u8(0xFF) : u8(1u << rng.next_below(4));
  };

  // Every forced id starts with the same priority: the first raises tie.
  for (u32 id : kForcedIds) {
    gic.enable_irq(id);
    ref.enable_irq(id);
  }

  for (u64 step = 0; step < steps; ++step) {
    const u64 op = rng.next_below(100);
    const u32 id = rand_id();
    if (op < 12) {
      gic.enable_irq(id);
      ref.enable_irq(id);
    } else if (op < 18) {
      gic.disable_irq(id);
      ref.disable_irq(id);
    } else if (op < 40) {
      gic.raise(id);
      ref.raise(id);
    } else if (op < 46) {
      gic.clear_pending(id);
      ref.clear_pending(id);
    } else if (op < 54) {
      const u8 prio = kPrios[rng.next_below(kPrios.size())];
      gic.set_priority(id, prio);
      ref.set_priority(id, prio);
    } else if (op < 62) {
      const u8 mask = u8(rng.next_below(16));  // includes 0: routed nowhere
      gic.set_target_mask(id, mask);
      ref.set_target_mask(id, mask);
    } else if (op < 66) {
      const u8 level = kPrios[rng.next_below(kPrios.size())];
      const u8 mask = rng.next_below(2) == 0 ? u8(0xFF) : level;
      gic.set_priority_mask(mask);
      ref.set_priority_mask(mask);
    } else if (op < 84) {
      const u8 cpu_mask = rand_cpu_mask();
      ASSERT_EQ(gic.acknowledge_for(cpu_mask), ref.acknowledge_for(cpu_mask))
          << "acknowledge divergence at step " << step;
    } else {
      gic.eoi(id);
      ref.eoi(id);
    }

    ASSERT_EQ(gic.irq_asserted(), ref.irq_asserted()) << "step " << step;
    for (u32 c = 0; c < 4; ++c) {
      ASSERT_EQ(gic.irq_asserted_for(u8(1u << c)),
                ref.irq_asserted_for(u8(1u << c)))
          << "cpu " << c << " step " << step;
    }
    // Both logs only grow, so checking the newest edge every step checks
    // the whole sequence.
    ASSERT_EQ(gic_edges.size(), ref_edges.size()) << "step " << step;
    if (!gic_edges.empty()) {
      ASSERT_EQ(gic_edges.back(), ref_edges.back()) << "step " << step;
    }
  }
}

TEST(GicDiff, MatchesLinearScanModel) {
  for (u64 seed : {1ull, 2ull, 97ull}) {
    SCOPED_TRACE(seed);
    run_campaign(seed, 20'000);
  }
}

TEST(GicDiff, PriorityTieAcknowledgesLowestIdFirst) {
  Gic gic;
  for (u32 id : kForcedIds) {
    gic.enable_irq(id);
    gic.set_priority(id, 0x40);
  }
  // Raise in descending order so that raise order cannot be the tie-break.
  for (auto it = kForcedIds.rbegin(); it != kForcedIds.rend(); ++it)
    gic.raise(*it);
  for (u32 id : kForcedIds) EXPECT_EQ(gic.acknowledge(), id);
  EXPECT_EQ(gic.acknowledge(), kSpuriousIrq);
}

TEST(GicDiff, HigherPriorityAboveWordBoundaryWins) {
  Gic gic;
  for (u32 id : {0u, 63u, 64u, 95u}) {
    gic.enable_irq(id);
    gic.raise(id);
  }
  gic.set_priority(64, 0x10);
  EXPECT_EQ(gic.acknowledge(), 64u);
  gic.set_priority(95, 0x10);
  gic.set_priority(63, 0x10);
  EXPECT_EQ(gic.acknowledge(), 63u);
  EXPECT_EQ(gic.acknowledge(), 95u);
  EXPECT_EQ(gic.acknowledge(), 0u);
}

}  // namespace
}  // namespace minova::irq
