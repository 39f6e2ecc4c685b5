#include "fuzz/sabotage.hpp"

#include "hwmgr/manager.hpp"
#include "nova/kernel.hpp"
#include "nova/supervisor.hpp"

namespace minova::fuzz {

void Sabotage::smp(nova::Kernel& k, u32 kind) {
  if (k.cores_.size() < 2) return;
  switch (kind) {
    case 1: {
      // kCorePartition: link a runnable PD into a second core's run queue.
      // enqueue() adopts the PD (fresh stamp), so the first core's list
      // keeps a node the membership flags no longer admit to.
      for (auto& p : k.pds_) {
        if (p == nullptr || p->guest() == nullptr) continue;
        if (!k.cores_[p->run_core].sched.is_runnable(p.get())) continue;
        k.cores_[(p->run_core + 1) % k.cores_.size()].sched.enqueue(p.get());
        return;
      }
      break;
    }
    case 2:
      // kShootdownComplete: forge an ack for an epoch never issued and
      // inflate the ack counter past what was sent.
      k.cores_.back().shootdown_ack_epoch = k.tlb_epoch_ + 1;
      k.cores_.back().shootdowns_acked += 3;
      break;
    case 3: {
      // kCoreExclusivity: make the same PD current on two cores.
      nova::ProtectionDomain* victim = k.cur_core().current;
      if (victim == nullptr)
        for (auto& p : k.pds_)
          if (p != nullptr && p->guest() != nullptr) {
            victim = p.get();
            break;
          }
      if (victim != nullptr)
        k.cores_[(k.active_core_ + 1) % k.cores_.size()].current = victim;
      break;
    }
    default:
      break;
  }
}

void Sabotage::hw(hwmgr::ManagerService& m, u32 kind) {
  using hwmgr::ManagerService;
  // Find a live client id to synthesize state around (the fuzzer always has
  // running VMs; fall back to id 1).
  nova::PdId live = 1;
  for (nova::PdId id = 0; id < 256; ++id) {
    nova::ProtectionDomain* pd = m.kernel_.pd_by_id(id);
    // The synthesized state must belong to a hw-task client: the oracles
    // read its §IV.C consistency record, which the manager PD (and any VM
    // without a data section) does not have.
    if (pd == nullptr || pd == m.pd_ || pd->hw_data_size == 0) continue;
    live = id;
    break;
  }
  switch (kind) {
    case 1: {  // launch ledger contradicts the PRR table
      for (u32 prr = 0; prr < m.num_prrs(); ++prr) {
        if (m.prr_table_[prr].client == nova::kInvalidPd) continue;
        m.ledger_[prr].task = m.prr_table_[prr].task + 1;
        return;
      }
      // No owned region: a ledger entry for an unowned one is just as wrong.
      m.ledger_[0] = ManagerService::LedgerEntry{live, 1};
      return;
    }
    case 2: {  // saved context diverges from the client's §IV.C record
      if (!m.save_outstanding_.empty()) {
        m.save_outstanding_.begin()->second.regs[0] ^= 0xDEAD'0001u;
        return;
      }
      // Synthesize a phantom save: the record in the client's data section
      // still says consistent, so the round-trip oracle must fire.
      ManagerService::SavedContext s;
      s.task = 1;
      s.regs.fill(0xDEAD'BEEFu);
      m.save_outstanding_[live] = s;
      return;
    }
    case 3: {  // a client holds more regions than its quota admits
      if (m.num_prrs() < 2) return;
      for (u32 prr = 0; prr < 2; ++prr) {
        hwmgr::PrrTableEntry& e = m.prr_table_[prr];
        e.client = live;
        if (e.task == hwtask::kInvalidTask) e.task = hwtask::TaskId(1 + prr);
        // Keep the ledger oracle quiet.
        m.ledger_[prr] = ManagerService::LedgerEntry{live, e.task};
      }
      m.quota_override_[live] = 1;
      return;
    }
    case 4: {  // cache entry names a bitstream the task table doesn't have
      m.cache_.push_back(ManagerService::CacheEntry{
          hwtask::TaskId(0xBEEF), 0, 0, ++m.cache_seq_, false});
      return;
    }
    default:
      break;
  }
}

void Sabotage::sv(nova::Supervisor& sup, u32 kind) {
  switch (kind) {
    case 1:  // sv-containment: a live record names a PD the kernel lacks
      for (auto& r : sup.records_)
        if (r.live) {
          r.pd = nova::PdId(0xDEAD);
          return;
        }
      break;
    case 2:  // sv-restart-ledger: forge the restart accounting
      sup.stats_.restarts += 3;
      break;
    case 3:  // sv-quarantine: a quarantined record that is still live
      for (auto& r : sup.records_)
        if (r.live) {
          r.health = nova::VmHealth::kQuarantined;
          return;
        }
      break;
    default:
      break;
  }
}

void Sabotage::caps(nova::ProtectionDomain& pd, u32 caps) { pd.caps_ = caps; }

}  // namespace minova::fuzz
