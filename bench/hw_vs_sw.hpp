// The paper's motivating claim (§I): "With an efficient management of both
// hardware and software tasks, the overall performance can be drastically
// improved." run_all's `hw_vs_sw` section quantifies it: each FFT size
// executed (a) in software on the A9 (VFP radix-2) and (b) on the
// reconfigurable accelerator through the full Mini-NOVA path — request
// hypercall, manager allocation, DMA in/out, PL compute, completion IRQ —
// both from a cold region (PCAP included) and from a resident one. Every
// value is simulated and deterministic.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hwmgr/manager.hpp"
#include "pl/prr_controller.hpp"
#include "util/assert.hpp"
#include "workloads/softdsp.hpp"

namespace minova::bench {

namespace detail {

/// Bare-metal guest that records the completion vIRQ of its hardware task.
class MeasureGuest final : public nova::GuestOs {
 public:
  const char* guest_name() const override { return "measure"; }
  void boot(nova::GuestContext& ctx) override {
    ctx.hypercall(nova::Hypercall::kIrqSetEntry, 0, 0x8000);
  }
  nova::StepExit step(nova::GuestContext&, cycles_t) override {
    return nova::StepExit::kYield;
  }
  void on_virq(nova::GuestContext& ctx, u32 irq) override {
    if (irq != nova::kVtimerVirq && irq != mem::kIrqDevcfg) completion = true;
    ctx.hypercall(nova::Hypercall::kIrqComplete, irq);
  }
  bool completion = false;
};

/// The software FFT's environment: the measuring VM's memory and VFP.
class GuestSvcShim final : public workloads::Services {
 public:
  explicit GuestSvcShim(nova::GuestContext& ctx) : ctx_(ctx) {}
  void exec(const cpu::CodeRegion& r, double f) override { ctx_.exec(r, f); }
  void spend_insns(u64 n) override { ctx_.spend_insns(n); }
  bool read32(vaddr_t va, u32& out) override {
    auto r = ctx_.read32(va);
    out = r.value;
    return r.ok;
  }
  bool write32(vaddr_t va, u32 v) override { return ctx_.write32(va, v).ok; }
  bool read_block(vaddr_t va, std::span<u8> o) override {
    return ctx_.read_block(va, o).ok;
  }
  bool write_block(vaddr_t va, std::span<const u8> i) override {
    return ctx_.write_block(va, i).ok;
  }
  void use_vfp() override { ctx_.use_vfp(); }
  double now_us() override { return ctx_.now_us(); }
  workloads::HwReqStatus hw_request(u32, vaddr_t, vaddr_t) override {
    return workloads::HwReqStatus::kError;
  }
  bool hw_release(u32) override { return false; }
  bool hw_reconfig_done() override { return true; }
  bool hw_take_completion() override { return false; }
  vaddr_t hw_iface_va() const override { return nova::kGuestHwIfaceVa; }
  vaddr_t hw_data_va() const override { return nova::kGuestHwDataVa; }
  paddr_t hw_data_pa() const override {
    return nova::vm_phys_base(0) + nova::kGuestHwDataVa;
  }
  u32 hw_data_size() const override { return nova::kGuestHwDataSize; }

 private:
  nova::GuestContext& ctx_;
};

/// One request -> (PCAP) -> DMA -> compute -> completion IRQ round, in
/// simulated us.
inline double run_hw_once(Platform& platform, nova::Kernel& kernel,
                          nova::ProtectionDomain& pd, MeasureGuest& guest,
                          hwtask::TaskId task, u32 points) {
  using nova::Hypercall;
  nova::GuestContext ctx(kernel, pd, platform.cpu());
  const double t0 = kernel.now_us();
  auto res = ctx.hypercall(Hypercall::kHwTaskRequest, task,
                           nova::kGuestHwIfaceVa, nova::kGuestHwDataVa);
  MINOVA_CHECK(res.ok());
  if (res.r1 != 0) {  // PCAP in flight: wait for completion
    while (true) {
      const auto q = ctx.hypercall(Hypercall::kHwTaskQuery, 0);
      if (q.ok() && q.r1 == 1) break;
      platform.idle_until_next_event(platform.clock().now() +
                                     platform.clock().us_to_cycles(100));
    }
  }
  // Feed a frame and start.
  std::vector<u8> in(std::size_t(points) * 8);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = u8(i * 13);
  MINOVA_CHECK(ctx.write_block(nova::kGuestHwDataVa, in).ok);
  const paddr_t data_pa = nova::vm_phys_base(0) + nova::kGuestHwDataVa;
  const vaddr_t regs = nova::kGuestHwIfaceVa;
  guest.completion = false;
  ctx.write32(regs + pl::kRegSrcAddr, data_pa);
  ctx.write32(regs + pl::kRegSrcLen, u32(in.size()));
  ctx.write32(regs + pl::kRegDstAddr, data_pa + 0x20000);
  ctx.write32(regs + pl::kRegCtrl, pl::kCtrlStart | pl::kCtrlIrqEn);
  // Run the kernel until the completion vIRQ lands in the guest.
  while (!guest.completion) kernel.run_for_us(20);
  ctx.write32(regs + pl::kRegStatus, pl::kStatusDone);
  return kernel.now_us() - t0;
}

}  // namespace detail

struct HwVsSwPoint {
  std::string task;  // the task library's name, as in the pcap section
  u32 points = 0;
  double sw_us = 0;
  double hw_cold_us = 0;  // first use: includes PCAP reconfiguration
  double hw_warm_us = 0;  // task resident: request + DMA + compute + IRQ
  double speedup = 0;     // sw / warm
};

/// Each FFT size on a fresh platform: software first, then the hardware
/// task twice (cold, then warm).
inline std::vector<HwVsSwPoint> run_hw_vs_sw() {
  std::vector<HwVsSwPoint> out;
  using L = hwtask::TaskLibrary;
  for (const auto& [id, points] : {std::pair{L::kFft1024, 1024u},
                                   {L::kFft4096, 4096u},
                                   {L::kFft8192, 8192u}}) {
    Platform platform;
    nova::Kernel kernel(platform);
    hwmgr::ManagerService manager(kernel);
    manager.install(2);
    auto guest = std::make_unique<detail::MeasureGuest>();
    detail::MeasureGuest* g = guest.get();
    auto& pd = kernel.create_vm("measure", 1, std::move(guest));
    kernel.run_for_us(200);  // boot

    HwVsSwPoint p;
    p.task = platform.task_library().find(id)->name;
    p.points = points;
    nova::GuestContext ctx(kernel, pd, platform.cpu());
    detail::GuestSvcShim svc(ctx);
    const std::vector<u8> frame(std::size_t(p.points) * 8, 0x3C);
    MINOVA_CHECK(svc.write_block(nova::kGuestUserVa + 0x10000, frame));
    const double sw0 = kernel.now_us();
    workloads::soft_fft(svc, nova::kGuestUserVa + 0x10000, p.points);
    p.sw_us = kernel.now_us() - sw0;
    p.hw_cold_us = detail::run_hw_once(platform, kernel, pd, *g, id, p.points);
    p.hw_warm_us = detail::run_hw_once(platform, kernel, pd, *g, id, p.points);
    p.speedup = p.sw_us / p.hw_warm_us;
    out.push_back(p);
  }
  return out;
}

}  // namespace minova::bench
