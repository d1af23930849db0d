// Shared harness for the fault-injection test battery:
//
//   - FaultRig / WaitOn: a bare engine+driver stack with a scripted
//     injector, for driver-level fault-semantics tests;
//   - RunFaultWorkload: runs the populate/copy/remove workload on one
//     Machine under a given scheme and fault rate, then audits the
//     surviving image with fsck.
#ifndef MUFS_TESTS_FAULT_TEST_UTIL_H_
#define MUFS_TESTS_FAULT_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/driver/disk_driver.h"
#include "src/fault/fault_injector.h"
#include "src/fsck/fsck.h"
#include "src/sim/engine.h"
#include "src/workload/workloads.h"

namespace mufs {

inline std::shared_ptr<const BlockData> MakeBlock(uint8_t fill) {
  auto b = std::make_shared<BlockData>();
  b->fill(fill);
  return b;
}

// Engine + model + image + injector + registry + driver wired together.
// The injector and the registry are declared before the driver so they
// outlive it. The registry traces, so tests read per-request outcomes
// back from the JSONL trace.
struct FaultRig {
  explicit FaultRig(FaultConfig fault_cfg = {}, DriverConfig cfg = {})
      : model(DiskGeometry{}),
        image(DiskGeometry{}.total_blocks),
        faults(fault_cfg) {
    registry.SetClock([this] { return engine.Now(); });
    registry.EnableTrace();
    cfg.faults = &faults;
    driver = std::make_unique<DiskDriver>(&engine, &model, &image, &registry, cfg);
  }
  Engine engine;
  DiskModel model;
  DiskImage image;
  FaultInjector faults;
  StatsRegistry registry;
  std::unique_ptr<DiskDriver> driver;

  uint64_t Write(uint32_t blk, uint8_t fill, OrderingTag tag = {}) {
    return driver->IssueWrite(blk, {MakeBlock(fill)}, tag);
  }
  uint64_t Counter(const char* name) { return registry.counter(name).value(); }
  const StatsRegistry& stats() const { return registry; }
};

// Runs a waiter coroutine to completion and returns the terminal status
// of request `id` plus the simulated time WaitFor took.
struct WaitResult {
  IoStatus status = IoStatus::kOk;
  SimDuration elapsed = 0;
};

inline WaitResult WaitOn(FaultRig* rig, uint64_t id) {
  WaitResult out;
  bool done = false;
  auto body = [](FaultRig* rig, uint64_t id, WaitResult* out, bool* done) -> Task<void> {
    SimTime t0 = rig->engine.Now();
    out->status = co_await rig->driver->WaitFor(id);
    out->elapsed = rig->engine.Now() - t0;
    *done = true;
  };
  rig->engine.Spawn(body(rig, id, &out, &done), "waiter");
  rig->engine.Run();
  EXPECT_TRUE(done);
  return out;
}

struct FaultRunResult {
  FsStatus populate = FsStatus::kOk;
  FsStatus copy = FsStatus::kOk;
  FsStatus remove = FsStatus::kOk;
  uint64_t gave_up = 0;
  uint64_t retries = 0;
  uint64_t injected = 0;
  std::string stats_json;
  std::vector<DamageRecord> damage;  // The injector's silent-damage ledger.
  bool fsck_clean = false;         // Audit passed with no repairs needed.
  bool fsck_repaired_clean = false;  // Repairer brought the image clean.
  uint64_t fsck_fixes = 0;           // Repairs applied (0 when clean).
  uint64_t fsck_passes = 0;          // Repair passes to the fixpoint.
  std::string fsck_detail;
};

// "Complete or fail cleanly": every op either succeeded or reported the
// degradation as an I/O error — never a silent wrong answer.
inline bool CompleteOrCleanFail(FsStatus s) {
  return s == FsStatus::kOk || s == FsStatus::kIoError;
}

inline FaultRunResult RunFaultWorkloadWithConfig(Scheme scheme, const FaultConfig& fault,
                                                 const TreeSpec& tree,
                                                 uint32_t queue_depth = 1) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.queue_depth = queue_depth;
  cfg.fault = fault;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  FaultRunResult r;
  bool done = false;
  auto body = [](Machine* m, Proc* p, const TreeSpec* tree, FaultRunResult* r,
                 bool* done) -> Task<void> {
    co_await m->Boot(*p);
    r->populate = co_await PopulateTree(*m, *p, *tree, "/src");
    r->copy = co_await CopyTree(*m, *p, *tree, "/src", "/dst");
    r->remove = co_await RemoveTree(*m, *p, *tree, "/dst");
    co_await m->Shutdown(*p);
    *done = true;
  };
  m.engine().Spawn(body(&m, &p, &tree, &r, &done), "w");
  m.engine().RunUntil([&] { return done; });

  r.gave_up = m.stats().counter("driver.gave_up").value();
  r.retries = m.stats().counter("driver.retries").value();
  r.injected = m.stats().counter("fault.injected").value();
  r.stats_json = m.DumpStatsJson();
  if (m.faults() != nullptr) {
    r.damage = m.faults()->Damage();
  }

  DiskImage snap = m.CrashNow();
  FsckOptions fo;
  FsckReport report = FsckChecker(&snap, fo).Check();
  r.fsck_clean = report.Clean();
  if (!r.fsck_clean) {
    for (const auto& v : report.violations) {
      r.fsck_detail += std::string(ToString(v.type)) + ": " + v.detail + "\n";
    }
    FsckRepairReport fixed = FsckRepairer(&snap, fo).Repair();
    r.fsck_repaired_clean = fixed.clean_after;
    r.fsck_fixes = fixed.TotalFixes();
    r.fsck_passes = fixed.passes;
  }
  return r;
}

inline FaultRunResult RunFaultWorkload(Scheme scheme, double rate, uint64_t fault_seed,
                                       const TreeSpec& tree, uint32_t queue_depth = 1) {
  FaultConfig fault;
  if (rate > 0) {
    fault = FaultConfig::Uniform(rate, fault_seed);
  }
  return RunFaultWorkloadWithConfig(scheme, fault, tree, queue_depth);
}

// A small tree keeps the 18-configuration tier-1 sweep fast; the slow
// sweep uses a larger one.
inline TreeSpec SmallFaultTree() {
  TreeGenOptions opts;
  opts.file_count = 24;
  opts.total_bytes = 240'000;
  opts.dir_count = 5;
  return GenerateTree(opts);
}

inline TreeSpec MediumFaultTree() {
  TreeGenOptions opts;
  opts.file_count = 120;
  opts.total_bytes = 1'200'000;
  opts.dir_count = 12;
  return GenerateTree(opts);
}

}  // namespace mufs

#endif  // MUFS_TESTS_FAULT_TEST_UTIL_H_
