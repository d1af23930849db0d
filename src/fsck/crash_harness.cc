#include "src/fsck/crash_harness.h"

#include <memory>

namespace mufs {

namespace {

// One run of a workload on a fresh machine. Heap-allocated so the
// workload's coroutine can point at the proc and the done flag for as
// long as the machine that runs it lives.
struct HarnessRun {
  explicit HarnessRun(const MachineConfig& config)
      : m(config), base_writes(m.image().WriteCount()), proc(m.MakeProc("crash-user")) {}

  // Device writes of the run. The format writes done at machine
  // construction are not sweepable crash states (no workload has
  // started), so write #1 is the first write of the run.
  uint64_t Writes() { return m.image().WriteCount() - base_writes; }
  SimTime Now() { return m.engine().Now(); }

  Machine m;
  const uint64_t base_writes;
  Proc proc;
  bool done = false;
};

Task<void> WorkloadRoot(HarnessRun* run, const CrashHarness::Workload* workload) {
  co_await run->m.Boot(run->proc);
  co_await (*workload)(run->m, run->proc);
  run->done = true;
}

// The one path to a crash point: boots a fresh machine, spawns the
// workload and runs the engine until `stop` holds. `torn_write` > 0 arms
// that write of the run to land torn. Callers may run the machine on.
std::unique_ptr<HarnessRun> RunTo(const MachineConfig& config,
                                  const CrashHarness::Workload& workload,
                                  const std::function<bool(HarnessRun&)>& stop,
                                  uint64_t torn_write = 0) {
  auto run = std::make_unique<HarnessRun>(config);
  if (torn_write > 0) {
    run->m.image().ArmTornWrite(run->base_writes + torn_write);
  }
  run->m.engine().Spawn(WorkloadRoot(run.get(), &workload), "crash-workload");
  run->m.engine().RunUntil([&] { return stop(*run); });
  return run;
}

// Runs until the Nth write of the run has committed (or landed torn).
std::unique_ptr<HarnessRun> RunToWrite(const MachineConfig& config,
                                       const CrashHarness::Workload& workload,
                                       uint64_t write_count, bool torn = false) {
  return RunTo(
      config, workload, [write_count](HarnessRun& r) { return r.Writes() >= write_count; },
      torn ? write_count : 0);
}

// Runs until `counter` reaches `threshold`, then walks `extra_writes`
// device writes into the window the counter marks the start of. Both
// legs give up at `deadline` of simulated time: the counter may never
// get there, and the window may be shorter than the requested walk.
std::unique_ptr<HarnessRun> RunToCounter(const MachineConfig& config,
                                         const CrashHarness::Workload& workload,
                                         const std::string& counter, uint64_t threshold,
                                         uint64_t extra_writes, SimDuration deadline) {
  Counter* c = nullptr;  // Bound once the machine's registry exists.
  SimTime give_up = 0;
  auto run = RunTo(config, workload, [&](HarnessRun& r) {
    if (c == nullptr) {
      c = &r.m.stats().counter(counter);
      give_up = r.Now() + deadline;
    }
    return c->value() >= threshold || r.Now() >= give_up;
  });
  const uint64_t stop_at = run->Writes() + extra_writes;
  run->m.engine().RunUntil([&] { return run->Writes() >= stop_at || run->Now() >= give_up; });
  return run;
}

// Runs the workload to completion, then `settle` more simulated time so
// the post-workload flushing windows count too.
std::unique_ptr<HarnessRun> RunToSettled(const MachineConfig& config,
                                         const CrashHarness::Workload& workload,
                                         SimDuration settle) {
  auto run = RunTo(config, workload, [](HarnessRun& r) { return r.done; });
  const SimTime end = run->Now() + settle;
  run->m.engine().RunUntil([&] { return run->Now() >= end; });
  return run;
}

// Shared crash tail: snapshot stable storage, run the scheme's recovery
// (journal replay for kJournaling), and audit with fsck. Each shard's
// file system is replayed and checked in place in its own region of the
// snapshot, in shard order; a single-disk machine is one shard covering
// the whole image.
CrashResult CrashAndCheck(HarnessRun& run, FsckOptions fsck_options) {
  Machine& m = run.m;
  CrashResult result;
  result.workload_finished = run.done;
  result.events_run = m.engine().EventsProcessed();
  result.crash_time = m.engine().Now();
  result.torn_writes = m.image().TornWriteCount();
  DiskImage snapshot = m.CrashNow();
  if (m.config().scheme == Scheme::kJournaling) {
    for (size_t s = 0; s < m.NumShards(); ++s) {
      result.replay.Add(JournalRecovery(&snapshot, m.ShardBase(s)).Run());
    }
  }
  ShardLayout layout;
  layout.num_shards = static_cast<uint32_t>(m.NumShards());
  layout.shard_blocks = m.ShardBlocks();
  layout.ino_stride = m.InoStride();
  result.report = PfsckCheckSharded(snapshot, layout, fsck_options);
  return result;
}

}  // namespace

CrashResult CrashHarness::RunAndCrash(const Workload& workload, uint64_t crash_after_events,
                                      FsckOptions fsck_options) {
  // If the workload finishes first, keep the world running (syncer
  // flushing) until the event budget is spent or the system goes quiet.
  auto run = RunTo(config_, workload, [crash_after_events](HarnessRun& r) {
    return r.m.engine().EventsProcessed() >= crash_after_events;
  });
  return CrashAndCheck(*run, fsck_options);
}

CrashResult CrashHarness::RunAndCrashAtWrite(const Workload& workload, uint64_t write_count,
                                             FsckOptions fsck_options) {
  return CrashAndCheck(*RunToWrite(config_, workload, write_count), fsck_options);
}

DiskImage CrashHarness::CrashImageAtWrite(const Workload& workload, uint64_t write_count) {
  return RunToWrite(config_, workload, write_count)->m.CrashNow();
}

DiskImage CrashHarness::CrashImageAtWriteTorn(const Workload& workload,
                                              uint64_t write_count) {
  return RunToWrite(config_, workload, write_count, /*torn=*/true)->m.CrashNow();
}

CrashResult CrashHarness::RunAndCrashAtCounter(const Workload& workload,
                                               const std::string& counter,
                                               uint64_t threshold, uint64_t extra_writes,
                                               FsckOptions fsck_options,
                                               SimDuration deadline) {
  return CrashAndCheck(
      *RunToCounter(config_, workload, counter, threshold, extra_writes, deadline),
      fsck_options);
}

DiskImage CrashHarness::CrashImageAtCounter(const Workload& workload,
                                            const std::string& counter,
                                            uint64_t threshold, uint64_t extra_writes,
                                            SimDuration deadline) {
  return RunToCounter(config_, workload, counter, threshold, extra_writes, deadline)
      ->m.CrashNow();
}

CrashResult CrashHarness::RunAndCrashAtCheckpoint(const Workload& workload,
                                                  uint64_t checkpoint_number,
                                                  uint64_t extra_writes,
                                                  FsckOptions fsck_options) {
  return RunAndCrashAtCounter(workload, "journal.checkpoints", checkpoint_number,
                              extra_writes, fsck_options);
}

uint64_t CrashHarness::MeasureWrites(const Workload& workload, SimDuration settle) {
  return RunToSettled(config_, workload, settle)->Writes();
}

uint64_t CrashHarness::MeasureCounter(const Workload& workload, const std::string& counter,
                                      SimDuration settle) {
  return RunToSettled(config_, workload, settle)->m.stats().counter(counter).value();
}

uint64_t CrashHarness::MeasureEvents(const Workload& workload, SimDuration settle) {
  return RunToSettled(config_, workload, settle)->m.engine().EventsProcessed();
}

}  // namespace mufs
