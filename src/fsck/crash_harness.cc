#include "src/fsck/crash_harness.h"

namespace mufs {

namespace {

struct RunState {
  bool done = false;
};

Task<void> WorkloadRoot(Machine* m, Proc* proc, const CrashHarness::Workload* workload,
                        RunState* state) {
  co_await m->Boot(*proc);
  co_await (*workload)(*m, *proc);
  state->done = true;
}

// Shared crash tail: snapshot stable storage, run the scheme's recovery
// (journal replay for kJournaling), and audit with fsck. Each shard's
// file system is replayed and checked in place in its own region of the
// snapshot, in shard order; a single-disk machine is one shard covering
// the whole image.
CrashResult CrashAndCheck(Machine* m, const RunState& state, Scheme scheme,
                          FsckOptions fsck_options) {
  CrashResult result;
  result.workload_finished = state.done;
  result.events_run = m->engine().EventsProcessed();
  result.crash_time = m->engine().Now();
  result.torn_writes = m->image().TornWriteCount();
  DiskImage snapshot = m->CrashNow();
  if (scheme == Scheme::kJournaling) {
    for (size_t s = 0; s < m->NumShards(); ++s) {
      result.replay.Add(JournalRecovery(&snapshot, m->ShardBase(s)).Run());
    }
  }
  ShardLayout layout;
  layout.num_shards = static_cast<uint32_t>(m->NumShards());
  layout.shard_blocks = m->ShardBlocks();
  layout.ino_stride = m->InoStride();
  result.report = PfsckCheckSharded(snapshot, layout, fsck_options);
  return result;
}

}  // namespace

CrashResult CrashHarness::RunAndCrash(const Workload& workload, uint64_t crash_after_events,
                                      FsckOptions fsck_options) {
  Machine m(config_);
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");

  // Run until the crash point. If the workload finishes first, keep the
  // world running (syncer flushing) until the event budget is spent or
  // the system goes quiet.
  m.engine().RunUntil([&] { return m.engine().EventsProcessed() >= crash_after_events; });
  return CrashAndCheck(&m, state, config_.scheme, fsck_options);
}

CrashResult CrashHarness::RunAndCrashAtWrite(const Workload& workload, uint64_t write_count,
                                             FsckOptions fsck_options) {
  Machine m(config_);
  // Write #1 is the first write of the RUN: format writes (done at
  // machine construction, before any crash point is reachable) are not
  // part of the sweepable space.
  const uint64_t target = m.image().WriteCount() + write_count;
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");
  m.engine().RunUntil([&] { return m.image().WriteCount() >= target; });
  return CrashAndCheck(&m, state, config_.scheme, fsck_options);
}

CrashResult CrashHarness::RunAndCrashAtWriteTorn(const Workload& workload,
                                                 uint64_t write_count,
                                                 FsckOptions fsck_options) {
  Machine m(config_);
  const uint64_t target = m.image().WriteCount() + write_count;
  m.image().ArmTornWrite(target);
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");
  m.engine().RunUntil([&] { return m.image().WriteCount() >= target; });
  return CrashAndCheck(&m, state, config_.scheme, fsck_options);
}

DiskImage CrashHarness::CrashImageAtWrite(const Workload& workload, uint64_t write_count) {
  Machine m(config_);
  const uint64_t target = m.image().WriteCount() + write_count;
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");
  m.engine().RunUntil([&] { return m.image().WriteCount() >= target; });
  return m.CrashNow();
}

DiskImage CrashHarness::CrashImageAtWriteTorn(const Workload& workload,
                                              uint64_t write_count) {
  Machine m(config_);
  const uint64_t target = m.image().WriteCount() + write_count;
  m.image().ArmTornWrite(target);
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");
  m.engine().RunUntil([&] { return m.image().WriteCount() >= target; });
  return m.CrashNow();
}

CrashResult CrashHarness::RunAndCrashAtCounter(const Workload& workload,
                                               const std::string& counter,
                                               uint64_t threshold, uint64_t extra_writes,
                                               FsckOptions fsck_options,
                                               SimDuration deadline) {
  Machine m(config_);
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");
  Counter& c = m.stats().counter(counter);
  const SimTime give_up = m.engine().Now() + deadline;
  m.engine().RunUntil(
      [&] { return c.value() >= threshold || m.engine().Now() >= give_up; });
  // Walk `extra_writes` device writes into the window the counter marks
  // the start of (still bounded by the deadline: the window may be
  // shorter than the requested walk).
  const uint64_t stop_at = m.image().WriteCount() + extra_writes;
  m.engine().RunUntil(
      [&] { return m.image().WriteCount() >= stop_at || m.engine().Now() >= give_up; });
  return CrashAndCheck(&m, state, config_.scheme, fsck_options);
}

DiskImage CrashHarness::CrashImageAtCounter(const Workload& workload,
                                            const std::string& counter,
                                            uint64_t threshold, uint64_t extra_writes,
                                            SimDuration deadline) {
  Machine m(config_);
  Proc proc = m.MakeProc("crash-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "crash-workload");
  Counter& c = m.stats().counter(counter);
  const SimTime give_up = m.engine().Now() + deadline;
  m.engine().RunUntil(
      [&] { return c.value() >= threshold || m.engine().Now() >= give_up; });
  const uint64_t stop_at = m.image().WriteCount() + extra_writes;
  m.engine().RunUntil(
      [&] { return m.image().WriteCount() >= stop_at || m.engine().Now() >= give_up; });
  return m.CrashNow();
}

CrashResult CrashHarness::RunAndCrashAtCheckpoint(const Workload& workload,
                                                  uint64_t checkpoint_number,
                                                  uint64_t extra_writes,
                                                  FsckOptions fsck_options) {
  return RunAndCrashAtCounter(workload, "journal.checkpoints", checkpoint_number,
                              extra_writes, fsck_options);
}

uint64_t CrashHarness::MeasureWrites(const Workload& workload, SimDuration settle) {
  Machine m(config_);
  const uint64_t base = m.image().WriteCount();  // Format writes: not sweepable.
  Proc proc = m.MakeProc("measure-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "measure-workload");
  m.engine().RunUntil([&] { return state.done; });
  SimTime end = m.engine().Now() + settle;
  m.engine().RunUntil([&] { return m.engine().Now() >= end; });
  return m.image().WriteCount() - base;
}

uint64_t CrashHarness::MeasureCounter(const Workload& workload, const std::string& counter,
                                      SimDuration settle) {
  Machine m(config_);
  Proc proc = m.MakeProc("measure-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "measure-workload");
  m.engine().RunUntil([&] { return state.done; });
  SimTime end = m.engine().Now() + settle;
  m.engine().RunUntil([&] { return m.engine().Now() >= end; });
  return m.stats().counter(counter).value();
}

uint64_t CrashHarness::MeasureEvents(const Workload& workload, SimDuration settle) {
  Machine m(config_);
  Proc proc = m.MakeProc("measure-user");
  RunState state;
  m.engine().Spawn(WorkloadRoot(&m, &proc, &workload, &state), "measure-workload");
  m.engine().RunUntil([&] { return state.done; });
  // Let the syncer settle deferred work so the sweep covers post-workload
  // flushing windows too.
  SimTime end = m.engine().Now() + settle;
  m.engine().RunUntil([&] { return m.engine().Now() >= end; });
  return m.engine().EventsProcessed();
}

}  // namespace mufs
