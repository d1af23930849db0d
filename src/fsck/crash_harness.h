// Crash harness: run a workload on a Machine, pull the (virtual) power
// cord at a chosen moment, and fsck the resulting stable-storage image.
//
// Because the simulation is deterministic, "crash points" are expressed
// as event counts: the same workload crashed at event N always yields the
// same image, so property tests can sweep N and pin down exactly which
// windows violate integrity under which scheme.
#ifndef MUFS_SRC_FSCK_CRASH_HARNESS_H_
#define MUFS_SRC_FSCK_CRASH_HARNESS_H_

#include <functional>
#include <string>

#include "src/core/machine.h"
#include "src/fsck/fsck.h"
#include "src/fsck/pfsck.h"
#include "src/journal/journal_recovery.h"

namespace mufs {

struct CrashResult {
  bool workload_finished = false;  // Workload completed before the crash.
  uint64_t events_run = 0;
  SimTime crash_time = 0;
  uint64_t torn_writes = 0;  // Torn device writes on the crash image.
  // For journaling machines the harness replays the log into the crash
  // image before fsck (that IS the scheme's recovery path); `replay`
  // reports what the replay did. Zeros for every other scheme.
  JournalReplayReport replay;
  FsckReport report;
};

class CrashHarness {
 public:
  // The workload receives the machine and a proc; it must co_return when
  // logically complete (the harness handles Boot).
  using Workload = std::function<Task<void>(Machine&, Proc&)>;

  explicit CrashHarness(MachineConfig config) : config_(config) {}

  // Runs the workload and crashes after `crash_after_events` engine
  // events (or when the workload and all background activity finish,
  // whichever comes first), then checks the image.
  CrashResult RunAndCrash(const Workload& workload, uint64_t crash_after_events,
                          FsckOptions fsck_options = {});

  // Stable storage only changes when a device write commits, so the set
  // of distinct crash images is indexed by write count. Crashing right
  // after the Nth write (for every N) covers EVERY reachable on-disk
  // state of the run. Write #1 is the first write of the RUN: the format
  // writes done at machine construction are not sweepable crash states
  // (no workload has started), so they are excluded from the index — and
  // MeasureWrites() returns the matching run-relative upper bound.
  CrashResult RunAndCrashAtWrite(const Workload& workload, uint64_t write_count,
                                 FsckOptions fsck_options = {});

  // Mid-write crash: the power cut lands DURING the Nth device write, so
  // that block persists torn (sector prefix only - DiskImage::WriteTorn)
  // and the crash image is taken right there. Sweeping N explores the
  // torn twin of every write-boundary crash state.
  CrashResult RunAndCrashAtWriteTorn(const Workload& workload, uint64_t write_count,
                                     FsckOptions fsck_options = {});

  // Like RunAndCrashAtWrite but hands back the crash image itself instead
  // of checking it - for tests that mutate the image (fsck repair).
  DiskImage CrashImageAtWrite(const Workload& workload, uint64_t write_count);

  // Torn twin of CrashImageAtWrite: the final (Nth) write lands torn.
  DiskImage CrashImageAtWriteTorn(const Workload& workload, uint64_t write_count);

  // Protocol-edge crash: run until a named counter (e.g.
  // "journal.checkpoints" or "syncer.passes") reaches `threshold`, let
  // `extra_writes` more device writes commit, then pull the cord.
  // Sweeping extra_writes walks crash points THROUGH the protocol window
  // that the counter marks the start of (a checkpoint's flush + horizon
  // restamp; a syncer flush burst). Gives up at `deadline` of simulated
  // time if the counter never gets there (workload too small).
  CrashResult RunAndCrashAtCounter(const Workload& workload, const std::string& counter,
                                   uint64_t threshold, uint64_t extra_writes,
                                   FsckOptions fsck_options = {},
                                   SimDuration deadline = Sec(300));

  // Power cut during a journal checkpoint: counter sugar over
  // RunAndCrashAtCounter("journal.checkpoints", n, extra).
  CrashResult RunAndCrashAtCheckpoint(const Workload& workload, uint64_t checkpoint_number,
                                      uint64_t extra_writes, FsckOptions fsck_options = {});

  // Like RunAndCrashAtCounter but hands back the crash image itself -
  // for tests that replay / repair the image themselves.
  DiskImage CrashImageAtCounter(const Workload& workload, const std::string& counter,
                                uint64_t threshold, uint64_t extra_writes,
                                SimDuration deadline = Sec(300));

  // Runs the workload to completion (plus `settle` of idle syncer time),
  // returning the total number of events - the sweep upper bound.
  uint64_t MeasureEvents(const Workload& workload, SimDuration settle = Sec(3));

  // Total device writes committed over the full run (+settle): the
  // write-sweep upper bound.
  uint64_t MeasureWrites(const Workload& workload, SimDuration settle = Sec(3));

  // Final value of a named counter over the full run (+settle): the
  // sweep upper bound for RunAndCrashAtCounter thresholds.
  uint64_t MeasureCounter(const Workload& workload, const std::string& counter,
                          SimDuration settle = Sec(3));

 private:
  MachineConfig config_;
};

}  // namespace mufs

#endif  // MUFS_SRC_FSCK_CRASH_HARNESS_H_
