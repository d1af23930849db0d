// The syncer daemon (paper section 2).
//
// A background process that wakes once per interval (1 s), first services
// the workitem queue (section 4.2: deferred soft-updates tasks that may
// block, so they cannot run at interrupt level), then performs one
// incremental buffer-cache pass: write out what was marked last pass, mark
// this pass's window. This smooths write-back compared to the
// conventional bursty "30 second sync".
#ifndef MUFS_SRC_CACHE_SYNCER_H_
#define MUFS_SRC_CACHE_SYNCER_H_

#include <deque>
#include <functional>

#include "src/cache/buffer_cache.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace mufs {

struct SyncerConfig {
  SimDuration interval = Sec(1);
  // Full cache coverage every `sweep_seconds` worth of passes.
  int sweep_seconds = 30;
  // Extra delay before the FIRST wakeup only. Sharded machines stagger
  // their shards' syncers across the interval (shard s sleeps an extra
  // interval*s/S) so S write-back bursts do not land on the volume at
  // the same instant. 0 (the default) is the exact historical cadence.
  SimDuration initial_phase = 0;
};

class SyncerDaemon {
 public:
  SyncerDaemon(Engine* engine, BufferCache* cache, SyncerConfig config = {});
  SyncerDaemon(const SyncerDaemon&) = delete;
  SyncerDaemon& operator=(const SyncerDaemon&) = delete;

  void Start();
  void Stop() { running_ = false; }
  bool Running() const { return running_; }

  // Appends a deferred task; serviced (awaited one at a time, FIFO) at the
  // next wakeup, before the cache pass.
  void EnqueueWork(std::function<Task<void>()> work);
  size_t PendingWork() const { return work_queue_.size(); }

  // Runs queued workitems and one cache pass immediately (used by fsync
  // paths and shutdown). Repeats while work remains, since workitems can
  // enqueue more work.
  Task<void> DrainWork();

  uint64_t PassesRun() const { return stat_passes_->value(); }
  uint64_t WorkitemsRun() const { return stat_workitems_->value(); }

 private:
  Task<void> Loop();
  Task<void> RunWorkQueue();

  Engine* engine_;
  BufferCache* cache_;
  SyncerConfig config_;
  StatsRegistry* stats_;  // The cache's registry.
  Counter* stat_passes_ = nullptr;
  Counter* stat_workitems_ = nullptr;
  bool running_ = false;
  bool started_ = false;
  std::deque<std::function<Task<void>()>> work_queue_;
};

}  // namespace mufs

#endif  // MUFS_SRC_CACHE_SYNCER_H_
