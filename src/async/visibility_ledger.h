// Visibility/durability ledger for Scheme::kAsync (AsyncFS-style
// asynchronous metadata updates).
//
// Under the async scheme a metadata operation returns as soon as its
// update is visible in the buffer cache; nothing is written synchronously
// at the ordering points. The ledger is what decouples that return-time
// contract from durability:
//
//   - every completed operation is assigned a monotone sequence number,
//     its *durability horizon* (NoteVisible);
//   - a background flusher closes an epoch when the oldest visible op
//     approaches the staleness bound (or every flush_interval when one is
//     set), pushes all state dirtied up to the close to disk, and
//     advances the durable horizon past every op the epoch covers
//     (Loop/FlushEpoch);
//   - Fsync and unmount become barriers: wait until the caller's horizon
//     is durable, forcing an immediate epoch close (Barrier);
//   - admission backpressure bounds staleness: a new op stalls while the
//     oldest visible-not-durable op has been outstanding longer than the
//     staleness window, so the visible/durable gap a crash can lose never
//     grows past (window + one epoch flush) of work (AdmitOp).
//
// Everything runs on the simulation's single-threaded coroutine engine,
// so the ledger is deterministic: same seed, same horizons.
#ifndef MUFS_SRC_ASYNC_VISIBILITY_LEDGER_H_
#define MUFS_SRC_ASYNC_VISIBILITY_LEDGER_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/stats/stats_registry.h"

namespace mufs {

class FileSystem;

struct AsyncConfig {
  // Bounded staleness (--staleness-ns): an op that completed more than
  // this long before a crash is expected to be durable by the crash.
  SimDuration staleness_window = Msec(500);
  // Background commit cadence. 0 (the default) selects deadline-driven
  // flushing: an epoch closes only when the oldest visible-not-durable
  // op is halfway to the staleness bound, so an idle or short-lived
  // burst pays no flush at all. A positive value forces the classic
  // eager fixed-interval cadence.
  SimDuration flush_interval = 0;
  // First flush is delayed by this much extra (shard stagger, like
  // SyncerConfig::initial_phase).
  SimDuration initial_phase = 0;
};

class VisibilityLedger {
 public:
  // The ledger counts into `stats` (the Machine's registry) under the
  // async.* names.
  VisibilityLedger(Engine* engine, StatsRegistry* stats, AsyncConfig config);
  VisibilityLedger(const VisibilityLedger&) = delete;
  VisibilityLedger& operator=(const VisibilityLedger&) = delete;

  // Binds the file system whose dirty state the flusher drains. Must be
  // called before Start().
  void AttachFs(FileSystem* fs) { fs_ = fs; }

  // Spawns the background flusher daemon (call inside the engine).
  void Start();
  void Stop();

  // Effective epoch cadence (resolves the flush_interval = 0 default).
  static SimDuration EffectiveFlushInterval(const AsyncConfig& config);
  SimDuration FlushInterval() const { return EffectiveFlushInterval(config_); }

  // Called at op completion: the op's updates are all visible in the
  // cache. Returns the op's sequence number - its durability horizon.
  uint64_t NoteVisible();

  // Admission backpressure, called at op start: stalls while the oldest
  // visible-not-durable op has been outstanding longer than the staleness
  // window, until a flush catches up.
  Task<void> AdmitOp();

  // Durability barrier: returns once every op visible at entry is
  // durable, forcing an immediate epoch flush instead of waiting for the
  // cadence. The Fsync / cross-shard-rename / unmount path.
  Task<void> Barrier();

  // An external full drain (policy FlushAll) proved everything visible up
  // to `seq` durable; advance the horizon and retire pending ops.
  void MarkDurableThrough(uint64_t seq);

  // Appends cleanup work (deferred inode releases) serviced at the next
  // epoch flush. Unlike the syncer's workitem queue this never runs on
  // the periodic syncer pass: under the async scheme the op path sheds
  // the release entirely, and a crash before the flush leaves only an
  // orphan that repair reclaims.
  void Defer(std::function<Task<void>()> work) { deferred_.push_back(std::move(work)); }
  // Runs the deferred queue to quiescence. Epoch flushes do this
  // automatically; unmount calls it directly because a barrier that finds
  // the horizon already durable skips the epoch flush entirely.
  Task<void> DrainDeferred();

  uint64_t visible_seq() const { return visible_seq_; }
  uint64_t durable_seq() const { return durable_seq_; }

 private:
  struct PendingOp {
    uint64_t seq;
    SimTime completed;
  };

  Task<void> Loop();
  // Closes the open epoch at the current visible horizon, flushes every
  // dirty inode/buffer plus deferred syncer work once, and marks the
  // closed horizon durable. State dirtied by ops completing *during* the
  // flush may ride along but gets no promise until the next epoch.
  Task<void> FlushEpoch();

  Engine* engine_;
  AsyncConfig config_;
  FileSystem* fs_ = nullptr;
  bool started_ = false;
  bool running_ = false;
  bool flushing_ = false;
  uint64_t visible_seq_ = 0;
  uint64_t durable_seq_ = 0;
  std::deque<PendingOp> pending_;
  std::deque<std::function<Task<void>()>> deferred_;  // Epoch-time cleanup.
  CondVar durable_cv_;  // Notified whenever durable_seq_ advances.

  Counter* stat_ops_;
  Counter* stat_epochs_;
  Counter* stat_barriers_;
  Counter* stat_barrier_stalls_;
  Counter* stat_op_stalls_;
  Gauge* stat_depth_;  // Ops whose updates are visible but not yet durable.
  LatencyHistogram* stat_lag_;
  LatencyHistogram* stat_barrier_wait_;
};

}  // namespace mufs

#endif  // MUFS_SRC_ASYNC_VISIBILITY_LEDGER_H_
