#include "src/async/visibility_ledger.h"

#include "src/cache/buffer_cache.h"
#include "src/cache/syncer.h"
#include "src/fs/filesystem.h"

namespace mufs {

VisibilityLedger::VisibilityLedger(Engine* engine, StatsRegistry* stats, AsyncConfig config)
    : engine_(engine),
      config_(config),
      durable_cv_(engine),
      stat_ops_(&stats->counter("async.ops_visible")),
      stat_epochs_(&stats->counter("async.epochs")),
      stat_barriers_(&stats->counter("async.barriers")),
      stat_barrier_stalls_(&stats->counter("async.barrier_stalls")),
      stat_op_stalls_(&stats->counter("async.op_stalls")),
      stat_depth_(&stats->gauge("async.visible_not_durable")),
      stat_lag_(&stats->histogram("async.horizon_lag_ns")),
      stat_barrier_wait_(&stats->histogram("async.barrier_wait_ns")) {}

SimDuration VisibilityLedger::EffectiveFlushInterval(const AsyncConfig& config) {
  if (config.flush_interval > 0) {
    return config.flush_interval;
  }
  SimDuration derived = config.staleness_window / 4;
  return derived > 0 ? derived : Msec(1);
}

void VisibilityLedger::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  running_ = true;
  engine_->Spawn(Loop(), "async_flusher");
}

void VisibilityLedger::Stop() {
  running_ = false;
  // Release admission waiters so a stopping machine cannot strand them.
  durable_cv_.NotifyAll();
}

uint64_t VisibilityLedger::NoteVisible() {
  uint64_t seq = ++visible_seq_;
  pending_.push_back({seq, engine_->Now()});
  stat_ops_->Inc();
  stat_depth_->Set(static_cast<int64_t>(pending_.size()));
  return seq;
}

Task<void> VisibilityLedger::AdmitOp() {
  bool stalled = false;
  while (running_ && !pending_.empty() &&
         engine_->Now() - pending_.front().completed > config_.staleness_window) {
    stalled = true;
    co_await durable_cv_.Await();
  }
  if (stalled) {
    stat_op_stalls_->Inc();
  }
}

Task<void> VisibilityLedger::Barrier() {
  uint64_t horizon = visible_seq_;
  stat_barriers_->Inc();
  SimTime t0 = engine_->Now();
  bool waited = false;
  while (durable_seq_ < horizon) {
    waited = true;
    if (!flushing_) {
      co_await FlushEpoch();
    } else {
      co_await durable_cv_.Await();
    }
  }
  stat_barrier_wait_->Record(engine_->Now() - t0);
  if (waited) {
    stat_barrier_stalls_->Inc();
  }
}

void VisibilityLedger::MarkDurableThrough(uint64_t seq) {
  if (seq <= durable_seq_) {
    return;
  }
  durable_seq_ = seq;
  SimTime now = engine_->Now();
  while (!pending_.empty() && pending_.front().seq <= seq) {
    stat_lag_->Record(now - pending_.front().completed);
    pending_.pop_front();
  }
  stat_depth_->Set(static_cast<int64_t>(pending_.size()));
  durable_cv_.NotifyAll();
}

Task<void> VisibilityLedger::DrainDeferred() {
  // Deferred releases can enqueue follow-on work; loop until quiescent.
  int guard = 0;
  while (!deferred_.empty() && guard++ < 1000) {
    auto work = std::move(deferred_.front());
    deferred_.pop_front();
    co_await work();
  }
}

Task<void> VisibilityLedger::FlushEpoch() {
  if (fs_ == nullptr) {
    co_return;
  }
  // One flush at a time; late arrivals wait for the current one - their
  // caller loops re-check durable_seq_ and flush again if still behind.
  while (flushing_) {
    co_await durable_cv_.Await();
  }
  flushing_ = true;
  uint64_t close = visible_seq_;
  // Everything an op <= close dirtied is, by OpEnd, in the in-core
  // inodes, the cache, or this ledger's deferred-release queue. One pass
  // over each makes it durable; a second inode round catches inodes
  // re-dirtied by the deferred work.
  co_await DrainDeferred();
  co_await fs_->FlushDirtyInodes();
  co_await fs_->cache()->SyncVisibleThrough(close);
  co_await fs_->syncer()->DrainWork();
  if (fs_->AnyDirtyInode()) {
    co_await fs_->FlushDirtyInodes();
    co_await fs_->cache()->SyncVisibleThrough(close);
  }
  flushing_ = false;
  stat_epochs_->Inc();
  MarkDurableThrough(close);
}

Task<void> VisibilityLedger::Loop() {
  if (config_.initial_phase > 0) {
    co_await engine_->Sleep(config_.initial_phase);
  }
  const bool periodic = config_.flush_interval > 0;
  const SimDuration tick = FlushInterval();
  // Deadline mode: close an epoch once the oldest visible-not-durable op
  // is halfway to the staleness bound, so the flush itself has the other
  // half of the window to finish before the bound would be violated.
  const SimDuration deadline = config_.staleness_window / 2;
  while (running_) {
    if (periodic) {
      // Explicit commit interval: the classic eager cadence.
      co_await engine_->Sleep(tick);
      if (!running_) {
        break;
      }
      if (pending_.empty()) {
        continue;  // No durability debt.
      }
      co_await FlushEpoch();
      continue;
    }
    if (pending_.empty()) {
      co_await engine_->Sleep(tick);
      continue;
    }
    SimTime due = pending_.front().completed + deadline;
    SimTime now = engine_->Now();
    if (due > now) {
      co_await engine_->Sleep(due - now);
      continue;  // Re-check: a barrier may have retired the op meanwhile.
    }
    co_await FlushEpoch();
  }
}

}  // namespace mufs
