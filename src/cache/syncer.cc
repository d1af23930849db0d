#include "src/cache/syncer.h"

namespace mufs {

SyncerDaemon::SyncerDaemon(Engine* engine, BufferCache* cache, SyncerConfig config)
    : engine_(engine), cache_(cache), config_(config), stats_(cache->stats()) {
  stat_passes_ = &stats_->counter("syncer.passes");
  stat_workitems_ = &stats_->counter("syncer.workitems");
}

void SyncerDaemon::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  running_ = true;
  engine_->Spawn(Loop(), "syncer");
}

void SyncerDaemon::EnqueueWork(std::function<Task<void>()> work) {
  work_queue_.push_back(std::move(work));
}

Task<void> SyncerDaemon::RunWorkQueue() {
  while (!work_queue_.empty()) {
    auto work = std::move(work_queue_.front());
    work_queue_.pop_front();
    stat_workitems_->Inc();
    co_await work();
  }
}

Task<void> SyncerDaemon::DrainWork() {
  // Workitems can enqueue follow-on work (e.g. freeing an inode enqueues
  // block de-allocation); loop until quiescent.
  int guard = 0;
  while (!work_queue_.empty() && guard++ < 1000) {
    co_await RunWorkQueue();
  }
}

Task<void> SyncerDaemon::Loop() {
  if (config_.initial_phase > 0) {
    co_await engine_->Sleep(config_.initial_phase);
  }
  while (running_) {
    co_await engine_->Sleep(config_.interval);
    if (!running_) {
      break;
    }
    co_await RunWorkQueue();
    stat_passes_->Inc();
    if (stats_->tracing()) {
      stats_->Trace("syncer.pass", {{"pass", stat_passes_->value()},
                                    {"dirty", cache_->DirtyCount()},
                                    {"pending_work", work_queue_.size()}});
    }
    cache_->SyncerPass(1.0 / config_.sweep_seconds);
  }
}

}  // namespace mufs
