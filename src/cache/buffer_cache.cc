#include "src/cache/buffer_cache.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace mufs {

BufferCache::BufferCache(Engine* engine, BlockDevice* driver, StatsRegistry* stats,
                         CacheConfig config)
    : engine_(engine),
      driver_(driver),
      config_(config),
      stats_(stats),
      zero_block_(std::make_shared<BlockData>()),
      capacity_cv_(engine) {
  zero_block_->fill(0);
  hooks_ = &default_hooks_;
  stat_hits_ = &stats_->counter("cache.hits");
  stat_misses_ = &stats_->counter("cache.misses");
  stat_delayed_writes_ = &stats_->counter("cache.delayed_writes");
  stat_write_issues_ = &stats_->counter("cache.write_issues");
  stat_sync_writes_ = &stats_->counter("cache.sync_writes");
  stat_write_lock_waits_ = &stats_->counter("cache.write_lock_waits");
  stat_block_copies_ = &stats_->counter("cache.block_copies");
  stat_copy_budget_waits_ = &stats_->counter("cache.copy_budget_waits");
  stat_evictions_ = &stats_->counter("cache.evictions");
  stat_read_failures_ = &stats_->counter("cache.read_failures");
  stat_write_failures_ = &stats_->counter("cache.write_failures");
  stat_dirty_ = &stats_->gauge("cache.dirty_blocks");
  stat_copies_out_ = &stats_->gauge("cache.outstanding_copies");
}

void BufferCache::Touch(Buf& buf) {
  if (buf.lru_tick_ != 0) {
    lru_.erase(buf.lru_tick_);
  }
  buf.lru_tick_ = next_tick_++;
  lru_[buf.lru_tick_] = &buf;
}

Task<BufRef> BufferCache::GetBuf(uint32_t blkno, bool read_fill) {
  auto it = buffers_.find(blkno);
  if (it != buffers_.end()) {
    BufRef buf = it->second;
    stat_hits_->Inc();
    if (stats_->tracing()) {
      stats_->Trace("cache.hit", {{"blkno", blkno}});
    }
    Touch(*buf);
    // Wait out an in-progress fill by another process.
    while (!buf->valid_) {
      co_await buf->io_cv_.Await();
      if (buf->read_failed_) {
        // The filler's read failed and dropped the placeholder.
        co_return nullptr;
      }
    }
    hooks_->BufferAccessed(*buf);
    co_return buf;
  }

  stat_misses_->Inc();
  if (stats_->tracing()) {
    stats_->Trace("cache.miss", {{"blkno", blkno}, {"read_fill", read_fill}});
  }
  // Insert before any suspension: a second miss for the same block while
  // we wait must find this buffer (and block on valid_), never create a
  // duplicate.
  auto buf = std::make_shared<Buf>(engine_, blkno);
  size_t buckets = buffers_.bucket_count();
  buffers_[blkno] = buf;
  PlaceInTableOrder(*buf, buckets);
  Touch(*buf);
  co_await EnsureCapacity();
  if (read_fill) {
    uint64_t id = driver_->IssueRead(blkno, buf->data_.get());
    IoStatus rs = co_await driver_->WaitFor(id);
    if (rs != IoStatus::kOk) {
      stat_read_failures_->Inc();
      if (stats_->tracing()) {
        stats_->Trace("cache.read_failed", {{"blkno", blkno}});
      }
      // Drop the placeholder so a later Bread retries from scratch, and
      // wake concurrent waiters (they see read_failed_ and bail out).
      buf->read_failed_ = true;
      buf->io_cv_.NotifyAll();
      auto bit = buffers_.find(blkno);
      if (bit != buffers_.end() && bit->second == buf) {
        lru_.erase(buf->lru_tick_);
        buffers_.erase(bit);
      }
      co_return nullptr;
    }
  } else {
    buf->data_->fill(0);
  }
  buf->valid_ = true;
  buf->io_cv_.NotifyAll();
  hooks_->BufferAccessed(*buf);
  co_return buf;
}

Task<BufRef> BufferCache::Bread(uint32_t blkno) { return GetBuf(blkno, /*read_fill=*/true); }

Task<BufRef> BufferCache::Bget(uint32_t blkno) { return GetBuf(blkno, /*read_fill=*/false); }

Task<void> BufferCache::EnsureCapacity() {
  while (buffers_.size() >= config_.capacity_blocks) {
    // Scan from coldest: drop a clean, unreferenced, unlocked buffer.
    Buf* victim = nullptr;
    std::vector<Buf*> dirty_cold;
    for (auto& [tick, buf] : lru_) {
      auto it = buffers_.find(buf->blkno_);
      assert(it != buffers_.end());
      if (it->second.use_count() > 1 || buf->io_locked_ || buf->writes_in_flight_ > 0 ||
          !buf->valid_) {
        continue;
      }
      if (!buf->dirty_) {
        victim = buf;
        break;
      }
      if (dirty_cold.size() < 32) {
        dirty_cold.push_back(buf);
      }
    }
    if (victim != nullptr) {
      stat_evictions_->Inc();
      if (stats_->tracing()) {
        stats_->Trace("cache.evict", {{"blkno", victim->blkno_}});
      }
      lru_.erase(victim->lru_tick_);
      buffers_.erase(victim->blkno_);
      co_return;
    }
    // No clean buffer: push a batch of the coldest dirty ones to disk
    // asynchronously (overlapping their service) and retry once one of
    // them completes and becomes clean.
    for (Buf* b : dirty_cold) {
      if (b->dirty_ && !b->write_failed_ && !b->io_locked_ && b->writes_in_flight_ == 0) {
        IssueWrite(buffers_.at(b->blkno_), OrderingTag{}, /*from_syncer=*/false);
      }
    }
    co_await engine_->Sleep(Msec(1));
  }
}

Task<void> BufferCache::BeginUpdate(Buf& buf) {
  if (buf.io_locked_) {
    stat_write_lock_waits_->Inc();
  }
  while (buf.io_locked_) {
    co_await buf.io_cv_.Await();
  }
}

Task<void> BufferCache::BeginRead(Buf& buf) {
  while (buf.rolled_back_) {
    co_await buf.io_cv_.Await();
  }
}

void BufferCache::SetDirtyState(Buf& buf, bool dirty, bool write_failed) {
  if (buf.dirty_ != dirty) {
    stat_dirty_->Add(dirty ? 1 : -1);
  }
  bool was_listed = buf.dirty_ && !buf.write_failed_;
  bool listed = dirty && !write_failed;
  buf.dirty_ = dirty;
  buf.write_failed_ = write_failed;
  if (listed && !was_listed) {
    buf.dirty_slot_ = dirty_list_.size();
    dirty_list_.push_back(&buf);
  } else if (was_listed && !listed) {
    Buf* last = dirty_list_.back();
    dirty_list_[buf.dirty_slot_] = last;
    last->dirty_slot_ = buf.dirty_slot_;
    dirty_list_.pop_back();
  }
}

void BufferCache::PlaceInTableOrder(Buf& buf, size_t buckets_before) {
  if (buffers_.bucket_count() == buckets_before) {
    size_t bucket = buffers_.bucket(buf.blkno_);
    auto next = std::next(buffers_.begin(bucket));
    buf.table_run_ = next != buffers_.end(bucket) ? next->second->table_run_ : next_table_run_--;
    buf.table_node_ = next_table_node_--;
    return;
  }
  // The insertion rehashed: number every buffer in the new order. A
  // bucket's nodes are contiguous, so a run ends where the bucket
  // changes.
  int64_t run = -1;
  int64_t node = 0;
  size_t prev_bucket = buffers_.bucket_count();
  for (auto& [blkno, entry] : buffers_) {
    size_t bucket = buffers_.bucket(blkno);
    run += bucket != prev_bucket;
    prev_bucket = bucket;
    entry->table_run_ = run;
    entry->table_node_ = node++;
  }
  next_table_run_ = -1;
  next_table_node_ = -1;
}

void BufferCache::SortIntoTableOrder(std::vector<Buf*>* bufs) {
  std::sort(bufs->begin(), bufs->end(), [](const Buf* a, const Buf* b) {
    return std::pair{a->table_run_, a->table_node_} < std::pair{b->table_run_, b->table_node_};
  });
}

void BufferCache::MarkDirty(Buf& buf) {
  assert(buf.valid_);
  if (!buf.dirty_) {
    SetDirtyState(buf, true, buf.write_failed_);
    stat_delayed_writes_->Inc();
  }
}

void BufferCache::MarkDirty(uint32_t blkno) {
  auto it = buffers_.find(blkno);
  if (it != buffers_.end() && it->second->valid_) {
    MarkDirty(*it->second);
  }
}

uint64_t BufferCache::IssueWrite(BufRef buf, OrderingTag tag, bool from_syncer) {
  assert(buf->valid_);
  assert(config_.copy_blocks || buf->writes_in_flight_ == 0);
  buf->writes_in_flight_++;
  SetDirtyState(*buf, false, buf->write_failed_);
  buf->syncer_mark_ = false;
  // The write captures the buffer's current content (safe copy or io
  // lock), so the visibility stamp it carries is on its way out; any
  // later stamp re-marks the buffer for a future epoch. A failed write
  // leaves the stamp cleared, which flush paths treat conservatively.
  buf->first_visible_seq_ = 0;
  stat_write_issues_->Inc();
  if (stats_->tracing()) {
    stats_->Trace("cache.flush",
                  {{"blkno", buf->blkno_}, {"from_syncer", from_syncer}, {"flag", tag.flag}});
  }
  if (!buf->pending_write_deps_.empty()) {
    tag.deps.insert(tag.deps.end(), buf->pending_write_deps_.begin(),
                    buf->pending_write_deps_.end());
    buf->pending_write_deps_.clear();
  }

  // Dependency hook: may roll back updates in place (setting rolled_back_
  // via its own bookkeeping is our job below) or supply a substitute
  // source (indirect blocks' safe copy).
  std::shared_ptr<const BlockData> source = hooks_->PrepareWrite(*buf);
  bool used_substitute = source != nullptr;

  std::shared_ptr<const BlockData> io_src;
  bool made_copy = false;
  if (used_substitute) {
    io_src = std::move(source);  // Owned safe copy: no lock needed.
  } else if (config_.copy_blocks) {
    // -CB: clone now; the buffer stays modifiable during the I/O.
    io_src = std::make_shared<BlockData>(*buf->data_);
    stat_block_copies_->Inc();
    ++outstanding_copies_;
    stat_copies_out_->Set(static_cast<int64_t>(outstanding_copies_));
    made_copy = true;
  } else {
    io_src = buf->data_;
    buf->io_locked_ = true;
  }

  // Keep the buffer alive until the interrupt handler runs. The handler
  // must check the status: completion does not imply the bytes reached
  // the disk.
  return driver_->IssueWrite(
      buf->blkno_, {std::move(io_src)}, std::move(tag), [this, buf, made_copy](IoStatus status) {
        buf->io_locked_ = false;
        buf->writes_in_flight_--;
        if (made_copy) {
          --outstanding_copies_;
          stat_copies_out_->Set(static_cast<int64_t>(outstanding_copies_));
          capacity_cv_.NotifyAll();
        }
        if (status == IoStatus::kOk) {
          SetDirtyState(*buf, buf->dirty_, false);
          hooks_->WriteDone(*buf);
        } else {
          // Nothing reached the disk: keep the bytes dirty, but flag the
          // buffer so flush paths skip it (a permanently bad sector must
          // not livelock SyncAll / the syncer). Dependency state is
          // restored without retiring anything.
          stat_write_failures_->Inc();
          if (stats_->tracing()) {
            stats_->Trace("cache.write_failed", {{"blkno", buf->blkno_}});
          }
          SetDirtyState(*buf, true, true);
          hooks_->WriteAborted(*buf);
        }
        buf->rolled_back_ = false;
        buf->io_cv_.NotifyAll();
      });
}

Task<IoStatus> BufferCache::Bwrite(BufRef buf, OrderingTag tag) {
  stat_sync_writes_->Inc();
  while (!config_.copy_blocks && buf->writes_in_flight_ > 0) {
    co_await buf->io_cv_.Await();
  }
  co_await WaitForCopyBudget();
  uint64_t id = IssueWrite(buf, std::move(tag), false);
  IoStatus status = co_await driver_->WaitFor(id);
  co_return status;
}

Task<uint64_t> BufferCache::Bawrite(BufRef buf, OrderingTag tag) {
  // Without -CB, only one outstanding write per buffer: a second writer
  // sleeps until the first completes ("buffer busy", section 3.3). With
  // -CB each write gets its own copy, so several may be in flight - but
  // the copies consume memory, bounded by the copy budget.
  if (!config_.copy_blocks) {
    if (buf->writes_in_flight_ > 0) {
      stat_write_lock_waits_->Inc();
    }
    while (buf->writes_in_flight_ > 0) {
      co_await buf->io_cv_.Await();
    }
  }
  co_await WaitForCopyBudget();
  co_return IssueWrite(buf, std::move(tag), false);
}

Task<void> BufferCache::WaitForCopyBudget() {
  if (!config_.copy_blocks) {
    co_return;
  }
  if (outstanding_copies_ >= config_.copy_budget_blocks) {
    stat_copy_budget_waits_->Inc();
  }
  while (outstanding_copies_ >= config_.copy_budget_blocks) {
    co_await capacity_cv_.Await();
  }
}

Task<void> BufferCache::SyncVisibleThrough(uint64_t seq) {
  // Repeat until stable: completion processing (soft updates) can re-dirty
  // buffers or create new dirty ones (deferred frees), and deferred
  // releases run between rounds can dirty more epoch-covered buffers.
  for (int round = 0; round < 200; ++round) {
    std::vector<Buf*> dirty;
    for (Buf* buf : dirty_list_) {
      if (!buf->io_locked_ && buf->writes_in_flight_ == 0 && buf->first_visible_seq_ <= seq) {
        dirty.push_back(buf);
      }
    }
    if (dirty.empty() && driver_->PendingCount() == 0) {
      co_return;
    }
    SortIntoTableOrder(&dirty);
    for (Buf* buf : dirty) {
      if (buf->dirty_ && !buf->write_failed_ && !buf->io_locked_ &&
          buf->writes_in_flight_ == 0) {
        IssueWrite(buffers_.at(buf->blkno_), OrderingTag{}, false);
      }
    }
    co_await driver_->Drain();
  }
}

void BufferCache::DropClean() {
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    Buf* buf = it->second.get();
    if (it->second.use_count() == 1 && buf->valid_ && !buf->dirty_ && !buf->io_locked_) {
      lru_.erase(buf->lru_tick_);
      it = buffers_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t BufferCache::FailedCount() const {
  size_t n = 0;
  for (const auto& [blkno, buf] : buffers_) {
    if (buf->dirty_ && buf->write_failed_) {
      ++n;
    }
  }
  return n;
}

void BufferCache::SyncerPass(double fraction) {
  // Phase 1: write out buffers marked on the previous pass.
  std::vector<Buf*> to_write;
  for (Buf* buf : dirty_list_) {
    if (buf->syncer_mark_ && !buf->io_locked_ && buf->writes_in_flight_ == 0) {
      to_write.push_back(buf);
    }
  }
  // Issued in sweep (hash-table) order, NOT disk order: sorting is the
  // disk scheduler's job, and pre-sorting here would hide the cost of
  // restrictive ordering semantics (the paper's figure 1b effect). The
  // dirty list is unordered; the table positions give the sweep order.
  SortIntoTableOrder(&to_write);
  for (Buf* buf : to_write) {
    if (buf->writes_in_flight_ == 0) {
      IssueWrite(buffers_.at(buf->blkno_), OrderingTag{}, /*from_syncer=*/true);
    }
  }

  // Phase 2: mark the dirty buffers in this pass's window. The window is
  // a slice of the block-number space, advanced each pass so the whole
  // cache is covered every 1/fraction passes.
  std::vector<Buf*> unmarked;
  for (Buf* buf : dirty_list_) {
    if (!buf->syncer_mark_) {
      unmarked.push_back(buf);
    }
  }
  std::sort(unmarked.begin(), unmarked.end(),
            [](const Buf* a, const Buf* b) { return a->blkno_ < b->blkno_; });
  size_t want = static_cast<size_t>(
      static_cast<double>(config_.capacity_blocks) * fraction + 0.5);
  // Start after the cursor, wrapping, to emulate the rotating sweep.
  auto start = std::partition_point(unmarked.begin(), unmarked.end(),
                                    [this](const Buf* b) { return b->blkno_ <= syncer_cursor_; });
  size_t marked = 0;
  for (size_t i = 0; i < unmarked.size() && marked < want; ++i) {
    size_t idx = (static_cast<size_t>(start - unmarked.begin()) + i) % unmarked.size();
    unmarked[idx]->syncer_mark_ = true;
    syncer_cursor_ = unmarked[idx]->blkno_;
    ++marked;
  }
}

}  // namespace mufs
