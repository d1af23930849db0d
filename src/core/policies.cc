#include "src/core/policies.h"

#include <algorithm>
#include <string>

namespace mufs {

// ---------------------------------------------------------------------
// Base plumbing
// ---------------------------------------------------------------------

void OrderingPolicy::Attach(FileSystem* fs) {
  fs_ = fs;
  stats_ = fs->stats();
  stat_ordering_points_ = &stats_->counter("policy.ordering_points");
}

void OrderingPolicy::NoteOrderingPoint(std::string_view point, std::string_view action) {
  if (stats_ == nullptr) {
    return;  // Never attached (unit tests poking a bare policy).
  }
  stat_ordering_points_->Inc();
  std::string name = "policy.";
  name += point;
  stats_->counter(name).Inc();
  if (stats_->tracing()) {
    stats_->Trace("policy.ordering_point",
                  {{"scheme", Name()}, {"point", point}, {"action", action}});
  }
}

// ---------------------------------------------------------------------
// Shared drain loop
// ---------------------------------------------------------------------

Task<void> OrderingPolicy::DrainAllDirty(Proc& proc) {
  (void)proc;
  // Completion processing and workitems can generate new dirty state
  // (deferred frees dirty the bitmaps, redo re-dirties buffers), so
  // iterate to quiescence.
  for (int round = 0; round < 100; ++round) {
    co_await fs()->FlushDirtyInodes();
    co_await fs()->cache()->SyncAll();
    co_await fs()->syncer()->DrainWork();
    bool quiet = !fs()->AnyDirtyInode() && fs()->cache()->DirtyCount() == 0 &&
                 fs()->syncer()->PendingWork() == 0 &&
                 fs()->cache()->driver()->PendingCount() == 0;
    if (quiet) {
      co_return;
    }
  }
}

// ---------------------------------------------------------------------
// NoOrder
// ---------------------------------------------------------------------

Task<void> NoOrderPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                                          bool init_required, BlockRole role) {
  (void)init_required;  // Ignored: that is the point of this baseline.
  (void)role;
  NoteOrderingPoint("alloc", "delayed");
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> NoOrderPolicy::SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                                         std::vector<BufRef> updated_indirects) {
  (void)ip;
  (void)updated_indirects;  // Already marked dirty; syncer handles them.
  NoteOrderingPoint("block_free", "delayed");
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> NoOrderPolicy::SetupLinkAdd(Proc& proc, Inode& dir, BufRef dir_buf, uint32_t offset,
                                       Inode& target, bool new_inode) {
  (void)proc;
  (void)dir;
  (void)dir_buf;
  (void)offset;
  (void)target;
  (void)new_inode;
  NoteOrderingPoint("link_add", "delayed");
  co_return;  // Everything is already a delayed write.
}

Task<void> NoOrderPolicy::SetupLinkRemove(Proc& proc, Inode& dir, BufRef dir_buf, uint32_t offset,
                                          DirEntry old_entry, uint32_t removed_ino,
                                          const RenameContext* rename) {
  (void)dir;
  (void)dir_buf;
  (void)offset;
  (void)old_entry;
  (void)rename;
  NoteOrderingPoint("link_remove", "delayed");
  co_await fs()->ReleaseLink(proc, removed_ino);
}

Task<void> NoOrderPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", "delayed");
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

Task<void> NoOrderPolicy::FlushAll(Proc& proc) { co_await DrainAllDirty(proc); }

// ---------------------------------------------------------------------
// Conventional (synchronous writes)
// ---------------------------------------------------------------------

Task<void> ConventionalPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf,
                                               PtrLoc loc, bool init_required, BlockRole role) {
  (void)role;
  NoteOrderingPoint("alloc", init_required ? "sync_write" : "delayed");
  if (init_required) {
    // Synchronously write zeroes to the new block before the pointer can
    // reach its carrier. The reserved zero block is the I/O source
    // (section 3.3), so the data buffer itself is never locked.
    BlockDevice* driver = fs()->cache()->driver();
    uint64_t id = driver->IssueWrite(data_buf->blkno(), {fs()->cache()->ZeroBlock()});
    SimTime t0 = fs()->engine()->Now();
    IoStatus init_status = co_await driver->WaitFor(id);
    proc.io_wait += fs()->engine()->Now() - t0;
    if (init_status != IoStatus::kOk) {
      // The block may hold stale data from its previous life; committing
      // the pointer anyway matches a disk that dropped the init write.
      // Record the degradation so sync callers report it.
      fs()->NoteIoError();
    }
  }
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> ConventionalPolicy::SetupBlockFree(Proc& proc, Inode& ip,
                                              std::vector<uint32_t> blocks,
                                              std::vector<BufRef> updated_indirects) {
  // The reset pointers must be on disk before the blocks may be reused:
  // synchronous writes of the inode and any surviving indirect blocks,
  // then the bitmaps are updated (delayed) and reuse is immediate.
  NoteOrderingPoint("block_free", "sync_write");
  co_await fs()->FlushInodeToBuffer(ip);
  SimTime t0 = fs()->engine()->Now();
  IoStatus ws = co_await fs()->cache()->Bwrite(ip.itable_buf);
  if (ws != IoStatus::kOk) {
    fs()->NoteIoError();
  }
  for (BufRef& ibuf : updated_indirects) {
    ws = co_await fs()->cache()->Bwrite(ibuf);
    if (ws != IoStatus::kOk) {
      fs()->NoteIoError();
    }
  }
  proc.io_wait += fs()->engine()->Now() - t0;
  // Even on a failed reset write the blocks are released: the buffer
  // stays dirty (write_failed) so a later successful flush restores the
  // ordering invariant, and fsck can repair the transient window.
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> ConventionalPolicy::SetupLinkAdd(Proc& proc, Inode& dir, BufRef dir_buf,
                                            uint32_t offset, Inode& target, bool new_inode) {
  (void)dir;
  (void)dir_buf;
  (void)offset;
  (void)new_inode;
  // The (possibly new) inode must be on disk before the entry; the
  // directory block itself stays a delayed write ("the last write in a
  // series of metadata updates is asynchronous or delayed").
  NoteOrderingPoint("link_add", "sync_write");
  co_await fs()->FlushInodeToBuffer(target);
  SimTime t0 = fs()->engine()->Now();
  IoStatus ws = co_await fs()->cache()->Bwrite(target.itable_buf);
  proc.io_wait += fs()->engine()->Now() - t0;
  if (ws != IoStatus::kOk) {
    fs()->NoteIoError();
  }
}

Task<void> ConventionalPolicy::SetupLinkRemove(Proc& proc, Inode& dir, BufRef dir_buf,
                                               uint32_t offset, DirEntry old_entry,
                                               uint32_t removed_ino,
                                               const RenameContext* rename) {
  (void)dir;
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", "sync_write");
  SimTime t0 = fs()->engine()->Now();
  if (rename != nullptr && rename->new_dir_buf->blkno() != dir_buf->blkno()) {
    // Rule 1: the new name reaches disk before the old one is cleared.
    NoteOrderingPoint("rename_fence", "sync_write");
    IoStatus fence = co_await fs()->cache()->Bwrite(rename->new_dir_buf);
    if (fence != IoStatus::kOk) {
      fs()->NoteIoError();
    }
  }
  // Rule 2: the cleared entry reaches disk before the link count drops.
  IoStatus ws = co_await fs()->cache()->Bwrite(dir_buf);
  if (ws != IoStatus::kOk) {
    fs()->NoteIoError();
  }
  proc.io_wait += fs()->engine()->Now() - t0;
  co_await fs()->ReleaseLink(proc, removed_ino);
}

Task<void> ConventionalPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", "sync_write");
  // The truncation usually wrote the reset inode (mode already 0) a
  // moment ago; only write again if something changed since.
  if (ip.dirty() || ip.itable_buf->dirty()) {
    co_await fs()->FlushInodeToBuffer(ip);
    SimTime t0 = fs()->engine()->Now();
    IoStatus ws = co_await fs()->cache()->Bwrite(ip.itable_buf);
    proc.io_wait += fs()->engine()->Now() - t0;
    if (ws != IoStatus::kOk) {
      fs()->NoteIoError();
    }
  }
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

Task<void> ConventionalPolicy::FlushAll(Proc& proc) { co_await DrainAllDirty(proc); }

// ---------------------------------------------------------------------
// Scheduler flag
//
// Fault-tolerance contract: retries happen inside the device service
// loop while the request stays in service, so flagged ordering (and
// chain dependencies below) hold across re-issued attempts with no
// bookkeeping here. A request that exhausts its retries completes with
// a failure status; its buffer is re-dirtied by the cache (sticky
// write_failed) and dependents are released - equivalent to relaxing
// that one ordering edge to a delayed write, which fsck can repair.
// ---------------------------------------------------------------------

Task<void> SchedulerFlagPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf,
                                                PtrLoc loc, bool init_required, BlockRole role) {
  (void)role;
  NoteOrderingPoint("alloc", init_required ? "flagged_write" : "delayed");
  if (init_required) {
    // Asynchronous flagged init write from the zero block; the pointer
    // carrier's write is issued later, hence ordered after it.
    fs()->cache()->driver()->IssueWrite(data_buf->blkno(), {fs()->cache()->ZeroBlock()},
                                        {.flag = true, .device_ordered = true});
  }
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> SchedulerFlagPolicy::SetupBlockFree(Proc& proc, Inode& ip,
                                               std::vector<uint32_t> blocks,
                                               std::vector<BufRef> updated_indirects) {
  // Section 3.2's flag-based de-allocation: the pointer-reset writes go
  // out as flagged asynchronous writes; reuse is immediate because any
  // later write (e.g. re-initialization of a reused block) is issued
  // after the flagged request and therefore ordered behind it.
  NoteOrderingPoint("block_free", "flagged_write");
  co_await fs()->FlushInodeToBuffer(ip);
  OrderingTag flagged;
  flagged.flag = true;
  flagged.device_ordered = true;
  (void)co_await fs()->cache()->Bawrite(ip.itable_buf, flagged);
  for (BufRef& ibuf : updated_indirects) {
    (void)co_await fs()->cache()->Bawrite(ibuf, flagged);
  }
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> SchedulerFlagPolicy::SetupLinkAdd(Proc& proc, Inode& dir, BufRef dir_buf,
                                             uint32_t offset, Inode& target, bool new_inode) {
  (void)dir;
  (void)dir_buf;
  (void)offset;
  (void)new_inode;
  (void)proc;
  NoteOrderingPoint("link_add", "flagged_write");
  co_await fs()->FlushInodeToBuffer(target);
  OrderingTag flagged;
  flagged.flag = true;
  flagged.device_ordered = true;
  (void)co_await fs()->cache()->Bawrite(target.itable_buf, flagged);
}

Task<void> SchedulerFlagPolicy::SetupLinkRemove(Proc& proc, Inode& dir, BufRef dir_buf,
                                                uint32_t offset, DirEntry old_entry,
                                                uint32_t removed_ino,
                                                const RenameContext* rename) {
  (void)dir;
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", "flagged_write");
  OrderingTag flagged;
  flagged.flag = true;
  flagged.device_ordered = true;
  if (rename != nullptr && rename->new_dir_buf->blkno() != dir_buf->blkno()) {
    NoteOrderingPoint("rename_fence", "flagged_write");
    (void)co_await fs()->cache()->Bawrite(rename->new_dir_buf, flagged);
  }
  (void)co_await fs()->cache()->Bawrite(dir_buf, flagged);
  co_await fs()->ReleaseLink(proc, removed_ino);
}

Task<void> SchedulerFlagPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", "flagged_write");
  if (ip.dirty() || ip.itable_buf->dirty()) {
    co_await fs()->FlushInodeToBuffer(ip);
    OrderingTag free_tag;
    free_tag.flag = true;
    free_tag.device_ordered = true;
    (void)co_await fs()->cache()->Bawrite(ip.itable_buf, free_tag);
  }
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

Task<void> SchedulerFlagPolicy::FlushAll(Proc& proc) { co_await DrainAllDirty(proc); }

// ---------------------------------------------------------------------
// Scheduler chains
// ---------------------------------------------------------------------

std::vector<uint64_t> SchedulerChainPolicy::ReuseDeps(uint32_t blkno) {
  auto it = block_reuse_deps_.find(blkno);
  if (it == block_reuse_deps_.end()) {
    return {};
  }
  std::vector<uint64_t> deps = std::move(it->second);
  block_reuse_deps_.erase(it);
  // Drop already-completed requests.
  BlockDevice* driver = fs()->cache()->driver();
  std::erase_if(deps, [&](uint64_t id) { return driver->IsComplete(id); });
  return deps;
}

std::vector<uint64_t> SchedulerChainPolicy::BarrierDeps() {
  BlockDevice* driver = fs()->cache()->driver();
  std::erase_if(barrier_reqs_, [&](uint64_t id) { return driver->IsComplete(id); });
  return barrier_reqs_;
}

Task<void> SchedulerChainPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf,
                                                 PtrLoc loc, bool init_required, BlockRole role) {
  (void)role;
  NoteOrderingPoint("alloc", init_required ? "chain_dep" : "delayed");
  std::vector<uint64_t> reuse =
      track_freed_ ? ReuseDeps(data_buf->blkno()) : BarrierDeps();
  if (init_required) {
    uint64_t init_id = fs()->cache()->driver()->IssueWrite(
        data_buf->blkno(), {fs()->cache()->ZeroBlock()}, {.deps = reuse});
    co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
    // The pointer write (whenever the carrier goes to disk) must follow
    // the initialization.
    BufRef carrier = loc.kind == PtrLoc::Kind::kIndirectSlot ? loc.indirect_buf : ip.itable_buf;
    fs()->cache()->AddWriteDep(*carrier, init_id);
  } else {
    co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
    if (!reuse.empty()) {
      // Re-used block without initialization ordering: the new owner (and
      // the block's own data) must still follow the old owner's reset.
      BufRef carrier =
          loc.kind == PtrLoc::Kind::kIndirectSlot ? loc.indirect_buf : ip.itable_buf;
      for (uint64_t id : reuse) {
        fs()->cache()->AddWriteDep(*carrier, id);
        fs()->cache()->AddWriteDep(*data_buf, id);
      }
    }
  }
}

Task<void> SchedulerChainPolicy::SetupBlockFree(Proc& proc, Inode& ip,
                                                std::vector<uint32_t> blocks,
                                                std::vector<BufRef> updated_indirects) {
  NoteOrderingPoint("block_free", "chain_dep");
  co_await fs()->FlushInodeToBuffer(ip);
  std::vector<uint64_t> reset_writes;
  reset_writes.push_back(co_await fs()->cache()->Bawrite(ip.itable_buf));
  for (BufRef& ibuf : updated_indirects) {
    reset_writes.push_back(co_await fs()->cache()->Bawrite(ibuf));
  }
  if (track_freed_) {
    for (uint32_t blk : blocks) {
      block_reuse_deps_[blk] = reset_writes;
    }
  } else {
    barrier_reqs_.insert(barrier_reqs_.end(), reset_writes.begin(), reset_writes.end());
  }
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> SchedulerChainPolicy::SetupLinkAdd(Proc& proc, Inode& dir, BufRef dir_buf,
                                              uint32_t offset, Inode& target, bool new_inode) {
  (void)dir;
  (void)offset;
  (void)new_inode;
  (void)proc;
  NoteOrderingPoint("link_add", "chain_dep");
  co_await fs()->FlushInodeToBuffer(target);
  // NOTE: no non-trivial temporaries in co_await argument lists (GCC 12
  // double-destroys them); build the tag as a local and move it.
  OrderingTag add_tag;
  if (!track_freed_) {
    add_tag.deps = BarrierDeps();
    add_tag.device_ordered = !add_tag.deps.empty();
  }
  uint64_t id = co_await fs()->cache()->Bawrite(target.itable_buf, std::move(add_tag));
  // The directory entry (whenever its block is written) follows the inode.
  fs()->cache()->AddWriteDep(*dir_buf, id);
}

Task<void> SchedulerChainPolicy::SetupLinkRemove(Proc& proc, Inode& dir, BufRef dir_buf,
                                                 uint32_t offset, DirEntry old_entry,
                                                 uint32_t removed_ino,
                                                 const RenameContext* rename) {
  (void)dir;
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", "chain_dep");
  if (rename != nullptr && rename->new_dir_buf->blkno() != dir_buf->blkno()) {
    NoteOrderingPoint("rename_fence", "chain_dep");
    uint64_t new_id = co_await fs()->cache()->Bawrite(rename->new_dir_buf);
    fs()->cache()->AddWriteDep(*dir_buf, new_id);
  }
  uint64_t reset_id = co_await fs()->cache()->Bawrite(dir_buf);
  inode_remove_write_[removed_ino] = reset_id;
  if (!track_freed_) {
    barrier_reqs_.push_back(reset_id);
  }
  // Rule 2 for surviving inodes (nlink stays > 0, e.g. renames and
  // multi-link files): the write carrying the decremented link count must
  // follow the directory reset. Registering the dependency on the inode's
  // table block before the decrement is sufficient - any later write of
  // that block is ordered behind the reset directly or transitively
  // (same-block writes complete in issue order).
  InodeRef removed = co_await fs()->Iget(proc, removed_ino);
  if (removed == nullptr) {
    fs()->NoteIoError();  // Itable read failed; fsck repairs the count.
    co_return;
  }
  fs()->cache()->AddWriteDep(*removed->itable_buf, reset_id);
  co_await fs()->ReleaseLink(proc, removed_ino);
}

Task<void> SchedulerChainPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", "chain_dep");
  OrderingTag tag;
  auto it = inode_remove_write_.find(ip.ino);
  if (it != inode_remove_write_.end()) {
    // The zeroed inode follows the directory-entry reset; any later
    // reincarnation of this inode lands in the same block and is ordered
    // behind this write by the device's write-after-write rule.
    tag.deps.push_back(it->second);
    inode_remove_write_.erase(it);
  }
  if (!track_freed_) {
    auto barrier = BarrierDeps();
    tag.deps.insert(tag.deps.end(), barrier.begin(), barrier.end());
  }
  if (ip.dirty() || ip.itable_buf->dirty() || !tag.deps.empty()) {
    tag.device_ordered = !tag.deps.empty();
    co_await fs()->FlushInodeToBuffer(ip);
    uint64_t id = co_await fs()->cache()->Bawrite(ip.itable_buf, std::move(tag));
    if (!track_freed_) {
      barrier_reqs_.push_back(id);
    }
  }
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

Task<void> SchedulerChainPolicy::FlushAll(Proc& proc) { co_await DrainAllDirty(proc); }

}  // namespace mufs
