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
// Default FlushAll: the shared drain loop
// ---------------------------------------------------------------------

Task<void> OrderingPolicy::FlushAll(Proc& proc) {
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
// NoOrder (and Async: the same hooks plus the ledger)
// ---------------------------------------------------------------------

Task<void> NoOrderPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                                          bool init_required, BlockRole role) {
  (void)init_required;  // Ignored: that is the point of this baseline.
  (void)role;
  NoteOrderingPoint("alloc", Action());
  Stamp(data_buf);
  if (loc.kind == PtrLoc::Kind::kIndirectSlot) {
    Stamp(loc.indirect_buf);
  }
  Stamp(ip.itable_buf);
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> NoOrderPolicy::SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                                         std::vector<BufRef> updated_indirects) {
  // The reset pointers are already marked dirty; the syncer writes them.
  NoteOrderingPoint("block_free", Action());
  Stamp(ip.itable_buf);
  for (const BufRef& ibuf : updated_indirects) {
    Stamp(ibuf);
  }
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> NoOrderPolicy::SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target,
                                       bool new_inode) {
  (void)offset;
  (void)new_inode;
  NoteOrderingPoint("link_add", Action());
  Stamp(dir_buf);
  Stamp(target.itable_buf);
  co_return;  // Everything is already a delayed write.
}

Task<void> NoOrderPolicy::SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                          DirEntry old_entry, uint32_t removed_ino,
                                          const RenameContext* rename) {
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", Action());
  Stamp(dir_buf);
  if (rename != nullptr) {
    Stamp(rename->new_dir_buf);
  }
  co_await Release(proc, removed_ino);
}

Task<void> NoOrderPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", Action());
  Stamp(ip.itable_buf);
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

Task<void> NoOrderPolicy::Release(Proc& proc, uint32_t ino) {
  co_await fs()->ReleaseLink(proc, ino);
}

void AsyncPolicy::Stamp(const BufRef& buf) {
  if (buf != nullptr) {
    fs()->cache()->StampVisibleSeq(*buf, ledger_->visible_seq() + 1);
  }
}

Task<void> AsyncPolicy::Release(Proc& proc, uint32_t ino) {
  (void)proc;
  // The visible half of the op is the name removal, already in the
  // directory buffer. The release (link count, truncate, block/inode
  // frees) is bookkeeping a crash can always repair, so it runs off the
  // op path - the same deferral soft updates uses for its rem workitems,
  // but queued on the ledger rather than the syncer so it only ever runs
  // at epoch flushes, never inside a foreground-visible syncer pass.
  ledger_->Defer([this, ino]() -> Task<void> {
    co_await fs()->ReleaseLink(sys_proc_, ino);
  });
  co_return;
}

Task<void> AsyncPolicy::OpBegin(Proc&) { co_await ledger_->AdmitOp(); }

void AsyncPolicy::OpEnd() { ledger_->NoteVisible(); }

Task<void> AsyncPolicy::FlushAll(Proc& proc) {
  uint64_t horizon = ledger_->visible_seq();
  co_await ledger_->Barrier();
  // A barrier that found the horizon already durable skipped the epoch
  // flush; the deferred releases still have to land before the drain
  // below can leave the image clean.
  co_await ledger_->DrainDeferred();
  co_await OrderingPolicy::FlushAll(proc);
  ledger_->MarkDurableThrough(horizon);
}

// ---------------------------------------------------------------------
// Ordered writes (Conventional and Scheduler Flag)
// ---------------------------------------------------------------------

Task<void> OrderedWritePolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf,
                                               PtrLoc loc, bool init_required, BlockRole role) {
  (void)role;
  NoteOrderingPoint("alloc", init_required ? Action() : "delayed");
  if (init_required) {
    co_await InitWrite(data_buf->blkno());
  }
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> OrderedWritePolicy::SetupBlockFree(Proc& proc, Inode& ip,
                                              std::vector<uint32_t> blocks,
                                              std::vector<BufRef> updated_indirects) {
  // The reset pointers must be on disk before the blocks may be reused:
  // ordered writes of the inode and any surviving indirect blocks, then
  // the bitmaps are updated (delayed) and reuse is immediate, since any
  // later write (e.g. re-initialization of a reused block) is ordered
  // behind them (section 3.2's flag-based de-allocation).
  NoteOrderingPoint("block_free", Action());
  co_await fs()->FlushInodeToBuffer(ip);
  co_await OrderedWrite(ip.itable_buf);
  for (BufRef& ibuf : updated_indirects) {
    co_await OrderedWrite(ibuf);
  }
  // Even on a failed reset write the blocks are released: the buffer
  // stays dirty (write_failed) so a later successful flush restores the
  // ordering invariant, and fsck can repair the transient window.
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> OrderedWritePolicy::SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target,
                                            bool new_inode) {
  (void)dir_buf;
  (void)offset;
  (void)new_inode;
  // The (possibly new) inode must be on disk before the entry; the
  // directory block itself stays a delayed write ("the last write in a
  // series of metadata updates is asynchronous or delayed").
  NoteOrderingPoint("link_add", Action());
  co_await fs()->FlushInodeToBuffer(target);
  co_await OrderedWrite(target.itable_buf);
}

Task<void> OrderedWritePolicy::SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                               DirEntry old_entry, uint32_t removed_ino,
                                               const RenameContext* rename) {
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", Action());
  if (rename != nullptr && rename->new_dir_buf->blkno() != dir_buf->blkno()) {
    // Rule 1: the new name reaches disk before the old one is cleared.
    NoteOrderingPoint("rename_fence", Action());
    co_await OrderedWrite(rename->new_dir_buf);
  }
  // Rule 2: the cleared entry reaches disk before the link count drops.
  co_await OrderedWrite(dir_buf);
  co_await fs()->ReleaseLink(proc, removed_ino);
}

Task<void> OrderedWritePolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", Action());
  // The truncation usually wrote the reset inode (mode already 0) a
  // moment ago; only write again if something changed since.
  if (ip.dirty() || ip.itable_buf->dirty()) {
    co_await fs()->FlushInodeToBuffer(ip);
    co_await OrderedWrite(ip.itable_buf);
  }
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

Task<void> ConventionalPolicy::OrderedWrite(BufRef buf) {
  IoStatus ws = co_await fs()->cache()->Bwrite(std::move(buf));
  if (ws != IoStatus::kOk) {
    fs()->NoteIoError();
  }
}

Task<void> ConventionalPolicy::InitWrite(uint32_t blkno) {
  BlockDevice* driver = fs()->cache()->driver();
  uint64_t id = driver->IssueWrite(blkno, {fs()->cache()->ZeroBlock()});
  IoStatus init_status = co_await driver->WaitFor(id);
  if (init_status != IoStatus::kOk) {
    // The block may hold stale data from its previous life; committing
    // the pointer anyway matches a disk that dropped the init write.
    // Record the degradation so sync callers report it.
    fs()->NoteIoError();
  }
}

// Scheduler Flag's fault-tolerance contract: retries happen inside the
// device service loop while the request stays in service, so flagged
// ordering (and chain dependencies below) hold across re-issued attempts
// with no bookkeeping here. A request that exhausts its retries
// completes with a failure status; its buffer is re-dirtied by the cache
// (sticky write_failed) and dependents are released - equivalent to
// relaxing that one ordering edge to a delayed write, which fsck can
// repair.

Task<void> SchedulerFlagPolicy::OrderedWrite(BufRef buf) {
  OrderingTag flagged{.flag = true, .deps = {}};
  (void)co_await fs()->cache()->Bawrite(std::move(buf), flagged);
}

Task<void> SchedulerFlagPolicy::InitWrite(uint32_t blkno) {
  // Asynchronous: the pointer carrier's write is issued later, hence
  // ordered after it.
  fs()->cache()->driver()->IssueWrite(blkno, {fs()->cache()->ZeroBlock()},
                                      {.flag = true, .deps = {}});
  co_return;
}

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

Task<void> SchedulerChainPolicy::SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target,
                                              bool new_inode) {
  (void)offset;
  (void)new_inode;
  NoteOrderingPoint("link_add", "chain_dep");
  co_await fs()->FlushInodeToBuffer(target);
  // NOTE: no non-trivial temporaries in co_await argument lists (GCC 12
  // double-destroys them); build the tag as a local and move it.
  OrderingTag add_tag;
  if (!track_freed_) {
    add_tag.deps = BarrierDeps();
  }
  uint64_t id = co_await fs()->cache()->Bawrite(target.itable_buf, std::move(add_tag));
  // The directory entry (whenever its block is written) follows the inode.
  fs()->cache()->AddWriteDep(*dir_buf, id);
}

Task<void> SchedulerChainPolicy::SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                                 DirEntry old_entry, uint32_t removed_ino,
                                                 const RenameContext* rename) {
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
    co_await fs()->FlushInodeToBuffer(ip);
    uint64_t id = co_await fs()->cache()->Bawrite(ip.itable_buf, std::move(tag));
    if (!track_freed_) {
      barrier_reqs_.push_back(id);
    }
  }
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

}  // namespace mufs
