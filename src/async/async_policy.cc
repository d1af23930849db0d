#include "src/async/async_policy.h"

namespace mufs {

void AsyncPolicy::Stamp(const BufRef& buf) {
  if (buf != nullptr) {
    fs()->cache()->StampVisibleSeq(*buf, ledger_->visible_seq() + 1);
  }
}

Task<void> AsyncPolicy::OpBegin(Proc&) { co_await ledger_->AdmitOp(); }

void AsyncPolicy::OpEnd() { ledger_->NoteVisible(); }

Task<void> AsyncPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                                        bool init_required, BlockRole role) {
  (void)init_required;  // No init ordering: recovery repairs the window.
  (void)role;
  NoteOrderingPoint("alloc", "visible");
  Stamp(data_buf);
  if (loc.kind == PtrLoc::Kind::kIndirectSlot) {
    Stamp(loc.indirect_buf);
  }
  Stamp(ip.itable_buf);
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> AsyncPolicy::SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                                       std::vector<BufRef> updated_indirects) {
  NoteOrderingPoint("block_free", "visible");
  Stamp(ip.itable_buf);
  for (const BufRef& ibuf : updated_indirects) {
    Stamp(ibuf);
  }
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
}

Task<void> AsyncPolicy::SetupLinkAdd(Proc& proc, BufRef dir_buf, uint32_t offset, Inode& target,
                                     bool new_inode) {
  (void)proc;
  (void)offset;
  (void)new_inode;
  NoteOrderingPoint("link_add", "visible");
  Stamp(dir_buf);
  Stamp(target.itable_buf);
  co_return;  // Everything stays a delayed write.
}

Task<void> AsyncPolicy::SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                        DirEntry old_entry, uint32_t removed_ino,
                                        const RenameContext* rename) {
  (void)proc;
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", "visible");
  Stamp(dir_buf);
  if (rename != nullptr) {
    Stamp(rename->new_dir_buf);
  }
  // The visible half of the op is the name removal, already in dir_buf.
  // The release (link count, truncate, block/inode frees) is bookkeeping
  // a crash can always repair, so it runs off the op path - the same
  // deferral soft updates uses for its rem workitems, but queued on the
  // ledger rather than the syncer so it only ever runs at epoch flushes,
  // never inside a foreground-visible syncer pass.
  uint32_t ino = removed_ino;
  ledger_->Defer([this, ino]() -> Task<void> {
    co_await fs()->ReleaseLink(sys_proc_, ino);
  });
  co_return;
}

Task<void> AsyncPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  NoteOrderingPoint("inode_free", "visible");
  Stamp(ip.itable_buf);
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
}

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

}  // namespace mufs
