#include "src/journal/journal_policy.h"

#include "src/driver/disk_driver.h"
#include "src/fs/filesystem.h"
#include "src/sim/engine.h"

namespace mufs {

std::shared_ptr<const BlockData> JournalPolicy::PrepareWrite(Buf& buf) {
  return jm_->StableImage(buf.blkno());
}

Task<void> JournalPolicy::OpBegin(Proc& proc) {
  (void)proc;
  co_await jm_->OpBegin();
}

void JournalPolicy::NoteInodeUpdate(Proc& proc, Inode& ip) {
  (void)proc;
  if (ip.itable_buf != nullptr) {
    jm_->Capture(ip.itable_buf);
  }
}

Task<void> JournalPolicy::CaptureBitmapBlock(uint32_t region_start, uint32_t index) {
  BufRef bm = co_await fs()->cache()->Bread(region_start + index / kBitsPerBlock);
  if (bm == nullptr) {
    fs()->NoteIoError();  // Bitmap unreadable; the delta misses this commit.
    co_return;
  }
  jm_->Capture(bm);
}

Task<void> JournalPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                                          bool init_required, BlockRole role) {
  NoteOrderingPoint("alloc", "logged");
  if (role != BlockRole::kFileData) {
    // Directory/indirect content is metadata: journaled from birth. Its
    // zero-init rides in the log; no synchronous init write is needed.
    jm_->Capture(data_buf);
  } else if (init_required) {
    // File data is not journaled (data journaling is out of scope), so
    // alloc-init keeps the conventional synchronous zero write.
    BlockDevice* driver = fs()->cache()->driver();
    uint64_t id = driver->IssueWrite(data_buf->blkno(), {fs()->cache()->ZeroBlock()});
    IoStatus init_status = co_await driver->WaitFor(id);
    if (init_status != IoStatus::kOk) {
      fs()->NoteIoError();  // Stale data may be visible through the new file.
    }
  }
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
  if (loc.kind == PtrLoc::Kind::kIndirectSlot) {
    // Inode-resident pointers were captured via NoteInodeUpdate inside
    // CommitBlockPointer; indirect-slot carriers are captured here.
    jm_->Capture(loc.indirect_buf);
  }
  co_await CaptureBitmapBlock(fs()->sb().block_bitmap_start, data_buf->blkno());
}

Task<void> JournalPolicy::SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                                         std::vector<BufRef> updated_indirects) {
  (void)ip;  // Reset inode pointers were captured via NoteInodeUpdate.
  NoteOrderingPoint("block_free", "logged");
  for (BufRef& ibuf : updated_indirects) {
    jm_->Capture(ibuf);
  }
  // Clear the bitmap bits now and capture the affected bitmap blocks, so
  // the frees commit atomically with the pointer resets. Until the
  // transaction is durable the blocks stay allocator-busy: their new
  // content would be written in place, under a committed state in which
  // the old file still owns them (rule 2, log-side).
  jm_->GateFreedBlocks(blocks);
  co_await fs()->FreeBlocksInBitmap(proc, blocks);
  uint32_t last_bm = UINT32_MAX;
  for (uint32_t blkno : blocks) {
    if (blkno / kBitsPerBlock == last_bm) {
      continue;
    }
    last_bm = blkno / kBitsPerBlock;
    co_await CaptureBitmapBlock(fs()->sb().block_bitmap_start, blkno);
  }
}

Task<void> JournalPolicy::SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target,
                                       bool new_inode) {
  (void)offset;
  (void)target;  // Captured via NoteInodeUpdate when it was initialized.
  NoteOrderingPoint("link_add", "logged");
  jm_->Capture(dir_buf);
  if (new_inode) {
    co_await CaptureBitmapBlock(fs()->sb().inode_bitmap_start, target.ino);
  }
}

Task<void> JournalPolicy::SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                          DirEntry old_entry, uint32_t removed_ino,
                                          const RenameContext* rename) {
  (void)offset;
  (void)old_entry;
  NoteOrderingPoint("link_remove", "logged");
  if (rename != nullptr) {
    // Rule 1 comes for free: the new entry (captured by SetupLinkAdd) and
    // the cleared old entry commit in the same operation-atomic
    // transaction, so no committed state has the file entryless.
    NoteOrderingPoint("rename_fence", "logged");
  }
  jm_->Capture(dir_buf);
  co_await fs()->ReleaseLink(proc, removed_ino);
}

Task<void> JournalPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  // The cleared inode itself was captured via NoteInodeUpdate (mode reset
  // rides the truncation's inode update).
  NoteOrderingPoint("inode_free", "logged");
  co_await fs()->FreeInodeInBitmap(proc, ip.ino);
  co_await CaptureBitmapBlock(fs()->sb().inode_bitmap_start, ip.ino);
}

Task<void> JournalPolicy::FlushAll(Proc& proc) {
  co_await jm_->CommitNow();
  co_await OrderingPolicy::FlushAll(proc);
}

}  // namespace mufs
