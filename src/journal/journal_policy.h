// JournalPolicy: OrderingPolicy for Scheme::kJournaling.
//
// Instead of ordering individual in-place writes (sync writes, flags,
// chains) or recording per-field dependencies (soft updates), journaling
// satisfies all of the paper's ordering rules with one mechanism: every
// metadata block touched by an operation is captured into the open
// journal transaction, and in-place writes of captured blocks are
// substituted (via DepHooks::PrepareWrite) with the block's last
// *committed* image. Home locations therefore always reflect a prefix of
// committed transactions, and recovery is log replay - never fsck repair.
#ifndef MUFS_SRC_JOURNAL_JOURNAL_POLICY_H_
#define MUFS_SRC_JOURNAL_JOURNAL_POLICY_H_

#include "src/fs/policy.h"
#include "src/journal/journal_manager.h"

namespace mufs {

class JournalPolicy : public OrderingPolicy {
 public:
  explicit JournalPolicy(JournalManager* jm) : jm_(jm) {}

  std::string_view Name() const override { return "Journaling"; }
  bool WriteThroughInodes() const override { return true; }

  // Cache hook: substitute the committed image for every in-place write of
  // a journal-managed block. Uncommitted updates live only in memory and
  // in the log.
  std::shared_ptr<const BlockData> PrepareWrite(Buf& buf) override;

  // OrderingPolicy hooks.
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target, bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;
  Task<void> FlushAll(Proc& proc) override;

  bool BlockBusy(uint32_t blkno) const override { return jm_->BlockBusy(blkno); }
  Task<void> OpBegin(Proc& proc) override;
  void OpEnd() override { jm_->OpEnd(); }
  void NoteInodeUpdate(Proc& proc, Inode& ip) override;

 private:
  // Captures the bitmap block covering `index` (bit position within the
  // bitmap region starting at `region_start`) into the open transaction.
  Task<void> CaptureBitmapBlock(uint32_t region_start, uint32_t index);

  JournalManager* jm_;
};

}  // namespace mufs

#endif  // MUFS_SRC_JOURNAL_JOURNAL_POLICY_H_
