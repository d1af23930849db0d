// Soft updates (paper section 4.2 and appendix).
//
// All metadata updates are delayed writes. Fine-grained dependency
// records are kept per update; a block with pending dependencies can be
// written at any time because the unsafe updates inside it are rolled
// back ("undone") for the duration of the write and re-applied
// ("redone") at completion, so every block image that reaches the disk
// is consistent with the current on-disk state.
//
// Dependency records (names follow the paper):
//   AllocDep   - allocdirect / allocindirect: a new block pointer that
//                must not reach disk before the block's contents do. The
//                companion "allocsafe"/newblk is the newblk_ index entry
//                that flips init_done when the block's first write
//                completes.
//   IndirDep   - per-indirect-block "safe copy" used as the write source
//                while allocindirect dependencies are pending.
//   DirAddDep  - "add" + "addsafe": a new directory entry that must not
//                reach disk before the target inode (initialized, link
//                count bumped) does. Undone by zeroing the entry's inode
//                number during the write.
//   DirRemDep  - "remove": the link count must not drop (and the inode
//                must not be reused) before the cleared entry reaches
//                disk. For renames it additionally waits for the new
//                entry to be on disk (rule 1) by undoing the removal.
//   PendingFree- "freeblocks"/"freefile": bitmap frees deferred until the
//                reset pointers reach stable storage.
//
// Deferred work that may block (link-count decrements, bitmap frees)
// runs on the syncer daemon's workitem queue, exactly as in the paper.
#ifndef MUFS_SRC_CORE_SOFTUPDATES_SOFT_UPDATES_POLICY_H_
#define MUFS_SRC_CORE_SOFTUPDATES_SOFT_UPDATES_POLICY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/fs/policy.h"

namespace mufs {

class SoftUpdatesPolicy final : public OrderingPolicy {
 public:
  SoftUpdatesPolicy();
  ~SoftUpdatesPolicy() override;

  std::string_view Name() const override { return "SoftUpdates"; }
  bool WriteThroughInodes() const override { return false; }
  void Attach(FileSystem* fs) override;

  // Cache hooks: write-time undo, completion-time redo.
  std::shared_ptr<const BlockData> PrepareWrite(Buf& buf) override;
  void WriteDone(Buf& buf) override;
  void WriteAborted(Buf& buf) override;
  void BufferAccessed(Buf& buf) override;

  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target, bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;
  Task<void> FlushAll(Proc& proc) override;
  bool DirSlotBusy(uint32_t blkno, uint32_t offset) const override;

  bool HasPendingDeps() const;

 private:
  struct DirRemDep;

  // Every dependency has a `captured` notion: a completing write may only
  // satisfy a dependency if the dependency existed when the write's
  // contents were captured (PrepareWrite). Dependencies registered while
  // a write is in flight wait for the next one.
  struct AllocDep {
    PtrLoc::Kind kind;
    uint32_t owner_ino = 0;
    uint32_t carrier_blkno = 0;   // itable block or indirect block.
    uint32_t ptr_offset = 0;      // Byte offset of the pointer in the carrier.
    uint32_t new_blkno = 0;
    uint32_t old_blkno = 0;
    uint64_t old_size = 0;        // Inode size before this allocation.
    bool init_done = false;       // New block's contents reached disk.
    bool undone_in_flight = false;
    bool captured = false;        // Pointer intact in the in-flight write.
    BufRef data_pin;              // The new block's buffer: identity anchor
                                  // for init completion and eviction pin.
  };

  struct DirAddDep {
    uint32_t dir_blkno = 0;
    uint32_t offset = 0;          // Entry byte offset in the block.
    uint32_t new_ino = 0;
    uint32_t itable_blkno = 0;    // Where the target inode lives.
    bool inode_captured = false;  // In-flight itable write carries the inode.
    bool inode_written = false;   // addsafe satisfied.
    bool undone_in_flight = false;
    bool captured = false;        // Entry intact in the in-flight dir write.
    DirRemDep* rename_waiter = nullptr;
  };

  struct DirRemDep {
    uint32_t dir_blkno = 0;
    uint32_t offset = 0;
    uint32_t removed_ino = 0;
    DirEntry old_entry{};         // For rename undo.
    DirAddDep* wait_add = nullptr;  // Rule-1 hold (rename only).
    bool undone_in_flight = false;
    bool captured = false;        // Cleared entry in the in-flight write.
  };

  struct PendingFree {
    bool is_inode = false;
    uint32_t ino = 0;                  // Inode to free (is_inode).
    std::vector<uint32_t> blocks;      // Blocks to free (!is_inode).
    int remaining_carriers = 0;        // Carrier writes still outstanding.
  };

  struct FreeRef {
    std::shared_ptr<PendingFree> free;
    bool captured = false;  // Reset pointers in the in-flight write.
    bool done = false;      // This carrier's write completed post-capture.
  };

  struct BlockDeps {
    std::vector<std::unique_ptr<AllocDep>> allocs;       // Carrier = this block.
    std::vector<std::unique_ptr<DirAddDep>> adds;        // This directory block.
    std::vector<std::unique_ptr<DirRemDep>> rems;        // This directory block.
    std::vector<FreeRef> frees;                          // Carrier = this block.
    std::shared_ptr<BlockData> safe_copy;                // indirdep.
    BufRef pinned;                                       // Keeps indirect blocks resident.
    bool write_in_flight = false;

    bool Empty() const {
      return allocs.empty() && adds.empty() && rems.empty() && frees.empty() &&
             safe_copy == nullptr;
    }
  };

  BlockDeps& DepsFor(uint32_t blkno) { return deps_[blkno]; }
  BlockDeps* FindDeps(uint32_t blkno);
  void MaybeErase(uint32_t blkno);
  void PinInode(uint32_t ino);
  void UnpinInode(uint32_t ino);

  void CompleteNewBlock(Buf& buf);
  void FinishAdd(DirAddDep* add);  // Unpin, drop waiter, release rename hold.
  void RemoveInodeWaiter(DirAddDep* add);
  void QueueRemWorkitem(DirRemDep* rem);
  void QueueFreeWorkitem(const std::shared_ptr<PendingFree>& f);
  // Paper: deps owned by de-allocated (directory) blocks are considered
  // complete when the block is finally freed.
  Task<void> CompleteDepsOwnedBy(uint32_t blkno);

  std::unordered_map<uint32_t, BlockDeps> deps_;
  std::unordered_map<uint32_t, AllocDep*> newblk_;  // data blkno -> dep.
  std::unordered_map<uint32_t, std::vector<DirAddDep*>> inode_waiters_;  // itable blk.
  Proc sys_proc_;

  // su.* metric handles into the file system's registry, bound at Attach.
  Counter* stat_alloc_deps_ = nullptr;
  Counter* stat_dir_adds_ = nullptr;
  Counter* stat_dir_rems_ = nullptr;
  Counter* stat_cancelled_pairs_ = nullptr;  // Add+remove pairs that never hit disk.
  Counter* stat_undos_ = nullptr;  // Updates rolled back during a write.
  Counter* stat_redos_ = nullptr;
  Counter* stat_deferred_frees_ = nullptr;
  Counter* stat_workitems_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_SRC_CORE_SOFTUPDATES_SOFT_UPDATES_POLICY_H_
