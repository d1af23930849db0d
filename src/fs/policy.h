// Metadata-update ordering policy interface.
//
// The file system performs all structural changes on in-memory state and
// then calls one of these hooks at each of the paper's four dependency
// points (section 4.2):
//
//   1. block allocation (direct or indirect)   -> SetupAllocation
//   2. block de-allocation                     -> SetupBlockFree
//   3. link addition                           -> SetupLinkAdd
//   4. link removal                            -> SetupLinkRemove
//
// plus the rename rule-1 fence (SetupLinkRemove with a RenameContext)
// and inode free (SetupInodeFree). The seven schemes have five
// implementations of the hooks, one per write discipline:
//
//   NoOrder       : mark things dirty, nothing else (unsafe baseline).
//   Async         : NoOrder's hooks, stamping each dirtied buffer for a
//                   visibility/durability ledger (see src/async/) that
//                   also runs the link releases.
//   Conventional  : synchronous writes at each point.
//   SchedulerFlag : Conventional's writes at the same points, made
//                   asynchronous and carrying the one-bit flag.
//   SchedulerChain: asynchronous writes carrying request dependencies,
//                   plus freed-resource tracking for safe re-use.
//   SoftUpdates   : delayed writes plus fine-grained dependency records
//                   with undo/redo (see src/core/softupdates/).
//   Journaling    : metadata captured into write-ahead log transactions
//                   (see src/journal/).
//
// A policy is also the buffer cache's DepHooks: the file system forwards
// every cache hook to it. The defaults are no-ops; soft updates rolls
// updates back and forward, journaling substitutes committed images.
//
// Hooks that "eventually" free resources or drop link counts own that
// responsibility: most schemes do it inline; soft updates defers it to
// workitems that run after the protecting write completes.
#ifndef MUFS_SRC_FS_POLICY_H_
#define MUFS_SRC_FS_POLICY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/fs/format.h"
#include "src/fs/proc.h"
#include "src/sim/task.h"

namespace mufs {

class FileSystem;
class Inode;

// What a freshly allocated block will hold. Directory and indirect
// blocks are metadata (their content is ordering-relevant); file data
// blocks are not (only their zero-init matters, and only under
// alloc-init).
enum class BlockRole : uint8_t {
  kFileData,
  kDirectory,
  kIndirect,
};

// Where a freshly set block pointer lives.
struct PtrLoc {
  enum class Kind : uint8_t {
    kInodeDirect,     // in-core inode direct[index]
    kInodeIndirect,   // in-core inode indirect
    kInodeDouble,     // in-core inode double_indirect
    kIndirectSlot,    // indirect_buf block, slot `index`
  };
  Kind kind = Kind::kInodeDirect;
  uint32_t index = 0;
  BufRef indirect_buf;  // Set for kIndirectSlot.
};

class OrderingPolicy : public DepHooks {
 public:
  virtual ~OrderingPolicy() = default;
  virtual std::string_view Name() const = 0;

  // Called once after the policy is attached to a mounted file system.
  // Also binds the policy's metric handles to the file system's registry.
  virtual void Attach(FileSystem* fs);

  // True if in-core inode changes should be copied into the inode-table
  // buffer at modification time (waiting out write locks, section 3.3's
  // contention); false if serialization happens lazily at write time.
  virtual bool WriteThroughInodes() const { return true; }

  // (1) Block allocation. `data_buf` is the freshly allocated block
  // (zero-filled; file data arrives later via delayed writes). The block
  // pointer has already been set in the in-core inode / indirect buffer
  // per `loc`. `init_required` reflects rule 3 for this block (directory
  // or indirect block, or a data block under alloc-init). `role` says
  // what the block will hold (journaling logs metadata-block content).
  virtual Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                                     bool init_required, BlockRole role) = 0;

  // (2) Block de-allocation: `ip`'s pointers to `blocks` were just reset
  // in-core (freed indirect blocks are gathered into `blocks` too).
  // `updated_indirects` are surviving indirect blocks whose slots were
  // reset (partial truncate). The policy must get the reset pointers to
  // disk per its discipline and eventually free the blocks in the bitmap
  // (rule 2).
  virtual Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                                    std::vector<BufRef> updated_indirects) = 0;

  // (3) Link addition: directory entry at `offset` in `dir_buf` now
  // points to `target` (nlink already bumped in-core; brand-new inodes
  // are fully initialized in-core). Rule 3: the inode must reach disk
  // before the entry.
  virtual Task<void> SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target,
                                  bool new_inode) = 0;

  // (4) Link removal: the entry at `offset` in `dir_buf` (which pointed
  // to `removed_ino`; pre-clear bytes in `old_entry`) was just cleared
  // in-memory. Rule 2: the cleared entry must reach disk before the
  // inode's link count drops / the inode is reused. The policy must
  // eventually call fs()->ReleaseLink().
  //
  // When the removal is the second half of a rename, `rename` carries
  // the new entry's location; rule 1 then additionally requires that the
  // new entry reach disk before the cleared old entry does.
  struct RenameContext {
    BufRef new_dir_buf;
    uint32_t new_offset = 0;
    uint32_t moved_ino = 0;
  };
  virtual Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                     DirEntry old_entry, uint32_t removed_ino,
                                     const RenameContext* rename) = 0;

  // Inode free: `ip` now has nlink == 0, its mode was cleared in-core and
  // its blocks already went through SetupBlockFree. The policy must get
  // the cleared inode to disk per its discipline and eventually free the
  // inode in the bitmap.
  virtual Task<void> SetupInodeFree(Proc& proc, Inode& ip) = 0;

  // SYNCIO support: block until every change made by prior calls on this
  // file is persistent (used by fsync and unmount). The default drains to
  // quiescence: repeatedly flush dirty inodes, push all dirty buffers to
  // disk, and run deferred work.
  virtual Task<void> FlushAll(Proc& proc);

  // True when every metadata update is persistent before the hook that
  // made it returns (Conventional's synchronous writes). Cross-shard
  // protocols then skip their explicit durability barrier: the update
  // they depend on is already on stable storage.
  virtual bool MetadataSynchronous() const { return false; }

  // True if the directory slot at (blkno, offset) must not be reused for
  // a new entry yet (soft updates holds slots whose removal is pinned by
  // a rename's rule-1 dependency). Consulted by AddEntry.
  virtual bool DirSlotBusy(uint32_t blkno, uint32_t offset) const {
    (void)blkno;
    (void)offset;
    return false;
  }

  // True if `blkno` must not be handed out by the allocator yet
  // (journaling holds freed blocks until the freeing transaction is
  // durable, the log-side analogue of chains' freed-resource tracking).
  // Consulted by AllocBlock.
  virtual bool BlockBusy(uint32_t blkno) const {
    (void)blkno;
    return false;
  }

  // Operation bracketing: mutating fs ops (create, unlink, rename, ...)
  // call OpBegin on entry and OpEnd on every exit path. Journaling uses
  // the bracket to commit transactions only at operation boundaries so
  // every committed state is the image after N *complete* operations.
  // Other schemes ignore it.
  virtual Task<void> OpBegin(Proc& proc) {
    (void)proc;
    co_return;
  }
  virtual void OpEnd() {}

  // Called after every in-core inode modification lands in the inode
  // table buffer (MarkInodeDirty). Journaling captures the itable block
  // image here; other schemes ignore it.
  virtual void NoteInodeUpdate(Proc& proc, Inode& ip) {
    (void)proc;
    (void)ip;
  }

 protected:
  FileSystem* fs() const { return fs_; }
  // The file system's registry.
  StatsRegistry* stats() const { return stats_; }

  // Counts one ordering-point decision (counter "policy.ordering_points"
  // plus "policy.<point>") and, when tracing, records a
  // "policy.ordering_point" event {scheme, point, action}. `point` is one
  // of the paper's dependency points (alloc, block_free, link_add,
  // link_remove, inode_free, rename_fence); `action` names the discipline
  // applied (sync_write, flagged_write, chain_dep, delayed, none, ...).
  void NoteOrderingPoint(std::string_view point, std::string_view action);

 private:
  FileSystem* fs_ = nullptr;
  StatsRegistry* stats_ = nullptr;
  Counter* stat_ordering_points_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_SRC_FS_POLICY_H_
