// JournalManager: write-ahead metadata journaling (the sixth ordering
// scheme, Scheme::kJournaling).
//
// Model ("logging" as positioned against soft updates by the paper):
// every metadata block mutated by an operation is CAPTURED - a point-in-
// time image copied into the open transaction - by the JournalPolicy
// hooks. A committer daemon group-commits the open transaction on the
// syncer cadence: descriptor + payload images + checksummed commit record
// appended to the on-disk log ring. Only after the commit record is
// durable do the captured images become the new "stable" versions.
//
// The in-place home locations are only ever written through the buffer
// cache's PrepareWrite substitution hook, which swaps in the block's
// stable image. Stable storage outside the log therefore always holds
// some committed state, and crash recovery is: replay committed log
// transactions over the home locations, discard the torn tail. No fsck
// repair is ever needed.
//
// Transaction atomicity is per-operation: commits close an "op gate" and
// wait until no mutating fs operation is mid-flight, so every committed
// transaction is the image delta of N *complete* operations. Freed data
// blocks stay unallocatable (BlockBusy) until the freeing transaction is
// durable - the log-side analogue of scheduler chains' freed-resource
// tracking - because file data is written in place, un-journaled.
#ifndef MUFS_SRC_JOURNAL_JOURNAL_MANAGER_H_
#define MUFS_SRC_JOURNAL_JOURNAL_MANAGER_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/disk/disk_image.h"
#include "src/driver/block_device.h"
#include "src/journal/journal_format.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/stats/stats_registry.h"

namespace mufs {

class FileSystem;

struct JournalConfig {
  // Group-commit cadence (ISSUE: "driven by the syncer cadence").
  SimDuration commit_interval = Sec(1);
  // Base added to every DIRECT image access (journal superblock read,
  // stable-base capture read). A sharded machine gives each shard its own
  // journal extent inside its region of the shared volume image; the
  // driver handle already routes device I/O there, but the journal's two
  // offline image reads need the same translation. 0 = single-disk.
  uint32_t image_lba_base = 0;
};

class JournalManager {
 public:
  JournalManager(Engine* engine, BlockDevice* driver, BufferCache* cache, DiskImage* image,
                 StatsRegistry* stats, JournalConfig config);

  void AttachFs(FileSystem* fs) { fs_ = fs; }

  // Reads the journal superblock (recovery already ran offline), stamps a
  // fresh one, and spawns the committer. Call from Boot, after Mount.
  Task<void> Start();
  void Stop() { running_ = false; }

  // --- Hooks used by JournalPolicy -----------------------------------

  // Operation gate: commits happen only while no bracketed operation is
  // mid-flight, so committed transactions are operation-atomic.
  Task<void> OpBegin();
  void OpEnd();

  // Snapshots the buffer's current content into the open transaction
  // (later captures of the same block overwrite). Pins the buffer until
  // the capturing transaction commits.
  void Capture(const BufRef& buf);

  // Freed data blocks may not be reallocated until the freeing
  // transaction is durable (their new content would be written in place,
  // under a committed state in which the old file still owns them).
  void GateFreedBlocks(const std::vector<uint32_t>& blocks);
  bool BlockBusy(uint32_t blkno) const;

  // The last committed image of a managed block (null if unmanaged).
  // PrepareWrite substitutes this for every in-place write.
  std::shared_ptr<const BlockData> StableImage(uint32_t blkno) const;

  // Commits the open transaction now (fsync / unmount path).
  Task<void> CommitNow();

 private:
  Task<void> Loop();
  Task<void> CommitOnce();
  // Flushes all committed state in place (substituted writes), then
  // restarts the ring empty so `upcoming_seq` has the whole log.
  Task<void> Checkpoint(uint64_t upcoming_seq);
  Task<IoStatus> WriteJsb(uint64_t start_seq, uint32_t start_offset);
  uint32_t LogBlock(uint32_t offset) const { return log_first_ + offset; }

  Engine* engine_;
  BlockDevice* driver_;
  BufferCache* cache_;
  DiskImage* image_;
  StatsRegistry* stats_;
  FileSystem* fs_ = nullptr;
  JournalConfig config_;

  bool started_ = false;
  bool running_ = false;

  // Ring geometry/state (offsets are 0..usable_-1 within the data area).
  uint32_t jsb_blkno_ = 0;
  uint32_t log_first_ = 0;
  uint32_t usable_ = 0;
  uint32_t head_ = 0;
  uint32_t used_ = 0;
  uint64_t next_seq_ = 1;
  size_t soft_cap_ = 0;     // Open-txn size that forces an early commit.
  bool commit_requested_ = false;

  // Operation gate.
  int ops_active_ = 0;
  bool commit_waiting_ = false;
  CondVar gate_cv_;
  Mutex commit_mutex_;  // Serializes CommitOnce callers (committer, fsync).

  // Open transaction: captured images + buffer pins + freed blocks.
  std::unordered_map<uint32_t, std::shared_ptr<BlockData>> open_captures_;
  std::unordered_map<uint32_t, BufRef> open_pins_;
  std::vector<uint32_t> open_freed_;
  std::unordered_set<uint32_t> open_freed_set_;
  std::unordered_set<uint32_t> gated_freed_;  // Committed but not yet durable.

  // blkno -> last committed image. Membership == "managed".
  std::unordered_map<uint32_t, std::shared_ptr<const BlockData>> stable_;

  Counter* stat_captures_ = nullptr;
  Counter* stat_txns_ = nullptr;
  Counter* stat_blocks_logged_ = nullptr;
  Counter* stat_log_writes_ = nullptr;
  Counter* stat_checkpoints_ = nullptr;
  Counter* stat_checkpoint_stalls_ = nullptr;
  Counter* stat_forced_commits_ = nullptr;
  Counter* stat_reuse_skips_ = nullptr;
  Counter* stat_commit_failures_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_SRC_JOURNAL_JOURNAL_MANAGER_H_
