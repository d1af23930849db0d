// Buffer cache: the in-memory block layer between the file system and
// the disk driver.
//
// Mirrors the three UNIX write disciplines the paper builds on
// (footnote 2):
//   - Bwrite   : synchronous - issue now, wait for completion;
//   - Bawrite  : asynchronous - issue now, do not wait;
//   - MarkDirty: delayed - leave dirty for the syncer daemon.
//
// Write locking (paper section 3.3): while a write request sourced from a
// buffer is outstanding, the buffer is write-locked; a process wanting to
// modify it must wait (BeginUpdate). With the block-copy option (-CB) the
// cache clones the bytes at issue time and hands the clone to the driver,
// so the buffer is never locked.
//
// Dependency hooks: soft updates plugs in a DepHooks implementation. The
// cache calls PrepareWrite just before capturing a buffer's bytes for a
// write (so undone updates can be rolled back / an alternate "safe" source
// substituted), WriteDone at completion (interrupt level), and
// BufferAccessed when a block enters the cache or is re-referenced (so
// lazily undone updates can be re-applied).
#ifndef MUFS_SRC_CACHE_BUFFER_CACHE_H_
#define MUFS_SRC_CACHE_BUFFER_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/driver/block_device.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/stats/stats_registry.h"

namespace mufs {

class BufferCache;

// One cached disk block.
class Buf {
 public:
  Buf(Engine* engine, uint32_t blkno)
      : blkno_(blkno), data_(std::make_shared<BlockData>()), io_cv_(engine) {}
  Buf(const Buf&) = delete;
  Buf& operator=(const Buf&) = delete;

  uint32_t blkno() const { return blkno_; }
  BlockData& data() { return *data_; }
  const BlockData& data() const { return *data_; }

  bool dirty() const { return dirty_; }
  bool io_locked() const { return io_locked_; }
  bool write_pending() const { return writes_in_flight_ > 0; }
  bool rolled_back() const { return rolled_back_; }
  bool valid() const { return valid_; }
  // The last write of this buffer failed terminally (retries and spare
  // pool exhausted). The buffer stays dirty but flush paths skip it, so
  // a permanently bad sector cannot livelock SyncAll/the syncer. Cleared
  // if a later explicit write succeeds.
  bool write_failed() const { return write_failed_; }

  // Set by DepHooks::PrepareWrite when it undoes updates in the buffer for
  // the duration of the write: readers block until the I/O completes and
  // the updates are restored.
  void MarkRolledBack() { rolled_back_ = true; }

  // Typed accessors for structures stored at an offset in the block.
  template <typename T>
  T* At(size_t offset) {
    return reinterpret_cast<T*>(data_->data() + offset);
  }
  template <typename T>
  const T* At(size_t offset) const {
    return reinterpret_cast<const T*>(data_->data() + offset);
  }

 private:
  friend class BufferCache;
  uint32_t blkno_;
  std::shared_ptr<BlockData> data_;
  bool valid_ = false;        // Contents populated (read done or new block).
  bool dirty_ = false;        // Needs writeback (delayed write pending).
  bool io_locked_ = false;    // Outstanding write sourced from data_.
  int writes_in_flight_ = 0;  // Outstanding writes of this buffer. At
                              // most one without -CB (a second writer
                              // sleeps, "buffer busy"); -CB permits
                              // several, each sourced from its own copy.
  bool rolled_back_ = false;  // In-flight write undid some updates: block
                              // reads until it completes.
  bool write_failed_ = false;  // Last write failed terminally; see above.
  bool read_failed_ = false;   // Fill read failed; buffer is being dropped
                               // and concurrent waiters must bail out.
  bool syncer_mark_ = false;  // Marked on the previous syncer pass.
  // Async-scheme visibility stamp: the oldest op sequence stamped since
  // the last write-out, i.e. the epoch whose close first needs this
  // buffer. 0 = dirtied outside any async op (or not dirty), which flush
  // paths treat conservatively as "needed now"; 0 under other schemes.
  uint64_t first_visible_seq_ = 0;
  std::vector<uint64_t> pending_write_deps_;  // Chain deps for the next write.
  uint64_t lru_tick_ = 0;
  // Position in BufferCache::buffers_' iteration order, smaller first:
  // the run of this buffer's bucket, then the node within the run.
  int64_t table_run_ = 0;
  int64_t table_node_ = 0;
  size_t dirty_slot_ = 0;  // Index in BufferCache::dirty_list_ while listed.
  CondVar io_cv_;  // Signalled when io_locked_/valid_ changes.
};

using BufRef = std::shared_ptr<Buf>;

// Dependency hook points (implemented by soft updates; default: no-ops).
class DepHooks {
 public:
  virtual ~DepHooks() = default;
  // Called before a write of `buf` is issued. May roll back updates inside
  // buf.data() or return an alternate source block (e.g. an indirect
  // block's "safe copy"). Returning nullptr means "use buf's own data".
  virtual std::shared_ptr<const BlockData> PrepareWrite(Buf& buf) {
    (void)buf;
    return nullptr;
  }
  // Interrupt-level completion processing. Must not block. Only called
  // when the write succeeded.
  virtual void WriteDone(Buf& buf) { (void)buf; }
  // Interrupt-level failure processing: the write completed with an
  // error, so nothing reached the disk. Implementations must restore any
  // updates PrepareWrite undid and clear capture state WITHOUT retiring
  // dependencies. Must not block.
  virtual void WriteAborted(Buf& buf) { (void)buf; }
  // Called when a block is (re)accessed through Bread/Bget, after a read
  // fill if one was needed. Lets undone updates be re-applied.
  virtual void BufferAccessed(Buf& buf) { (void)buf; }
};

struct CacheConfig {
  size_t capacity_blocks = 8192;  // 32 MB of 4 KB buffers.
  bool copy_blocks = false;       // -CB: copy at issue instead of locking.
  // Memory budget for outstanding -CB copies. Queued ordered writes hold
  // their copies until serviced; when activity exceeds this budget,
  // writers stall (the paper's "system activity exceeds the available
  // memory" regime, section 3.1/3.3).
  size_t copy_budget_blocks = 2048;
};

class BufferCache {
 public:
  // The cache counts into `stats` (the Machine's registry) under the
  // cache.* names: hits, misses, delayed_writes (MarkDirty calls),
  // write_issues (device writes issued: sync, async and syncer),
  // sync_writes, write_lock_waits, block_copies (-CB clones),
  // copy_budget_waits, evictions, read_failures and write_failures.
  BufferCache(Engine* engine, BlockDevice* driver, StatsRegistry* stats, CacheConfig config);
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  void SetDepHooks(DepHooks* hooks) { hooks_ = hooks; }
  Engine* engine() const { return engine_; }
  BlockDevice* driver() const { return driver_; }
  const CacheConfig& config() const { return config_; }
  StatsRegistry* stats() const { return stats_; }

  // Returns the block, reading it from disk on a miss. Returns nullptr
  // if the device read failed terminally (the placeholder is dropped, so
  // a later Bread retries from scratch).
  Task<BufRef> Bread(uint32_t blkno);

  // Returns the block without reading: contents start zeroed. For newly
  // allocated blocks whose prior content is irrelevant.
  Task<BufRef> Bget(uint32_t blkno);

  // Waits until the buffer may be modified (write lock released). With
  // -CB this never waits.
  Task<void> BeginUpdate(Buf& buf);

  // Waits until the buffer's contents are readable (not mid-write with
  // rolled-back updates).
  Task<void> BeginRead(Buf& buf);

  // Delayed write: mark dirty; the syncer daemon writes it later.
  void MarkDirty(Buf& buf);
  void MarkDirty(uint32_t blkno);  // No-op if the block is not cached.

  // Synchronous write: issue and wait for completion, returning the
  // device status. Waits first if a previous write of this buffer is
  // still outstanding.
  Task<IoStatus> Bwrite(BufRef buf, OrderingTag tag = {});

  // Asynchronous write: issue with ordering tag, return the request id.
  // Like UNIX bawrite, sleeps while a previous write of the same buffer
  // is outstanding (one write per buffer at a time).
  Task<uint64_t> Bawrite(BufRef buf, OrderingTag tag = {});

  // Records that the *next* write of `buf` (whoever issues it: policy,
  // syncer, eviction) must carry a scheduler-chain dependency on request
  // `req_id`. Accumulates until consumed by the next write issue.
  void AddWriteDep(Buf& buf, uint64_t req_id) { buf.pending_write_deps_.push_back(req_id); }

  // Pins the buffer's first async visibility stamp since the last
  // write-out. Called by the async policy at its ordering points; see
  // Buf::first_visible_seq_.
  void StampVisibleSeq(Buf& buf, uint64_t seq) {
    if (buf.first_visible_seq_ == 0) {
      buf.first_visible_seq_ = seq;
    }
  }

  // Writes every dirty buffer (async) and waits for the device queue to
  // drain. Used by unmount/fsync-like paths and test shutdown.
  Task<void> SyncAll() { return SyncVisibleThrough(UINT64_MAX); }

  // Epoch-scoped flush (Scheme::kAsync): like SyncAll, but skips dirty
  // buffers whose first visibility stamp is newer than `seq` - those were
  // dirtied exclusively by ops after the epoch close and belong to a
  // later epoch. Unstamped dirty buffers (inode-table spill, bitmaps,
  // data rewrites) are written conservatively. Keeping post-close hot
  // buffers out of the epoch both shortens the flush and avoids writing
  // the same block once per epoch while it is under active mutation.
  Task<void> SyncVisibleThrough(uint64_t seq);

  // Evicts every clean, unlocked, unreferenced buffer (simulates a cold
  // cache after reboot, used between benchmark setup and timed phases).
  void DropClean();

  // Number of dirty buffers (tests / syncer accounting). Excludes
  // write-failed buffers: they are permanently unflushable and must not
  // keep drain loops spinning.
  size_t DirtyCount() const { return dirty_list_.size(); }
  // Dirty buffers whose last write failed terminally.
  size_t FailedCount() const;
  size_t CachedCount() const { return buffers_.size(); }

  // A permanently zero-filled block, reserved at "boot" exactly like the
  // paper's allocation-initialization source (section 3.3): initializing
  // writes can use it as the I/O source with no locking and no copy.
  std::shared_ptr<const BlockData> ZeroBlock() const { return zero_block_; }

  // --- Syncer daemon interface -------------------------------------
  // One incremental pass (SVR4 MP style): issue async writes for buffers
  // marked on the previous pass that are still dirty; then mark the dirty
  // buffers in the current window. `fraction` of the cache is examined.
  void SyncerPass(double fraction);

 private:
  friend class SyncerDaemon;
  friend class BufferCacheTestPeer;

  Task<BufRef> GetBuf(uint32_t blkno, bool read_fill);
  Task<void> EnsureCapacity();
  Task<void> WaitForCopyBudget();
  uint64_t IssueWrite(BufRef buf, OrderingTag tag, bool from_syncer);
  void Touch(Buf& buf);
  // The only writer of Buf::dirty_ and Buf::write_failed_: keeps the
  // cache.dirty_blocks gauge and the dirty list in step with them.
  void SetDirtyState(Buf& buf, bool dirty, bool write_failed);

  // The flush paths issue in buffers_' iteration order, so each buffer
  // carries its position in that order and the dirty list is sorted by
  // it instead of walking the table. libstdc++ links a new node at the
  // head of its bucket's run, and the run of a bucket that was empty at
  // the head of the table; an erase leaves the others' order alone, and
  // only a rehash reorders. Called right after `buf` is inserted, with
  // the bucket count before the insertion.
  void PlaceInTableOrder(Buf& buf, size_t buckets_before);
  static void SortIntoTableOrder(std::vector<Buf*>* bufs);

  Engine* engine_;
  BlockDevice* driver_;
  CacheConfig config_;
  DepHooks* hooks_ = nullptr;

  StatsRegistry* stats_;
  Counter* stat_hits_ = nullptr;
  Counter* stat_misses_ = nullptr;
  Counter* stat_delayed_writes_ = nullptr;
  Counter* stat_write_issues_ = nullptr;
  Counter* stat_sync_writes_ = nullptr;
  Counter* stat_write_lock_waits_ = nullptr;
  Counter* stat_block_copies_ = nullptr;
  Counter* stat_copy_budget_waits_ = nullptr;
  Counter* stat_evictions_ = nullptr;
  Counter* stat_read_failures_ = nullptr;
  Counter* stat_write_failures_ = nullptr;
  Gauge* stat_dirty_ = nullptr;
  Gauge* stat_copies_out_ = nullptr;

  std::unordered_map<uint32_t, BufRef> buffers_;
  // Buffers with dirty_ && !write_failed_, unordered. Raw pointers: an
  // extra owner would keep EnsureCapacity from writing back cold dirty
  // buffers. A listed buffer is dirty, so it is never evicted.
  std::vector<Buf*> dirty_list_;
  // Table positions for the next insertion; both count down, since a new
  // run and a new node each go to the head.
  int64_t next_table_run_ = -1;
  int64_t next_table_node_ = -1;
  std::map<uint64_t, Buf*> lru_;  // tick -> buffer, oldest first.
  uint64_t next_tick_ = 1;
  uint32_t syncer_cursor_ = 0;  // Block-number window cursor for passes.
  std::shared_ptr<BlockData> zero_block_;
  size_t outstanding_copies_ = 0;
  CondVar capacity_cv_;

  DepHooks default_hooks_;
};

}  // namespace mufs

#endif  // MUFS_SRC_CACHE_BUFFER_CACHE_H_
