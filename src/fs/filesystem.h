// The mufs file system: an FFS-like file system over the buffer cache,
// with all metadata-update ordering delegated to an OrderingPolicy.
//
// Every operation is a coroutine running in some simulated process
// context (Proc). CPU work is charged to the Cpu model with per-operation
// costs from FsCpuCosts, and blocking I/O shows up as simulated time.
#ifndef MUFS_SRC_FS_FILESYSTEM_H_
#define MUFS_SRC_FS_FILESYSTEM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/cache/syncer.h"
#include "src/fs/format.h"
#include "src/fs/fs_interface.h"
#include "src/fs/policy.h"
#include "src/fs/proc.h"
#include "src/fs/result.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"

namespace mufs {

// In-core inode: the file system always manipulates this copy; the
// on-disk bytes live in the inode-table block buffer (paper appendix:
// "the inode structure manipulated by the file system is always separate
// from the corresponding source block for disk writes").
class Inode {
 public:
  Inode(Engine* engine, uint32_t ino_num) : ino(ino_num), lock(engine) {}
  uint32_t ino;
  DiskInode d;
  int dep_pin = 0;      // Soft-updates pin: keep in-core while > 0.
  Mutex lock;           // Serializes operations on this inode.
  BufRef itable_buf;    // Pinned inode-table block holding this inode.

  // In-core copy newer than the itable buffer. Only FileSystem sets it,
  // which keeps FileSystem's count of dirty cached inodes exact.
  bool dirty() const { return dirty_; }

 private:
  friend class FileSystem;
  bool dirty_ = false;
};
using InodeRef = std::shared_ptr<Inode>;

// CPU cost model, loosely calibrated to a 33 MHz i486 so the CPU-time
// columns of Tables 1-3 come out in believable ratios.
struct FsCpuCosts {
  SimDuration syscall = Usec(80);          // Trap + vfs dispatch.
  SimDuration name_component = Usec(60);   // Per path component.
  SimDuration dir_scan_block = Usec(70);   // Per directory block scanned.
  SimDuration create = Usec(250);          // Inode alloc + init.
  SimDuration remove = Usec(200);
  SimDuration block_alloc = Usec(90);
  SimDuration block_free = Usec(40);       // Per block freed.
  SimDuration inode_update = Usec(40);
  SimDuration per_kb_io = Usec(210);       // Kernel/user copy per KB.
};

struct FsConfig {
  // Enforce allocation initialization (rule 3) for regular-file data
  // blocks. Directory and indirect blocks are always initialized (as in
  // FFS derivatives; paper section 1). The paper's "Alloc. Init." = Y/N.
  bool alloc_init = false;
  uint32_t inode_cache_capacity = 4096;
  FsCpuCosts costs;
  // Shared metrics registry; falls back to the cache's when null.
  StatsRegistry* stats = nullptr;
};

class FileSystem : public FsInterface {
 public:
  FileSystem(Engine* engine, Cpu* cpu, BufferCache* cache, SyncerDaemon* syncer,
             FsConfig config = {});
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;
  ~FileSystem() override;

  // Formats an image in place (offline; writes the superblock, bitmaps
  // and a root directory directly into the DiskImage). `journal_blocks`
  // reserves a write-ahead log extent between the inode table and the
  // data area (0 = no journal; layout identical to pre-journal images).
  static void Mkfs(DiskImage* image, uint32_t total_inodes = 32768,
                   uint32_t journal_blocks = 0);

  // Attaches the policy (required before Mount) and reads the superblock.
  void SetPolicy(OrderingPolicy* policy);
  Task<FsStatus> Mount(Proc& proc);

  // --- POSIX-like operations (paths are absolute, '/'-separated) -----
  Task<Result<uint32_t>> Create(Proc& proc, const std::string& path) override;
  Task<FsStatus> Mkdir(Proc& proc, const std::string& path) override;
  Task<FsStatus> Unlink(Proc& proc, const std::string& path) override;
  Task<FsStatus> Rmdir(Proc& proc, const std::string& path) override;
  Task<FsStatus> Rename(Proc& proc, const std::string& from, const std::string& to) override;
  Task<FsStatus> Link(Proc& proc, const std::string& existing,
                      const std::string& link_path) override;
  Task<Result<uint32_t>> Lookup(Proc& proc, const std::string& path) override;
  Task<Result<StatInfo>> Stat(Proc& proc, const std::string& path) override;
  Task<Result<StatInfo>> StatIno(Proc& proc, uint32_t ino) override;
  Task<Result<std::vector<DirEntryInfo>>> ReadDir(Proc& proc,
                                                  const std::string& path) override;
  Task<Result<uint64_t>> WriteFile(Proc& proc, uint32_t ino, uint64_t offset,
                                   std::span<const uint8_t> data) override;
  Task<Result<uint64_t>> ReadFile(Proc& proc, uint32_t ino, uint64_t offset,
                                  std::span<uint8_t> out) override;
  Task<FsStatus> Truncate(Proc& proc, uint32_t ino, uint64_t new_size) override;
  // SYNCIO: returns only when all metadata for `ino` is persistent.
  Task<FsStatus> Fsync(Proc& proc, uint32_t ino) override;
  // Full sync: flush all inodes, run deferred work, drain the device.
  Task<FsStatus> SyncEverything(Proc& proc) override;

  // --- Policy support API --------------------------------------------
  Engine* engine() const { return engine_; }
  Cpu* cpu() const { return cpu_; }
  BufferCache* cache() const { return cache_; }
  SyncerDaemon* syncer() const { return syncer_; }
  const SuperBlock& sb() const { return sb_; }
  const FsConfig& config() const { return config_; }
  OrderingPolicy* policy() const { return policy_; }

  // Copies the in-core inode into its inode-table buffer (respecting the
  // write lock) and marks the buffer dirty.
  Task<void> FlushInodeToBuffer(Inode& ip);

  // Drops one link on `ino`: nlink--, and if it reaches zero frees the
  // file (blocks via SetupBlockFree, inode via SetupInodeFree). Called
  // inline by most policies, from a workitem by soft updates.
  Task<void> ReleaseLink(Proc& proc, uint32_t ino);

  // Bitmap mutators used by policies when a free finally happens.
  Task<void> FreeBlocksInBitmap(Proc& proc, const std::vector<uint32_t>& blocks);
  Task<void> FreeInodeInBitmap(Proc& proc, uint32_t ino);

  // Pushes a just-allocated block pointer into its on-disk carrier (the
  // inode-table buffer or an indirect block buffer). Called by
  // SetupAllocation implementations once their discipline permits the
  // pointer to become writable (rule 3): after the init write for
  // synchronous schemes, immediately for asynchronous/delayed ones.
  Task<void> CommitBlockPointer(Proc& proc, Inode& ip, const PtrLoc& loc, uint32_t blkno);

  // In-core inode lookup/load. Returns nullptr if the inode-table block
  // could not be read (device failure); callers surface kIoError.
  Task<InodeRef> Iget(Proc& proc, uint32_t ino);
  // Fetches only if already in-core (used by soft-updates workitems).
  InodeRef IgetCached(uint32_t ino);

  // Flushes every dirty in-core inode into its buffer (syncer pre-pass).
  Task<void> FlushDirtyInodes();
  bool AnyDirtyInode() const override { return dirty_inodes_ != 0; }

  // Marks the in-core inode dirty; with write-through policies also
  // pushes it into the itable buffer immediately.
  Task<void> MarkInodeDirty(Proc& proc, Inode& ip);

  FsOpStats op_stats() const override;  // Snapshot of the fs.* counters.
  StatsRegistry* stats() const { return stats_; }

  // Records an unrecoverable device I/O error noticed by a policy, the
  // journal, or an internal fire-and-forget path (e.g. a bitmap free
  // that could not read its bitmap block). Sticky: once degraded,
  // SyncEverything reports kIoError so callers know some state may
  // never have reached the disk.
  void NoteIoError() {
    io_degraded_ = true;
    stat_io_errors_->Inc();
  }
  bool io_degraded() const override;

  // Drops clean, unpinned in-core inodes (cold-cache simulation).
  void DropCleanInodes() override;

 private:
  friend class FsBufferHooks;

  // --- path / directory internals ---
  struct PathParts {
    std::vector<std::string> components;
  };
  static Result<PathParts> SplitPath(const std::string& path);

  // Resolves all but the last component; returns the parent directory
  // inode (unlocked) and the final name.
  struct ParentLookup {
    InodeRef parent;
    std::string leaf;
  };
  Task<Result<ParentLookup>> LookupParent(Proc& proc, const std::string& path);
  Task<Result<uint32_t>> LookupIn(Proc& proc, Inode& dir, std::string_view name);
  // Finds the entry for `name`; returns block lbn/offset via out params.
  struct EntryLoc {
    BufRef buf;
    uint32_t offset = 0;  // Byte offset of the DirEntry within the block.
    uint32_t ino = 0;
  };
  Task<Result<EntryLoc>> FindEntry(Proc& proc, Inode& dir, std::string_view name);
  // Finds a free slot (growing the directory if needed) and fills it.
  Task<Result<EntryLoc>> AddEntry(Proc& proc, Inode& dir, std::string_view name, uint32_t ino);
  Task<Result<bool>> DirIsEmpty(Proc& proc, Inode& dir);

  // --- allocation ---
  Task<Result<uint32_t>> AllocBlock(Proc& proc, uint32_t hint);
  Task<Result<uint32_t>> AllocInode(Proc& proc, uint32_t parent_hint);
  // Maps logical block -> physical, allocating (and wiring dependencies)
  // when `alloc` is set. Returns 0 for unmapped holes when !alloc.
  Task<Result<uint32_t>> BlockMap(Proc& proc, Inode& ip, uint32_t lbn, bool alloc);
  // Allocates one block for `ip`, zero-filled, wiring SetupAllocation.
  Task<Result<BufRef>> AllocAttachedBlock(Proc& proc, Inode& ip, PtrLoc loc, bool init_required,
                                          BlockRole role, uint32_t hint);
  // Collects every block of `ip` beyond `new_size` and resets pointers.
  Task<FsStatus> TruncateLocked(Proc& proc, Inode& ip, uint64_t new_size);

  Task<void> Charge(Proc& proc, SimDuration d);
  uint32_t NowSeconds() const;
  void SerializeInodesInto(Buf& buf);
  void EvictInodesIfNeeded();
  // The only writer of Inode::dirty_ and the only insert into
  // inode_cache_ (erasures drop clean inodes only), so dirty_inodes_
  // always equals the number of dirty cached inodes.
  void SetInodeDirty(Inode& ip, bool dirty);
  void CacheInode(InodeRef ip);

  Engine* engine_;
  Cpu* cpu_;
  BufferCache* cache_;
  SyncerDaemon* syncer_;
  FsConfig config_;
  OrderingPolicy* policy_ = nullptr;
  SuperBlock sb_;
  bool mounted_ = false;
  bool io_degraded_ = false;  // Some metadata may never have hit disk.

  std::unordered_map<uint32_t, InodeRef> inode_cache_;
  size_t dirty_inodes_ = 0;  // Entries of inode_cache_ with dirty_ set.
  Mutex alloc_lock_;  // Serializes bitmap allocation decisions.
  uint32_t block_rotor_ = 0;
  uint32_t inode_rotor_ = 1;

  std::unique_ptr<DepHooks> buffer_hooks_;

  // Metric handles into stats_ (the Machine's registry or the cache's
  // private fallback; never null after construction).
  StatsRegistry* stats_ = nullptr;
  Counter* stat_creates_ = nullptr;
  Counter* stat_removes_ = nullptr;
  Counter* stat_mkdirs_ = nullptr;
  Counter* stat_rmdirs_ = nullptr;
  Counter* stat_renames_ = nullptr;
  Counter* stat_lookups_ = nullptr;
  Counter* stat_reads_ = nullptr;
  Counter* stat_writes_ = nullptr;
  Counter* stat_blocks_allocated_ = nullptr;
  Counter* stat_blocks_freed_ = nullptr;
  Counter* stat_io_errors_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_SRC_FS_FILESYSTEM_H_
