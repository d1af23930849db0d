// Sharded metadata machine: S independent FileSystem instances (each
// with its own buffer cache, syncer cadence, ordering policy and journal
// extent) behind one FsInterface, each owning a contiguous region of a
// striped volume.
//
// Routing: regular files live in exactly one shard, chosen by hashing
// the final path component (FNV-1a), so a file's entire metadata chain
// (dirent, inode, bitmaps, data) stays inside one shard's ordering
// domain. Directories are MIRRORED into every shard - each shard holds
// the full directory skeleton - so any shard can resolve any file path
// locally; structural namespace operations (mkdir, rmdir, directory
// rename) broadcast to all shards under the namespace mutex.
//
// Inode numbers exposed upward are global: shard * stride + local, with
// stride = per-shard total_inodes. Shard 0's numbers are unchanged, and
// directory inode numbers are canonically shard 0's mirror.
//
// Cross-shard rename is a two-shard ordered protocol (create-copy in the
// destination shard, sync it durable, then unlink in the source shard);
// a crash at any ordering point leaves the file reachable at the old or
// the new name, and every shard individually fsck-clean.
#ifndef MUFS_SRC_VOLUME_SHARDED_FS_H_
#define MUFS_SRC_VOLUME_SHARDED_FS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/fs/fs_interface.h"
#include "src/sim/sync.h"

namespace mufs {

class ShardedFs : public FsInterface {
 public:
  // `shards` are borrowed (the Machine owns them); `ino_stride` is the
  // per-shard inode-space size (every shard is formatted identically).
  ShardedFs(Engine* engine, std::vector<FileSystem*> shards, uint32_t ino_stride);
  ShardedFs(const ShardedFs&) = delete;
  ShardedFs& operator=(const ShardedFs&) = delete;
  ~ShardedFs() override = default;

  Task<Result<uint32_t>> Create(Proc& proc, const std::string& path) override;
  Task<FsStatus> Mkdir(Proc& proc, const std::string& path) override;
  Task<FsStatus> Unlink(Proc& proc, const std::string& path) override;
  Task<FsStatus> Rmdir(Proc& proc, const std::string& path) override;
  Task<FsStatus> Rename(Proc& proc, const std::string& from,
                        const std::string& to) override;
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
  Task<FsStatus> Fsync(Proc& proc, uint32_t ino) override;
  Task<FsStatus> SyncEverything(Proc& proc) override;

  bool io_degraded() const override;
  bool AnyDirtyInode() const override;
  void DropCleanInodes() override;

  // --- shard-addressing helpers (also used by tests) -----------------
  size_t num_shards() const { return shards_.size(); }
  uint32_t ino_stride() const { return ino_stride_; }
  FileSystem* shard(size_t s) const { return shards_[s]; }
  static uint32_t HashLeaf(std::string_view leaf);
  size_t ShardOfLeaf(std::string_view leaf) const {
    return HashLeaf(leaf) % shards_.size();
  }
  size_t ShardOfPath(const std::string& path) const { return ShardOfLeaf(Leaf(path)); }
  uint32_t EncodeIno(size_t shard, uint32_t local) const {
    return static_cast<uint32_t>(shard) * ino_stride_ + local;
  }
  size_t ShardOfIno(uint32_t global) const { return global / ino_stride_; }
  uint32_t LocalIno(uint32_t global) const { return global % ino_stride_; }

 private:
  // Join state for a parallel broadcast: each branch records its status
  // and the last one to finish wakes the waiter.
  struct FanState {
    explicit FanState(Engine* engine) : cv(engine) {}
    int remaining = 0;
    FsStatus worst = FsStatus::kOk;
    CondVar cv;
  };
  enum class DirOp { kMkdir, kRmdir, kRename };

  static std::string_view Leaf(const std::string& path);
  // One branch of a directory broadcast, spawned per shard.
  Task<void> MirrorBranch(FileSystem* fs, Proc* proc, DirOp op, const std::string* a,
                          const std::string* b, FanState* fan);
  // Runs `op` on shards [first, size) concurrently and returns the first
  // non-kOk status (mirrors are disjoint file systems, so order between
  // them does not matter - only the join does).
  Task<FsStatus> Broadcast(Proc& proc, DirOp op, const std::string& a,
                           const std::string& b, size_t first);
  // The two-shard migration protocol (no namespace lock: it touches only
  // regular-file names, which the workload never races).
  Task<FsStatus> CrossShardRename(Proc& proc, const std::string& from,
                                  const std::string& to, size_t s_from, size_t s_to);

  Engine* engine_;
  std::vector<FileSystem*> shards_;
  uint32_t ino_stride_;
  // Serializes multi-shard structural operations (mkdir/rmdir broadcast,
  // directory rename, cross-shard file rename) so mirrors never diverge.
  Mutex ns_mu_;
};

}  // namespace mufs

#endif  // MUFS_SRC_VOLUME_SHARDED_FS_H_
