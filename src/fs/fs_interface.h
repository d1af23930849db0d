// Abstract file-system operation surface.
//
// Workloads and benches program against this interface so one machine
// can serve them either a single FileSystem (the paper's machine) or a
// ShardedFs (src/volume/): S per-shard FileSystems behind leaf-name
// routing on a striped multi-disk volume. Virtual dispatch costs only
// host time - simulated time is charged inside the operations - so the
// single-disk stats surface is unchanged.
#ifndef MUFS_SRC_FS_FS_INTERFACE_H_
#define MUFS_SRC_FS_FS_INTERFACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/fs/format.h"
#include "src/fs/proc.h"
#include "src/fs/result.h"
#include "src/sim/task.h"

namespace mufs {

struct StatInfo {
  uint32_t ino = 0;
  FileType type = FileType::kFree;
  uint16_t nlink = 0;
  uint64_t size = 0;
  uint32_t generation = 0;
};

struct DirEntryInfo {
  uint32_t ino = 0;
  std::string name;
};

class FsInterface {
 public:
  virtual ~FsInterface() = default;

  // --- POSIX-like operations (paths are absolute, '/'-separated) -----
  // Inode numbers returned/accepted here are the machine's GLOBAL inode
  // namespace: identical to on-disk numbers for a single FileSystem,
  // shard-encoded (shard * stride + local) for a ShardedFs.
  virtual Task<Result<uint32_t>> Create(Proc& proc, const std::string& path) = 0;
  virtual Task<FsStatus> Mkdir(Proc& proc, const std::string& path) = 0;
  virtual Task<FsStatus> Unlink(Proc& proc, const std::string& path) = 0;
  virtual Task<FsStatus> Rmdir(Proc& proc, const std::string& path) = 0;
  virtual Task<FsStatus> Rename(Proc& proc, const std::string& from,
                                const std::string& to) = 0;
  virtual Task<FsStatus> Link(Proc& proc, const std::string& existing,
                              const std::string& link_path) = 0;
  virtual Task<Result<uint32_t>> Lookup(Proc& proc, const std::string& path) = 0;
  virtual Task<Result<StatInfo>> Stat(Proc& proc, const std::string& path) = 0;
  virtual Task<Result<StatInfo>> StatIno(Proc& proc, uint32_t ino) = 0;
  virtual Task<Result<std::vector<DirEntryInfo>>> ReadDir(Proc& proc,
                                                          const std::string& path) = 0;
  virtual Task<Result<uint64_t>> WriteFile(Proc& proc, uint32_t ino, uint64_t offset,
                                           std::span<const uint8_t> data) = 0;
  virtual Task<Result<uint64_t>> ReadFile(Proc& proc, uint32_t ino, uint64_t offset,
                                          std::span<uint8_t> out) = 0;
  virtual Task<FsStatus> Truncate(Proc& proc, uint32_t ino, uint64_t new_size) = 0;
  // SYNCIO: returns only when all metadata for `ino` is persistent.
  virtual Task<FsStatus> Fsync(Proc& proc, uint32_t ino) = 0;
  // Full sync: flush all inodes, run deferred work, drain the device(s).
  virtual Task<FsStatus> SyncEverything(Proc& proc) = 0;

  // --- introspection --------------------------------------------------
  virtual bool io_degraded() const = 0;
  virtual bool AnyDirtyInode() const = 0;
  // Drops clean, unpinned in-core inodes (cold-cache simulation).
  virtual void DropCleanInodes() = 0;
};

}  // namespace mufs

#endif  // MUFS_SRC_FS_FS_INTERFACE_H_
