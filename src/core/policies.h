// The four non-soft-updates ordering schemes of the paper's evaluation.
// Soft updates itself lives in src/core/softupdates/.
#ifndef MUFS_SRC_CORE_POLICIES_H_
#define MUFS_SRC_CORE_POLICIES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/fs/policy.h"

namespace mufs {

// "No Order": delayed writes everywhere, no ordering. Matches the paper's
// baseline (and the delay-mount / memory-file-system bound). NOT crash
// safe - it exists to define the performance ceiling.
class NoOrderPolicy final : public OrderingPolicy {
 public:
  std::string_view Name() const override { return "NoOrder"; }
  bool WriteThroughInodes() const override { return false; }
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(Proc& proc, BufRef dir_buf, uint32_t offset, Inode& target,
                          bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;
};

// "Conventional": synchronous writes at every ordering point, as in the
// original UNIX FS and FFS.
class ConventionalPolicy final : public OrderingPolicy {
 public:
  std::string_view Name() const override { return "Conventional"; }
  bool MetadataSynchronous() const override { return true; }
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(Proc& proc, BufRef dir_buf, uint32_t offset, Inode& target,
                          bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;
};

// "Scheduler Flag" (section 3.1): ordering-critical writes become
// asynchronous with the one-bit flag set; the driver (configured with
// OrderingMode::kFlag and some FlagSemantics) enforces sequencing. The
// -NR and -CB options are DriverConfig/CacheConfig knobs.
class SchedulerFlagPolicy final : public OrderingPolicy {
 public:
  std::string_view Name() const override { return "SchedulerFlag"; }
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(Proc& proc, BufRef dir_buf, uint32_t offset, Inode& target,
                          bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;
};

// "Scheduler Chains" (section 3.2): asynchronous writes carrying explicit
// request-dependency lists. Two variants for the de-allocation/re-use
// rule: tracking freed resources until the reset pointer lands (the
// better one, default), or falling back to barrier-like behaviour by
// making every subsequent ordered write depend on outstanding
// de-allocation writes.
class SchedulerChainPolicy final : public OrderingPolicy {
 public:
  explicit SchedulerChainPolicy(bool track_freed_resources = true)
      : track_freed_(track_freed_resources) {}

  std::string_view Name() const override { return "SchedulerChains"; }
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(Proc& proc, BufRef dir_buf, uint32_t offset, Inode& target,
                          bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;

 private:
  // Deps a fresh use of the resource must wait on, pruned lazily.
  std::vector<uint64_t> ReuseDeps(uint32_t blkno);
  std::vector<uint64_t> BarrierDeps();

  bool track_freed_;
  std::unordered_map<uint32_t, std::vector<uint64_t>> block_reuse_deps_;
  std::unordered_map<uint32_t, uint64_t> inode_remove_write_;  // ino -> dir reset write.
  std::vector<uint64_t> barrier_reqs_;  // Fallback variant only.
};

}  // namespace mufs

#endif  // MUFS_SRC_CORE_POLICIES_H_
