// Five of the seven ordering schemes, in three implementations. Two write
// disciplines are each shared by two schemes: Conventional and Scheduler
// Flag write the same protecting blocks at the same ordering points, and
// Async is No Order's delayed writes plus the visibility ledger. Soft
// updates lives in src/core/softupdates/, journaling in src/journal/.
#ifndef MUFS_SRC_CORE_POLICIES_H_
#define MUFS_SRC_CORE_POLICIES_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/async/visibility_ledger.h"
#include "src/fs/filesystem.h"
#include "src/fs/policy.h"

namespace mufs {

// "No Order": delayed writes everywhere, no ordering. Matches the paper's
// baseline (and the delay-mount / memory-file-system bound). NOT crash
// safe - it exists to define the performance ceiling.
class NoOrderPolicy : public OrderingPolicy {
 public:
  std::string_view Name() const override { return "NoOrder"; }
  bool WriteThroughInodes() const override { return false; }
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target, bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;

 protected:
  // The action recorded at every ordering point.
  virtual std::string_view Action() const { return "delayed"; }
  // Called on each buffer a hook leaves dirty (no-op here).
  virtual void Stamp(const BufRef& buf) { (void)buf; }
  // Drops the link count of `ino` once its entry is cleared (inline here).
  virtual Task<void> Release(Proc& proc, uint32_t ino);
};

// Scheme::kAsync - asynchronous metadata updates with decoupled
// visibility and durability (after AsyncFS).
//
// At every ordering point the update stays a delayed write, exactly like
// NoOrder: the operation returns as soon as the change is visible in the
// buffer cache. Unlike NoOrder the scheme keeps a durability promise:
// each completed op is recorded in a VisibilityLedger, a background
// flusher makes epochs of ops durable on a bounded-staleness cadence, and
// Fsync/unmount block until the caller's horizon is durable. After a
// crash the image may need repair (like NoOrder, fsck must converge
// clean), but every op completed more than the staleness window before
// the crash has already been flushed and survives.
class AsyncPolicy final : public NoOrderPolicy {
 public:
  explicit AsyncPolicy(VisibilityLedger* ledger) : ledger_(ledger) {
    sys_proc_.pid = kSystemPid;
    sys_proc_.name = "async";
  }

  std::string_view Name() const override { return "Async"; }

  // Op bracketing carries the visibility contract: admission control on
  // entry (bounded staleness backpressure), horizon assignment on exit.
  Task<void> OpBegin(Proc& proc) override;
  void OpEnd() override;
  // Barrier: every op visible at entry becomes durable, then the cache is
  // drained to quiescence (the unmount contract).
  Task<void> FlushAll(Proc& proc) override;

 protected:
  std::string_view Action() const override { return "visible"; }
  // Stamps the buffer with the in-flight op's horizon (visible_seq + 1:
  // the op gets its sequence number at OpEnd).
  void Stamp(const BufRef& buf) override;
  // Defers the release to the ledger's next epoch flush.
  Task<void> Release(Proc& proc, uint32_t ino) override;

 private:
  VisibilityLedger* ledger_;
  Proc sys_proc_;  // Owns the deferred release workitems.
};

// Ordered writes at every ordering point: the write discipline of
// Conventional and Scheduler Flag. Both write the same protecting blocks
// at the same points in the same order; each supplies how one protecting
// write is made.
class OrderedWritePolicy : public OrderingPolicy {
 public:
  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target, bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;

 protected:
  // Writes `buf`, whose contents protect a later update, ordered ahead of
  // every write issued after it.
  virtual Task<void> OrderedWrite(BufRef buf) = 0;
  // Writes zeroes from the reserved zero block (section 3.3) to the
  // freshly allocated block `blkno`, ordered ahead of its pointer, so the
  // data buffer itself is never locked.
  virtual Task<void> InitWrite(uint32_t blkno) = 0;
  // The action recorded at every ordering point that writes.
  virtual std::string_view Action() const = 0;
};

// "Conventional": synchronous writes at every ordering point, as in the
// original UNIX FS and FFS.
class ConventionalPolicy final : public OrderedWritePolicy {
 public:
  std::string_view Name() const override { return "Conventional"; }
  bool MetadataSynchronous() const override { return true; }

 protected:
  Task<void> OrderedWrite(BufRef buf) override;
  Task<void> InitWrite(uint32_t blkno) override;
  std::string_view Action() const override { return "sync_write"; }
};

// "Scheduler Flag" (section 3.1): ordering-critical writes become
// asynchronous with the one-bit flag set; the driver (configured with
// OrderingMode::kFlag and some FlagSemantics) enforces sequencing. The
// -NR and -CB options are DriverConfig/CacheConfig knobs.
class SchedulerFlagPolicy final : public OrderedWritePolicy {
 public:
  std::string_view Name() const override { return "SchedulerFlag"; }

 protected:
  Task<void> OrderedWrite(BufRef buf) override;
  Task<void> InitWrite(uint32_t blkno) override;
  std::string_view Action() const override { return "flagged_write"; }
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
  Task<void> SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target, bool new_inode) override;
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
