// Scheme::kAsync - asynchronous metadata updates with decoupled
// visibility and durability (ROADMAP item: AsyncFS-style scheme).
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
#ifndef MUFS_SRC_ASYNC_ASYNC_POLICY_H_
#define MUFS_SRC_ASYNC_ASYNC_POLICY_H_

#include <vector>

#include "src/async/visibility_ledger.h"
#include "src/fs/filesystem.h"
#include "src/fs/policy.h"

namespace mufs {

class AsyncPolicy final : public OrderingPolicy {
 public:
  explicit AsyncPolicy(VisibilityLedger* ledger) : ledger_(ledger) {
    sys_proc_.pid = kSystemPid;
    sys_proc_.name = "async";
  }

  std::string_view Name() const override { return "Async"; }
  bool WriteThroughInodes() const override { return false; }

  // Op bracketing carries the visibility contract: admission control on
  // entry (bounded staleness backpressure), horizon assignment on exit.
  Task<void> OpBegin(Proc& proc) override;
  void OpEnd() override;

  Task<void> SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                             bool init_required, BlockRole role) override;
  Task<void> SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                            std::vector<BufRef> updated_indirects) override;
  Task<void> SetupLinkAdd(Proc& proc, BufRef dir_buf, uint32_t offset, Inode& target,
                          bool new_inode) override;
  Task<void> SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset, DirEntry old_entry,
                             uint32_t removed_ino, const RenameContext* rename) override;
  Task<void> SetupInodeFree(Proc& proc, Inode& ip) override;
  // Barrier: every op visible at entry becomes durable, then the cache is
  // drained to quiescence (the unmount contract).
  Task<void> FlushAll(Proc& proc) override;

 private:
  // Stamps the buffer with the in-flight op's horizon (visible_seq + 1:
  // the op gets its sequence number at OpEnd).
  void Stamp(const BufRef& buf);

  VisibilityLedger* ledger_;
  Proc sys_proc_;  // Owns the deferred release workitems.
};

}  // namespace mufs

#endif  // MUFS_SRC_ASYNC_ASYNC_POLICY_H_
