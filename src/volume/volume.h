// Striped multi-disk volume: N independent disk stacks (DiskModel +
// FaultInjector + DiskDriver, each with its own device queue) behind one
// BlockDevice surface, with block-address striping mapping volume LBAs
// onto (disk, local lba) pairs.
//
// Ordering: the member drivers run OrderingMode::kNone; the volume owns
// the scheme's ordering discipline instead, because flag semantics and
// chain dependencies constrain VOLUME issue order, which per-disk queues
// cannot see. The volume holds back requests at its own OrderingGate -
// the same rules the single-disk driver enforces (they are monotone - a
// request once eligible stays eligible - so forwarding eligible requests
// early is always safe) - then lets each disk schedule its own C-LOOK /
// tagged-queueing locally. The device-level invariant
// (overlapping writes complete in issue order) is preserved because
// identical block ranges always map to the same disk and the volume
// forwards in issue order.
//
// Stable storage is ONE volume-addressed DiskImage shared by all member
// drivers (each translating local LBAs through DriverConfig::image_map),
// so crash snapshots, the write-count crash index and torn-write arming
// stay volume-wide - the whole crash harness works unchanged.
#ifndef MUFS_SRC_VOLUME_VOLUME_H_
#define MUFS_SRC_VOLUME_VOLUME_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/driver/disk_driver.h"
#include "src/driver/ordering_gate.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/stats/stats_registry.h"

namespace mufs {

// Striping math: volume LBA v lives in stripe chunk v / stripe_unit;
// chunks rotate round-robin over the disks.
struct VolumeLayout {
  uint32_t disks = 1;
  uint32_t stripe_unit = 16;  // Blocks per stripe chunk (64 KB default).
  uint32_t blocks_per_disk = 0;

  uint32_t TotalBlocks() const { return disks * blocks_per_disk; }

  void Map(uint32_t volume_lba, uint32_t* disk, uint32_t* local_lba) const {
    const uint32_t stripe = volume_lba / stripe_unit;
    *disk = stripe % disks;
    *local_lba = (stripe / disks) * stripe_unit + volume_lba % stripe_unit;
  }

  uint32_t ToVolume(uint32_t disk, uint32_t local_lba) const {
    const uint32_t stripe = local_lba / stripe_unit;
    return (stripe * disks + disk) * stripe_unit + local_lba % stripe_unit;
  }

  // Blocks remaining in volume_lba's chunk, counting volume_lba itself:
  // a transfer larger than this spans disks and must be split.
  uint32_t RunLength(uint32_t volume_lba) const {
    return stripe_unit - volume_lba % stripe_unit;
  }
};

struct VolumeConfig {
  VolumeLayout layout;
  // The scheme's ordering discipline, enforced at the volume gate (the
  // member drivers all run OrderingMode::kNone).
  OrderingRules ordering;
  StatsRegistry* stats = nullptr;  // Required: the Machine's registry.
};

class StripedVolume : public BlockDevice {
 public:
  // `disks` are borrowed (the Machine owns them); one per layout disk.
  StripedVolume(Engine* engine, std::vector<DiskDriver*> disks, VolumeConfig config);
  StripedVolume(const StripedVolume&) = delete;
  StripedVolume& operator=(const StripedVolume&) = delete;
  ~StripedVolume() override = default;

  uint64_t IssueWrite(uint32_t blkno, std::vector<std::shared_ptr<const BlockData>> data,
                      OrderingTag tag = {}, IoCallback isr = nullptr) override;
  uint64_t IssueRead(uint32_t blkno, BlockData* out, IoCallback isr = nullptr) override;
  Task<IoStatus> WaitFor(uint64_t id) override { return gate_.WaitFor(id); }
  bool IsComplete(uint64_t id) const override { return gate_.IsComplete(id); }
  IoStatus CompletionStatus(uint64_t id) const override { return gate_.CompletionStatus(id); }
  size_t PendingCount() const override { return gate_.PendingCount(); }
  Task<void> Drain() override;
  bool HasPendingWrite(uint32_t blkno, uint32_t count = 1) const override {
    return gate_.HasPendingWrite(blkno, count);
  }

  const VolumeLayout& layout() const { return config_.layout; }
  size_t HeldCount() const { return held_.size(); }  // Gated, not yet forwarded.

 private:
  struct VReq : GatedRequest {
    uint64_t id = 0;
    uint32_t subs_outstanding = 0;
    IoStatus status = IoStatus::kOk;  // Worst sub-request status.
    std::vector<std::shared_ptr<const BlockData>> data;  // Writes.
    BlockData* read_out = nullptr;                       // Reads.
    IoCallback isr;
  };

  uint64_t Issue(std::unique_ptr<VReq> req);
  // Forwards every eligible held request, in issue order, to the disks.
  void TryDispatch();
  void Forward(VReq* r);
  void OnSubComplete(VReq* r, IoStatus status);

  std::vector<DiskDriver*> disks_;
  VolumeConfig config_;

  uint64_t next_id_ = 1;
  // Indexes ALL incomplete requests (held + in-flight). "Pending" covers
  // requests forwarded to a disk but not yet complete, matching the
  // driver's in-service requests staying indexed until completion.
  OrderingGate gate_;
  // Requests held at the ordering gate, issue order.
  std::list<std::unique_ptr<VReq>> held_;
  // Forwarded but incomplete requests, keyed by id.
  std::unordered_map<uint64_t, std::unique_ptr<VReq>> in_flight_;
  CondVar all_done_;

  Counter* stat_reads_ = nullptr;
  Counter* stat_writes_ = nullptr;
  Counter* stat_splits_ = nullptr;  // Extra per-disk sub-requests created.
  Counter* stat_held_ = nullptr;    // Requests gated at least once.
};

// One shard's view of the volume: the same device, offset by the shard's
// base LBA, with shard-local outstanding accounting so a shard's Drain()
// (fsync, sync-everything) waits only for its own requests instead of
// coupling every shard's quiesce points together.
class ShardDevice : public BlockDevice {
 public:
  ShardDevice(Engine* engine, BlockDevice* volume, uint32_t base_lba)
      : engine_(engine), volume_(volume), base_(base_lba), idle_(engine) {}
  ShardDevice(const ShardDevice&) = delete;
  ShardDevice& operator=(const ShardDevice&) = delete;
  ~ShardDevice() override = default;

  uint64_t IssueWrite(uint32_t blkno, std::vector<std::shared_ptr<const BlockData>> data,
                      OrderingTag tag = {}, IoCallback isr = nullptr) override;
  uint64_t IssueRead(uint32_t blkno, BlockData* out, IoCallback isr = nullptr) override;
  Task<IoStatus> WaitFor(uint64_t id) override { return volume_->WaitFor(id); }
  bool IsComplete(uint64_t id) const override { return volume_->IsComplete(id); }
  IoStatus CompletionStatus(uint64_t id) const override {
    return volume_->CompletionStatus(id);
  }
  size_t PendingCount() const override { return outstanding_; }
  Task<void> Drain() override;
  bool HasPendingWrite(uint32_t blkno, uint32_t count = 1) const override {
    // Shard regions are disjoint, so the volume-wide check is exact.
    return volume_->HasPendingWrite(base_ + blkno, count);
  }

  uint32_t base() const { return base_; }

 private:
  IoCallback WrapIsr(IoCallback isr);

  Engine* engine_;
  BlockDevice* volume_;
  uint32_t base_;
  size_t outstanding_ = 0;
  CondVar idle_;
};

}  // namespace mufs

#endif  // MUFS_SRC_VOLUME_VOLUME_H_
