// Device driver: request queue, scheduling and ordering enforcement.
//
// This is the "disk scheduler" of the paper's section 3. The file system
// (or buffer cache) issues asynchronous requests; the driver decides
// which pending request to service next, subject to:
//
//   - C-LOOK positional scheduling over block number among *eligible*
//     requests (one request outstanding at the disk; the paper disables
//     command queueing);
//   - sequential request concatenation at enqueue (section 2);
//   - the configured ordering discipline (None, Flag with Full/Back/Part
//     and -NR, or Chains), decided by the driver's OrderingGate.
//
// Command queueing (queue_depth > 1): the driver dispatches requests to
// the device IN ISSUE ORDER until the device queue is full, and the
// device picks what to execute next by rotational position (DeviceQueue).
// Ordering moves into command tags: the Flag and Chains schemes' ordering
// boundaries become ORDERED tags (device-enforced barriers over
// acceptance order); everything else is a SIMPLE tag the device may
// reorder. Completions therefore leave the device out of submission
// order. Depth 1 (the default) runs the exact non-queueing code path
// above, byte-identical in stats and timing to the pre-queueing driver.
#ifndef MUFS_SRC_DRIVER_DISK_DRIVER_H_
#define MUFS_SRC_DRIVER_DISK_DRIVER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "src/disk/device_queue.h"
#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/driver/block_device.h"
#include "src/driver/ordering_gate.h"
#include "src/driver/request.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/stats/stats_registry.h"

namespace mufs {

class FaultInjector;

struct DriverConfig {
  // The scheme's ordering discipline, enforced by the driver's gate.
  OrderingRules ordering;
  // Device command-queue depth. 1 (default) reproduces the paper's
  // substrate: no command queueing, one request outstanding at the disk,
  // byte-identical stats to the pre-queueing driver. Depths > 1 enable
  // tagged queueing: dispatch-until-full, device-side RPO picks, ordered
  // tags at scheme ordering boundaries.
  uint32_t queue_depth = 1;
  // Shared metrics registry (the Machine's). When null the driver owns a
  // private registry, so standalone construction needs no guards.
  StatsRegistry* stats = nullptr;

  // --- error path ----------------------------------------------------
  // Optional fault source, consulted once per service attempt. With no
  // injector the service path is identical to the fault-free driver.
  FaultInjector* faults = nullptr;
  // Failed attempts are retried up to `max_retries` times with
  // exponential backoff in simulated time (base doubles per retry, up to
  // the cap) before the request completes with IoStatus::kFailed.
  int max_retries = 8;
  SimDuration retry_backoff = Msec(2);
  SimDuration retry_backoff_cap = Msec(64);
  // A stalled command is abandoned after this long and re-issued (counts
  // as one retry).
  SimDuration request_timeout = Msec(500);
  // Spare pool for remapping latent bad sectors (reallocation-on-verify:
  // after two bad-sector failures of one request the driver remaps the
  // offending blocks if spares remain).
  uint32_t spare_blocks = 64;

  // --- multi-disk (src/volume/) --------------------------------------
  // Instance name for metric/trace prefixes ("disk0", "disk1", ...).
  // Empty = the singleton driver: every metric keeps its historical name.
  std::string instance;
  // Translates this disk's local LBA to the address used against the
  // shared DiskImage. A striped volume backs all member disks with ONE
  // volume-addressed image so crash snapshots and the write-count crash
  // index stay volume-wide; each member driver maps its local block
  // numbers through this before touching stable storage. Null = identity
  // (the image belongs to this disk alone).
  std::function<uint32_t(uint32_t)> image_map;
};

class DiskDriver : public BlockDevice {
 public:
  DiskDriver(Engine* engine, DiskModel* model, DiskImage* image, DriverConfig config);
  DiskDriver(const DiskDriver&) = delete;
  DiskDriver& operator=(const DiskDriver&) = delete;
  ~DiskDriver() override;

  // Issues an asynchronous write of `data.size()` consecutive blocks
  // starting at `blkno`. Returns the request id. `isr` (optional) runs at
  // completion, interrupt-level: it must not block, and it receives the
  // request's terminal IoStatus (completion does not imply success).
  uint64_t IssueWrite(uint32_t blkno, std::vector<std::shared_ptr<const BlockData>> data,
                      OrderingTag tag = {}, IoCallback isr = nullptr) override;

  // Issues an asynchronous single-block read into `out` (caller keeps the
  // destination alive and unread until completion). On failure `out` is
  // left untouched.
  uint64_t IssueRead(uint32_t blkno, BlockData* out, IoCallback isr = nullptr) override;

  // Suspends until request `id` completes (returns immediately if done)
  // and yields its terminal status.
  Task<IoStatus> WaitFor(uint64_t id) override { return gate_.WaitFor(id); }

  bool IsComplete(uint64_t id) const override { return gate_.IsComplete(id); }
  // Terminal status of a completed request (kOk if `id` is unknown).
  IoStatus CompletionStatus(uint64_t id) const override { return gate_.CompletionStatus(id); }
  // Spare-pool sectors consumed by bad-sector remapping so far.
  uint32_t SparesUsed() const { return spares_used_; }

  // Queue introspection (used by tests and by the FS for SYNCIO fences).
  // Counts driver-queued, device-accepted and in-service requests.
  size_t PendingCount() const override;
  // Commands currently accepted into the device queue (0 at depth 1).
  size_t DeviceQueueSize() const { return device_queue_ ? device_queue_->Size() : 0; }
  Task<void> Drain() override;  // Waits until the queue is empty.

  // True if any pending write overlaps [blkno, blkno+count).
  bool HasPendingWrite(uint32_t blkno, uint32_t count = 1) const override {
    return gate_.HasPendingWrite(blkno, count);
  }

  // Issued requests, merged ones included.
  uint64_t TotalRequests() const { return total_requests_; }
  // Issued requests that were concatenated onto a queued request instead
  // of becoming a device request of their own. They are also counted in
  // TotalRequests().
  uint64_t MergedRequests() const { return merged_requests_; }

  const DriverConfig& config() const { return config_; }
  StatsRegistry* stats() const { return stats_; }

 private:
  // A device request. Its issue_index is the newest of its merged issues.
  struct Request : GatedRequest {
    std::vector<uint64_t> ids;  // All ids merged into this device request.
    bool device_ordered = false;  // Scheme asked for an ordered device tag.
    uint64_t device_seq = 0;  // Device acceptance number (queueing mode).
    // Silent damage decided for this (write) request: the device reports
    // success but the media transfer is torn or misdirected. Set by
    // ServiceOne, consumed by Complete. kNone = honest transfer.
    uint8_t silent_damage = 0;  // FaultKind, as uint8_t to avoid the include.
    SimTime issue_time;
    std::vector<std::shared_ptr<const BlockData>> data;  // Writes.
    BlockData* read_out = nullptr;                       // Reads.
    std::vector<IoCallback> isrs;
  };

  uint64_t Enqueue(std::unique_ptr<Request> req, IoCallback isr);
  bool TryMerge(Request* incoming);
  void Kick();
  // One loop for both queue depths; only the pick differs.
  Task<void> ServiceLoop();
  // Depth 1: C-LOOK over the eligible queued requests.
  Request* PickNext();
  // queue_depth > 1: dispatch-until-full, then the device's RPO pick.
  Request* PickFromDevice();
  // Moves requests from the driver queue into the device queue, in issue
  // order, until the device queue is full or the driver queue is empty.
  void DispatchToDevice();
  // Command tag for a request under the configured ordering mode.
  TagKind DeviceTagFor(const Request& r) const;
  // Services `r` (in_service_) including the fault / retry / remap path;
  // returns the terminal status.
  Task<IoStatus> ServiceOne(Request* r);
  void Complete(Request* req, IoStatus status);

  // Local LBA -> shared-image address (identity without an image_map).
  uint32_t MapLba(uint32_t blkno) const {
    return config_.image_map ? config_.image_map(blkno) : blkno;
  }

  Engine* engine_;
  DiskModel* model_;
  DiskImage* image_;
  DriverConfig config_;
  // This disk's own media size. Equals image_->TotalBlocks() for a
  // private image; with an image_map (shared volume image) it is the
  // disk's geometry, so fault addressing stays in local LBA space.
  uint32_t media_blocks_ = 0;

  // Trace event names, instance-prefixed once at construction so the hot
  // path never concatenates strings.
  struct TraceNames {
    std::string issue, concat, accept, service, complete, fault, remap, gave_up;
  };
  TraceNames trace_names_;

  // Metrics (either the Machine's registry or owned_stats_).
  std::unique_ptr<StatsRegistry> owned_stats_;
  StatsRegistry* stats_ = nullptr;
  Counter* stat_reads_ = nullptr;
  Counter* stat_writes_ = nullptr;
  Counter* stat_blocks_read_ = nullptr;
  Counter* stat_blocks_written_ = nullptr;
  Counter* stat_merges_ = nullptr;
  Counter* stat_clook_wraps_ = nullptr;
  Counter* stat_busy_ns_ = nullptr;
  Counter* stat_retries_ = nullptr;
  Counter* stat_timeouts_ = nullptr;
  Counter* stat_remaps_ = nullptr;
  Counter* stat_gave_up_ = nullptr;
  // Queueing metrics, registered only at queue_depth > 1 so the depth-1
  // stats surface stays byte-identical to the pre-queueing driver.
  Counter* stat_tag_simple_ = nullptr;
  Counter* stat_tag_ordered_ = nullptr;
  Counter* stat_rpo_picks_ = nullptr;
  Gauge* stat_device_queue_ = nullptr;
  Gauge* stat_queue_depth_ = nullptr;
  LatencyHistogram* stat_response_ = nullptr;
  LatencyHistogram* stat_access_ = nullptr;
  LatencyHistogram* stat_queue_delay_ = nullptr;

  uint64_t next_id_ = 1;
  uint32_t scan_from_ = 0;
  // Every queued and in-service request stays indexed here until
  // Complete(), so it constrains later requests while it runs.
  OrderingGate gate_;
  std::list<std::unique_ptr<Request>> queue_;  // Issue order (undispatched).
  // Queueing mode only: requests accepted into the device queue, in
  // acceptance (= issue) order. The in-service request stays here until
  // completion; at depth 1 this list is always empty.
  std::list<std::unique_ptr<Request>> accepted_;
  std::unique_ptr<DeviceQueue> device_queue_;  // Null at depth 1.
  Request* in_service_ = nullptr;
  uint32_t spares_used_ = 0;
  CondVar work_available_;
  CondVar queue_empty_;
  bool stopping_ = false;
  ProcessRef service_proc_;

  uint64_t total_requests_ = 0;
  uint64_t merged_requests_ = 0;
};

}  // namespace mufs

#endif  // MUFS_SRC_DRIVER_DISK_DRIVER_H_
