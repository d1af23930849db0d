// Device driver: request queue, scheduling and ordering enforcement.
//
// This is the "disk scheduler" of the paper's section 3. The file system
// (or buffer cache) issues asynchronous requests; the driver decides
// which pending request to service next, subject to:
//
//   - C-LOOK positional scheduling over block number among the requests
//     in the gate's ready set (one request outstanding at the disk; the
//     paper disables command queueing);
//   - sequential request concatenation at enqueue (section 2);
//   - the configured ordering discipline (None, Flag with Full/Back/Part
//     and -NR, or Chains), decided by the driver's OrderingGate.
//
// Command queueing (queue_depth > 1): the driver dispatches requests to
// the device IN ISSUE ORDER until the device window is full, and the
// device picks what to execute next by rotational position. Ordering
// moves into command tags: the Flag and Chains schemes' ordering
// boundaries become ORDERED tags; everything else is a SIMPLE tag the
// device may reorder. The driver's OrderingGate then gates only the
// window, with Full flag semantics over acceptance order: an ORDERED tag
// is the paper's Full flag (a barrier in both directions), and
// overlapping writes keep their order under every tag. Completions
// therefore leave the device out of submission order. Depth 1 (the
// default) runs the exact non-queueing code path above, byte-identical
// in stats and timing to the pre-queueing driver.
#ifndef MUFS_SRC_DRIVER_DISK_DRIVER_H_
#define MUFS_SRC_DRIVER_DISK_DRIVER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

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
  // The driver counts into `stats` (the Machine's registry) under the
  // disk.* and driver.* names, instance-prefixed on multi-disk machines.
  DiskDriver(Engine* engine, DiskModel* model, DiskImage* image, StatsRegistry* stats,
             DriverConfig config);
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
  size_t DeviceQueueSize() const { return accepted_.size(); }
  Task<void> Drain() override;  // Waits until the queue is empty.

  // Issued requests, merged ones included: disk.reads + disk.writes.
  uint64_t TotalRequests() const { return stat_reads_->value() + stat_writes_->value(); }

  const DriverConfig& config() const { return config_; }
  StatsRegistry* stats() const { return stats_; }

 private:
  // A device request. Its issue_index is the newest of its merged issues;
  // at depth > 1 its flag becomes the ORDERED tag at dispatch.
  struct Request : GatedRequest {
    std::vector<uint64_t> ids;  // All ids merged into this device request.
    // Silent damage decided for this (write) request: the device reports
    // success but the media transfer is torn or misdirected. Set by
    // ServiceOne, consumed by Complete. kNone = honest transfer.
    uint8_t silent_damage = 0;  // FaultKind, as uint8_t to avoid the include.
    SimTime issue_time;
    std::vector<std::shared_ptr<const BlockData>> data;  // Writes.
    BlockData* read_out = nullptr;                       // Reads.
    std::vector<IoCallback> isrs;
    // Where the request sits in queue_, or in accepted_ after the splice
    // that dispatches it.
    std::list<std::unique_ptr<Request>>::iterator pos;
  };

  uint64_t Enqueue(std::unique_ptr<Request> req, IoCallback isr);
  bool TryMerge(Request* incoming);
  void Kick();
  // One loop for both queue depths; only the pick differs.
  Task<void> ServiceLoop();
  // Depth 1: C-LOOK over the gate's ready set.
  Request* PickNext();
  // queue_depth > 1: dispatch-until-full, then the device's RPO pick.
  Request* PickFromDevice();
  // Moves requests from the driver queue into the device queue, in issue
  // order, until the device queue is full or the driver queue is empty.
  void DispatchToDevice();
  // True if `r` gets an ORDERED command tag under the configured
  // ordering mode (false: a SIMPLE tag).
  bool DeviceTagFor(const Request& r) const;
  bool Queueing() const { return config_.queue_depth > 1; }
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

  StatsRegistry* stats_;
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
  // Indexes each pick candidate until Complete(): every queued request at
  // depth 1 (the scheme's rules), each accepted command at depth > 1 (the
  // device window's). Both pickers read its ready set. Also the
  // completion table behind WaitFor.
  OrderingGate gate_;
  std::list<std::unique_ptr<Request>> queue_;  // Issue order (undispatched).
  // Queueing mode only: requests accepted into the device queue, in
  // acceptance (= issue) order. The in-service request stays here until
  // completion; at depth 1 this list is always empty.
  std::list<std::unique_ptr<Request>> accepted_;
  Request* in_service_ = nullptr;
  uint32_t spares_used_ = 0;
  CondVar work_available_;
  CondVar queue_empty_;
  bool stopping_ = false;
};

}  // namespace mufs

#endif  // MUFS_SRC_DRIVER_DISK_DRIVER_H_
