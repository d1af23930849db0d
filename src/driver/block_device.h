// Abstract async block device: the request-issuing surface that the
// buffer cache, the journal and the ordering policies program against.
//
// Two implementations exist: DiskDriver (one spindle, the paper's
// machine) and StripedVolume / ShardDevice (src/volume/): N spindles
// behind block-address striping. Everything above the driver layer holds
// a BlockDevice*, so the single-disk and multi-disk machines share the
// whole cache / journal / policy stack unchanged.
#ifndef MUFS_SRC_DRIVER_BLOCK_DEVICE_H_
#define MUFS_SRC_DRIVER_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/driver/request.h"
#include "src/sim/task.h"

namespace mufs {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Issues an asynchronous write of `data.size()` consecutive blocks
  // starting at `blkno`. Returns the request id. `isr` (optional) runs at
  // completion, interrupt-level: it must not block, and it receives the
  // request's terminal IoStatus (completion does not imply success).
  virtual uint64_t IssueWrite(uint32_t blkno,
                              std::vector<std::shared_ptr<const BlockData>> data,
                              OrderingTag tag = {}, IoCallback isr = nullptr) = 0;

  // Issues an asynchronous single-block read into `out` (caller keeps the
  // destination alive and unread until completion). On failure `out` is
  // left untouched.
  virtual uint64_t IssueRead(uint32_t blkno, BlockData* out, IoCallback isr = nullptr) = 0;

  // Suspends until request `id` completes (returns immediately if done)
  // and yields its terminal status.
  virtual Task<IoStatus> WaitFor(uint64_t id) = 0;

  virtual bool IsComplete(uint64_t id) const = 0;
  // Terminal status of a completed request (kOk if `id` is unknown).
  virtual IoStatus CompletionStatus(uint64_t id) const = 0;

  // Requests issued to this device and not yet completed.
  virtual size_t PendingCount() const = 0;
  virtual Task<void> Drain() = 0;  // Waits until PendingCount() == 0.
};

}  // namespace mufs

#endif  // MUFS_SRC_DRIVER_BLOCK_DEVICE_H_
