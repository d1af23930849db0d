// Mechanical timing model of the simulated disk.
//
// The model is a pure service-time calculator plus a little mutable state
// (head position, platter phase reference, prefetch cache window). The
// driver owns the request queue and concurrency; it asks the model how
// long an access takes, sleeps that long, then commits data to the image.
//
// Modelled effects, each of which the paper's results depend on:
//   - seek time as a function of cylinder distance (scheduler reordering
//     pays off because shorter seeks are cheaper);
//   - rotational latency from continuous platter rotation (a deterministic
//     function of absolute time, so runs are reproducible);
//   - media-rate transfer;
//   - on-board sequential read prefetch (the paper's "disk prefetches
//     sequentially into its on-board cache"): sequential reads hit the
//     cache and cost only bus transfer time.
// Command queueing at the disk is modelled one layer up, in the driver
// (its dispatch loop and the OrderingGate over the device window); this
// model contributes the const PositioningCost() estimate that the
// device's RPO pick ranks eligible commands by. The paper's substrate
// (queueing disabled) is the queue-depth-1 configuration.
#ifndef MUFS_SRC_DISK_DISK_MODEL_H_
#define MUFS_SRC_DISK_DISK_MODEL_H_

#include <cstdint>

#include "src/disk/geometry.h"
#include "src/sim/time.h"
#include "src/stats/stats_registry.h"

namespace mufs {

class DiskModel {
 public:
  explicit DiskModel(const DiskGeometry& geometry) : geom_(geometry) {}

  const DiskGeometry& geometry() const { return geom_; }

  // Registers the model's mechanical-time breakdown (seek/rotation/
  // transfer accumulators, prefetch hits) with `stats`. Optional: an
  // unattached model simply keeps no metrics. `instance` prefixes the
  // metric names for multi-disk machines ("" keeps the singleton names).
  void AttachStats(StatsRegistry* stats, std::string_view instance = "");

  // Computes the service time for an access beginning at `start`, updates
  // head position and cache state. `count` blocks starting at `blkno`.
  SimDuration Access(bool is_write, uint32_t blkno, uint32_t count, SimTime start);

  // Estimated positioning cost (command overhead + seek + rotational
  // latency; bus-only for prefetch-cache read hits) for an access
  // starting at `start`, WITHOUT mutating head or cache state. This is
  // the quantity a queueing drive's RPO scheduler minimizes when it picks
  // the next queued command.
  SimDuration PositioningCost(bool is_write, uint32_t blkno, uint32_t count,
                              SimTime start) const;

  // Pure helpers, exposed for tests.
  SimDuration SeekTime(uint32_t from_cyl, uint32_t to_cyl) const;
  uint32_t CylinderOf(uint32_t blkno) const { return blkno / geom_.blocks_per_cylinder(); }
  uint32_t CurrentCylinder() const { return head_cylinder_; }

  // True if a read of [blkno, blkno+count) would be wholly served from the
  // prefetch cache.
  bool CacheHit(uint32_t blkno, uint32_t count) const {
    return blkno >= cache_lo_ && blkno + count <= cache_hi_;
  }

 private:
  // Rotational delay until the platter phase reaches block `blkno`'s
  // angular start position, from absolute time `t`.
  SimDuration RotationalDelay(uint32_t blkno, SimTime t) const;

  DiskGeometry geom_;
  // Metric handles; all null until AttachStats.
  Counter* stat_prefetch_hits_ = nullptr;
  Counter* stat_seek_ns_ = nullptr;
  Counter* stat_rotation_ns_ = nullptr;
  Counter* stat_transfer_ns_ = nullptr;
  Counter* stat_cylinders_moved_ = nullptr;
  uint32_t head_cylinder_ = 0;
  // Prefetch cache window [cache_lo_, cache_hi_). Loaded by reads; any
  // write invalidates it (write-through, no write cache, as on drives of
  // that era with caching disabled for safety).
  uint32_t cache_lo_ = 0;
  uint32_t cache_hi_ = 0;
};

}  // namespace mufs

#endif  // MUFS_SRC_DISK_DISK_MODEL_H_
