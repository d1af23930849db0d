// Crash recovery entry points: check and repair a whole single-disk image
// or every shard of a sharded volume image.
//
// Each shard of a sharded machine is a complete file system in its own
// region of the volume, so the sharded check and repair are plain loops
// over the shards: FsckChecker / FsckRepairer audit each region in place
// through zero-copy block views (ImageRegion), with no region copy and no
// merge-back. The reports are identical to checking each region on an
// extracted copy, and the repaired bytes are identical to repairing the
// copies and writing them back; the pfsck tests hold the in-place path to
// that reference.
//
// Everything here is serial. The images hold a few hundred inodes per
// shard; measured on 4 cores with zero-copy reads, no threaded variant
// was faster than one thread in place, because threads paid for region
// copies, merges and start-up rather than for the audit (EXPERIMENTS.md,
// "Crash recovery"). FsckOptions::threads is accepted and ignored.
#ifndef MUFS_SRC_FSCK_PFSCK_H_
#define MUFS_SRC_FSCK_PFSCK_H_

#include <cstdint>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/fsck/fsck.h"

namespace mufs {

// FsckChecker(image, options).Check(stats).
FsckReport PfsckCheck(const DiskImage* image, const FsckOptions& options,
                      PfsckStats* stats = nullptr);

// FsckRepairer(image, options).Repair(stats).
FsckRepairReport PfsckRepair(DiskImage* image, const FsckOptions& options,
                             PfsckStats* stats = nullptr);

// Geometry of a sharded volume image: num_shards complete filesystems,
// shard s occupying blocks [s * shard_blocks, (s+1) * shard_blocks) and
// tagging data with global inode numbers s * ino_stride + local.
struct ShardLayout {
  uint32_t num_shards = 1;
  uint32_t shard_blocks = 0;
  uint32_t ino_stride = 0;
};

// Checks every shard region in place, in shard order (tag_ino_base =
// s * ino_stride), and concatenates the per-shard reports in that order.
FsckReport PfsckCheckSharded(const DiskImage& volume, const ShardLayout& layout,
                             const FsckOptions& options, PfsckStats* stats = nullptr);

// Repairs every shard region in place, in shard order. Returns the
// per-shard reports; `merged` (if non-null) gets summed counts, max
// passes and AND-ed clean_after.
std::vector<FsckRepairReport> PfsckRepairSharded(DiskImage* volume,
                                                 const ShardLayout& layout,
                                                 const FsckOptions& options,
                                                 FsckRepairReport* merged = nullptr,
                                                 PfsckStats* stats = nullptr);

}  // namespace mufs

#endif  // MUFS_SRC_FSCK_PFSCK_H_
