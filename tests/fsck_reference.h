// The reference that in-place sharded recovery must match: extract each
// shard region into a standalone image, check or repair the copy, and
// (for repair) write the changed blocks back in shard order. Shared by
// the pfsck tests and bench_fsck's per-cell re-check; no gtest here.
#ifndef MUFS_TESTS_FSCK_REFERENCE_H_
#define MUFS_TESTS_FSCK_REFERENCE_H_

#include <cstring>
#include <string>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/fsck/fsck.h"
#include "src/fsck/pfsck.h"

namespace mufs {

inline FsckOptions ReferenceShardOptions(const FsckOptions& options, const ShardLayout& layout,
                                         uint32_t s) {
  FsckOptions opts = options;
  opts.tag_ino_base = s * layout.ino_stride;
  return opts;
}

// The per-shard reports of the extracted regions, merged in shard order.
inline FsckReport ReferenceCheckSharded(const DiskImage& volume, const ShardLayout& layout,
                                        const FsckOptions& options) {
  FsckReport total;
  for (uint32_t s = 0; s < layout.num_shards; ++s) {
    DiskImage region = volume.ExtractRegion(s * layout.shard_blocks, layout.shard_blocks);
    FsckReport r = FsckChecker(&region, ReferenceShardOptions(options, layout, s)).Check();
    total.violations.insert(total.violations.end(), r.violations.begin(), r.violations.end());
    total.fixables.insert(total.fixables.end(), r.fixables.begin(), r.fixables.end());
    total.inodes_in_use += r.inodes_in_use;
    total.dirs_seen += r.dirs_seen;
    total.files_seen += r.files_seen;
    total.blocks_claimed += r.blocks_claimed;
  }
  return total;
}

// Repairs every extracted region, then writes each region's changed
// blocks back into the volume in shard order. Returns per-shard reports.
inline std::vector<FsckRepairReport> ReferenceRepairSharded(DiskImage* volume,
                                                            const ShardLayout& layout,
                                                            const FsckOptions& options) {
  std::vector<DiskImage> regions;
  std::vector<FsckRepairReport> reports;
  for (uint32_t s = 0; s < layout.num_shards; ++s) {
    regions.push_back(volume->ExtractRegion(s * layout.shard_blocks, layout.shard_blocks));
    reports.push_back(
        FsckRepairer(&regions.back(), ReferenceShardOptions(options, layout, s)).Repair());
  }
  for (uint32_t s = 0; s < layout.num_shards; ++s) {
    const uint32_t base = s * layout.shard_blocks;
    for (uint32_t blkno : regions[s].WrittenBlocks()) {
      const BlockData& repaired = regions[s].View(blkno);
      if (memcmp(repaired.data(), volume->View(base + blkno).data(), kBlockSize) != 0) {
        volume->Write(base + blkno, repaired, volume->LastWriteTime());
      }
    }
  }
  return reports;
}

// Field-by-field, in-order equality of two reports; empty when equal,
// else a description of the first difference.
inline std::string ReportDifference(const FsckReport& want, const FsckReport& got) {
  auto field = [](const char* name, uint64_t a, uint64_t b) {
    return std::string(name) + " " + std::to_string(a) + " vs " + std::to_string(b);
  };
  if (want.inodes_in_use != got.inodes_in_use) {
    return field("inodes_in_use", want.inodes_in_use, got.inodes_in_use);
  }
  if (want.dirs_seen != got.dirs_seen) {
    return field("dirs_seen", want.dirs_seen, got.dirs_seen);
  }
  if (want.files_seen != got.files_seen) {
    return field("files_seen", want.files_seen, got.files_seen);
  }
  if (want.blocks_claimed != got.blocks_claimed) {
    return field("blocks_claimed", want.blocks_claimed, got.blocks_claimed);
  }
  if (want.violations.size() != got.violations.size()) {
    return field("violations", want.violations.size(), got.violations.size());
  }
  for (size_t i = 0; i < want.violations.size(); ++i) {
    if (want.violations[i].type != got.violations[i].type ||
        want.violations[i].detail != got.violations[i].detail) {
      return "violation " + std::to_string(i) + ": '" + want.violations[i].detail +
             "' vs '" + got.violations[i].detail + "'";
    }
  }
  if (want.fixables.size() != got.fixables.size()) {
    return field("fixables", want.fixables.size(), got.fixables.size());
  }
  for (size_t i = 0; i < want.fixables.size(); ++i) {
    if (want.fixables[i].detail != got.fixables[i].detail) {
      return "fixable " + std::to_string(i) + ": '" + want.fixables[i].detail + "' vs '" +
             got.fixables[i].detail + "'";
    }
  }
  return "";
}

}  // namespace mufs

#endif  // MUFS_TESTS_FSCK_REFERENCE_H_
