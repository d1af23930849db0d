#include "src/fsck/pfsck.h"

#include <algorithm>

namespace mufs {

namespace {

// Shard data blocks are tagged with GLOBAL inode numbers.
FsckOptions ShardOptions(const FsckOptions& base, const ShardLayout& layout, uint32_t s) {
  FsckOptions opts = base;
  opts.tag_ino_base = s * layout.ino_stride;
  return opts;
}

uint32_t NumShards(const ShardLayout& layout) { return std::max(layout.num_shards, 1u); }

}  // namespace

FsckReport PfsckCheck(const DiskImage* image, const FsckOptions& options,
                      PfsckStats* stats) {
  return FsckChecker(image, options).Check(stats);
}

FsckRepairReport PfsckRepair(DiskImage* image, const FsckOptions& options,
                             PfsckStats* stats) {
  return FsckRepairer(image, options).Repair(stats);
}

FsckReport PfsckCheckSharded(const DiskImage& volume, const ShardLayout& layout,
                             const FsckOptions& options, PfsckStats* stats) {
  FsckReport total;
  for (uint32_t s = 0; s < NumShards(layout); ++s) {
    FsckReport shard = FsckChecker(&volume, ShardOptions(options, layout, s),
                                   s * layout.shard_blocks, layout.shard_blocks)
                           .Check(stats);
    total.violations.insert(total.violations.end(), shard.violations.begin(),
                            shard.violations.end());
    total.fixables.insert(total.fixables.end(), shard.fixables.begin(),
                          shard.fixables.end());
    total.inodes_in_use += shard.inodes_in_use;
    total.dirs_seen += shard.dirs_seen;
    total.files_seen += shard.files_seen;
    total.blocks_claimed += shard.blocks_claimed;
  }
  return total;
}

std::vector<FsckRepairReport> PfsckRepairSharded(DiskImage* volume,
                                                 const ShardLayout& layout,
                                                 const FsckOptions& options,
                                                 FsckRepairReport* merged,
                                                 PfsckStats* stats) {
  std::vector<FsckRepairReport> reports;
  for (uint32_t s = 0; s < NumShards(layout); ++s) {
    reports.push_back(FsckRepairer(volume, ShardOptions(options, layout, s),
                                   s * layout.shard_blocks, layout.shard_blocks)
                          .Repair(stats));
  }
  if (merged != nullptr) {
    *merged = {};
    merged->clean_after = true;
    for (const FsckRepairReport& r : reports) {
      merged->passes = std::max(merged->passes, r.passes);
      merged->dir_entries_cleared += r.dir_entries_cleared;
      merged->link_counts_fixed += r.link_counts_fixed;
      merged->inodes_cleared += r.inodes_cleared;
      merged->pointers_cleared += r.pointers_cleared;
      merged->data_blocks_scrubbed += r.data_blocks_scrubbed;
      merged->bitmap_bits_fixed += r.bitmap_bits_fixed;
      merged->clean_after = merged->clean_after && r.clean_after;
    }
  }
  return reports;
}

}  // namespace mufs
