// File-system integrity checker over a raw disk image.
//
// Plays the role of fsck in the paper: after a (simulated) crash, the
// on-disk state must contain no *integrity* violations for every scheme
// except No Order / Ignore. Recoverable inconsistencies - leaked blocks,
// over-counted links, stale bitmaps, orphaned inodes - are reported as
// fixable findings, not violations, exactly as fsck would repair them.
//
// Violations (unrecoverable without data loss / security exposure):
//   - directory entry naming a free or out-of-range inode (rule 3);
//   - link count lower than the number of on-disk references (rule 2:
//     removing one name would free a still-referenced inode);
//   - a block claimed by two files (rule 2);
//   - invalid block pointer (outside the data area);
//   - garbage directory block (rule 3: pointed to before initialized);
//   - stale data visible through a new pointer (the allocation-
//     initialization security check; needs cooperating workloads that
//     tag their data blocks via TagDataBlock).
//
// Both the checker and the repairer run serially over zero-copy block
// views, in place on a region of the image: a sharded volume is audited
// shard by shard with no copy (ImageRegion; src/fsck/pfsck.h loops over
// the shards). The repairer copies only the blocks it rewrites.
#ifndef MUFS_SRC_FSCK_FSCK_H_
#define MUFS_SRC_FSCK_FSCK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/fs/format.h"

namespace mufs {

enum class FsckViolationType {
  kBadSuperblock,
  kDanglingDirEntry,     // Entry -> free/out-of-range inode.
  kLinkCountTooLow,      // More on-disk references than nlink.
  kDuplicateBlockClaim,  // Block owned by two files.
  kBadBlockPointer,      // Pointer outside the data area.
  kGarbageDirectory,     // Unparseable directory block.
  kStaleDataExposed,     // Alloc-init security violation.
};

std::string_view ToString(FsckViolationType t);

struct FsckViolation {
  FsckViolationType type;
  std::string detail;
};

struct FsckFixable {
  std::string detail;  // Orphaned inode, leaked block, bitmap mismatch...
};

struct FsckReport {
  std::vector<FsckViolation> violations;
  std::vector<FsckFixable> fixables;
  uint32_t inodes_in_use = 0;
  uint32_t dirs_seen = 0;
  uint32_t files_seen = 0;
  uint64_t blocks_claimed = 0;

  bool Clean() const { return violations.empty(); }
};

// Cooperating workloads stamp each data block so the checker can detect
// stale-data exposure: 16-byte header {kDataTagMagic, ino, generation,
// lbn}.
struct DataBlockTag {
  uint64_t magic = 0;
  uint32_t ino = 0;
  uint32_t generation = 0;
};
constexpr uint64_t kDataTagMagic = 0x5441474d55465321ull;  // "TAGMUFS!"

// Writes the tag into the first bytes of a caller-provided data buffer.
void TagDataBlock(uint8_t* block_start, uint32_t ino, uint32_t generation);

struct FsckOptions {
  // Verify data-block tags (requires TagDataBlock-cooperating workloads
  // and allocation-initialization guarantees).
  bool check_stale_data = false;
  // Added to local inode numbers before comparing against data-block
  // tags. Sharded machines tag data with GLOBAL inode numbers
  // (shard * stride + local); checking one shard region means
  // tag.ino == tag_ino_base + local ino. 0 for unsharded images.
  uint32_t tag_ino_base = 0;
  // Ignored: checking and repair are serial. Kept only because the
  // repository benchmark still sets it.
  uint32_t threads = 0;
};

// Host wall-clock time per checker pass, accumulated over every Check()
// it is passed to (repair re-checks included). Outside the sim clock:
// never part of a stats dump.
struct PfsckStats {
  uint64_t inode_scan_ns = 0;  // Pass 1: inode scan and block claims.
  uint64_t dir_walk_ns = 0;    // Pass 2: directory walk.
  uint64_t merge_ns = 0;       // Always 0: nothing is merged.
  uint64_t audit_ns = 0;       // Passes 3-4: link-count and bitmap audit.
};

// Blocks [base, base + count) of a DiskImage, addressed as a standalone
// image whose block 0 is `base` - how a sharded volume's shard, a
// complete file system in its own region, is audited in place. Reads
// are zero-copy views. A block number at or past `count` reads as
// zeroes, as it would on an extracted copy: never as the next region's
// block. count 0 = to the end of the image.
class ImageRegion {
 public:
  ImageRegion(const DiskImage* image, uint32_t base, uint32_t count)
      : image_(image), base_(base), count_(count != 0 ? count : image->TotalBlocks() - base) {}

  uint32_t base() const { return base_; }
  uint32_t count() const { return count_; }
  const BlockData& View(uint32_t blkno) const {
    return blkno < count_ ? image_->View(base_ + blkno) : kZeroBlock;
  }
  bool EverWritten(uint32_t blkno) const {
    return blkno < count_ && image_->EverWritten(base_ + blkno);
  }
  DiskInode ReadInode(const SuperBlock& sb, uint32_t ino) const;

 private:
  const DiskImage* image_;
  uint32_t base_;
  uint32_t count_;
};

class FsckChecker {
 public:
  // Audits the region [base, base + count) of `image` in place (see
  // ImageRegion); the defaults audit the whole image.
  explicit FsckChecker(const DiskImage* image, FsckOptions options = {}, uint32_t base = 0,
                       uint32_t count = 0)
      : region_(image, base, count), options_(options) {}

  // `stats`, when set, accumulates the host time of each pass.
  FsckReport Check(PfsckStats* stats = nullptr);

 private:
  void CheckInode(uint32_t ino, const DiskInode& di, FsckReport* report);
  void WalkDirectories(FsckReport* report);
  void CheckDirBlock(uint32_t dir_ino, uint32_t blkno, FsckReport* report,
                     std::vector<uint32_t>* children);
  // Collects all block pointers of an inode (direct + indirect trees),
  // recording violations for bad pointers and duplicate claims.
  std::vector<uint32_t> CollectBlocks(uint32_t ino, const DiskInode& di, FsckReport* report);
  bool ClaimBlock(uint32_t ino, uint32_t blkno, FsckReport* report);
  DiskInode ReadInode(uint32_t ino) const { return region_.ReadInode(sb_, ino); }

  ImageRegion region_;
  FsckOptions options_;
  SuperBlock sb_;
  std::unordered_map<uint32_t, uint32_t> block_owner_;  // blkno -> ino.
  std::unordered_map<uint32_t, uint32_t> ref_counts_;   // ino -> #entries.
  std::unordered_map<uint32_t, uint32_t> child_dir_counts_;  // dir ino -> #subdirs.
};

// What a repair run did to the image. Counts are cumulative over all
// repair passes (clearing a dangling entry can orphan an inode, which a
// later pass then clears).
struct FsckRepairReport {
  int passes = 0;
  uint32_t dir_entries_cleared = 0;   // Garbage / dangling entries zeroed.
  uint32_t link_counts_fixed = 0;     // nlink rewritten to reference count.
  uint32_t inodes_cleared = 0;        // Orphaned inodes freed.
  uint32_t pointers_cleared = 0;      // Bad / duplicate block pointers zeroed.
  uint32_t data_blocks_scrubbed = 0;  // Stale-data exposures zeroed.
  uint32_t bitmap_bits_fixed = 0;     // Bitmap bits rewritten.
  bool clean_after = false;           // Post-repair Check() has no findings.

  uint32_t TotalFixes() const {
    return dir_entries_cleared + link_counts_fixed + inodes_cleared + pointers_cleared +
           data_blocks_scrubbed + bitmap_bits_fixed;
  }
};

// Repairs cascade (cleared entry -> orphan -> orphaned children); each
// pass handles one level, so the cap bounds the orphan-tree depth.
inline constexpr int kMaxFsckRepairPasses = 16;

// Repairs a crashed image the way fsck would: drop directory entries that
// cannot be trusted (garbage / dangling), zero invalid and duplicate
// block pointers, free unreferenced inodes, rewrite link counts to the
// observed reference counts, scrub stale-data exposures (when checking
// them), and rebuild both bitmaps from the surviving metadata. Repairs
// iterate until a re-check is clean (one fix can expose the next: a
// cleared entry orphans an inode, whose children then orphan in turn).
class FsckRepairer {
 public:
  // Repairs the region [base, base + count) of `image` in place, as
  // FsckChecker audits it; the defaults repair the whole image.
  explicit FsckRepairer(DiskImage* image, FsckOptions options = {}, uint32_t base = 0,
                        uint32_t count = 0)
      : image_(image), region_(image, base, count), options_(options) {}

  // `stats`, when set, accumulates the pass times of the convergence
  // re-checks.
  FsckRepairReport Repair(PfsckStats* stats = nullptr);

 private:
  bool LoadSuper();
  void RepairPass(FsckRepairReport* report);
  // Zeroes out-of-range and duplicate block pointers; scrubs foreign data
  // (when options_.check_stale_data). Fills block_owner_. Duplicate-block
  // resolution is DETERMINISTIC: the table is scanned in ascending inode
  // order and within an inode in pointer order, so the winner of a
  // duplicate claim is always the lowest (ino, pointer-position)
  // claimant - never an artifact of map iteration order; fsck_test pins
  // it.
  void ScrubInodePointers(FsckRepairReport* report);
  // Walks the tree from the root, zeroing garbage / dangling entries.
  // Fills ref_counts_ and child_dir_counts_.
  void ScrubDirectories(FsckRepairReport* report);
  // Frees unreferenced inodes, rewrites mismatched link counts.
  void FixLinkCountsAndOrphans(FsckRepairReport* report);
  // Rebuilds both bitmaps from the surviving inode table.
  void RebuildBitmaps(FsckRepairReport* report);
  DiskInode ReadInode(uint32_t ino) const { return region_.ReadInode(sb_, ino); }
  void WriteInode(uint32_t ino, const DiskInode& di);
  void WriteBlock(uint32_t blkno, const BlockData& data);

  DiskImage* image_;
  ImageRegion region_;
  FsckOptions options_;
  SuperBlock sb_;
  std::unordered_map<uint32_t, uint32_t> block_owner_;       // blkno -> ino.
  std::unordered_map<uint32_t, uint32_t> ref_counts_;        // ino -> #entries.
  std::unordered_map<uint32_t, uint32_t> child_dir_counts_;  // dir ino -> #subdirs.
};

}  // namespace mufs

#endif  // MUFS_SRC_FSCK_FSCK_H_
