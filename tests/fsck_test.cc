// Unit tests for the fsck checker: start from a freshly formatted image
// and inject specific corruptions directly into the raw blocks.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/fsck/fsck.h"

namespace mufs {
namespace {

constexpr uint32_t kBlocks = 4096;

struct Img {
  Img() : image(kBlocks) { FileSystem::Mkfs(&image, 1024); }

  SuperBlock sb() const {
    BlockData b;
    image.Read(0, &b);
    SuperBlock s;
    memcpy(&s, b.data(), sizeof(s));
    return s;
  }

  DiskInode ReadInode(uint32_t ino) const {
    SuperBlock s = sb();
    BlockData b;
    image.Read(s.ItableBlock(ino), &b);
    DiskInode d;
    memcpy(&d, b.data() + s.ItableOffset(ino), sizeof(d));
    return d;
  }

  void WriteInode(uint32_t ino, const DiskInode& d) {
    SuperBlock s = sb();
    BlockData b;
    image.Read(s.ItableBlock(ino), &b);
    memcpy(b.data() + s.ItableOffset(ino), &d, sizeof(d));
    image.Write(s.ItableBlock(ino), b, 0);
  }

  // Adds `name`->ino into directory `dir_ino` (allocating the dir's
  // first block at `dir_blk` if needed).
  void AddDirEntry(uint32_t dir_ino, const std::string& name, uint32_t ino,
                   uint32_t dir_blk) {
    DiskInode dir = ReadInode(dir_ino);
    if (dir.direct[0] == 0) {
      dir.direct[0] = dir_blk;
      dir.size = kBlockSize;
      WriteInode(dir_ino, dir);
      BlockData z;
      z.fill(0);
      image.Write(dir_blk, z, 0);
    }
    BlockData b;
    image.Read(dir.direct[0], &b);
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry de;
      memcpy(&de, b.data() + e * kDirEntrySize, sizeof(de));
      if (de.ino == 0) {
        de.ino = ino;
        de.SetName(name);
        de.reserved = 0;
        memcpy(b.data() + e * kDirEntrySize, &de, sizeof(de));
        image.Write(dir.direct[0], b, 0);
        return;
      }
    }
    FAIL() << "no free slot";
  }

  void AddRootEntry(const std::string& name, uint32_t ino, uint32_t dir_blk) {
    AddDirEntry(kRootIno, name, ino, dir_blk);
  }

  // Zeroes the entry for `ino` in directory `dir_ino`'s first block
  // (direct corruption: a crash that lost the entry write).
  void DropDirEntry(uint32_t dir_ino, uint32_t ino) {
    DiskInode dir = ReadInode(dir_ino);
    BlockData b;
    image.Read(dir.direct[0], &b);
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      DirEntry de;
      memcpy(&de, b.data() + e * kDirEntrySize, sizeof(de));
      if (de.ino == ino) {
        memset(b.data() + e * kDirEntrySize, 0, kDirEntrySize);
        image.Write(dir.direct[0], b, 0);
        return;
      }
    }
    FAIL() << "entry not found";
  }

  // Creates a plausible directory inode (entries added via AddDirEntry).
  uint32_t MakeDir(uint32_t ino, uint16_t nlink) {
    DiskInode d;
    d.mode = static_cast<uint16_t>(FileType::kDirectory);
    d.nlink = nlink;
    d.generation = 1;
    WriteInode(ino, d);
    return ino;
  }

  // Creates a plausible regular file inode.
  uint32_t MakeFile(uint32_t ino, uint16_t nlink, std::initializer_list<uint32_t> blocks) {
    DiskInode d;
    d.mode = static_cast<uint16_t>(FileType::kRegular);
    d.nlink = nlink;
    d.generation = 1;
    uint32_t i = 0;
    for (uint32_t blk : blocks) {
      d.direct[i++] = blk;
    }
    d.size = static_cast<uint64_t>(i) * kBlockSize;
    WriteInode(ino, d);
    return ino;
  }

  DiskImage image;
};

TEST(FsckTest, FreshImageIsClean) {
  Img img;
  FsckReport r = FsckChecker(&img.image).Check();
  EXPECT_TRUE(r.Clean());
  EXPECT_EQ(r.inodes_in_use, 1u);  // Root.
  EXPECT_EQ(r.dirs_seen, 1u);
}

TEST(FsckTest, BadSuperblockDetected) {
  Img img;
  BlockData b;
  b.fill(0xab);
  img.image.Write(0, b, 0);
  FsckReport r = FsckChecker(&img.image).Check();
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].type, FsckViolationType::kBadSuperblock);
}

TEST(FsckTest, HealthyFileIsClean) {
  Img img;
  SuperBlock sb = img.sb();
  img.MakeFile(5, 1, {sb.data_start + 10});
  img.AddRootEntry("file", 5, sb.data_start + 1);
  FsckReport r = FsckChecker(&img.image).Check();
  for (const auto& v : r.violations) {
    ADD_FAILURE() << ToString(v.type) << ": " << v.detail;
  }
  EXPECT_EQ(r.files_seen, 1u);
}

TEST(FsckTest, DanglingEntryDetected) {
  Img img;
  SuperBlock sb = img.sb();
  img.AddRootEntry("ghost", 7, sb.data_start + 1);  // Ino 7 is free.
  FsckReport r = FsckChecker(&img.image).Check();
  ASSERT_FALSE(r.Clean());
  EXPECT_EQ(r.violations[0].type, FsckViolationType::kDanglingDirEntry);
}

TEST(FsckTest, DuplicateBlockClaimDetected) {
  Img img;
  SuperBlock sb = img.sb();
  uint32_t shared = sb.data_start + 20;
  img.MakeFile(5, 1, {shared});
  img.MakeFile(6, 1, {shared});
  img.AddRootEntry("a", 5, sb.data_start + 1);
  img.AddRootEntry("b", 6, sb.data_start + 1);
  FsckReport r = FsckChecker(&img.image).Check();
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.type == FsckViolationType::kDuplicateBlockClaim;
  }
  EXPECT_TRUE(found);
}

TEST(FsckTest, DuplicateClaimNamesLowerInoFirst) {
  // Inodes are scanned in ascending order, so the lower ino holds the
  // claim and the report names it first.
  Img img;
  SuperBlock sb = img.sb();
  uint32_t shared = sb.data_start + 50;
  img.MakeFile(5, 1, {shared});
  img.MakeFile(900, 1, {shared, sb.data_start + 51});
  FsckReport r = FsckChecker(&img.image).Check();
  std::vector<std::string> duplicates;
  for (const auto& v : r.violations) {
    if (v.type == FsckViolationType::kDuplicateBlockClaim) {
      duplicates.push_back(v.detail);
    }
  }
  EXPECT_EQ(duplicates, std::vector<std::string>{"block " + std::to_string(shared) +
                                                 " claimed by ino 5 and ino 900"});
  EXPECT_EQ(r.blocks_claimed, 2u);  // `shared` once, plus ino 900's second block.
}

TEST(FsckTest, IndirectBlockLostToLowerInoIsNeverWalked) {
  // ino 5 claims `iblk` as plain data first; ino 800 uses it as its
  // indirect block. ino 800 loses the claim, so the leaves the block
  // points to are never claimed.
  Img img;
  SuperBlock sb = img.sb();
  uint32_t iblk = sb.data_start + 100;
  img.MakeFile(5, 1, {iblk});
  DiskInode hi;
  hi.mode = static_cast<uint16_t>(FileType::kRegular);
  hi.nlink = 1;
  hi.generation = 1;
  hi.indirect = iblk;
  hi.size = kBlockSize;
  img.WriteInode(800, hi);
  BlockData leaves;
  leaves.fill(0);
  uint32_t* ptrs = reinterpret_cast<uint32_t*>(leaves.data());
  ptrs[0] = sb.data_start + 101;
  ptrs[1] = sb.data_start + 102;
  img.image.Write(iblk, leaves, 0);

  FsckReport r = FsckChecker(&img.image).Check();
  EXPECT_EQ(r.blocks_claimed, 1u);  // Only `iblk`, by ino 5.
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].detail,
            "block " + std::to_string(iblk) + " claimed by ino 5 and ino 800");
  for (const auto& f : r.fixables) {
    EXPECT_EQ(f.detail.find("block " + std::to_string(sb.data_start + 101)),
              std::string::npos);
    EXPECT_EQ(f.detail.find("block " + std::to_string(sb.data_start + 102)),
              std::string::npos);
  }
}

TEST(FsckTest, BadBlockPointerDetected) {
  Img img;
  SuperBlock sb = img.sb();
  img.MakeFile(5, 1, {sb.inode_table_start});  // Points into metadata!
  img.AddRootEntry("bad", 5, sb.data_start + 1);
  FsckReport r = FsckChecker(&img.image).Check();
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.type == FsckViolationType::kBadBlockPointer;
  }
  EXPECT_TRUE(found);
}

TEST(FsckTest, LinkCountTooLowDetected) {
  Img img;
  SuperBlock sb = img.sb();
  img.MakeFile(5, /*nlink=*/1, {});
  img.AddRootEntry("one", 5, sb.data_start + 1);
  img.AddRootEntry("two", 5, sb.data_start + 1);  // Two refs, nlink 1.
  FsckReport r = FsckChecker(&img.image).Check();
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.type == FsckViolationType::kLinkCountTooLow;
  }
  EXPECT_TRUE(found);
}

TEST(FsckTest, GarbageDirectoryDetected) {
  Img img;
  SuperBlock sb = img.sb();
  // Root points to a block full of binary junk (stale data reused as a
  // directory without initialization).
  DiskInode root = img.ReadInode(kRootIno);
  uint32_t blk = sb.data_start + 3;
  root.direct[0] = blk;
  root.size = kBlockSize;
  img.WriteInode(kRootIno, root);
  BlockData junk;
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  img.image.Write(blk, junk, 0);
  FsckReport r = FsckChecker(&img.image).Check();
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.type == FsckViolationType::kGarbageDirectory;
  }
  EXPECT_TRUE(found);
}

TEST(FsckTest, OrphanedInodeIsFixableNotViolation) {
  Img img;
  img.MakeFile(5, 1, {});  // In use, never referenced.
  FsckReport r = FsckChecker(&img.image).Check();
  EXPECT_TRUE(r.Clean());
  bool found = false;
  for (const auto& f : r.fixables) {
    found |= f.detail.find("orphaned") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(FsckTest, OvercountedNlinkIsFixable) {
  Img img;
  SuperBlock sb = img.sb();
  img.MakeFile(5, /*nlink=*/3, {});
  img.AddRootEntry("over", 5, sb.data_start + 1);
  FsckReport r = FsckChecker(&img.image).Check();
  EXPECT_TRUE(r.Clean());
  EXPECT_FALSE(r.fixables.empty());
}

TEST(FsckTest, StaleDataDetectedWhenEnabled) {
  Img img;
  SuperBlock sb = img.sb();
  uint32_t blk = sb.data_start + 30;
  img.MakeFile(5, 1, {blk});
  img.AddRootEntry("f", 5, sb.data_start + 1);
  // Block holds data tagged for a different inode/generation.
  BlockData foreign;
  foreign.fill(0);
  TagDataBlock(foreign.data(), /*ino=*/99, /*generation=*/7);
  img.image.Write(blk, foreign, 0);

  FsckOptions opt;
  opt.check_stale_data = true;
  FsckReport r = FsckChecker(&img.image, opt).Check();
  bool found = false;
  for (const auto& v : r.violations) {
    found |= v.type == FsckViolationType::kStaleDataExposed;
  }
  EXPECT_TRUE(found);

  // And without the option it is not flagged.
  FsckReport r2 = FsckChecker(&img.image).Check();
  EXPECT_TRUE(r2.Clean());
}

TEST(FsckTest, ZeroFilledDataBlockIsNotStale) {
  Img img;
  SuperBlock sb = img.sb();
  uint32_t blk = sb.data_start + 31;
  img.MakeFile(5, 1, {blk});
  img.AddRootEntry("f", 5, sb.data_start + 1);
  BlockData zeros;
  zeros.fill(0);
  img.image.Write(blk, zeros, 0);  // Initialized, never written with data.
  FsckOptions opt;
  opt.check_stale_data = true;
  FsckReport r = FsckChecker(&img.image, opt).Check();
  EXPECT_TRUE(r.Clean());
}

TEST(FsckTest, BitmapMismatchesAreFixable) {
  Img img;
  SuperBlock sb = img.sb();
  uint32_t blk = sb.data_start + 40;
  img.MakeFile(5, 1, {blk});
  img.AddRootEntry("f", 5, sb.data_start + 1);
  // Neither the inode nor the block is marked in the bitmaps.
  FsckReport r = FsckChecker(&img.image).Check();
  EXPECT_TRUE(r.Clean());
  int bitmap_findings = 0;
  for (const auto& f : r.fixables) {
    if (f.detail.find("bitmap") != std::string::npos) {
      ++bitmap_findings;
    }
  }
  EXPECT_GE(bitmap_findings, 2);
}

// --- repair accounting, convergence, and shard-region stale tags -----

TEST(FsckRepairTest, TotalFixesSumsEveryCategory) {
  // Pure accounting: TotalFixes is the sum of all six fix counters.
  FsckRepairReport r;
  r.dir_entries_cleared = 1;
  r.link_counts_fixed = 2;
  r.inodes_cleared = 3;
  r.pointers_cleared = 4;
  r.data_blocks_scrubbed = 5;
  r.bitmap_bits_fixed = 6;
  EXPECT_EQ(r.TotalFixes(), 21u);
  EXPECT_EQ(FsckRepairReport{}.TotalFixes(), 0u);

  // Integration: an image with one dangling entry, one duplicate
  // pointer and one orphan produces fixes in exactly those categories,
  // and TotalFixes reflects the counter sum.
  Img img;
  SuperBlock sb = img.sb();
  uint32_t shared = sb.data_start + 20;
  img.MakeFile(5, 1, {shared});
  img.AddRootEntry("keep", 5, sb.data_start + 1);
  img.MakeFile(6, 1, {shared, sb.data_start + 21});  // Loses `shared` to ino 5.
  img.AddRootEntry("dup", 6, sb.data_start + 1);
  img.AddRootEntry("gone", 7, sb.data_start + 1);  // Ino 7 is free: dangling.
  img.MakeFile(8, 1, {sb.data_start + 22});        // No entry: orphan.

  FsckRepairReport rep = FsckRepairer(&img.image).Repair();
  EXPECT_TRUE(rep.clean_after);
  EXPECT_EQ(rep.dir_entries_cleared, 1u);
  EXPECT_EQ(rep.pointers_cleared, 1u);
  EXPECT_EQ(rep.inodes_cleared, 1u);
  EXPECT_EQ(rep.TotalFixes(),
            rep.dir_entries_cleared + rep.link_counts_fixed + rep.inodes_cleared +
                rep.pointers_cleared + rep.data_blocks_scrubbed + rep.bitmap_bits_fixed);
  EXPECT_GT(rep.TotalFixes(), 0u);
}

TEST(FsckRepairTest, CascadingOrphanChainConvergesAndStaysConverged) {
  // root -> a(5) -> b(6) -> f(7), then the crash loses root's entry for
  // "a": the whole chain is unreachable. Global reference counting from
  // the directory walk collapses the full cascade in a single pass
  // (every unreachable inode has zero walked refs), and the repair must
  // converge well under the kMaxFsckRepairPasses cap and stay clean.
  Img img;
  SuperBlock sb = img.sb();
  img.MakeDir(5, 2);
  img.MakeDir(6, 2);
  img.MakeFile(7, 1, {sb.data_start + 30});
  img.AddRootEntry("a", 5, sb.data_start + 1);
  img.AddDirEntry(5, "b", 6, sb.data_start + 2);
  img.AddDirEntry(6, "f", 7, sb.data_start + 3);
  // Normalize link counts and bitmaps so the ONLY damage is the lost
  // entry.
  FsckRepairReport normalize = FsckRepairer(&img.image).Repair();
  ASSERT_TRUE(normalize.clean_after);
  img.DropDirEntry(kRootIno, 5);

  FsckRepairReport rep = FsckRepairer(&img.image).Repair();
  EXPECT_TRUE(rep.clean_after);
  EXPECT_EQ(rep.inodes_cleared, 3u);  // The whole a -> b -> f chain.
  EXPECT_EQ(rep.passes, 1);
  EXPECT_LE(rep.passes, kMaxFsckRepairPasses);
  EXPECT_FALSE(img.ReadInode(5).InUse());
  EXPECT_FALSE(img.ReadInode(6).InUse());
  EXPECT_FALSE(img.ReadInode(7).InUse());

  // Idempotence: repairing the repaired image changes nothing.
  FsckRepairReport again = FsckRepairer(&img.image).Repair();
  EXPECT_TRUE(again.clean_after);
  EXPECT_EQ(again.passes, 1);
  EXPECT_EQ(again.TotalFixes(), 0u);
}

TEST(FsckRepairTest, ShardRegionStaleTagsUseGlobalInoBase) {
  // A shard region of a volume tags its data with GLOBAL inode numbers
  // (shard * stride + local). The checker and repairer must agree: with
  // the right tag_ino_base the region is clean; with base 0 the same
  // bytes read as a stale-data exposure and the repairer scrubs them.
  constexpr uint32_t kStride = 1024;  // Pretend this is shard 1 of 2.
  Img img;
  SuperBlock sb = img.sb();
  uint32_t blk = sb.data_start + 33;
  img.MakeFile(5, 1, {blk});
  img.AddRootEntry("f", 5, sb.data_start + 1);
  BlockData data;
  data.fill(0x5a);
  TagDataBlock(data.data(), kStride + 5, img.ReadInode(5).generation);
  img.image.Write(blk, data, 0);

  // Embed the image as shard 1 of a two-shard volume and audit that
  // region in place, as the crash harness does.
  DiskImage volume(2 * kBlocks);
  for (uint32_t b : img.image.WrittenBlocks()) {
    volume.Write(kBlocks + b, img.image.View(b), 0);
  }

  FsckOptions right;
  right.check_stale_data = true;
  right.tag_ino_base = kStride;
  EXPECT_TRUE(FsckChecker(&volume, right, kBlocks, kBlocks).Check().Clean());

  FsckOptions wrong;
  wrong.check_stale_data = true;
  FsckReport flagged = FsckChecker(&volume, wrong, kBlocks, kBlocks).Check();
  ASSERT_FALSE(flagged.Clean());
  EXPECT_EQ(flagged.violations[0].type, FsckViolationType::kStaleDataExposed);

  // Repair with the right base leaves the data alone...
  DiskImage keep = volume.Snapshot();
  FsckRepairReport kept = FsckRepairer(&keep, right, kBlocks, kBlocks).Repair();
  EXPECT_EQ(kept.data_blocks_scrubbed, 0u);
  EXPECT_EQ(keep.View(kBlocks + blk)[sizeof(DataBlockTag)], 0x5a);
  // ...with base 0 it scrubs the "foreign" block.
  DiskImage scrub = volume.Snapshot();
  FsckRepairReport scrubbed = FsckRepairer(&scrub, wrong, kBlocks, kBlocks).Repair();
  EXPECT_GE(scrubbed.data_blocks_scrubbed, 1u);
  EXPECT_EQ(scrub.View(kBlocks + blk)[sizeof(DataBlockTag)], 0);
}

TEST(FsckRepairTest, DuplicateBlockWinnerIsLowestIno) {
  // Satellite pin: duplicate-claim repair keeps the LOWEST-ino claimant
  // deterministically (ascending table scan), independent of any map
  // iteration order. Both files stay referenced so the loser survives
  // with its pointer cleared rather than being orphan-freed.
  Img img;
  SuperBlock sb = img.sb();
  uint32_t shared = sb.data_start + 60;
  img.MakeFile(5, 1, {shared});
  img.MakeFile(9, 1, {shared});
  img.AddRootEntry("low", 5, sb.data_start + 1);
  img.AddRootEntry("high", 9, sb.data_start + 1);

  FsckRepairReport rep = FsckRepairer(&img.image).Repair();
  EXPECT_TRUE(rep.clean_after);
  EXPECT_EQ(rep.pointers_cleared, 1u);
  EXPECT_EQ(img.ReadInode(5).direct[0], shared) << "winner must be the lowest ino";
  EXPECT_EQ(img.ReadInode(9).direct[0], 0u) << "loser's pointer must be cleared";
}

}  // namespace
}  // namespace mufs
