// In-place recovery battery (tier 1): the sharded check and repair audit
// each shard region in place, and must match the extracted-region
// reference (tests/fsck_reference.h) - reports field by field and in
// order, repaired volumes byte for byte. Sampled crash points across
// schemes and disk counts, plus handcrafted volumes: damage inside
// shard 1, and a pointer past shard 0's end that must read as zeroes.
// The full crash-point sweep lives in pfsck_sweep_test.cc (label: slow).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/filesystem.h"
#include "src/fsck/crash_harness.h"
#include "src/fsck/fsck.h"
#include "src/fsck/pfsck.h"
#include "src/workload/workloads.h"
#include "tests/fsck_reference.h"
#include "tests/pfsck_test_util.h"

namespace mufs {
namespace {

MachineConfig ConfigFor(Scheme scheme, uint32_t disks) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.disks = disks;
  cfg.syncer.sweep_seconds = 3;
  return cfg;
}

// --- harness-integrated report equivalence ---------------------------

struct EquivCase {
  Scheme scheme;
  uint32_t disks;
  const char* name;
};

class PfsckEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(PfsckEquivalenceTest, ReportsIdenticalAtSampledCrashPoints) {
  const EquivCase& c = GetParam();
  MachineConfig cfg = ConfigFor(c.scheme, c.disks);
  ShardLayout layout = LayoutOf(cfg);
  CrashHarness harness(cfg);
  uint64_t total_writes = harness.MeasureWrites(PfsckChurn);
  ASSERT_GT(total_writes, 10u);
  FsckOptions opts;
  opts.check_stale_data = true;
  for (uint64_t w : {total_writes / 4, total_writes / 2, (3 * total_writes) / 4}) {
    // The simulation is deterministic: both runs reach the same crash
    // image, which the harness replays and checks in place.
    CrashResult in_place = harness.RunAndCrashAtWrite(PfsckChurn, w, opts);
    DiskImage crash = harness.CrashImageAtWrite(PfsckChurn, w);
    JournalReplayReport replay =
        c.scheme == Scheme::kJournaling ? ReplayShards(&crash, layout) : JournalReplayReport{};
    std::string context = std::string(c.name) + " crash@write " + std::to_string(w);
    EXPECT_EQ(ReportDifference(ReferenceCheckSharded(crash, layout, opts), in_place.report), "")
        << context;
    EXPECT_EQ(replay.txns_replayed, in_place.replay.txns_replayed) << context;
    EXPECT_EQ(replay.blocks_replayed, in_place.replay.blocks_replayed) << context;
  }
}

// On one disk the region is the whole image, so the 1d cells only hold
// the harness's path to a check of an extracted copy.
INSTANTIATE_TEST_SUITE_P(
    Schemes, PfsckEquivalenceTest,
    ::testing::Values(EquivCase{Scheme::kNoOrder, 1, "NoOrder-1d"},
                      EquivCase{Scheme::kNoOrder, 2, "NoOrder-2d"},
                      EquivCase{Scheme::kNoOrder, 4, "NoOrder-4d"},
                      EquivCase{Scheme::kSoftUpdates, 1, "SoftUpdates-1d"},
                      EquivCase{Scheme::kSoftUpdates, 2, "SoftUpdates-2d"},
                      EquivCase{Scheme::kSoftUpdates, 4, "SoftUpdates-4d"},
                      EquivCase{Scheme::kJournaling, 1, "Journaling-1d"},
                      EquivCase{Scheme::kJournaling, 2, "Journaling-2d"},
                      EquivCase{Scheme::kJournaling, 4, "Journaling-4d"},
                      EquivCase{Scheme::kAsync, 1, "Async-1d"},
                      EquivCase{Scheme::kAsync, 2, "Async-2d"},
                      EquivCase{Scheme::kAsync, 4, "Async-4d"}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (char& ch : n) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return n;
    });

// --- repair equivalence on real crash images -------------------------

TEST(PfsckRepairTest, RepairedImageByteIdenticalSingleDisk) {
  // No Order leaves real damage at most crash points - the repair has
  // actual work to do.
  MachineConfig cfg = ConfigFor(Scheme::kNoOrder, 1);
  ShardLayout layout = LayoutOf(cfg);
  CrashHarness harness(cfg);
  uint64_t total_writes = harness.MeasureWrites(PfsckChurn);
  ASSERT_GT(total_writes, 10u);
  for (uint64_t w : {total_writes / 3, (2 * total_writes) / 3}) {
    DiskImage reference = harness.CrashImageAtWrite(PfsckChurn, w);
    DiskImage in_place = reference.Snapshot();
    FsckOptions opts;
    std::vector<FsckRepairReport> want = ReferenceRepairSharded(&reference, layout, opts);
    FsckRepairReport got = PfsckRepair(&in_place, opts);
    std::string context = "crash@write " + std::to_string(w);
    ASSERT_EQ(want.size(), 1u);
    EXPECT_GT(got.TotalFixes(), 0u) << context;
    ExpectRepairReportsIdentical(want[0], got, context);
    ExpectSameBytes(reference, in_place, context);
  }
}

TEST(PfsckRepairTest, ShardedRepairByteIdentical) {
  MachineConfig cfg = ConfigFor(Scheme::kNoOrder, 2);
  ShardLayout layout = LayoutOf(cfg);
  ASSERT_EQ(layout.num_shards, 2u);
  CrashHarness harness(cfg);
  uint64_t total_writes = harness.MeasureWrites(PfsckChurn);
  ASSERT_GT(total_writes, 10u);
  uint32_t fixes = 0;
  for (uint64_t w : {total_writes / 3, total_writes / 2, (2 * total_writes) / 3}) {
    DiskImage reference = harness.CrashImageAtWrite(PfsckChurn, w);
    DiskImage in_place = reference.Snapshot();
    FsckOptions opts;
    std::vector<FsckRepairReport> want = ReferenceRepairSharded(&reference, layout, opts);
    FsckRepairReport merged;
    std::vector<FsckRepairReport> got = PfsckRepairSharded(&in_place, layout, opts, &merged);
    std::string context = "crash@write " + std::to_string(w);
    ASSERT_EQ(want.size(), got.size()) << context;
    uint32_t point_fixes = 0;
    for (size_t s = 0; s < want.size(); ++s) {
      ExpectRepairReportsIdentical(want[s], got[s], context + " shard " + std::to_string(s));
      point_fixes += want[s].TotalFixes();
    }
    EXPECT_EQ(merged.TotalFixes(), point_fixes) << context;
    EXPECT_TRUE(merged.clean_after) << context;
    ExpectSameBytes(reference, in_place, context);
    // A repaired volume re-checks clean through the sharded checker.
    FsckReport after = PfsckCheckSharded(in_place, layout, opts);
    EXPECT_TRUE(after.violations.empty()) << context;
    EXPECT_TRUE(after.fixables.empty()) << context;
    fixes += point_fixes;
  }
  EXPECT_GT(fixes, 0u) << "no crash point left damage to repair";
}

// --- handcrafted two-shard volumes -----------------------------------

constexpr uint32_t kShardBlocks = 4096;
constexpr uint32_t kShardInodes = 1024;
constexpr ShardLayout kTwoShards{2, kShardBlocks, kShardInodes};

// One freshly formatted shard file system, edited before it is placed
// into a volume.
struct Shard {
  Shard() : image(kShardBlocks) { FileSystem::Mkfs(&image, kShardInodes); }

  SuperBlock sb() const {
    SuperBlock s;
    memcpy(&s, image.View(0).data(), sizeof(s));
    return s;
  }

  DiskInode ReadInode(uint32_t ino) const {
    return ImageRegion(&image, 0, 0).ReadInode(sb(), ino);
  }

  void WriteInode(uint32_t ino, const DiskInode& d) {
    SuperBlock s = sb();
    BlockData b = image.View(s.ItableBlock(ino));
    memcpy(b.data() + s.ItableOffset(ino), &d, sizeof(d));
    image.Write(s.ItableBlock(ino), b, 0);
  }

  void MakeFile(uint32_t ino, std::initializer_list<uint32_t> blocks) {
    DiskInode d;
    d.mode = static_cast<uint16_t>(FileType::kRegular);
    d.nlink = 1;
    d.generation = 1;
    uint32_t i = 0;
    for (uint32_t blk : blocks) {
      d.direct[i++] = blk;
    }
    d.size = static_cast<uint64_t>(i) * kBlockSize;
    WriteInode(ino, d);
  }

  // Gives the root directory one block, `dir_blk`, holding the entries
  // name -> ino.
  void SetRootEntries(uint32_t dir_blk,
                      std::initializer_list<std::pair<const char*, uint32_t>> entries) {
    DiskInode root = ReadInode(kRootIno);
    root.direct[0] = dir_blk;
    root.size = kBlockSize;
    WriteInode(kRootIno, root);
    BlockData b{};
    uint32_t e = 0;
    for (const auto& [name, ino] : entries) {
      DirEntry de;
      de.ino = ino;
      de.SetName(name);
      memcpy(b.data() + e++ * kDirEntrySize, &de, sizeof(de));
    }
    image.Write(dir_blk, b, 0);
  }

  DiskImage image;
};

DiskImage TwoShardVolume(const Shard& shard0, const Shard& shard1) {
  DiskImage volume(2 * kShardBlocks);
  const Shard* shards[] = {&shard0, &shard1};
  for (uint32_t s = 0; s < 2; ++s) {
    for (uint32_t b : shards[s]->image.WrittenBlocks()) {
      volume.Write(s * kShardBlocks + b, shards[s]->image.View(b), 0);
    }
  }
  return volume;
}

TEST(PfsckHandcraftedTest, DuplicateWinnerIsLowestInoInBothPaths) {
  // Two referenced files of shard 1 share a block. Repaired in place and
  // on the extracted reference alike, the lowest ino keeps it.
  Shard shard1;
  SuperBlock sb = shard1.sb();
  uint32_t shared = sb.data_start + 70;
  shard1.MakeFile(5, {shared});
  shard1.MakeFile(9, {shared});
  shard1.SetRootEntries(sb.data_start + 1, {{"low", 5}, {"high", 9}});
  DiskImage reference = TwoShardVolume(Shard(), shard1);
  DiskImage in_place = reference.Snapshot();

  std::vector<FsckRepairReport> want = ReferenceRepairSharded(&reference, kTwoShards, {});
  std::vector<FsckRepairReport> got = PfsckRepairSharded(&in_place, kTwoShards, {});
  ASSERT_EQ(got.size(), 2u);
  for (uint32_t s = 0; s < 2; ++s) {
    ExpectRepairReportsIdentical(want[s], got[s], "shard " + std::to_string(s));
  }
  ExpectSameBytes(reference, in_place, "lowest-ino winner");
  EXPECT_EQ(got[0].TotalFixes(), 0u);
  EXPECT_EQ(got[1].pointers_cleared, 1u);
  ImageRegion region(&in_place, kShardBlocks, kShardBlocks);
  EXPECT_EQ(region.ReadInode(sb, 5).direct[0], shared) << "winner must be the lowest ino";
  EXPECT_EQ(region.ReadInode(sb, 9).direct[0], 0u) << "loser's pointer must be cleared";
}

TEST(PfsckHandcraftedTest, IndirectTreeDuplicateSkipsSubtreeLikeSerial) {
  // In shard 1, ino 800 uses as its indirect block a block ino 5 already
  // claimed as data: the in-place check, like the reference, never walks
  // the lost subtree.
  Shard shard1;
  SuperBlock sb = shard1.sb();
  uint32_t iblk = sb.data_start + 100;
  shard1.MakeFile(5, {iblk});
  DiskInode hi = shard1.ReadInode(5);
  hi.direct[0] = 0;
  hi.indirect = iblk;
  shard1.WriteInode(800, hi);
  BlockData leaves{};
  uint32_t* ptrs = reinterpret_cast<uint32_t*>(leaves.data());
  ptrs[0] = sb.data_start + 101;
  ptrs[1] = sb.data_start + 102;
  shard1.image.Write(iblk, leaves, 0);
  DiskImage volume = TwoShardVolume(Shard(), shard1);

  FsckReport got = PfsckCheckSharded(volume, kTwoShards, {});
  EXPECT_EQ(ReportDifference(ReferenceCheckSharded(volume, kTwoShards, {}), got), "");
  EXPECT_EQ(got.blocks_claimed, 1u);  // Only `iblk`, by ino 5.
  ASSERT_EQ(got.violations.size(), 1u);
  EXPECT_EQ(got.violations[0].detail,
            "block " + std::to_string(iblk) + " claimed by ino 5 and ino 800");
}

TEST(PfsckRegionTest, PointerPastShardEndReadsZeroes) {
  // Shard 0's root directory has an indirect pointer past the shard's
  // end. In the volume that number lands on a shard-1 block holding
  // pointer-like words: a pointer to shard 0's own directory block. The
  // directory walk reads the indirect block without a range check, so
  // only the region bound keeps the walk from counting the entry twice.
  Shard shard0;
  SuperBlock sb = shard0.sb();
  uint32_t dir_blk = sb.data_start + 1;
  shard0.MakeFile(5, {sb.data_start + 2});
  shard0.SetRootEntries(dir_blk, {{"f", 5}});
  const uint32_t foreign = sb.data_start + 200;  // A free shard-1 data block.
  DiskInode root = shard0.ReadInode(kRootIno);
  root.indirect = kShardBlocks + foreign;
  shard0.WriteInode(kRootIno, root);
  DiskImage volume = TwoShardVolume(shard0, Shard());
  BlockData words{};
  reinterpret_cast<uint32_t*>(words.data())[0] = dir_blk;
  volume.Write(kShardBlocks + foreign, words, 0);

  FsckReport got = PfsckCheckSharded(volume, kTwoShards, {});
  EXPECT_EQ(ReportDifference(ReferenceCheckSharded(volume, kTwoShards, {}), got), "");
  ASSERT_EQ(got.violations.size(), 1u);
  EXPECT_EQ(got.violations[0].type, FsckViolationType::kBadBlockPointer);

  DiskImage reference = volume.Snapshot();
  std::vector<FsckRepairReport> want = ReferenceRepairSharded(&reference, kTwoShards, {});
  std::vector<FsckRepairReport> repaired = PfsckRepairSharded(&volume, kTwoShards, {});
  for (uint32_t s = 0; s < 2; ++s) {
    ExpectRepairReportsIdentical(want[s], repaired[s], "shard " + std::to_string(s));
  }
  ExpectSameBytes(reference, volume, "region bound");
  EXPECT_EQ(volume.View(kShardBlocks + foreign), words) << "shard 1's block must be untouched";
}

}  // namespace
}  // namespace mufs
