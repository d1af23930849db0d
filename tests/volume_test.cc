// Striped-volume and sharded-machine tests: the address math, the
// multi-disk machine end to end (every scheme), per-disk metric naming,
// seed-reproducibility of a 4-disk run, and the single-disk purity
// guarantee (--disks=1 registers no volume state at all).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/fsck/fsck.h"
#include "src/volume/sharded_fs.h"
#include "src/volume/volume.h"
#include "src/workload/workloads.h"

namespace mufs {
namespace {

// --- striping math --------------------------------------------------

TEST(VolumeLayoutTest, MapRoundTripsEveryBlock) {
  for (uint32_t disks : {1u, 2u, 3u, 4u, 8u}) {
    for (uint32_t unit : {1u, 4u, 16u, 64u}) {
      VolumeLayout lay;
      lay.disks = disks;
      lay.stripe_unit = unit;
      lay.blocks_per_disk = 256;
      std::vector<int> hits(disks * lay.blocks_per_disk, 0);
      for (uint32_t v = 0; v < lay.TotalBlocks(); ++v) {
        uint32_t disk = 0;
        uint32_t local = 0;
        lay.Map(v, &disk, &local);
        ASSERT_LT(disk, disks);
        ASSERT_LT(local, lay.blocks_per_disk);
        EXPECT_EQ(lay.ToVolume(disk, local), v);
        ++hits[disk * lay.blocks_per_disk + local];
      }
      // The map is a bijection: every (disk, local) hit exactly once.
      for (int h : hits) {
        EXPECT_EQ(h, 1);
      }
    }
  }
}

TEST(VolumeLayoutTest, RunLengthCountsToStripeBoundary) {
  VolumeLayout lay;
  lay.disks = 4;
  lay.stripe_unit = 16;
  lay.blocks_per_disk = 256;
  EXPECT_EQ(lay.RunLength(0), 16u);
  EXPECT_EQ(lay.RunLength(5), 11u);
  EXPECT_EQ(lay.RunLength(15), 1u);
  EXPECT_EQ(lay.RunLength(16), 16u);
}

TEST(VolumeLayoutTest, StripesRotateAcrossDisks) {
  VolumeLayout lay;
  lay.disks = 2;
  lay.stripe_unit = 8;
  lay.blocks_per_disk = 64;
  uint32_t disk = 0;
  uint32_t local = 0;
  lay.Map(0, &disk, &local);
  EXPECT_EQ(disk, 0u);
  EXPECT_EQ(local, 0u);
  lay.Map(8, &disk, &local);  // Next stripe, next disk.
  EXPECT_EQ(disk, 1u);
  EXPECT_EQ(local, 0u);
  lay.Map(16, &disk, &local);  // Wraps back, second chunk of disk 0.
  EXPECT_EQ(disk, 0u);
  EXPECT_EQ(local, 8u);
}

// --- shard routing --------------------------------------------------

// Two leaf names that land in different shards of both a 2-way and a
// 4-way split (also used by shard_rename_test.cc; pinned here so a hash
// change is caught by a fast test).
constexpr const char* kLeafShardA = "alpha";
constexpr const char* kLeafShardB = "echo";

TEST(ShardRoutingTest, PinnedLeavesHashToDifferentShards) {
  EXPECT_NE(ShardedFs::HashLeaf(kLeafShardA) % 2, ShardedFs::HashLeaf(kLeafShardB) % 2);
  EXPECT_NE(ShardedFs::HashLeaf(kLeafShardA) % 4, ShardedFs::HashLeaf(kLeafShardB) % 4);
}

// --- multi-disk machine end to end ----------------------------------

// Small cross-shard workload: a mirrored directory, files salted so they
// spread over shards, contents written tagged and read back, plus a
// cross-shard rename.
Task<void> MultiDiskWorkloadBody(Machine* m, Proc* p, bool* ok) {
  co_await m->Boot(*p);
  FsStatus st = co_await m->vfs().Mkdir(*p, "/d");
  EXPECT_EQ(st, FsStatus::kOk);
  std::vector<uint32_t> inos;
  for (int i = 0; i < 12; ++i) {
    std::string path = "/d/f" + std::to_string(i);
    Result<uint32_t> ino = co_await m->vfs().Create(*p, path);
    EXPECT_TRUE(ino.Ok()) << path;
    if (!ino.Ok()) {
      co_return;
    }
    inos.push_back(ino.value());
    FsStatus ws = co_await WriteTagged(*m, *p, ino.value(), 2 * kBlockSize);
    EXPECT_EQ(ws, FsStatus::kOk);
  }
  // Contents must survive routing: read each file back through the
  // global ino and check the tag carries that same global ino.
  for (uint32_t ino : inos) {
    std::vector<uint8_t> buf(kBlockSize);
    Result<uint64_t> rd = co_await m->vfs().ReadFile(*p, ino, 0, buf);
    EXPECT_TRUE(rd.Ok());
    if (!rd.Ok()) {
      co_return;
    }
    DataBlockTag tag;
    std::memcpy(&tag, buf.data(), sizeof(tag));
    EXPECT_EQ(tag.magic, kDataTagMagic);
    EXPECT_EQ(tag.ino, ino);
  }
  // Cross-shard rename (the pinned leaves differ mod 2 and any shard
  // count from the test matrix keeps them apart or makes the rename a
  // cheap same-shard one; either way the file must follow the name).
  Result<uint32_t> src = co_await m->vfs().Create(*p, std::string("/d/") + kLeafShardA);
  EXPECT_TRUE(src.Ok());
  if (!src.Ok()) {
    co_return;
  }
  FsStatus ws = co_await WriteTagged(*m, *p, src.value(), kBlockSize);
  EXPECT_EQ(ws, FsStatus::kOk);
  st = co_await m->vfs().Rename(*p, std::string("/d/") + kLeafShardA,
                                std::string("/d/") + kLeafShardB);
  EXPECT_EQ(st, FsStatus::kOk);
  Result<uint32_t> moved = co_await m->vfs().Lookup(*p, std::string("/d/") + kLeafShardB);
  EXPECT_TRUE(moved.Ok());
  if (!moved.Ok()) {
    co_return;
  }
  std::vector<uint8_t> buf(kBlockSize);
  Result<uint64_t> rd = co_await m->vfs().ReadFile(*p, moved.value(), 0, buf);
  EXPECT_TRUE(rd.Ok());
  if (!rd.Ok()) {
    co_return;
  }
  DataBlockTag tag;
  std::memcpy(&tag, buf.data(), sizeof(tag));
  EXPECT_EQ(tag.magic, kDataTagMagic);
  EXPECT_EQ(tag.ino, moved.value()) << "migrated data not restamped";
  Result<uint32_t> gone = co_await m->vfs().Lookup(*p, std::string("/d/") + kLeafShardA);
  EXPECT_FALSE(gone.Ok());
  co_await m->Shutdown(*p);
  *ok = true;
}

// An early co_return in the body (a failed EXPECT) must still end the
// run, so completion and success are separate flags.
Task<void> MultiDiskWorkload(Machine* m, Proc* p, bool* done, bool* ok) {
  co_await MultiDiskWorkloadBody(m, p, ok);
  *done = true;
}

void RunMultiDisk(MachineConfig cfg) {
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  bool done = false;
  bool ok = false;
  m.engine().Spawn(MultiDiskWorkload(&m, &p, &done, &ok), "w");
  m.engine().RunUntil([&] { return done; });
  ASSERT_TRUE(ok);

  EXPECT_TRUE(m.IsMulti());
  EXPECT_EQ(m.NumDisks(), static_cast<size_t>(cfg.disks));
  // Per-disk metric instances exist and the spindles actually turned.
  uint64_t busy = 0;
  for (size_t d = 0; d < m.NumDisks(); ++d) {
    busy += m.stats().counter("disk" + std::to_string(d) + ".busy_ns").value();
  }
  EXPECT_GT(busy, 0u);
  EXPECT_GT(m.stats().counter("volume.writes").value(), 0u);

  // After a clean shutdown every shard's file system is fsck-clean in
  // its own region of the volume image.
  DiskImage snap = m.CrashNow();
  for (size_t s = 0; s < m.NumShards(); ++s) {
    DiskImage region = snap.ExtractRegion(m.ShardBase(s), m.ShardBlocks());
    FsckOptions opts;
    opts.tag_ino_base = static_cast<uint32_t>(s) * m.InoStride();
    FsckReport report = FsckChecker(&region, opts).Check();
    for (const auto& v : report.violations) {
      ADD_FAILURE() << "shard " << s << ": " << ToString(v.type) << ": " << v.detail;
    }
  }
}

class MultiDiskSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MultiDiskSchemeTest, TwoDiskMachineRunsClean) {
  MachineConfig cfg;
  cfg.scheme = GetParam();
  cfg.disks = 2;
  RunMultiDisk(cfg);
}

TEST_P(MultiDiskSchemeTest, FourDiskFineStripedMachineRunsClean) {
  MachineConfig cfg;
  cfg.scheme = GetParam();
  cfg.disks = 4;
  cfg.stripe_unit = 4;  // Fine interleave: exercises write splitting.
  RunMultiDisk(cfg);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MultiDiskSchemeTest,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return std::string(SchemeName(info.param));
                         });

// The fs stack only issues single-block requests, so the split path is
// exercised at the device surface: a 3-block write at stripe unit 1 must
// fan out into 3 per-disk sub-requests (2 extra = 2 splits) that land on
// both spindles, and complete as one volume request.
TEST(MultiDiskTest, FineStripingSplitsSpanningWrites) {
  MachineConfig cfg;
  cfg.scheme = Scheme::kNoOrder;
  cfg.disks = 2;
  cfg.stripe_unit = 1;  // Every multi-block write crosses a boundary.
  Machine m(cfg);
  ASSERT_TRUE(m.IsMulti());
  const uint64_t splits0 = m.stats().counter("volume.splits").value();
  bool done = false;
  auto spanning = [](Machine* m, bool* done) -> Task<void> {
    std::vector<std::shared_ptr<const BlockData>> data;
    for (int i = 0; i < 3; ++i) {
      data.push_back(std::make_shared<BlockData>());
    }
    uint64_t id = m->volume()->IssueWrite(0, std::move(data));
    IoStatus s = co_await m->volume()->WaitFor(id);
    EXPECT_EQ(s, IoStatus::kOk);
    *done = true;
  };
  m.engine().Spawn(spanning(&m, &done), "w");
  m.engine().RunUntil([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(m.stats().counter("volume.splits").value() - splits0, 2u);
  EXPECT_GT(m.stats().counter("disk0.busy_ns").value(), 0u);
  EXPECT_GT(m.stats().counter("disk1.busy_ns").value(), 0u);
}

// --- volume ordering gate -------------------------------------------

MachineConfig GateConfig(Scheme scheme, FlagSemantics semantics = FlagSemantics::kPart,
                         bool reads_bypass = false) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.flag_semantics = semantics;
  cfg.reads_bypass = reads_bypass;
  cfg.disks = 2;
  return cfg;
}

// A 2-disk machine whose volume gate runs one scheduler scheme's rules.
// Nothing is booted: the tests issue requests to the volume directly.
struct GateRig {
  explicit GateRig(const MachineConfig& cfg) : m(cfg), vol(m.volume()) {}

  uint64_t Write(uint32_t disk, uint32_t local, OrderingTag tag = {}) {
    return vol->IssueWrite(vol->layout().ToVolume(disk, local), {std::make_shared<BlockData>()},
                           std::move(tag));
  }
  uint64_t Read(uint32_t disk, uint32_t local) {
    return vol->IssueRead(vol->layout().ToVolume(disk, local), &out);
  }
  uint64_t Held() { return m.stats().counter("volume.held").value(); }

  // Runs until every `boundary` request has completed, checking after
  // each event that `later` is the one request held at the gate. The gate
  // must forward it at that completion, and it then completes cleanly.
  void ExpectHeldUntilComplete(const std::vector<uint64_t>& boundary, uint64_t later) {
    ASSERT_EQ(vol->HeldCount(), 1u);
    m.engine().RunUntil([&] {
      for (uint64_t id : boundary) {
        if (!vol->IsComplete(id)) {
          EXPECT_EQ(vol->HeldCount(), 1u);
          EXPECT_FALSE(vol->IsComplete(later));
          return false;
        }
      }
      return true;
    });
    EXPECT_EQ(vol->HeldCount(), 0u);
    EXPECT_FALSE(vol->IsComplete(later));
    m.engine().RunUntil([&] { return vol->IsComplete(later); });
    EXPECT_EQ(vol->CompletionStatus(later), IoStatus::kOk);
  }

  Machine m;
  StripedVolume* vol;
  BlockData out;
};

const OrderingTag kFlagged{.flag = true, .deps = {}};

TEST(VolumeGateTest, PartHoldsLaterRequestOnOtherDiskBehindFlag) {
  GateRig rig(GateConfig(Scheme::kSchedulerFlag, FlagSemantics::kPart));
  uint64_t flagged = rig.Write(0, 100, kFlagged);
  uint64_t later = rig.Write(1, 100);
  EXPECT_EQ(rig.Held(), 1u);
  rig.ExpectHeldUntilComplete({flagged}, later);
}

TEST(VolumeGateTest, BackHoldsLaterRequestBehindFlagAndItsPredecessors) {
  GateRig rig(GateConfig(Scheme::kSchedulerFlag, FlagSemantics::kBack));
  // Disk 0's C-LOOK services the flagged write (block 100) before its
  // earlier predecessor (block 5000). Part would release `later` at the
  // flagged completion; Back waits for the predecessor too.
  uint64_t before = rig.Write(0, 5000);
  uint64_t flagged = rig.Write(0, 100, kFlagged);
  uint64_t later = rig.Write(1, 100);
  EXPECT_EQ(rig.Held(), 1u);
  rig.ExpectHeldUntilComplete({before, flagged}, later);
}

TEST(VolumeGateTest, FullHoldsFlaggedRequestBehindEveryEarlierRequest) {
  GateRig rig(GateConfig(Scheme::kSchedulerFlag, FlagSemantics::kFull));
  // Under Part or Back the flagged write would start at once.
  uint64_t before = rig.Write(0, 100);
  uint64_t flagged = rig.Write(1, 100, kFlagged);
  EXPECT_EQ(rig.Held(), 1u);
  rig.ExpectHeldUntilComplete({before}, flagged);
}

TEST(VolumeGateTest, NrReadBypassesFlagButNotAConflictingWrite) {
  GateRig rig(GateConfig(Scheme::kSchedulerFlag, FlagSemantics::kPart, /*reads_bypass=*/true));
  uint64_t write = rig.Write(1, 200);
  rig.Write(0, 100, kFlagged);
  rig.Read(1, 300);  // Issued after the flag, yet not held: -NR.
  uint64_t conflicting = rig.Read(1, 200);
  EXPECT_EQ(rig.Held(), 1u);
  rig.ExpectHeldUntilComplete({write}, conflicting);
}

TEST(VolumeGateTest, ChainsHoldDependentRequestOnOtherDisk) {
  GateRig rig(GateConfig(Scheme::kSchedulerChains));
  uint64_t dep = rig.Write(0, 100);
  rig.Write(0, 5000);  // Independent: not held.
  uint64_t later = rig.Write(1, 100, OrderingTag{.flag = false, .deps = {dep}});
  EXPECT_EQ(rig.Held(), 1u);
  rig.ExpectHeldUntilComplete({dep}, later);
}

// --- determinism ----------------------------------------------------

std::string RunFourDiskStats(Scheme scheme) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.disks = 4;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  bool done = false;
  bool ok = false;
  m.engine().Spawn(MultiDiskWorkload(&m, &p, &done, &ok), "w");
  m.engine().RunUntil([&] { return done; });
  EXPECT_TRUE(ok);
  return m.DumpStatsJson();
}

TEST(MultiDiskTest, FourDiskRunIsSeedReproducible) {
  for (Scheme s : {Scheme::kConventional, Scheme::kJournaling}) {
    std::string a = RunFourDiskStats(s);
    std::string b = RunFourDiskStats(s);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "4-disk " << SchemeName(s) << " run not reproducible";
  }
}

// --- single-disk purity ---------------------------------------------

TEST(MultiDiskTest, SingleDiskRegistersNoVolumeState) {
  MachineConfig cfg;
  cfg.scheme = Scheme::kConventional;
  cfg.disks = 1;  // Explicit, as the bench flag would set it.
  Machine m(cfg);
  EXPECT_FALSE(m.IsMulti());
  EXPECT_EQ(m.NumDisks(), 1u);
  EXPECT_EQ(m.NumShards(), 1u);
  std::string json = m.DumpStatsJson();
  EXPECT_EQ(json.find("volume."), std::string::npos);
  EXPECT_EQ(json.find("disk0."), std::string::npos);
  EXPECT_NE(json.find("disk.busy_ns"), std::string::npos);
}

}  // namespace
}  // namespace mufs
