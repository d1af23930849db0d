// Unit tests for the mechanical disk model and the disk image.
#include <gtest/gtest.h>

#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/disk/geometry.h"

namespace mufs {
namespace {

TEST(GeometryTest, DefaultDerivedValues) {
  DiskGeometry g;
  EXPECT_EQ(g.blocks_per_cylinder(), 128u);
  EXPECT_EQ(g.cylinders(), 2048u);
  // One track (8 blocks) per revolution: per-block media time ~1.39 ms.
  EXPECT_NEAR(ToMs(g.transfer_per_block()), 1.389, 0.01);
}

TEST(DiskModelTest, SeekTimeZeroForSameCylinder) {
  DiskModel d{DiskGeometry{}};
  EXPECT_EQ(d.SeekTime(100, 100), 0);
}

TEST(DiskModelTest, SeekTimeMatchesPublishedShape) {
  DiskModel d{DiskGeometry{}};
  // Single cylinder ~2.4 ms, third-stroke ~10-12 ms, full stroke ~18-22 ms.
  EXPECT_NEAR(ToMs(d.SeekTime(0, 1)), 2.4, 0.3);
  EXPECT_NEAR(ToMs(d.SeekTime(0, 682)), 11.0, 1.5);
  EXPECT_NEAR(ToMs(d.SeekTime(0, 2047)), 20.2, 2.0);
}

TEST(DiskModelTest, SeekTimeSymmetric) {
  DiskModel d{DiskGeometry{}};
  EXPECT_EQ(d.SeekTime(10, 500), d.SeekTime(500, 10));
}

TEST(DiskModelTest, SeekTimeMonotoneInDistance) {
  DiskModel d{DiskGeometry{}};
  SimDuration prev = 0;
  for (uint32_t dist = 1; dist < 2048; dist *= 2) {
    SimDuration t = d.SeekTime(0, dist);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DiskModelTest, AccessIncludesOverheadSeekRotationTransfer) {
  DiskGeometry g;
  DiskModel d{g};
  // First access from cylinder 0 to a far block.
  uint32_t blk = 1000 * g.blocks_per_cylinder();
  SimDuration t = d.Access(/*is_write=*/true, blk, 1, 0);
  SimDuration floor = g.command_overhead + d.SeekTime(0, 1000) + g.transfer_per_block();
  EXPECT_GE(t, floor);
  EXPECT_LE(t, floor + g.rotation_time);
  EXPECT_EQ(d.CurrentCylinder(), 1000u);
}

TEST(DiskModelTest, SequentialReadsHitPrefetchCache) {
  DiskGeometry g;
  DiskModel d{g};
  SimTime now = 0;
  SimDuration first = d.Access(false, 100, 1, now);
  now += first;
  EXPECT_TRUE(d.CacheHit(101, 1));
  SimDuration second = d.Access(false, 101, 1, now);
  // Cache hit: just overhead + bus transfer, far below a mechanical access.
  EXPECT_EQ(second, g.command_overhead + g.cache_hit_per_block);
  EXPECT_LT(second, first);
}

TEST(DiskModelTest, PrefetchWindowSlidesWithSequentialReader) {
  DiskGeometry g;
  DiskModel d{g};
  SimTime now = 0;
  now += d.Access(false, 100, 1, now);
  // Stream far past the original prefetch depth; stays cached throughout.
  for (uint32_t b = 101; b < 100 + 3 * g.prefetch_blocks; ++b) {
    ASSERT_TRUE(d.CacheHit(b, 1)) << "block " << b;
    now += d.Access(false, b, 1, now);
  }
}

TEST(DiskModelTest, WriteInvalidatesPrefetchCache) {
  DiskGeometry g;
  DiskModel d{g};
  SimTime now = 0;
  now += d.Access(false, 100, 1, now);
  ASSERT_TRUE(d.CacheHit(101, 1));
  now += d.Access(true, 5000, 1, now);
  EXPECT_FALSE(d.CacheHit(101, 1));
}

TEST(DiskModelTest, NonSequentialReadMissesCache) {
  DiskGeometry g;
  DiskModel d{g};
  SimTime now = 0;
  now += d.Access(false, 100, 1, now);
  EXPECT_FALSE(d.CacheHit(100 + g.prefetch_blocks + 5, 1));
}

TEST(DiskModelTest, RotationalDelayDeterministicInStartTime) {
  DiskGeometry g;
  DiskModel a{g};
  DiskModel b{g};
  EXPECT_EQ(a.Access(true, 77, 1, Msec(3)), b.Access(true, 77, 1, Msec(3)));
}

TEST(DiskModelTest, MultiBlockTransferScalesWithCount) {
  DiskGeometry g;
  DiskModel d1{g};
  DiskModel d8{g};
  SimDuration t1 = d1.Access(true, 64, 1, 0);
  SimDuration t8 = d8.Access(true, 64, 8, 0);
  EXPECT_EQ(t8 - t1, 7 * g.transfer_per_block());
}

TEST(DiskImageTest, UnwrittenBlocksReadZero) {
  DiskImage img(1000);
  BlockData d;
  d.fill(0xff);
  img.Read(42, &d);
  for (uint8_t byte : d) {
    ASSERT_EQ(byte, 0);
  }
  EXPECT_FALSE(img.EverWritten(42));
}

TEST(DiskImageTest, WriteThenReadRoundTrips) {
  DiskImage img(1000);
  BlockData w;
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<uint8_t>(i * 7);
  }
  img.Write(5, w, Msec(1));
  BlockData r;
  img.Read(5, &r);
  EXPECT_EQ(w, r);
  EXPECT_TRUE(img.EverWritten(5));
  EXPECT_EQ(img.WriteCount(), 1u);
  EXPECT_EQ(img.LastWriteTime(), Msec(1));
}

TEST(DiskImageTest, SnapshotIsIndependent) {
  DiskImage img(1000);
  BlockData a;
  a.fill(1);
  img.Write(7, a, 0);
  DiskImage snap = img.Snapshot();
  BlockData b;
  b.fill(2);
  img.Write(7, b, 0);
  BlockData r;
  snap.Read(7, &r);
  EXPECT_EQ(r[0], 1);
  img.Read(7, &r);
  EXPECT_EQ(r[0], 2);
}

TEST(DiskImageTest, ViewOfUnwrittenBlockIsZero) {
  DiskImage img(1000);
  const BlockData& v = img.View(42);
  for (uint8_t byte : v) {
    ASSERT_EQ(byte, 0);
  }
  EXPECT_FALSE(img.EverWritten(42));
}

TEST(DiskImageTest, ViewEqualsReadOfWrittenBlock) {
  DiskImage img(1000);
  BlockData w;
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<uint8_t>(i * 13);
  }
  img.Write(9, w, 0);
  BlockData r;
  img.Read(9, &r);
  EXPECT_EQ(img.View(9), r);
  EXPECT_EQ(img.View(9), w);
}

TEST(DiskImageTest, ViewFollowsLaterWriteAndTornWrite) {
  DiskImage img(1000);
  BlockData a;
  a.fill(1);
  img.Write(7, a, 0);
  const BlockData& v = img.View(7);
  BlockData b;
  b.fill(2);
  img.Write(7, b, 0);
  EXPECT_EQ(v, b);
  // A torn write persists only the sector prefix; the view shows the
  // new prefix over the old tail.
  BlockData c;
  c.fill(3);
  img.WriteTorn(7, c, 0);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v[kTornPersistBytes - 1], 3);
  EXPECT_EQ(v[kTornPersistBytes], 2);
  EXPECT_EQ(v[kBlockSize - 1], 2);
}

}  // namespace
}  // namespace mufs
