// Shared helpers for the in-place recovery battery: a metadata churn
// workload that produces rich crash states (duplicate claims, dangling
// entries, orphans, directory trees), plus comparators that hold the
// in-place sharded check and repair to the extracted-region reference
// (tests/fsck_reference.h) - same findings in the same order with the
// same detail strings, same counters, same stable-storage bytes.
#ifndef MUFS_TESTS_PFSCK_TEST_UTIL_H_
#define MUFS_TESTS_PFSCK_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fsck/crash_harness.h"
#include "src/fsck/fsck.h"
#include "src/fsck/pfsck.h"
#include "src/workload/workloads.h"
#include "tests/fsck_reference.h"

namespace mufs {

// Metadata churn with phase boundaries the syncer can flush between:
// creates, partial deletes, reuse in a second directory, renames, a
// create/remove burst and directory churn. Tagged data throughout, so
// check_stale_data sweeps are meaningful. Uses the vfs surface - runs
// unchanged on single-disk and sharded machines.
inline Task<void> PfsckChurn(Machine& m, Proc& p) {
  (void)co_await m.vfs().Mkdir(p, "/a");
  (void)co_await m.vfs().Mkdir(p, "/b");
  (void)co_await m.vfs().Mkdir(p, "/a/deep");
  (void)co_await CreateFiles(m, p, "/a", 12, 2 * kBlockSize);
  (void)co_await CreateFiles(m, p, "/a/deep", 4, kBlockSize);
  co_await m.engine().Sleep(Sec(4));
  for (int i = 0; i < 12; i += 2) {
    (void)co_await m.vfs().Unlink(p, "/a/c" + std::to_string(i));
  }
  co_await m.engine().Sleep(Sec(4));
  (void)co_await CreateFiles(m, p, "/b", 8, kBlockSize);
  co_await m.engine().Sleep(Sec(4));
  (void)co_await m.vfs().Rename(p, "/a/c1", "/a/renamed1");
  (void)co_await m.vfs().Rename(p, "/a/c3", "/b/moved3");
  (void)co_await CreateRemoveFiles(m, p, "/b", 6, kBlockSize);
  (void)co_await m.vfs().Mkdir(p, "/a/sub");
  (void)co_await m.vfs().Rmdir(p, "/a/sub");
}

inline void ExpectRepairReportsIdentical(const FsckRepairReport& want,
                                         const FsckRepairReport& got,
                                         const std::string& context) {
  EXPECT_EQ(want.passes, got.passes) << context;
  EXPECT_EQ(want.dir_entries_cleared, got.dir_entries_cleared) << context;
  EXPECT_EQ(want.link_counts_fixed, got.link_counts_fixed) << context;
  EXPECT_EQ(want.inodes_cleared, got.inodes_cleared) << context;
  EXPECT_EQ(want.pointers_cleared, got.pointers_cleared) << context;
  EXPECT_EQ(want.data_blocks_scrubbed, got.data_blocks_scrubbed) << context;
  EXPECT_EQ(want.bitmap_bits_fixed, got.bitmap_bits_fixed) << context;
  EXPECT_EQ(want.clean_after, got.clean_after) << context;
}

// Same stable-storage bytes over the union of both images' written
// blocks. A block written with zeroes reads like a never-written one,
// and fsck treats them alike, so the written-block sets may differ:
// in-place repair writes every block it touches, the reference writes
// back only blocks whose bytes changed.
inline void ExpectSameBytes(const DiskImage& a, const DiskImage& b,
                            const std::string& context) {
  ASSERT_EQ(a.TotalBlocks(), b.TotalBlocks()) << context;
  std::vector<uint32_t> blocks = a.WrittenBlocks();
  std::vector<uint32_t> more = b.WrittenBlocks();
  blocks.insert(blocks.end(), more.begin(), more.end());
  for (uint32_t blkno : blocks) {
    ASSERT_EQ(memcmp(a.View(blkno).data(), b.View(blkno).data(), kBlockSize), 0)
        << context << ": block " << blkno << " differs";
  }
}

// Strict stable-storage identity: the same set of ever-written blocks
// with the same bytes (determinism checks).
inline void ExpectImagesIdentical(const DiskImage& a, const DiskImage& b,
                                  const std::string& context) {
  ASSERT_EQ(a.WrittenBlocks(), b.WrittenBlocks()) << context << ": written-block sets differ";
  ExpectSameBytes(a, b, context);
}

// The shard geometry of a machine configuration, for driving
// PfsckCheckSharded / PfsckRepairSharded directly against crash images.
inline ShardLayout LayoutOf(const MachineConfig& cfg) {
  Machine m(cfg);
  ShardLayout layout;
  layout.num_shards = static_cast<uint32_t>(m.NumShards());
  layout.shard_blocks = m.ShardBlocks();
  layout.ino_stride = m.InoStride();
  return layout;
}

// Replays every shard's journal in place, as the crash harness does
// before it checks.
inline JournalReplayReport ReplayShards(DiskImage* image, const ShardLayout& layout) {
  JournalReplayReport total;
  for (uint32_t s = 0; s < layout.num_shards; ++s) {
    total.Add(JournalRecovery(image, s * layout.shard_blocks).Run());
  }
  return total;
}

}  // namespace mufs

#endif  // MUFS_TESTS_PFSCK_TEST_UTIL_H_
