// White-box tests for the soft-updates dependency machinery: undo/redo,
// dependency cancellation, deferred frees, and the workitem path.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/core/softupdates/soft_updates_policy.h"
#include "src/fsck/fsck.h"

namespace mufs {
namespace {

#define CO_ASSERT_TRUE(cond)                            \
  do {                                                  \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    if (!co_assert_ok_) {                               \
      ADD_FAILURE() << "assertion failed: " #cond;      \
      co_return;                                        \
    }                                                   \
  } while (0)

MachineConfig SuConfig() {
  MachineConfig cfg;
  cfg.scheme = Scheme::kSoftUpdates;
  cfg.alloc_init = true;
  return cfg;
}

SoftUpdatesPolicy& Policy(Machine& m) {
  return static_cast<SoftUpdatesPolicy&>(m.policy());
}

void RunSu(Machine& m, std::function<Task<void>(Machine&, Proc&)> body) {
  Proc p = m.MakeProc("su");
  bool done = false;
  auto root = [](Machine* m, Proc* p, std::function<Task<void>(Machine&, Proc&)> body,
                 bool* done) -> Task<void> {
    co_await m->Boot(*p);
    co_await body(*m, *p);
    *done = true;
  };
  m.engine().Spawn(root(&m, &p, std::move(body), &done), "su-test");
  m.engine().RunUntil([&done] { return done; });
  ASSERT_TRUE(done);
}

// Reads the raw on-disk directory entry ino at (blkno, offset).
uint32_t OnDiskEntryIno(const DiskImage& img, uint32_t blkno, uint32_t offset) {
  BlockData b;
  img.Read(blkno, &b);
  uint32_t ino;
  memcpy(&ino, b.data() + offset, sizeof(ino));
  return ino;
}

TEST(SoftUpdatesTest, CreateRegistersDirAddDependency) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    (void)co_await mm.fs().Create(p, "/f");
  });
  EXPECT_GE(m.stats().counter("su.dir_adds").value(), 1u);
  EXPECT_TRUE(Policy(m).HasPendingDeps());
}

TEST(SoftUpdatesTest, DirBlockWriteBeforeInodeIsUndone) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await mm.fs().Create(p, "/early");
    CO_ASSERT_TRUE(ino.Ok());
    // Force the ROOT DIRECTORY block to disk before the inode table
    // block: the entry must be rolled back (ino written as 0).
    InodeRef root = co_await mm.fs().Iget(p, kRootIno);
    uint32_t dir_blk = root->d.direct[0];
    CO_ASSERT_TRUE(dir_blk != 0);
    BufRef dir_buf = co_await mm.cache().Bread(dir_blk);
    co_await mm.cache().Bwrite(dir_buf);

    // On disk: entry slot 0 has a zero ino (undone); in memory the file
    // is still perfectly visible.
    EXPECT_EQ(OnDiskEntryIno(mm.image(), dir_blk, 0), 0u);
    Result<uint32_t> found = co_await mm.fs().Lookup(p, "/early");
    EXPECT_TRUE(found.Ok());
    EXPECT_GE(mm.stats().counter("su.undos").value(), 1u);
    EXPECT_GE(mm.stats().counter("su.redos").value(), 1u);

    // After a full flush the entry lands with the real ino.
    co_await mm.fs().SyncEverything(p);
    EXPECT_EQ(OnDiskEntryIno(mm.image(), dir_blk, 0), ino.value());
  });
  EXPECT_FALSE(Policy(m).HasPendingDeps());
}

TEST(SoftUpdatesTest, CreateThenRemoveNeedsNoEntryWrites) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    uint64_t writes_before = mm.image().WriteCount();
    for (int i = 0; i < 10; ++i) {
      Result<uint32_t> ino = co_await mm.fs().Create(p, "/tmp" + std::to_string(i));
      CO_ASSERT_TRUE(ino.Ok());
      (void)co_await mm.fs().Unlink(p, "/tmp" + std::to_string(i));
    }
    // The adds and removes cancel: nothing needs to reach the disk.
    EXPECT_EQ(mm.image().WriteCount(), writes_before);
  });
  EXPECT_EQ(m.stats().counter("su.cancelled_pairs").value(), 10u);
}

TEST(SoftUpdatesTest, BlockFreeIsDeferredUntilInodeWrite) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await mm.fs().Create(p, "/data");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> data(3 * kBlockSize, 9);
    (void)co_await mm.fs().WriteFile(p, ino.value(), 0, data);
    co_await mm.fs().SyncEverything(p);

    uint64_t freed_before = mm.stats().counter("fs.blocks_freed").value();
    (void)co_await mm.fs().Unlink(p, "/data");
    // The unlink returns with the bitmap untouched: the whole removal is
    // deferred (dirrem) until the cleared entry reaches stable storage,
    // and the block frees defer further until the reset inode does.
    EXPECT_EQ(mm.stats().counter("fs.blocks_freed").value(), freed_before);
    EXPECT_GE(mm.stats().counter("su.dir_rems").value(), 1u);

    co_await mm.fs().SyncEverything(p);
    EXPECT_GE(mm.stats().counter("su.deferred_frees").value(), 1u);
    EXPECT_EQ(mm.stats().counter("fs.blocks_freed").value(), freed_before + 3);
  });
}

TEST(SoftUpdatesTest, WorkitemsRunOnSyncerQueue) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await mm.fs().Create(p, "/w");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> data(kBlockSize, 1);
    (void)co_await mm.fs().WriteFile(p, ino.value(), 0, data);
    co_await mm.fs().SyncEverything(p);
    (void)co_await mm.fs().Unlink(p, "/w");
    co_await mm.fs().SyncEverything(p);
  });
  EXPECT_GE(m.stats().counter("su.workitems").value(), 1u);
  EXPECT_GE(m.syncer().WorkitemsRun(), 1u);
  EXPECT_FALSE(Policy(m).HasPendingDeps());
}

TEST(SoftUpdatesTest, IndirectBlockUsesSafeCopy) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await mm.fs().Create(p, "/big");
    CO_ASSERT_TRUE(ino.Ok());
    // Write past the direct range so an indirect block is allocated and
    // carries allocindirect dependencies.
    std::vector<uint8_t> data((kNumDirect + 4) * kBlockSize, 5);
    (void)co_await mm.fs().WriteFile(p, ino.value(), 0, data);

    InodeRef ip = co_await mm.fs().Iget(p, ino.value());
    uint32_t indirect = ip->d.indirect;
    CO_ASSERT_TRUE(indirect != 0);
    // Write the indirect block while its data blocks are uninitialized:
    // the on-disk image must get the SAFE COPY (zero pointers), not the
    // live pointers.
    BufRef ibuf = co_await mm.cache().Bread(indirect);
    co_await mm.cache().Bwrite(ibuf);
    BlockData on_disk;
    mm.image().Read(indirect, &on_disk);
    uint32_t slot0;
    memcpy(&slot0, on_disk.data(), sizeof(slot0));
    EXPECT_EQ(slot0, 0u);

    // After the data blocks land, the indirect block carries the real
    // pointers.
    co_await mm.fs().SyncEverything(p);
    mm.image().Read(indirect, &on_disk);
    memcpy(&slot0, on_disk.data(), sizeof(slot0));
    EXPECT_NE(slot0, 0u);
  });
  EXPECT_FALSE(Policy(m).HasPendingDeps());
}

TEST(SoftUpdatesTest, FsckCleanAfterHeavyChurnAndFlush) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    (void)co_await mm.fs().Mkdir(p, "/d");
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 20; ++i) {
        Result<uint32_t> ino =
            co_await mm.fs().Create(p, "/d/f" + std::to_string(round * 100 + i));
        CO_ASSERT_TRUE(ino.Ok());
        std::vector<uint8_t> data((1 + i % 4) * kBlockSize, static_cast<uint8_t>(i));
        (void)co_await mm.fs().WriteFile(p, ino.value(), 0, data);
      }
      for (int i = 0; i < 20; i += 2) {
        (void)co_await mm.fs().Unlink(p, "/d/f" + std::to_string(round * 100 + i));
      }
    }
    co_await mm.fs().SyncEverything(p);
  });
  EXPECT_FALSE(Policy(m).HasPendingDeps());
  DiskImage snap = m.CrashNow();
  FsckReport r = FsckChecker(&snap).Check();
  for (const auto& v : r.violations) {
    ADD_FAILURE() << ToString(v.type) << ": " << v.detail;
  }
  EXPECT_EQ(r.files_seen, 30u);
}

TEST(SoftUpdatesTest, RenameHoldsRemovalUntilNewEntrySafe) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await mm.fs().Create(p, "/old");
    CO_ASSERT_TRUE(ino.Ok());
    co_await mm.fs().SyncEverything(p);  // "/old" durably on disk.

    (void)co_await mm.fs().Rename(p, "/old", "/new");
    // Write the root dir block NOW: the new entry has a pending addsafe
    // (nlink bump not yet on disk), so it is undone - and rule 1 then
    // requires the old entry's removal to be undone too.
    InodeRef root = co_await mm.fs().Iget(p, kRootIno);
    uint32_t dir_blk = root->d.direct[0];
    BufRef dir_buf = co_await mm.cache().Bread(dir_blk);
    co_await mm.cache().Bwrite(dir_buf);

    // On disk: the OLD entry (slot 0) is still intact, the new one is
    // absent. In memory, only the new name resolves.
    EXPECT_EQ(OnDiskEntryIno(mm.image(), dir_blk, 0), ino.value());
    Result<uint32_t> old_lookup = co_await mm.fs().Lookup(p, "/old");
    EXPECT_FALSE(old_lookup.Ok());
    Result<uint32_t> new_lookup = co_await mm.fs().Lookup(p, "/new");
    EXPECT_TRUE(new_lookup.Ok());

    co_await mm.fs().SyncEverything(p);
    // Final state: old gone, new present on disk.
    EXPECT_EQ(OnDiskEntryIno(mm.image(), dir_blk, 0), 0u);
  });
  EXPECT_FALSE(Policy(m).HasPendingDeps());
}

TEST(SoftUpdatesTest, InodeStaysPinnedWhileDepsPending) {
  Machine m(SuConfig());
  RunSu(m, [](Machine& mm, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await mm.fs().Create(p, "/pinned");
    CO_ASSERT_TRUE(ino.Ok());
    InodeRef ip = mm.fs().IgetCached(ino.value());
    CO_ASSERT_TRUE(ip != nullptr);
    EXPECT_GT(ip->dep_pin, 0);
    co_await mm.fs().SyncEverything(p);
    EXPECT_EQ(ip->dep_pin, 0);
  });
}

}  // namespace
}  // namespace mufs
