// Integration tests for the file system, parameterized over all five
// metadata-update ordering schemes: every test must behave identically
// (semantics don't depend on the ordering discipline).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/machine.h"
#include "src/fsck/fsck.h"
#include "src/sim/rng.h"

namespace mufs {
namespace {

// gtest ASSERT_* macros `return`, which is illegal inside a coroutine;
// these co_return instead.
// Arguments are evaluated exactly once (they typically contain co_await).
#define CO_ASSERT_TRUE(cond)                         \
  do {                                               \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    if (!co_assert_ok_) {                            \
      ADD_FAILURE() << "assertion failed: " #cond;   \
      co_return;                                     \
    }                                                \
  } while (0)
#define CO_ASSERT_EQ(a, b)                 \
  do {                                     \
    const auto co_assert_a_ = (a);         \
    const auto co_assert_b_ = (b);         \
    EXPECT_EQ(co_assert_a_, co_assert_b_); \
    if (!(co_assert_a_ == co_assert_b_)) { \
      co_return;                           \
    }                                      \
  } while (0)

using WorkloadFn = std::function<Task<void>(Machine&, Proc&)>;

void RunOnMachine(Machine& m, Proc& proc, WorkloadFn body) {
  bool done = false;
  auto wrap = [](Machine* m, Proc* p, WorkloadFn body, bool* done) -> Task<void> {
    co_await m->Boot(*p);
    co_await body(*m, *p);
    *done = true;
  };
  m.engine().Spawn(wrap(&m, &proc, std::move(body), &done), "test-workload");
  m.engine().RunUntil([&done] { return done; });
  ASSERT_TRUE(done) << "workload did not finish (deadlock?)";
}

class FsTest : public ::testing::TestWithParam<Scheme> {
 protected:
  MachineConfig Cfg() {
    MachineConfig c;
    c.scheme = GetParam();
    return c;
  }
};

TEST_P(FsTest, CreateAndLookup) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/hello.txt");
    CO_ASSERT_TRUE(ino.Ok());
    Result<uint32_t> found = co_await m.fs().Lookup(p, "/hello.txt");
    CO_ASSERT_TRUE(found.Ok());
    EXPECT_EQ(found.value(), ino.value());
    Result<StatInfo> st = co_await m.fs().Stat(p, "/hello.txt");
    CO_ASSERT_TRUE(st.Ok());
    EXPECT_EQ(st.value().type, FileType::kRegular);
    EXPECT_EQ(st.value().nlink, 1);
    EXPECT_EQ(st.value().size, 0u);
  });
}

TEST_P(FsTest, CreateDuplicateFails) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_TRUE((co_await m.fs().Create(p, "/a")).Ok());
    Result<uint32_t> dup = co_await m.fs().Create(p, "/a");
    EXPECT_EQ(dup.status(), FsStatus::kExists);
  });
}

TEST_P(FsTest, LookupMissingFails) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> r = co_await m.fs().Lookup(p, "/nope");
    EXPECT_EQ(r.status(), FsStatus::kNotFound);
  });
}

TEST_P(FsTest, WriteReadRoundTrip) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/data");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> out(10000);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(i * 13);
    }
    Result<uint64_t> w = co_await m.fs().WriteFile(p, ino.value(), 0, out);
    CO_ASSERT_TRUE(w.Ok());
    EXPECT_EQ(w.value(), out.size());
    std::vector<uint8_t> in(out.size());
    Result<uint64_t> r = co_await m.fs().ReadFile(p, ino.value(), 0, in);
    CO_ASSERT_TRUE(r.Ok());
    EXPECT_EQ(r.value(), out.size());
    EXPECT_EQ(in, out);
  });
}

TEST_P(FsTest, WriteAtOffsetAndHoles) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/sparse");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> chunk(100, 0xab);
    // Write far into the file, leaving a hole.
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 3 * kBlockSize + 7, chunk)).Ok());
    Result<StatInfo> st = co_await m.fs().Stat(p, "/sparse");
    CO_ASSERT_TRUE(st.Ok());
    EXPECT_EQ(st.value().size, 3 * kBlockSize + 7 + 100);
    // The hole reads as zeroes.
    std::vector<uint8_t> in(50);
    Result<uint64_t> r = co_await m.fs().ReadFile(p, ino.value(), kBlockSize, in);
    CO_ASSERT_TRUE(r.Ok());
    for (uint8_t b : in) {
      CO_ASSERT_EQ(b, 0);
    }
    // The data reads back.
    Result<uint64_t> r2 = co_await m.fs().ReadFile(p, ino.value(), 3 * kBlockSize + 7, in);
    CO_ASSERT_TRUE(r2.Ok());
    for (uint8_t b : in) {
      CO_ASSERT_EQ(b, 0xab);
    }
  });
}

TEST_P(FsTest, LargeFileSpansIndirectBlocks) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/big");
    CO_ASSERT_TRUE(ino.Ok());
    // 80 blocks: 12 direct + 68 via the single indirect block.
    std::vector<uint8_t> block(kBlockSize);
    for (uint32_t lbn = 0; lbn < 80; ++lbn) {
      for (size_t i = 0; i < block.size(); ++i) {
        block[i] = static_cast<uint8_t>(lbn + i);
      }
      CO_ASSERT_TRUE(
          (co_await m.fs().WriteFile(p, ino.value(), uint64_t{lbn} * kBlockSize, block)).Ok());
    }
    // Spot-check an indirect-range block.
    std::vector<uint8_t> in(kBlockSize);
    CO_ASSERT_TRUE((co_await m.fs().ReadFile(p, ino.value(), uint64_t{50} * kBlockSize, in)).Ok());
    for (size_t i = 0; i < 100; ++i) {
      CO_ASSERT_EQ(in[i], static_cast<uint8_t>(50 + i));
    }
  });
}

TEST_P(FsTest, DoubleIndirectFile) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/huge");
    CO_ASSERT_TRUE(ino.Ok());
    // One block far in the double-indirect range.
    uint64_t lbn = kNumDirect + kPtrsPerBlock + 5;
    std::vector<uint8_t> block(kBlockSize, 0x5a);
    CO_ASSERT_TRUE(
        (co_await m.fs().WriteFile(p, ino.value(), lbn * kBlockSize, block)).Ok());
    std::vector<uint8_t> in(kBlockSize);
    CO_ASSERT_TRUE((co_await m.fs().ReadFile(p, ino.value(), lbn * kBlockSize, in)).Ok());
    EXPECT_EQ(in[0], 0x5a);
    EXPECT_EQ(in[kBlockSize - 1], 0x5a);
  });
}

TEST_P(FsTest, MkdirAndNestedCreate) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/a"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/a/b"), FsStatus::kOk);
    CO_ASSERT_TRUE((co_await m.fs().Create(p, "/a/b/c.txt")).Ok());
    Result<StatInfo> st = co_await m.fs().Stat(p, "/a/b/c.txt");
    CO_ASSERT_TRUE(st.Ok());
    EXPECT_EQ(st.value().type, FileType::kRegular);
    Result<StatInfo> da = co_await m.fs().Stat(p, "/a");
    CO_ASSERT_TRUE(da.Ok());
    EXPECT_EQ(da.value().nlink, 3);  // Self + ".." of /a/b.
  });
}

TEST_P(FsTest, ReadDirListsEntries) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/d"), FsStatus::kOk);
    for (int i = 0; i < 5; ++i) {
      CO_ASSERT_TRUE((co_await m.fs().Create(p, "/d/f" + std::to_string(i))).Ok());
    }
    Result<std::vector<DirEntryInfo>> entries = co_await m.fs().ReadDir(p, "/d");
    CO_ASSERT_TRUE(entries.Ok());
    EXPECT_EQ(entries.value().size(), 5u);
  });
}

TEST_P(FsTest, DirectoryGrowsPastOneBlock) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/big"), FsStatus::kOk);
    // kDirEntriesPerBlock = 64; create 150 entries -> 3 blocks.
    for (int i = 0; i < 150; ++i) {
      CO_ASSERT_TRUE((co_await m.fs().Create(p, "/big/file" + std::to_string(i))).Ok());
    }
    Result<std::vector<DirEntryInfo>> entries = co_await m.fs().ReadDir(p, "/big");
    CO_ASSERT_TRUE(entries.Ok());
    EXPECT_EQ(entries.value().size(), 150u);
    // And every one resolves.
    Result<uint32_t> r = co_await m.fs().Lookup(p, "/big/file149");
    EXPECT_TRUE(r.Ok());
  });
}

TEST_P(FsTest, UnlinkRemovesEntryAndFreesSpace) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/victim");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> data(3 * kBlockSize, 1);
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 0, data)).Ok());
    uint64_t allocated = m.fs().op_stats().blocks_allocated;
    CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/victim"), FsStatus::kOk);
    EXPECT_EQ((co_await m.fs().Lookup(p, "/victim")).status(), FsStatus::kNotFound);
    // Deferred schemes free the blocks only after protecting writes land:
    // force everything out and verify the space came back.
    co_await m.fs().SyncEverything(p);
    EXPECT_EQ(m.fs().op_stats().blocks_freed, 3u);
    EXPECT_GE(allocated, 3u);
  });
}

TEST_P(FsTest, UnlinkOneOfTwoLinksKeepsFile) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/orig");
    CO_ASSERT_TRUE(ino.Ok());
    CO_ASSERT_EQ(co_await m.fs().Link(p, "/orig", "/alias"), FsStatus::kOk);
    Result<StatInfo> st = co_await m.fs().Stat(p, "/orig");
    CO_ASSERT_TRUE(st.Ok());
    EXPECT_EQ(st.value().nlink, 2);
    CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/orig"), FsStatus::kOk);
    co_await m.fs().SyncEverything(p);
    Result<StatInfo> st2 = co_await m.fs().Stat(p, "/alias");
    CO_ASSERT_TRUE(st2.Ok());
    EXPECT_EQ(st2.value().nlink, 1);
    EXPECT_EQ(st2.value().ino, ino.value());
  });
}

TEST_P(FsTest, RmdirOnlyWhenEmpty) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/d"), FsStatus::kOk);
    CO_ASSERT_TRUE((co_await m.fs().Create(p, "/d/f")).Ok());
    EXPECT_EQ(co_await m.fs().Rmdir(p, "/d"), FsStatus::kNotEmpty);
    CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/d/f"), FsStatus::kOk);
    EXPECT_EQ(co_await m.fs().Rmdir(p, "/d"), FsStatus::kOk);
    co_await m.fs().SyncEverything(p);
    EXPECT_EQ((co_await m.fs().Lookup(p, "/d")).status(), FsStatus::kNotFound);
    Result<StatInfo> root = co_await m.fs().Stat(p, "/");
    CO_ASSERT_TRUE(root.Ok());
    EXPECT_EQ(root.value().nlink, 2);  // Subdir link returned.
  });
}

TEST_P(FsTest, RenameWithinDirectory) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/old");
    CO_ASSERT_TRUE(ino.Ok());
    CO_ASSERT_EQ(co_await m.fs().Rename(p, "/old", "/new"), FsStatus::kOk);
    EXPECT_EQ((co_await m.fs().Lookup(p, "/old")).status(), FsStatus::kNotFound);
    Result<uint32_t> found = co_await m.fs().Lookup(p, "/new");
    CO_ASSERT_TRUE(found.Ok());
    EXPECT_EQ(found.value(), ino.value());
    co_await m.fs().SyncEverything(p);
    Result<StatInfo> st = co_await m.fs().Stat(p, "/new");
    CO_ASSERT_TRUE(st.Ok());
    EXPECT_EQ(st.value().nlink, 1);  // Temporary bump released.
  });
}

TEST_P(FsTest, RenameAcrossDirectories) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/src"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/dst"), FsStatus::kOk);
    Result<uint32_t> ino = co_await m.fs().Create(p, "/src/f");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> data(100, 7);
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 0, data)).Ok());
    CO_ASSERT_EQ(co_await m.fs().Rename(p, "/src/f", "/dst/g"), FsStatus::kOk);
    EXPECT_EQ((co_await m.fs().Lookup(p, "/src/f")).status(), FsStatus::kNotFound);
    Result<uint32_t> moved = co_await m.fs().Lookup(p, "/dst/g");
    CO_ASSERT_TRUE(moved.Ok());
    EXPECT_EQ(moved.value(), ino.value());
    std::vector<uint8_t> in(100);
    CO_ASSERT_TRUE((co_await m.fs().ReadFile(p, moved.value(), 0, in)).Ok());
    EXPECT_EQ(in[0], 7);
  });
}

TEST_P(FsTest, RenameDirectoryUpdatesParentLinks) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/a"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/b"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/a/sub"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().Rename(p, "/a/sub", "/b/sub"), FsStatus::kOk);
    co_await m.fs().SyncEverything(p);
    Result<StatInfo> a = co_await m.fs().Stat(p, "/a");
    Result<StatInfo> b = co_await m.fs().Stat(p, "/b");
    CO_ASSERT_TRUE(a.Ok());
    CO_ASSERT_TRUE(b.Ok());
    EXPECT_EQ(a.value().nlink, 2);
    EXPECT_EQ(b.value().nlink, 3);
    EXPECT_TRUE((co_await m.fs().Lookup(p, "/b/sub")).Ok());
  });
}

TEST_P(FsTest, TruncateToZeroFreesBlocks) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/t");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> data(5 * kBlockSize, 9);
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 0, data)).Ok());
    CO_ASSERT_EQ(co_await m.fs().Truncate(p, ino.value(), 0), FsStatus::kOk);
    Result<StatInfo> st = co_await m.fs().Stat(p, "/t");
    CO_ASSERT_TRUE(st.Ok());
    EXPECT_EQ(st.value().size, 0u);
    co_await m.fs().SyncEverything(p);
    EXPECT_EQ(m.fs().op_stats().blocks_freed, 5u);
    // Old contents are gone.
    std::vector<uint8_t> in(10);
    Result<uint64_t> r = co_await m.fs().ReadFile(p, ino.value(), 0, in);
    CO_ASSERT_TRUE(r.Ok());
    EXPECT_EQ(r.value(), 0u);
  });
}

TEST_P(FsTest, PartialTruncateKeepsPrefix) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Create(p, "/pt");
    CO_ASSERT_TRUE(ino.Ok());
    // 20 blocks (into the indirect range), truncate to 2 blocks.
    std::vector<uint8_t> data(20 * kBlockSize);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i / kBlockSize + 1);
    }
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 0, data)).Ok());
    CO_ASSERT_EQ(co_await m.fs().Truncate(p, ino.value(), 2 * kBlockSize), FsStatus::kOk);
    std::vector<uint8_t> in(kBlockSize);
    CO_ASSERT_TRUE((co_await m.fs().ReadFile(p, ino.value(), kBlockSize, in)).Ok());
    EXPECT_EQ(in[0], 2);
    Result<uint64_t> past = co_await m.fs().ReadFile(p, ino.value(), 3 * kBlockSize, in);
    CO_ASSERT_TRUE(past.Ok());
    EXPECT_EQ(past.value(), 0u);
    co_await m.fs().SyncEverything(p);
    // 18 data blocks + the indirect block freed.
    EXPECT_EQ(m.fs().op_stats().blocks_freed, 19u);
  });
}

TEST_P(FsTest, BlocksAreReusedAfterFree) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> a = co_await m.fs().Create(p, "/a");
    CO_ASSERT_TRUE(a.Ok());
    std::vector<uint8_t> data(4 * kBlockSize, 1);
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, a.value(), 0, data)).Ok());
    CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/a"), FsStatus::kOk);
    co_await m.fs().SyncEverything(p);  // Deferred frees complete.
    uint64_t freed = m.fs().op_stats().blocks_freed;
    EXPECT_EQ(freed, 4u);
    // New allocations succeed and round-trip.
    Result<uint32_t> b = co_await m.fs().Create(p, "/b");
    CO_ASSERT_TRUE(b.Ok());
    CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, b.value(), 0, data)).Ok());
    std::vector<uint8_t> in(4 * kBlockSize);
    CO_ASSERT_TRUE((co_await m.fs().ReadFile(p, b.value(), 0, in)).Ok());
    EXPECT_EQ(in[100], 1);
  });
}

// Create can reuse the number of a freed inode that a delayed-write
// scheme has not flushed yet, displacing it from the inode cache. The
// displaced inode must not keep AnyDirtyInode() true after a full sync.
TEST_P(FsTest, ReusedInodeNumberLeavesNoDirtyInodeAfterSync) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> a = co_await m.fs().Create(p, "/a");
    CO_ASSERT_TRUE(a.Ok());
    CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/a"), FsStatus::kOk);
    Result<uint32_t> b = co_await m.fs().Create(p, "/b");
    CO_ASSERT_TRUE(b.Ok());
    if (m.config().scheme == Scheme::kNoOrder) {
      EXPECT_EQ(b.value(), a.value());
    }
    CO_ASSERT_EQ(co_await m.fs().SyncEverything(p), FsStatus::kOk);
    EXPECT_FALSE(m.fs().AnyDirtyInode());
  });
}

TEST_P(FsTest, FsckCleanAfterShutdown) {
  Machine m(Cfg());
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/d1"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().Mkdir(p, "/d1/d2"), FsStatus::kOk);
    for (int i = 0; i < 20; ++i) {
      Result<uint32_t> ino = co_await m.fs().Create(p, "/d1/f" + std::to_string(i));
      CO_ASSERT_TRUE(ino.Ok());
      std::vector<uint8_t> data(1000 + i * 100, static_cast<uint8_t>(i));
      CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 0, data)).Ok());
    }
    for (int i = 0; i < 10; ++i) {
      CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/d1/f" + std::to_string(i)), FsStatus::kOk);
    }
    CO_ASSERT_EQ(co_await m.fs().Rename(p, "/d1/f15", "/d1/d2/moved"), FsStatus::kOk);
    co_await m.Shutdown(p);
  });
  DiskImage snapshot = m.CrashNow();
  FsckChecker checker(&snapshot);
  FsckReport report = checker.Check();
  for (const auto& v : report.violations) {
    ADD_FAILURE() << ToString(v.type) << ": " << v.detail;
  }
  EXPECT_TRUE(report.Clean());
  EXPECT_EQ(report.files_seen, 10u);
  EXPECT_EQ(report.dirs_seen, 3u);  // root, d1, d2.
  // After a clean shutdown even the bitmaps agree.
  EXPECT_TRUE(report.fixables.empty())
      << "first fixable: " << report.fixables.front().detail;
}

TEST_P(FsTest, ImageRemountsAfterShutdown) {
  MachineConfig cfg1;
  cfg1.scheme = GetParam();
  DiskImage saved(cfg1.geometry.total_blocks);
  {
    Machine m(cfg1);
    Proc p = m.MakeProc("u");
    RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
      Result<uint32_t> ino = co_await m.fs().Create(p, "/persist");
      CO_ASSERT_TRUE(ino.Ok());
      std::vector<uint8_t> data(2 * kBlockSize, 0x42);
      CO_ASSERT_TRUE((co_await m.fs().WriteFile(p, ino.value(), 0, data)).Ok());
      co_await m.Shutdown(p);
    });
    saved = m.CrashNow();
  }
  // Boot a second machine (same scheme) on the saved image.
  MachineConfig cfg2 = cfg1;
  cfg2.format = false;
  Machine m2(cfg2);
  m2.LoadImage(saved);
  Proc p2 = m2.MakeProc("u2");
  RunOnMachine(m2, p2, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> ino = co_await m.fs().Lookup(p, "/persist");
    CO_ASSERT_TRUE(ino.Ok());
    std::vector<uint8_t> in(2 * kBlockSize);
    Result<uint64_t> r = co_await m.fs().ReadFile(p, ino.value(), 0, in);
    CO_ASSERT_TRUE(r.Ok());
    EXPECT_EQ(r.value(), in.size());
    EXPECT_EQ(in[0], 0x42);
    EXPECT_EQ(in[in.size() - 1], 0x42);
  });
}

TEST_P(FsTest, ConcurrentUsersInSeparateDirs) {
  Machine m(Cfg());
  Proc boot = m.MakeProc("boot");
  bool booted = false;
  auto boot_task = [](Machine* m, Proc* p, bool* done) -> Task<void> {
    co_await m->Boot(*p);
    *done = true;
  };
  m.engine().Spawn(boot_task(&m, &boot, &booted), "boot");
  m.engine().RunUntil([&] { return booted; });

  constexpr int kUsers = 4;
  std::vector<Proc> procs;
  procs.reserve(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    procs.push_back(m.MakeProc("user" + std::to_string(u)));
  }
  int finished = 0;
  auto user_task = [](Machine* m, Proc* p, int u, int* finished) -> Task<void> {
    std::string dir = "/u" + std::to_string(u);
    FsStatus s = co_await m->fs().Mkdir(*p, dir);
    EXPECT_EQ(s, FsStatus::kOk);
    for (int i = 0; i < 25; ++i) {
      Result<uint32_t> ino = co_await m->fs().Create(*p, dir + "/f" + std::to_string(i));
      EXPECT_TRUE(ino.Ok());
      std::vector<uint8_t> data(1024, static_cast<uint8_t>(u));
      EXPECT_TRUE((co_await m->fs().WriteFile(*p, ino.value(), 0, data)).Ok());
    }
    for (int i = 0; i < 25; i += 2) {
      EXPECT_EQ(co_await m->fs().Unlink(*p, dir + "/f" + std::to_string(i)), FsStatus::kOk);
    }
    ++*finished;
  };
  for (int u = 0; u < kUsers; ++u) {
    m.engine().Spawn(user_task(&m, &procs[u], u, &finished), "user");
  }
  m.engine().RunUntil([&] { return finished == kUsers; });
  ASSERT_EQ(finished, kUsers);

  // Flush and audit.
  bool synced = false;
  auto sync_task = [](Machine* m, Proc* p, bool* done) -> Task<void> {
    co_await m->Shutdown(*p);
    *done = true;
  };
  m.engine().Spawn(sync_task(&m, &boot, &synced), "sync");
  m.engine().RunUntil([&] { return synced; });
  ASSERT_TRUE(synced);

  DiskImage snapshot = m.CrashNow();
  FsckReport report = FsckChecker(&snapshot).Check();
  for (const auto& v : report.violations) {
    ADD_FAILURE() << ToString(v.type) << ": " << v.detail;
  }
  EXPECT_EQ(report.files_seen, kUsers * 12u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FsTest,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return std::string(SchemeName(info.param));
                         });

// AnyDirtyInode() reads a count that each FileSystem keeps as inodes are
// dirtied, flushed and displaced from its inode cache. A seeded
// create/write/unlink churn over a few names brings freed inode numbers
// back; after every op, each shard's answer must match a recount of its
// cached inodes. Soft updates can lose a directory entry in this churn (a
// known defect), so each step looks its name up first and acts on what
// the file system reports: the churn checks the count, not the namespace.
class DirtyInodeCountTest : public ::testing::TestWithParam<std::tuple<Scheme, uint32_t>> {};

TEST_P(DirtyInodeCountTest, MatchesRecountThroughChurn) {
  MachineConfig cfg;
  cfg.scheme = std::get<0>(GetParam());
  cfg.disks = std::get<1>(GetParam());
  cfg.total_inodes = 256;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    int clean_checks = 0;
    auto check = [&m, &clean_checks](int step) {
      for (size_t s = 0; s < m.NumShards(); ++s) {
        FileSystem& fs = m.fs(s);
        size_t dirty = 0;
        for (uint32_t ino = 0; ino < fs.sb().total_inodes; ++ino) {
          InodeRef ip = fs.IgetCached(ino);
          dirty += ip != nullptr && ip->dirty();
        }
        EXPECT_EQ(fs.AnyDirtyInode(), dirty != 0) << "shard " << s << ", step " << step;
        clean_checks += dirty == 0;
      }
    };
    std::set<uint32_t> seen;
    int reused = 0;
    Rng rng(11);
    for (int step = 0; step < 240; ++step) {
      std::string path = "/f" + std::to_string(rng.UniformInt(0, 5));
      Result<uint32_t> found = co_await m.vfs().Lookup(p, path);
      if (!found.Ok()) {
        Result<uint32_t> ino = co_await m.vfs().Create(p, path);
        CO_ASSERT_TRUE(ino.Ok());
        reused += seen.insert(ino.value()).second ? 0 : 1;
      } else if (rng.Bernoulli(0.5)) {
        std::vector<uint8_t> data(static_cast<size_t>(rng.UniformInt(1, 3 * kBlockSize)),
                                  static_cast<uint8_t>(step));
        CO_ASSERT_TRUE((co_await m.vfs().WriteFile(p, found.value(), 0, data)).Ok());
      } else {
        CO_ASSERT_EQ(co_await m.vfs().Unlink(p, path), FsStatus::kOk);
      }
      if (step % 40 == 39) {
        co_await m.engine().Sleep(Sec(3));  // Syncer passes write everything back.
      }
      check(step);
    }
    CO_ASSERT_EQ(co_await m.vfs().SyncEverything(p), FsStatus::kOk);
    check(-1);
    EXPECT_FALSE(m.vfs().AnyDirtyInode());
    // The churn did what it is for: numbers came back, and both answers
    // were exercised.
    EXPECT_GT(reused, 0);
    EXPECT_GT(clean_checks, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    DelayedWriteSchemes, DirtyInodeCountTest,
    ::testing::Combine(::testing::Values(Scheme::kNoOrder, Scheme::kSoftUpdates, Scheme::kAsync),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, uint32_t>>& info) {
      return std::string(SchemeName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "disk";
    });

// Only cached inodes are counted: a holder of an inode displaced by a
// reused number can still dirty it without moving the count.
TEST(InodeCacheTest, DisplacedInodeDoesNotMoveTheDirtyCount) {
  MachineConfig cfg;
  cfg.scheme = Scheme::kNoOrder;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  RunOnMachine(m, p, [](Machine& m, Proc& p) -> Task<void> {
    Result<uint32_t> a = co_await m.fs().Create(p, "/a");
    CO_ASSERT_TRUE(a.Ok());
    InodeRef old = m.fs().IgetCached(a.value());
    CO_ASSERT_EQ(co_await m.fs().Unlink(p, "/a"), FsStatus::kOk);
    CO_ASSERT_EQ(co_await m.fs().SyncEverything(p), FsStatus::kOk);
    Result<uint32_t> b = co_await m.fs().Create(p, "/b");
    CO_ASSERT_TRUE(b.Ok());
    CO_ASSERT_EQ(b.value(), a.value());
    CO_ASSERT_TRUE(m.fs().IgetCached(b.value()) != old);
    CO_ASSERT_EQ(co_await m.fs().SyncEverything(p), FsStatus::kOk);
    CO_ASSERT_TRUE(!m.fs().AnyDirtyInode() && !old->dirty());
    co_await m.fs().MarkInodeDirty(p, *old);
    EXPECT_TRUE(old->dirty());
    EXPECT_FALSE(m.fs().AnyDirtyInode());
  });
}

}  // namespace
}  // namespace mufs
