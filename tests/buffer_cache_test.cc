// Unit tests for the buffer cache, write locking / block copy, and the
// syncer daemon.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "src/cache/buffer_cache.h"
#include "src/cache/syncer.h"
#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/driver/disk_driver.h"
#include "src/sim/engine.h"

namespace mufs {
namespace {

struct Rig {
  explicit Rig(CacheConfig ccfg = {}, DriverConfig dcfg = {})
      : model(DiskGeometry{}), image(DiskGeometry{}.total_blocks) {
    stats.SetClock([this] { return engine.Now(); });
    driver = std::make_unique<DiskDriver>(&engine, &model, &image, &stats, dcfg);
    cache = std::make_unique<BufferCache>(&engine, driver.get(), &stats, ccfg);
  }
  Engine engine;
  DiskModel model;
  DiskImage image;
  StatsRegistry stats;
  std::unique_ptr<DiskDriver> driver;
  std::unique_ptr<BufferCache> cache;

  uint64_t Count(std::string_view name) { return stats.counter(name).value(); }

  // Runs a coroutine to completion on the engine.
  template <typename F, typename... Args>
  void RunTask(F&& f, Args&&... args) {
    engine.Spawn(f(std::forward<Args>(args)...), "test");
    engine.Run();
  }
};

TEST(BufferCacheTest, BreadMissReadsFromDisk) {
  Rig rig;
  BlockData src;
  src.fill(0x77);
  rig.image.Write(10, src, 0);
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bread(10);
    EXPECT_EQ(buf->data()[0], 0x77);
    EXPECT_TRUE(buf->valid());
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.Count("cache.misses"), 1u);
}

TEST(BufferCacheTest, SecondBreadIsCacheHit) {
  Rig rig;
  auto body = [](Rig* r) -> Task<void> {
    (void)co_await r->cache->Bread(10);
    uint64_t reads_before = r->driver->TotalRequests();
    (void)co_await r->cache->Bread(10);
    EXPECT_EQ(r->driver->TotalRequests(), reads_before);
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.Count("cache.hits"), 1u);
}

TEST(BufferCacheTest, BgetReturnsZeroedBlockWithoutRead) {
  Rig rig;
  BlockData src;
  src.fill(0xde);
  rig.image.Write(20, src, 0);
  auto body = [](Rig* r) -> Task<void> {
    uint64_t before = r->driver->TotalRequests();
    BufRef buf = co_await r->cache->Bget(20);
    EXPECT_EQ(r->driver->TotalRequests(), before);  // No disk read.
    EXPECT_EQ(buf->data()[0], 0);
  };
  rig.RunTask(body, &rig);
}

TEST(BufferCacheTest, MarkDirtyThenSyncAllPersists) {
  Rig rig;
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(30);
    buf->data()[0] = 0xaa;
    r->cache->MarkDirty(*buf);
    EXPECT_EQ(r->cache->DirtyCount(), 1u);
    co_await r->cache->SyncAll();
    EXPECT_EQ(r->cache->DirtyCount(), 0u);
  };
  rig.RunTask(body, &rig);
  BlockData d;
  rig.image.Read(30, &d);
  EXPECT_EQ(d[0], 0xaa);
}

TEST(BufferCacheTest, BwriteIsSynchronous) {
  Rig rig;
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(40);
    buf->data()[0] = 0x11;
    r->cache->MarkDirty(*buf);
    co_await r->cache->Bwrite(buf);
    // On return the data is on stable storage.
    BlockData d;
    r->image.Read(40, &d);
    EXPECT_EQ(d[0], 0x11);
    EXPECT_FALSE(buf->dirty());
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.Count("cache.sync_writes"), 1u);
}

TEST(BufferCacheTest, WriteLockBlocksSecondUpdater) {
  Rig rig;  // copy_blocks = false: async writes lock the buffer.
  SimTime update_done = 0;
  SimTime io_done = 0;
  auto body = [](Rig* r, SimTime* update_done, SimTime* io_done) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(50);
    buf->data()[0] = 1;
    r->cache->MarkDirty(*buf);
    uint64_t id = co_await r->cache->Bawrite(buf);
    EXPECT_TRUE(buf->io_locked());
    // Second update must wait for the I/O.
    co_await r->cache->BeginUpdate(*buf);
    *update_done = r->engine.Now();
    co_await r->driver->WaitFor(id);
    *io_done = r->engine.Now();
  };
  rig.RunTask(body, &rig, &update_done, &io_done);
  EXPECT_GT(update_done, 0);
  EXPECT_EQ(update_done, io_done);  // Released exactly at completion.
  EXPECT_EQ(rig.Count("cache.write_lock_waits"), 1u);
}

TEST(BufferCacheTest, CopyBlocksAvoidsWriteLock) {
  Rig rig{CacheConfig{.copy_blocks = true}};
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(60);
    buf->data()[0] = 1;
    r->cache->MarkDirty(*buf);
    (void)co_await r->cache->Bawrite(buf);
    EXPECT_FALSE(buf->io_locked());
    SimTime before = r->engine.Now();
    co_await r->cache->BeginUpdate(*buf);  // Immediate.
    EXPECT_EQ(r->engine.Now(), before);
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.Count("cache.block_copies"), 1u);
  EXPECT_EQ(rig.Count("cache.write_lock_waits"), 0u);
}

TEST(BufferCacheTest, CopyBlocksSnapshotsContentAtIssue) {
  Rig rig{CacheConfig{.copy_blocks = true}};
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(70);
    buf->data()[0] = 1;
    r->cache->MarkDirty(*buf);
    uint64_t id = co_await r->cache->Bawrite(buf);
    buf->data()[0] = 2;  // Modify during flight: must not affect the I/O.
    co_await r->driver->WaitFor(id);
    BlockData d;
    r->image.Read(70, &d);
    EXPECT_EQ(d[0], 1);
  };
  rig.RunTask(body, &rig);
}

TEST(BufferCacheTest, EvictionDropsCleanColdBuffer) {
  Rig rig{CacheConfig{.capacity_blocks = 4}};
  auto body = [](Rig* r) -> Task<void> {
    for (uint32_t b = 0; b < 8; ++b) {
      BufRef buf = co_await r->cache->Bget(1000 + b);
      (void)buf;
    }
    EXPECT_LE(r->cache->CachedCount(), 4u);
  };
  rig.RunTask(body, &rig);
  EXPECT_GE(rig.Count("cache.evictions"), 4u);
}

TEST(BufferCacheTest, EvictionWritesBackDirtyBuffer) {
  Rig rig{CacheConfig{.capacity_blocks = 4}};
  auto body = [](Rig* r) -> Task<void> {
    for (uint32_t b = 0; b < 8; ++b) {
      BufRef buf = co_await r->cache->Bget(2000 + b);
      buf->data()[0] = static_cast<uint8_t>(b + 1);
      r->cache->MarkDirty(*buf);
    }
    co_await r->cache->SyncAll();
  };
  rig.RunTask(body, &rig);
  // Every block's data must have survived eviction.
  for (uint32_t b = 0; b < 8; ++b) {
    BlockData d;
    rig.image.Read(2000 + b, &d);
    EXPECT_EQ(d[0], b + 1) << "block " << b;
  }
}

TEST(BufferCacheTest, ZeroBlockIsAllZeroes) {
  Rig rig;
  auto z = rig.cache->ZeroBlock();
  for (uint8_t byte : *z) {
    ASSERT_EQ(byte, 0);
  }
}

// A DepHooks that counts invocations and substitutes a marker source.
class CountingHooks : public DepHooks {
 public:
  std::shared_ptr<const BlockData> PrepareWrite(Buf& buf) override {
    (void)buf;
    ++prepares;
    if (!substitute) {
      return nullptr;
    }
    auto alt = std::make_shared<BlockData>();
    alt->fill(0xee);
    return alt;
  }
  void WriteDone(Buf& buf) override {
    (void)buf;
    ++dones;
  }
  void BufferAccessed(Buf& buf) override {
    (void)buf;
    ++accesses;
  }
  int prepares = 0;
  int dones = 0;
  int accesses = 0;
  bool substitute = false;
};

TEST(DepHooksTest, PrepareAndDoneCalledAroundWrite) {
  Rig rig;
  CountingHooks hooks;
  rig.cache->SetDepHooks(&hooks);
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(90);
    buf->data()[0] = 3;
    r->cache->MarkDirty(*buf);
    co_await r->cache->Bwrite(buf);
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(hooks.prepares, 1);
  EXPECT_EQ(hooks.dones, 1);
  EXPECT_GE(hooks.accesses, 1);
}

TEST(DepHooksTest, SubstituteSourceIsWrittenInsteadOfBuffer) {
  Rig rig;
  CountingHooks hooks;
  hooks.substitute = true;
  rig.cache->SetDepHooks(&hooks);
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(91);
    buf->data()[0] = 3;
    r->cache->MarkDirty(*buf);
    co_await r->cache->Bwrite(buf);
    // With a substitute source the buffer itself is never locked.
    EXPECT_FALSE(buf->io_locked());
  };
  rig.RunTask(body, &rig);
  BlockData d;
  rig.image.Read(91, &d);
  EXPECT_EQ(d[0], 0xee);
}

TEST(DepHooksTest, RolledBackBufferBlocksReaders) {
  Rig rig;
  // Hook that marks the buffer rolled back during writes.
  class RollbackHooks : public DepHooks {
   public:
    std::shared_ptr<const BlockData> PrepareWrite(Buf& buf) override {
      buf.MarkRolledBack();
      return nullptr;
    }
  };
  RollbackHooks hooks;
  rig.cache->SetDepHooks(&hooks);
  SimTime read_ok_at = -1;
  SimTime write_done_at = -1;
  auto body = [](Rig* r, SimTime* read_ok_at, SimTime* write_done_at) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(92);
    buf->data()[0] = 3;
    r->cache->MarkDirty(*buf);
    uint64_t id = co_await r->cache->Bawrite(buf);
    EXPECT_TRUE(buf->rolled_back());
    co_await r->cache->BeginRead(*buf);
    *read_ok_at = r->engine.Now();
    co_await r->driver->WaitFor(id);
    *write_done_at = r->engine.Now();
  };
  rig.RunTask(body, &rig, &read_ok_at, &write_done_at);
  EXPECT_EQ(read_ok_at, write_done_at);
}

TEST(SyncerTest, PassWritesPreviouslyMarkedBuffers) {
  Rig rig;
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(100);
    buf->data()[0] = 9;
    r->cache->MarkDirty(*buf);
    // Pass 1 marks; no writes yet.
    r->cache->SyncerPass(1.0);
    EXPECT_EQ(r->Count("cache.write_issues"), 0u);
    // Pass 2 writes what pass 1 marked.
    r->cache->SyncerPass(1.0);
    EXPECT_EQ(r->Count("cache.write_issues"), 1u);
    co_await r->driver->Drain();
  };
  rig.RunTask(body, &rig);
  BlockData d;
  rig.image.Read(100, &d);
  EXPECT_EQ(d[0], 9);
}

TEST(SyncerTest, DaemonFlushesDirtyBlockWithinSweep) {
  Rig rig;
  SyncerDaemon syncer(&rig.engine, rig.cache.get(), SyncerConfig{.sweep_seconds = 2});
  syncer.Start();
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bget(110);
    buf->data()[0] = 4;
    r->cache->MarkDirty(*buf);
  };
  rig.engine.Spawn(body(&rig), "writer");
  rig.engine.Run(Sec(10));
  syncer.Stop();
  BlockData d;
  rig.image.Read(110, &d);
  EXPECT_EQ(d[0], 4);
  EXPECT_GE(syncer.PassesRun(), 2u);
}

TEST(SyncerTest, WorkitemsRunBeforeNextPass) {
  Rig rig;
  SyncerDaemon syncer(&rig.engine, rig.cache.get());
  syncer.Start();
  int ran = 0;
  syncer.EnqueueWork([&ran]() -> Task<void> {
    ++ran;
    co_return;
  });
  rig.engine.Run(Msec(1500));
  syncer.Stop();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(syncer.WorkitemsRun(), 1u);
}

TEST(SyncerTest, WorkitemCanBlockOnIo) {
  Rig rig;
  SyncerDaemon syncer(&rig.engine, rig.cache.get());
  syncer.Start();
  bool finished = false;
  BufferCache* cache = rig.cache.get();
  syncer.EnqueueWork([cache, &finished]() -> Task<void> {
    BufRef buf = co_await cache->Bget(120);
    buf->data()[0] = 5;
    cache->MarkDirty(*buf);
    co_await cache->Bwrite(buf);
    finished = true;
  });
  rig.engine.Run(Sec(3));
  syncer.Stop();
  EXPECT_TRUE(finished);
}

TEST(SyncerTest, DrainWorkRunsChainedWorkitems) {
  Rig rig;
  SyncerDaemon syncer(&rig.engine, rig.cache.get());
  int stage = 0;
  syncer.EnqueueWork([&]() -> Task<void> {
    stage = 1;
    syncer.EnqueueWork([&]() -> Task<void> {
      stage = 2;
      co_return;
    });
    co_return;
  });
  auto body = [](SyncerDaemon* s) -> Task<void> { co_await s->DrainWork(); };
  rig.engine.Spawn(body(&syncer), "drain");
  rig.engine.Run();
  EXPECT_EQ(stage, 2);
}

}  // namespace
}  // namespace mufs
