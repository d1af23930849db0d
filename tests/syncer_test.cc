// Syncer daemon tests: pass cadence, the two-phase mark-then-write
// accounting (a dirty buffer is written on the pass AFTER it is marked),
// the rotating window fraction, workitem servicing and DrainWork, and
// sticky write-failed buffers that the syncer must skip rather than
// livelock on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/cache/buffer_cache.h"
#include "src/cache/syncer.h"
#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/driver/disk_driver.h"
#include "src/fault/fault_injector.h"
#include "src/sim/engine.h"

namespace mufs {
namespace {

// Engine + injector + driver + cache wired together (the injector is
// declared before the driver so it outlives it). The syncer daemon is
// constructed per-test so each can pick its own interval.
struct Rig {
  explicit Rig(CacheConfig ccfg = {}, DriverConfig dcfg = {}, FaultConfig fcfg = {})
      : model(DiskGeometry{}), image(DiskGeometry{}.total_blocks), faults(fcfg) {
    dcfg.faults = &faults;
    driver = std::make_unique<DiskDriver>(&engine, &model, &image, dcfg);
    cache = std::make_unique<BufferCache>(&engine, driver.get(), ccfg);
  }
  Engine engine;
  DiskModel model;
  DiskImage image;
  FaultInjector faults;
  std::unique_ptr<DiskDriver> driver;
  std::unique_ptr<BufferCache> cache;

  template <typename F, typename... Args>
  void RunTask(F&& f, Args&&... args) {
    engine.Spawn(f(std::forward<Args>(args)...), "test");
    engine.Run();
  }

  // Dirties block `blkno` with fill byte `fill` via the delayed-write path.
  void DirtyBlock(uint32_t blkno, uint8_t fill) {
    auto body = [](Rig* r, uint32_t blkno, uint8_t fill) -> Task<void> {
      BufRef buf = co_await r->cache->Bget(blkno);
      buf->data().fill(fill);
      r->cache->MarkDirty(*buf);
    };
    RunTask(body, this, blkno, fill);
  }

  // One syncer pass plus the engine time to complete whatever it issued.
  void PassAndSettle(double fraction) {
    cache->SyncerPass(fraction);
    engine.Run();
  }
};

TEST(SyncerTest, PassCadenceMatchesTheInterval) {
  Rig rig;
  SyncerConfig scfg;
  scfg.interval = Sec(1);
  SyncerDaemon syncer(&rig.engine, rig.cache.get(), scfg);
  syncer.Start();
  auto body = [](Rig* r, SyncerDaemon* s) -> Task<void> {
    co_await r->engine.Sleep(Msec(5500));
    // Wakeups at t = 1..5 s: exactly five passes, none early, none extra.
    EXPECT_EQ(s->PassesRun(), 5u);
    s->Stop();
  };
  rig.RunTask(body, &rig, &syncer);
  EXPECT_EQ(syncer.PassesRun(), 5u);
  EXPECT_FALSE(syncer.Running());
}

TEST(SyncerTest, StartIsIdempotent) {
  Rig rig;
  SyncerConfig scfg;
  scfg.interval = Sec(1);
  SyncerDaemon syncer(&rig.engine, rig.cache.get(), scfg);
  syncer.Start();
  syncer.Start();  // Must not spawn a second loop (passes would double).
  auto body = [](Rig* r, SyncerDaemon* s) -> Task<void> {
    co_await r->engine.Sleep(Msec(3500));
    s->Stop();
  };
  rig.RunTask(body, &rig, &syncer);
  EXPECT_EQ(syncer.PassesRun(), 3u);
}

TEST(SyncerTest, DirtyBufferIsWrittenOnThePassAfterItIsMarked) {
  Rig rig;
  rig.DirtyBlock(50, 0xaa);
  EXPECT_EQ(rig.cache->DirtyCount(), 1u);
  EXPECT_EQ(rig.cache->stats().delayed_writes, 1u);

  // Pass 1 only marks: the buffer was not marked on a previous pass, so
  // nothing is written yet.
  rig.PassAndSettle(1.0);
  EXPECT_EQ(rig.cache->stats().write_issues, 0u);
  EXPECT_EQ(rig.cache->DirtyCount(), 1u);

  // Pass 2 writes what pass 1 marked.
  rig.PassAndSettle(1.0);
  EXPECT_EQ(rig.cache->stats().write_issues, 1u);
  EXPECT_EQ(rig.cache->DirtyCount(), 0u);
  BlockData d;
  rig.image.Read(50, &d);
  EXPECT_EQ(d[0], 0xaa);
}

TEST(SyncerTest, RedirtyBetweenPassesStillReachesDisk) {
  Rig rig;
  rig.DirtyBlock(60, 0x01);
  rig.cache->SyncerPass(1.0);  // Marks.
  // Modify again before the write pass: the mark survives, so the write
  // pass flushes the NEW bytes (delayed writes coalesce).
  rig.DirtyBlock(60, 0x02);
  rig.PassAndSettle(1.0);
  EXPECT_EQ(rig.cache->stats().write_issues, 1u);
  BlockData d;
  rig.image.Read(60, &d);
  EXPECT_EQ(d[0], 0x02);
}

TEST(SyncerTest, WindowFractionSpreadsWritebackAcrossPasses) {
  CacheConfig ccfg;
  ccfg.capacity_blocks = 16;  // Roomy: no capacity-pressure flushes.
  Rig rig(ccfg);
  for (uint32_t b = 100; b < 108; ++b) {
    rig.DirtyBlock(b, static_cast<uint8_t>(b));
  }
  EXPECT_EQ(rig.cache->DirtyCount(), 8u);

  // fraction = 1/8 of a 16-buffer cache: 2 buffers marked per pass, so
  // each write pass flushes at most 2 and full coverage takes 4 passes
  // after the initial mark-only one.
  std::vector<uint64_t> issued_per_pass;
  uint64_t prev = 0;
  for (int pass = 0; pass < 6; ++pass) {
    rig.PassAndSettle(0.125);
    uint64_t now = rig.cache->stats().write_issues;
    issued_per_pass.push_back(now - prev);
    prev = now;
  }
  EXPECT_EQ(issued_per_pass,
            (std::vector<uint64_t>{0, 2, 2, 2, 2, 0}));
  EXPECT_EQ(rig.cache->DirtyCount(), 0u);
  for (uint32_t b = 100; b < 108; ++b) {
    BlockData d;
    rig.image.Read(b, &d);
    EXPECT_EQ(d[0], static_cast<uint8_t>(b));
  }
}

TEST(SyncerTest, WorkitemsRunBeforeTheCachePass) {
  Rig rig;
  SyncerConfig scfg;
  scfg.interval = Sec(1);
  SyncerDaemon syncer(&rig.engine, rig.cache.get(), scfg);
  uint64_t passes_seen_by_workitem = 99;
  syncer.EnqueueWork([&]() -> Task<void> {
    // The workitem queue is serviced before the pass counter bumps, so a
    // workitem enqueued before the first wakeup observes zero passes.
    passes_seen_by_workitem = syncer.PassesRun();
    co_return;
  });
  EXPECT_EQ(syncer.PendingWork(), 1u);
  syncer.Start();
  auto body = [](Rig* r, SyncerDaemon* s) -> Task<void> {
    co_await r->engine.Sleep(Msec(1500));
    s->Stop();
  };
  rig.RunTask(body, &rig, &syncer);
  EXPECT_EQ(syncer.WorkitemsRun(), 1u);
  EXPECT_EQ(passes_seen_by_workitem, 0u);
  EXPECT_EQ(syncer.PendingWork(), 0u);
}

TEST(SyncerTest, DrainWorkRunsFollowOnWorkToQuiescence) {
  Rig rig;
  SyncerDaemon syncer(&rig.engine, rig.cache.get());
  // A workitem that enqueues a successor, like inode-free work enqueueing
  // block de-allocation. DrainWork must loop until the queue is empty.
  syncer.EnqueueWork([&]() -> Task<void> {
    syncer.EnqueueWork([]() -> Task<void> { co_return; });
    co_return;
  });
  auto body = [](SyncerDaemon* s) -> Task<void> { co_await s->DrainWork(); };
  rig.RunTask(body, &syncer);
  EXPECT_EQ(syncer.WorkitemsRun(), 2u);
  EXPECT_EQ(syncer.PendingWork(), 0u);
}

TEST(SyncerTest, WorkitemsAreServicedInFifoOrder) {
  Rig rig;
  SyncerDaemon syncer(&rig.engine, rig.cache.get());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    syncer.EnqueueWork([&order, i]() -> Task<void> {
      order.push_back(i);
      co_return;
    });
  }
  auto body = [](SyncerDaemon* s) -> Task<void> { co_await s->DrainWork(); };
  rig.RunTask(body, &syncer);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SyncerTest, TerminallyFailedBufferIsStickyAndSkipped) {
  DriverConfig dcfg;
  dcfg.max_retries = 1;
  Rig rig({}, dcfg);
  // Both attempts of the first write fail; the script then runs dry, so
  // any LATER write succeeds.
  rig.faults.Script({FaultKind::kTransient, FaultKind::kTransient});
  rig.DirtyBlock(70, 0x5e);

  rig.cache->SyncerPass(1.0);  // Mark.
  rig.PassAndSettle(1.0);      // Write: fails terminally.
  EXPECT_EQ(rig.cache->stats().write_failures, 1u);
  EXPECT_EQ(rig.cache->FailedCount(), 1u);
  // DirtyCount excludes write-failed buffers so drain loops cannot spin.
  EXPECT_EQ(rig.cache->DirtyCount(), 0u);

  // Later passes must skip the poisoned buffer entirely.
  uint64_t issues = rig.cache->stats().write_issues;
  rig.PassAndSettle(1.0);
  rig.PassAndSettle(1.0);
  EXPECT_EQ(rig.cache->stats().write_issues, issues);
  EXPECT_EQ(rig.cache->FailedCount(), 1u);

  // An explicit successful write clears the sticky flag.
  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bread(70);
    IoStatus s = co_await r->cache->Bwrite(buf);
    EXPECT_EQ(s, IoStatus::kOk);
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.cache->FailedCount(), 0u);
  BlockData d;
  rig.image.Read(70, &d);
  EXPECT_EQ(d[0], 0x5e);
}

// DirtyCount() and FailedCount() follow a buffer that is re-dirtied while
// a write of it is in flight: the write's outcome decides which count it
// lands in.
TEST(SyncerTest, RedirtiedFailedBufferCountsAsDirtyOnceRewriteSucceeds) {
  DriverConfig dcfg;
  dcfg.max_retries = 1;
  Rig rig({}, dcfg);
  rig.faults.Script({FaultKind::kTransient, FaultKind::kTransient});
  rig.DirtyBlock(70, 0x5e);
  rig.cache->SyncerPass(1.0);  // Mark.
  rig.PassAndSettle(1.0);      // Write: fails terminally.
  ASSERT_EQ(rig.cache->FailedCount(), 1u);
  ASSERT_EQ(rig.cache->DirtyCount(), 0u);

  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bread(70);
    uint64_t id = co_await r->cache->Bawrite(buf);
    // The rewrite took the dirty bit; the sticky flag waits for its outcome.
    r->cache->MarkDirty(*buf);
    EXPECT_EQ(r->cache->DirtyCount(), 0u);
    EXPECT_EQ(r->cache->FailedCount(), 1u);
    IoStatus s = co_await r->driver->WaitFor(id);
    EXPECT_EQ(s, IoStatus::kOk);
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.cache->DirtyCount(), 1u);
  EXPECT_EQ(rig.cache->FailedCount(), 0u);
}

TEST(SyncerTest, RedirtiedBufferCountsAsFailedWhenInFlightWriteFails) {
  DriverConfig dcfg;
  dcfg.max_retries = 1;
  Rig rig({}, dcfg);
  // Both attempts of the first write fail.
  rig.faults.Script({FaultKind::kTransient, FaultKind::kTransient});
  rig.DirtyBlock(70, 0x5e);

  auto body = [](Rig* r) -> Task<void> {
    BufRef buf = co_await r->cache->Bread(70);
    uint64_t id = co_await r->cache->Bawrite(buf);
    r->cache->MarkDirty(*buf);
    EXPECT_EQ(r->cache->DirtyCount(), 1u);
    EXPECT_EQ(r->cache->FailedCount(), 0u);
    IoStatus s = co_await r->driver->WaitFor(id);
    EXPECT_NE(s, IoStatus::kOk);
  };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.cache->DirtyCount(), 0u);
  EXPECT_EQ(rig.cache->FailedCount(), 1u);
}

TEST(SyncerTest, SyncAllAlsoSkipsFailedBuffersInsteadOfLivelocking) {
  DriverConfig dcfg;
  dcfg.max_retries = 1;
  Rig rig({}, dcfg);
  rig.faults.Script({FaultKind::kTransient, FaultKind::kTransient});
  // Non-adjacent blocks: adjacent ones would be concatenated into a
  // single device request and fail (or survive) as a unit.
  rig.DirtyBlock(80, 0x11);   // Will fail terminally.
  rig.DirtyBlock(200, 0x22);  // Will succeed.
  auto body = [](Rig* r) -> Task<void> { co_await r->cache->SyncAll(); };
  rig.RunTask(body, &rig);
  EXPECT_EQ(rig.cache->FailedCount(), 1u);
  EXPECT_EQ(rig.cache->DirtyCount(), 0u);
  BlockData d;
  rig.image.Read(200, &d);
  EXPECT_EQ(d[0], 0x22);
}

}  // namespace
}  // namespace mufs
