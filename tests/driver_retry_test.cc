// Driver error-path tests: scripted fault injection, bounded exponential
// backoff, stall timeouts, bad-sector remapping into the spare pool,
// silent-damage (torn / misdirected write) media semantics, and
// preservation of the scheduling disciplines across re-issued requests.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tests/driver_trace_util.h"
#include "tests/fault_test_util.h"

namespace mufs {
namespace {

TEST(DriverRetryTest, TransientErrorRetriesThenSucceeds) {
  FaultRig rig;
  rig.faults.Script({FaultKind::kTransient, FaultKind::kNone});
  uint64_t id = rig.Write(30, 0xab);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);
  EXPECT_EQ(rig.Counter("driver.retries"), 1u);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 0u);
  BlockData d;
  rig.image.Read(30, &d);
  EXPECT_EQ(d[0], 0xab);
  auto done = Completions(rig.stats());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].retries, 1u);
  EXPECT_TRUE(done[0].ok);
  // A retried request still gets one queue-delay sample, taken when its
  // service starts.
  EXPECT_EQ(rig.driver->stats()->histogram("disk.queue_ns").count(), 1u);
  EXPECT_EQ(rig.driver->stats()->histogram("disk.response_ns").count(), 1u);
}

TEST(DriverRetryTest, ExponentialBackoffIsBoundedByCap) {
  DriverConfig cfg;
  cfg.retry_backoff = Msec(20);
  cfg.retry_backoff_cap = Msec(40);
  FaultRig rig({}, cfg);
  // Six failed attempts: backoffs 20, 40, 40, 40, 40, 40 ms (capped), then
  // the seventh attempt succeeds.
  rig.faults.Script({FaultKind::kTransient, FaultKind::kTransient, FaultKind::kTransient,
                     FaultKind::kTransient, FaultKind::kTransient, FaultKind::kTransient,
                     FaultKind::kNone});
  uint64_t id = rig.Write(40, 0x11);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);
  EXPECT_EQ(rig.Counter("driver.retries"), 6u);
  // At least the capped backoff total (220 ms); seven access times add at
  // most ~100 ms more. The uncapped series would be 1260 ms of backoff.
  EXPECT_GE(w.elapsed, Msec(220));
  EXPECT_LT(w.elapsed, Msec(320));
}

TEST(DriverRetryTest, StallTimesOutAndReissues) {
  FaultRig rig;
  rig.faults.Script({FaultKind::kStall, FaultKind::kNone});
  uint64_t id = rig.Write(50, 0x22);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);
  EXPECT_EQ(rig.Counter("driver.timeouts"), 1u);
  EXPECT_EQ(rig.Counter("driver.retries"), 1u);
  // The full timeout elapsed before the re-issue.
  EXPECT_GE(w.elapsed, rig.driver->config().request_timeout);
  BlockData d;
  rig.image.Read(50, &d);
  EXPECT_EQ(d[0], 0x22);
}

TEST(DriverRetryTest, BadSectorIsRemappedIntoSparePool) {
  FaultRig rig;
  rig.faults.MarkBadSector(60);
  uint64_t id = rig.Write(60, 0x33);
  WaitResult w = WaitOn(&rig, id);
  // Two bad-sector failures, then the remap makes the third attempt work.
  EXPECT_EQ(w.status, IoStatus::kOk);
  EXPECT_EQ(rig.Counter("driver.remaps"), 1u);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 0u);
  EXPECT_EQ(rig.driver->SparesUsed(), 1u);
  EXPECT_FALSE(rig.faults.IsBad(60));
  BlockData d;
  rig.image.Read(60, &d);
  EXPECT_EQ(d[0], 0x33);
}

TEST(DriverRetryTest, SparePoolExhaustionFailsTheRequest) {
  DriverConfig cfg;
  cfg.spare_blocks = 0;  // Nothing to remap into.
  cfg.max_retries = 3;
  FaultRig rig({}, cfg);
  BlockData before;
  before.fill(0x44);
  rig.image.Write(70, before, 0);
  rig.faults.MarkBadSector(70);
  uint64_t id = rig.Write(70, 0x55);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kFailed);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 1u);
  EXPECT_EQ(rig.Counter("driver.remaps"), 0u);
  EXPECT_TRUE(rig.faults.IsBad(70));
  // A failed write never reaches the medium.
  BlockData after;
  rig.image.Read(70, &after);
  EXPECT_EQ(after[0], 0x44);
}

TEST(DriverRetryTest, FailedReadLeavesDestinationUntouched) {
  DriverConfig cfg;
  cfg.max_retries = 2;
  FaultRig rig({}, cfg);
  BlockData src;
  src.fill(0x77);
  rig.image.Write(80, src, 0);
  rig.faults.Script({FaultKind::kTransient, FaultKind::kTransient, FaultKind::kTransient});
  BlockData out;
  out.fill(0xee);
  uint64_t id = rig.driver->IssueRead(80, &out);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kFailed);
  EXPECT_EQ(out[0], 0xee);
}

TEST(DriverRetryTest, IsrReceivesFailureStatus) {
  DriverConfig cfg;
  cfg.max_retries = 0;
  FaultRig rig({}, cfg);
  rig.faults.Script({FaultKind::kTransient});
  IoStatus seen = IoStatus::kOk;
  rig.driver->IssueWrite(90, {MakeBlock(1)}, {}, [&](IoStatus s) { seen = s; });
  rig.engine.Run();
  EXPECT_EQ(seen, IoStatus::kFailed);
}

TEST(DriverRetryTest, CLookOrderSurvivesARetriedRequest) {
  FaultRig rig;
  // The first serviced request (lowest block from the scan origin) fails
  // once; C-LOOK must still service ascending with no reordering.
  rig.faults.Script({FaultKind::kTransient});
  rig.Write(500, 1);
  rig.Write(300, 2);
  rig.Write(700, 3);
  rig.Write(100, 4);
  rig.engine.Run();
  std::vector<uint32_t> order;
  uint32_t total_retries = 0;
  for (const Completion& c : Completions(rig.stats())) {
    order.push_back(c.blkno);
    total_retries += c.retries;
    EXPECT_TRUE(c.ok);
  }
  EXPECT_EQ(order, (std::vector<uint32_t>{100, 300, 500, 700}));
  EXPECT_EQ(total_retries, 1u);
}

TEST(DriverRetryTest, ConcatenatedRequestRetriesAsAWhole) {
  FaultRig rig;
  rig.faults.Script({FaultKind::kTransient, FaultKind::kNone});
  uint64_t a = rig.Write(200, 0x01);
  uint64_t b = rig.Write(201, 0x02);  // Merged into the previous request.
  rig.engine.Run();
  auto done = Completions(rig.stats());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].count, 2u);
  EXPECT_EQ(done[0].retries, 1u);
  EXPECT_EQ(rig.driver->CompletionStatus(a), IoStatus::kOk);
  EXPECT_EQ(rig.driver->CompletionStatus(b), IoStatus::kOk);
  BlockData d;
  rig.image.Read(200, &d);
  EXPECT_EQ(d[0], 0x01);
  rig.image.Read(201, &d);
  EXPECT_EQ(d[0], 0x02);
}

// --- Error paths at queue depth > 1: a fault on one queued command must
// neither drop nor reorder its queue siblings, and the retry/remap
// machinery must behave exactly as at depth 1.

TEST(QueuedRetryTest, TransientErrorKeepsQueueSiblings) {
  DriverConfig cfg;
  cfg.queue_depth = 4;
  FaultRig rig({}, cfg);
  rig.faults.Script({FaultKind::kTransient, FaultKind::kNone});
  uint64_t a = rig.Write(500, 1);
  uint64_t b = rig.Write(300, 2);
  uint64_t c = rig.Write(700, 3);
  uint64_t d = rig.Write(100, 4);
  rig.engine.Run();
  EXPECT_EQ(rig.Counter("driver.retries"), 1u);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 0u);
  ASSERT_EQ(Completions(rig.stats()).size(), 4u);
  for (uint64_t id : {a, b, c, d}) {
    EXPECT_EQ(rig.driver->CompletionStatus(id), IoStatus::kOk);
  }
  BlockData blk;
  rig.image.Read(500, &blk);
  EXPECT_EQ(blk[0], 1);
  rig.image.Read(100, &blk);
  EXPECT_EQ(blk[0], 4);
}

TEST(QueuedRetryTest, BadSectorRemapKeepsQueueSiblings) {
  DriverConfig cfg;
  cfg.queue_depth = 4;
  FaultRig rig({}, cfg);
  rig.faults.MarkBadSector(60);
  uint64_t bad = rig.Write(60, 0x33);
  uint64_t s1 = rig.Write(10, 0x01);
  uint64_t s2 = rig.Write(20, 0x02);
  rig.engine.Run();
  EXPECT_EQ(rig.Counter("driver.remaps"), 1u);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 0u);
  for (uint64_t id : {bad, s1, s2}) {
    EXPECT_EQ(rig.driver->CompletionStatus(id), IoStatus::kOk);
  }
  ASSERT_EQ(Completions(rig.stats()).size(), 3u);
  BlockData blk;
  rig.image.Read(60, &blk);
  EXPECT_EQ(blk[0], 0x33);
}

TEST(QueuedRetryTest, StallTimeoutKeepsQueueSiblings) {
  DriverConfig cfg;
  cfg.queue_depth = 4;
  FaultRig rig({}, cfg);
  rig.faults.Script({FaultKind::kStall, FaultKind::kNone});
  uint64_t a = rig.Write(110, 0x0a);
  uint64_t b = rig.Write(220, 0x0b);
  rig.engine.Run();
  EXPECT_EQ(rig.Counter("driver.timeouts"), 1u);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 0u);
  EXPECT_EQ(rig.driver->CompletionStatus(a), IoStatus::kOk);
  EXPECT_EQ(rig.driver->CompletionStatus(b), IoStatus::kOk);
}

TEST(QueuedRetryTest, OrderedTagsHoldAcrossARetry) {
  DriverConfig cfg;
  cfg.queue_depth = 4;
  cfg.ordering = {.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kPart};
  FaultRig rig({}, cfg);
  // First serviced attempt fails: the retried command must neither let a
  // sibling pass its ordered barrier nor lose its own slot.
  rig.faults.Script({FaultKind::kTransient, FaultKind::kNone});
  rig.Write(500, 1);                  // Simple tag.
  rig.Write(300, 2, OrderingTag{.flag = true, .deps = {}});  // Ordered: a barrier.
  rig.Write(100, 3);                  // Simple, but behind the barrier.
  rig.engine.Run();
  std::vector<uint32_t> order;
  uint32_t retries = 0;
  for (const Completion& c : Completions(rig.stats())) {
    order.push_back(c.blkno);
    retries += c.retries;
    EXPECT_TRUE(c.ok);
  }
  // RPO would prefer 100 first; the ordered tag at 300 pins acceptance
  // order 500, 300, 100 even though the retry happens mid-queue.
  EXPECT_EQ(order, (std::vector<uint32_t>{500, 300, 100}));
  EXPECT_EQ(retries, 1u);
}

TEST(QueuedRetryTest, ExhaustedRetriesFailOnlyTheFaultedCommand) {
  DriverConfig cfg;
  cfg.queue_depth = 4;
  cfg.max_retries = 1;
  cfg.spare_blocks = 0;
  FaultRig rig({}, cfg);
  rig.faults.MarkBadSector(42);
  uint64_t bad = rig.Write(42, 0xbd);
  uint64_t ok1 = rig.Write(900, 0x01);
  uint64_t ok2 = rig.Write(901, 0x02);  // Merges with ok1.
  rig.engine.Run();
  EXPECT_EQ(rig.driver->CompletionStatus(bad), IoStatus::kFailed);
  EXPECT_EQ(rig.driver->CompletionStatus(ok1), IoStatus::kOk);
  EXPECT_EQ(rig.driver->CompletionStatus(ok2), IoStatus::kOk);
  EXPECT_EQ(rig.Counter("driver.gave_up"), 1u);
  EXPECT_EQ(rig.driver->PendingCount(), 0u);
  EXPECT_EQ(rig.driver->DeviceQueueSize(), 0u);
}

// --- Silent damage: the device reports success but the media transfer
// is torn or misdirected. The driver must not retry (it cannot see the
// lie), the request must complete kOk, and the image must show exactly
// the modelled damage - which the injector's ledger classifies.

TEST(SilentDamageTest, TornWritePersistsOnlyTheSectorPrefix) {
  FaultRig rig;
  BlockData old;
  old.fill(0xaa);
  rig.image.Write(30, old, 0);
  rig.faults.Script({FaultKind::kTornWrite});
  uint64_t id = rig.Write(30, 0x5c);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);  // The device lied: success.
  EXPECT_EQ(rig.Counter("driver.retries"), 0u);
  BlockData d;
  rig.image.Read(30, &d);
  EXPECT_EQ(d[0], 0x5c);
  EXPECT_EQ(d[kTornPersistBytes - 1], 0x5c);
  EXPECT_EQ(d[kTornPersistBytes], 0xaa);  // The tail kept the old content.
  EXPECT_EQ(d[kBlockSize - 1], 0xaa);
  EXPECT_EQ(rig.image.TornWriteCount(), 1u);
  ASSERT_EQ(rig.faults.Damage().size(), 1u);
  EXPECT_EQ(rig.faults.Damage()[0].kind, FaultKind::kTornWrite);
  EXPECT_EQ(rig.faults.Damage()[0].blkno, 30u);
}

TEST(SilentDamageTest, TornMultiBlockTransferDropsTheTail) {
  FaultRig rig;
  rig.faults.Script({FaultKind::kTornWrite});
  uint64_t id = rig.driver->IssueWrite(
      200, {MakeBlock(1), MakeBlock(2), MakeBlock(3), MakeBlock(4)});
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);
  // Blocks [0, count/2) land whole, block count/2 lands torn, the rest of
  // the transfer never reaches the medium.
  BlockData d;
  rig.image.Read(200, &d);
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[kBlockSize - 1], 1);
  rig.image.Read(201, &d);
  EXPECT_EQ(d[0], 2);
  EXPECT_EQ(d[kBlockSize - 1], 2);
  rig.image.Read(202, &d);
  EXPECT_EQ(d[0], 3);
  EXPECT_EQ(d[kBlockSize - 1], 0);  // Torn block: tail stayed (zero) stale.
  EXPECT_FALSE(rig.image.EverWritten(203));
  EXPECT_EQ(rig.image.TornWriteCount(), 1u);
}

TEST(SilentDamageTest, MisdirectedWriteLandsOnTheVictimRange) {
  FaultRig rig;
  BlockData old;
  old.fill(0xbb);
  rig.image.Write(300, old, 0);
  rig.image.Write(301, old, 0);
  rig.faults.Script({FaultKind::kMisdirected});
  uint64_t id = rig.driver->IssueWrite(300, {MakeBlock(0x0c), MakeBlock(0x0d)});
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);
  EXPECT_EQ(rig.Counter("driver.retries"), 0u);
  // The intended range kept its stale content; the slipped range (one
  // transfer length forward) took the payload.
  BlockData d;
  rig.image.Read(300, &d);
  EXPECT_EQ(d[0], 0xbb);
  rig.image.Read(301, &d);
  EXPECT_EQ(d[0], 0xbb);
  rig.image.Read(302, &d);
  EXPECT_EQ(d[0], 0x0c);
  rig.image.Read(303, &d);
  EXPECT_EQ(d[0], 0x0d);
  ASSERT_EQ(rig.faults.Damage().size(), 1u);
  EXPECT_EQ(rig.faults.Damage()[0].kind, FaultKind::kMisdirected);
  EXPECT_EQ(rig.faults.Damage()[0].victim, 302u);
}

TEST(SilentDamageTest, MisdirectVictimNeverHitsTheSuperblock) {
  EXPECT_EQ(FaultInjector::MisdirectVictim(100, 1, 1000), 101u);  // Forward slip.
  EXPECT_EQ(FaultInjector::MisdirectVictim(999, 1, 1000), 998u);  // Backward at the edge.
  EXPECT_EQ(FaultInjector::MisdirectVictim(50, 4, 0), 54u);       // Unknown size: forward.
  EXPECT_EQ(FaultInjector::MisdirectVictim(0, 1, 1), 0u);         // Degenerate: stays put.
}

TEST(SilentDamageTest, ReadsAreImmuneToSilentDamageKinds) {
  FaultRig rig;
  BlockData src;
  src.fill(0x77);
  rig.image.Write(80, src, 0);
  rig.faults.Script({FaultKind::kTornWrite});
  BlockData out;
  uint64_t id = rig.driver->IssueRead(80, &out);
  WaitResult w = WaitOn(&rig, id);
  EXPECT_EQ(w.status, IoStatus::kOk);
  EXPECT_EQ(out[0], 0x77);
  EXPECT_TRUE(rig.faults.Damage().empty());  // Downgraded before recording.
}

TEST(QueuedRetryTest, SilentDamageCompletesQueueSiblingsWithoutRetry) {
  DriverConfig cfg;
  cfg.queue_depth = 4;
  FaultRig rig({}, cfg);
  rig.faults.Script({FaultKind::kTornWrite});
  uint64_t a = rig.Write(500, 1);
  uint64_t b = rig.Write(300, 2);
  uint64_t c = rig.Write(700, 3);
  rig.engine.Run();
  EXPECT_EQ(rig.Counter("driver.retries"), 0u);
  for (uint64_t id : {a, b, c}) {
    EXPECT_EQ(rig.driver->CompletionStatus(id), IoStatus::kOk);
  }
  EXPECT_EQ(rig.image.TornWriteCount(), 1u);
  ASSERT_EQ(rig.faults.Damage().size(), 1u);
}

TEST(DriverRetryTest, SameSeedProducesIdenticalFaultSchedules) {
  auto run = [](std::vector<std::string>* trace, uint64_t* retries) {
    FaultConfig fc = FaultConfig::Uniform(0.2, 99);
    FaultRig rig(fc);
    for (uint32_t i = 0; i < 40; ++i) {
      rig.Write(100 + i * 7, static_cast<uint8_t>(i));
    }
    rig.engine.Run();
    *trace = rig.stats().trace_lines();
    *retries = rig.Counter("driver.retries");
  };
  std::vector<std::string> t1, t2;
  uint64_t r1 = 0, r2 = 0;
  run(&t1, &r1);
  run(&t2, &r2);
  EXPECT_GT(r1, 0u);  // At 20% the schedule is certainly non-trivial.
  EXPECT_EQ(r1, r2);
  // Every issue, fault, retry, service and completion, with its time.
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace mufs
