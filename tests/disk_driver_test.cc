// Unit tests for the disk driver: scheduling, merging, and every ordering
// discipline from the paper's section 3.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/driver/disk_driver.h"
#include "src/sim/engine.h"
#include "tests/driver_trace_util.h"

namespace mufs {
namespace {

std::shared_ptr<const BlockData> MakeBlock(uint8_t fill) {
  auto b = std::make_shared<BlockData>();
  b->fill(fill);
  return b;
}

// Small fixture wiring an engine, model, image and driver together. The
// driver shares an external registry with tracing on, so tests read its
// behaviour back from the JSONL trace.
struct Rig {
  explicit Rig(OrderingRules rules = {})
      : model(DiskGeometry{}), image(DiskGeometry{}.total_blocks) {
    stats.SetClock([this] { return engine.Now(); });
    stats.EnableTrace();
    DriverConfig cfg;
    cfg.ordering = rules;
    cfg.stats = &stats;
    driver = std::make_unique<DiskDriver>(&engine, &model, &image, cfg);
  }
  Engine engine;
  DiskModel model;
  DiskImage image;
  StatsRegistry stats;
  std::unique_ptr<DiskDriver> driver;

  uint64_t Write(uint32_t blk, uint8_t fill, OrderingTag tag = {}) {
    return driver->IssueWrite(blk, {MakeBlock(fill)}, tag);
  }
};

// Block numbers of the device requests, in completion order.
std::vector<uint32_t> CompletionBlocks(const Rig& rig) {
  std::vector<uint32_t> out;
  for (const Completion& c : Completions(rig.stats)) {
    out.push_back(c.blkno);
  }
  return out;
}

TEST(DriverBasicTest, WriteReachesImage) {
  Rig rig;
  rig.Write(10, 0xab);
  rig.engine.Run();
  BlockData d;
  rig.image.Read(10, &d);
  EXPECT_EQ(d[0], 0xab);
  EXPECT_EQ(rig.driver->TotalRequests(), 1u);
}

TEST(DriverBasicTest, ReadReturnsImageContent) {
  Rig rig;
  BlockData src;
  src.fill(0x5c);
  rig.image.Write(20, src, 0);
  BlockData dst;
  dst.fill(0);
  rig.driver->IssueRead(20, &dst);
  rig.engine.Run();
  EXPECT_EQ(dst[0], 0x5c);
}

TEST(DriverBasicTest, WaitForBlocksUntilComplete) {
  Rig rig;
  bool after_wait = false;
  auto body = [](Rig* rig, bool* after) -> Task<void> {
    uint64_t id = rig->driver->IssueWrite(30, {MakeBlock(1)});
    co_await rig->driver->WaitFor(id);
    EXPECT_TRUE(rig->driver->IsComplete(id));
    *after = true;
  };
  rig.engine.Spawn(body(&rig, &after_wait), "w");
  rig.engine.Run();
  EXPECT_TRUE(after_wait);
}

TEST(DriverBasicTest, WaitForCompletedRequestReturnsImmediately) {
  Rig rig;
  uint64_t id = rig.Write(31, 2);
  rig.engine.Run();
  bool done = false;
  auto body = [](Rig* rig, uint64_t id, bool* done) -> Task<void> {
    co_await rig->driver->WaitFor(id);
    *done = true;
  };
  rig.engine.Spawn(body(&rig, id, &done), "w");
  rig.engine.Run();
  EXPECT_TRUE(done);
}

TEST(DriverBasicTest, IsrRunsAtCompletion) {
  Rig rig;
  int calls = 0;
  rig.driver->IssueWrite(40, {MakeBlock(1)}, {}, [&](IoStatus) { ++calls; });
  rig.engine.Run();
  EXPECT_EQ(calls, 1);
}

TEST(DriverBasicTest, DrainWaitsForEmptyQueue) {
  Rig rig;
  for (int i = 0; i < 5; ++i) {
    rig.Write(100 + static_cast<uint32_t>(i) * 50, 1);
  }
  bool drained = false;
  auto body = [](Rig* rig, bool* drained) -> Task<void> {
    co_await rig->driver->Drain();
    EXPECT_EQ(rig->driver->PendingCount(), 0u);
    *drained = true;
  };
  rig.engine.Spawn(body(&rig, &drained), "drain");
  rig.engine.Run();
  EXPECT_TRUE(drained);
}

TEST(DriverSchedulingTest, CLookOrdersByBlockNumber) {
  Rig rig;
  // Issue far-apart writes in scrambled order within one event tick; the
  // C-LOOK pass should service them in ascending block order.
  rig.Write(5000, 1);
  rig.Write(1000, 2);
  rig.Write(9000, 3);
  rig.Write(3000, 4);
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{1000, 3000, 5000, 9000}));
}

TEST(DriverSchedulingTest, SequentialWritesMergeIntoOneRequest) {
  Rig rig;
  rig.Write(200, 1);
  rig.Write(201, 2);
  rig.Write(202, 3);
  rig.engine.Run();
  EXPECT_EQ(rig.driver->MergedRequests(), 2u);
  auto done = Completions(rig.stats);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].count, 3u);
  BlockData d;
  rig.image.Read(202, &d);
  EXPECT_EQ(d[0], 3);
}

TEST(DriverSchedulingTest, MergeRespectsSizeCap) {
  Rig rig;
  for (uint32_t i = 0; i < 20; ++i) {
    rig.Write(300 + i, static_cast<uint8_t>(i));
  }
  rig.engine.Run();
  // 16-block cap: 20 sequential blocks need at least two device requests.
  auto done = Completions(rig.stats);
  EXPECT_GE(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_LE(c.count, 16u);
  }
}

TEST(DriverSchedulingTest, FlaggedWritesDoNotMerge) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kPart}};
  rig.Write(400, 1, OrderingTag{.flag = true, .deps = {}});
  rig.Write(401, 2, OrderingTag{.flag = true, .deps = {}});
  rig.engine.Run();
  EXPECT_EQ(Completions(rig.stats).size(), 2u);
}

TEST(DriverFlagTest, PartHoldsLaterRequestsUntilFlaggedCompletes) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kPart}};
  // Flagged write at a far position, then a near write issued after it.
  // C-LOOK alone would service 100 first; Part semantics forbid it.
  rig.Write(5000, 1, OrderingTag{.flag = true, .deps = {}});
  rig.Write(100, 2);
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{5000, 100}));
}

TEST(DriverFlagTest, PartAllowsEarlierRequestsToFloat) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kPart}};
  // Non-flagged issued first at far position, then flagged. Part lets the
  // flagged request be serviced before the earlier non-flagged one if the
  // scheduler prefers, and lets the earlier one reorder with later ones.
  rig.Write(9000, 1);
  rig.Write(200, 2, OrderingTag{.flag = true, .deps = {}});
  rig.Write(100, 3);
  rig.engine.Run();
  // 200 (flagged) must precede 100 (issued after it). 9000 is free; C-LOOK
  // from origin 0 picks 200 first, then 100... 100 < 200 so after wrap.
  auto blocks = CompletionBlocks(rig);
  ASSERT_EQ(blocks.size(), 3u);
  auto pos = [&](uint32_t b) {
    return std::find(blocks.begin(), blocks.end(), b) - blocks.begin();
  };
  EXPECT_LT(pos(200), pos(100));
}

TEST(DriverFlagTest, FullActsAsBarrierBothDirections) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kFull}};
  rig.Write(9000, 1);
  rig.Write(200, 2, OrderingTag{.flag = true, .deps = {}});
  rig.Write(100, 3);
  rig.engine.Run();
  // Full: 9000 (before flag) must complete before 200; 100 after 200.
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{9000, 200, 100}));
}

TEST(DriverFlagTest, BackHoldsLaterBehindFlagAndItsPredecessors) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kBack}};
  rig.Write(9000, 1);
  rig.Write(200, 2, OrderingTag{.flag = true, .deps = {}});
  rig.Write(100, 3);
  rig.engine.Run();
  auto blocks = CompletionBlocks(rig);
  auto pos = [&](uint32_t b) {
    return std::find(blocks.begin(), blocks.end(), b) - blocks.begin();
  };
  // 100 (after flag) must follow both 200 and 200's predecessor 9000.
  EXPECT_LT(pos(200), pos(100));
  EXPECT_LT(pos(9000), pos(100));
}

TEST(DriverFlagTest, BackAllowsFlaggedToFloatWithPredecessors) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kBack}};
  rig.Write(9000, 1);
  rig.Write(200, 2, OrderingTag{.flag = true, .deps = {}});
  rig.engine.Run();
  // Back (unlike Full) lets the flagged request run before the earlier
  // non-flagged one; C-LOOK prefers 200 from origin 0.
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{200, 9000}));
}

TEST(DriverFlagTest, ReadsWaitBehindBarrierWithoutNr) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag,
                        .semantics = FlagSemantics::kPart,
                        .reads_bypass = false}};
  BlockData out;
  rig.Write(5000, 1, OrderingTag{.flag = true, .deps = {}});
  rig.driver->IssueRead(100, &out);
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{5000, 100}));
}

TEST(DriverFlagTest, NrLetsNonConflictingReadBypass) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag,
                        .semantics = FlagSemantics::kPart,
                        .reads_bypass = true}};
  BlockData out;
  rig.Write(5000, 1, OrderingTag{.flag = true, .deps = {}});
  rig.driver->IssueRead(100, &out);
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{100, 5000}));
}

TEST(DriverFlagTest, NrConflictingReadDoesNotBypass) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag,
                        .semantics = FlagSemantics::kPart,
                        .reads_bypass = true}};
  BlockData out;
  rig.Write(5000, 7, OrderingTag{.flag = true, .deps = {}});
  rig.driver->IssueRead(5000, &out);  // Same block: must see the write.
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{5000, 5000}));
  EXPECT_EQ(out[0], 7);
}

TEST(DriverChainTest, DependentRequestWaitsForDependency) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  uint64_t first = rig.Write(5000, 1);
  rig.Write(100, 2, OrderingTag{.flag = false, .deps = {first}});
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{5000, 100}));
}

TEST(DriverChainTest, IndependentRequestsReorderFreely) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  rig.Write(5000, 1);
  rig.Write(100, 2);  // No deps: C-LOOK takes 100 first.
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{100, 5000}));
}

TEST(DriverChainTest, ChainOfThreeServicesInOrder) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  uint64_t a = rig.Write(9000, 1);
  uint64_t b = rig.Write(5000, 2, OrderingTag{.flag = false, .deps = {a}});
  rig.Write(100, 3, OrderingTag{.flag = false, .deps = {b}});
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{9000, 5000, 100}));
}

TEST(DriverChainTest, DependencyOnCompletedRequestIsSatisfied) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  uint64_t a = rig.Write(100, 1);
  rig.engine.Run();
  rig.Write(200, 2, OrderingTag{.flag = false, .deps = {a}});
  rig.engine.Run();
  EXPECT_EQ(Completions(rig.stats).size(), 2u);
}

TEST(DriverChainTest, ReadsNeverBlockedByChains) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  uint64_t a = rig.Write(9000, 1);
  rig.Write(5000, 2, OrderingTag{.flag = false, .deps = {a}});
  BlockData out;
  rig.driver->IssueRead(100, &out);
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig).front(), 100u);
}

TEST(DriverChainTest, DiamondDependencyRespected) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  uint64_t a = rig.Write(9000, 1);
  uint64_t b = rig.Write(7000, 2, OrderingTag{.flag = false, .deps = {a}});
  uint64_t c = rig.Write(5000, 3, OrderingTag{.flag = false, .deps = {a}});
  rig.Write(100, 4, OrderingTag{.flag = false, .deps = {b, c}});
  rig.engine.Run();
  auto blocks = CompletionBlocks(rig);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks.front(), 9000u);
  EXPECT_EQ(blocks.back(), 100u);
}

TEST(DriverIgnoreTest, NoneModeIgnoresFlags) {
  Rig rig{OrderingRules{.mode = OrderingMode::kNone}};
  rig.Write(5000, 1, OrderingTag{.flag = true, .deps = {}});
  rig.Write(100, 2);
  rig.engine.Run();
  EXPECT_EQ(CompletionBlocks(rig), (std::vector<uint32_t>{100, 5000}));
}

TEST(DriverTraceTest, ResponseTimeDecomposes) {
  Rig rig;
  rig.Write(1000, 1);
  rig.engine.Run();
  const LatencyHistogram& queue = rig.stats.histogram("disk.queue_ns");
  const LatencyHistogram& access = rig.stats.histogram("disk.access_ns");
  const LatencyHistogram& response = rig.stats.histogram("disk.response_ns");
  ASSERT_EQ(response.count(), 1u);
  EXPECT_EQ(queue.count(), 1u);
  EXPECT_EQ(access.count(), 1u);
  EXPECT_EQ(queue.sum() + access.sum(), response.sum());
  EXPECT_GT(access.sum(), 0);
}

// ---------------------------------------------------------------------
// Trace-record property tests: reconstruct driver behaviour from the
// stats registry's JSONL trace and check scheduling invariants over whole
// runs instead of hand-picked completion orders.
// ---------------------------------------------------------------------

TEST(DriverTracePropertyTest, CLookNeverServicesOutOfSweepOrder) {
  Rig rig;  // kNone: every pending request is eligible.
  // Scrambled far-apart single-block writes (no two adjacent, so nothing
  // concatenates) issued in bursts, so picks happen against many
  // different pending sets.
  auto body = [](Rig* rig) -> Task<void> {
    constexpr uint32_t kBlocks[] = {9000, 120, 5400, 30,   7700, 2300, 880, 6100,
                                    40,   3500, 9900, 1500, 260,  4800, 710};
    int i = 0;
    for (uint32_t b : kBlocks) {
      rig->driver->IssueWrite(b, {MakeBlock(1)});
      if (++i % 3 == 0) {
        co_await rig->engine.Sleep(Usec(1500));
      }
    }
  };
  rig.engine.Spawn(body(&rig), "issuer");
  rig.engine.Run();

  // Replay the trace: `pending` is exactly the queue content at each
  // service decision (the service record is emitted at pick time, with no
  // suspension in between, so stream order is decision order).
  std::map<int64_t, int64_t> pending;  // id -> blkno.
  int services = 0;
  for (const std::string& line : rig.stats.trace_lines()) {
    if (IsEvent(line, "disk.issue")) {
      pending[Field(line, "id")] = Field(line, "blkno");
    } else if (IsEvent(line, "disk.service")) {
      int64_t id = Field(line, "id");
      int64_t blkno = Field(line, "blkno");
      int64_t origin = Field(line, "origin");
      ASSERT_TRUE(pending.contains(id)) << line;
      pending.erase(id);
      // C-LOOK: nothing pending may lie between the sweep origin and the
      // chosen block (forward), and a wrap pick must mean the forward
      // window was empty AND the pick is the lowest pending block.
      for (const auto& [pid, pblk] : pending) {
        if (blkno >= origin) {
          EXPECT_FALSE(pblk >= origin && pblk < blkno)
              << "pending block " << pblk << " skipped: origin " << origin << " serviced "
              << blkno;
        } else {
          EXPECT_LT(pblk, origin) << "forward candidate " << pblk << " ignored by wrap to "
                                  << blkno << " (origin " << origin << ")";
          EXPECT_GE(pblk, blkno) << "wrap skipped lower block " << pblk;
        }
      }
      ++services;
    }
  }
  EXPECT_EQ(services, 15);
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(rig.stats.trace_records_dropped(), 0u);
}

TEST(DriverTracePropertyTest, ConcatNeverMergesAcrossFlagBoundary) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kPart}};
  // Sequential run with a flagged request in the middle: neither the
  // flagged request nor its successor may concatenate.
  rig.driver->IssueWrite(500, {MakeBlock(1)});
  rig.driver->IssueWrite(501, {MakeBlock(2)}, OrderingTag{.flag = true, .deps = {}});
  rig.driver->IssueWrite(502, {MakeBlock(3)});
  // Control group: a plain sequential pair, which must concatenate.
  rig.driver->IssueWrite(800, {MakeBlock(4)});
  rig.driver->IssueWrite(801, {MakeBlock(5)});
  rig.engine.Run();

  int concats = 0;
  int flagged_services = 0;
  for (const std::string& line : rig.stats.trace_lines()) {
    if (IsEvent(line, "disk.concat")) {
      ++concats;
      EXPECT_EQ(Field(line, "blkno"), 800) << "merged across the flag boundary: " << line;
      EXPECT_EQ(Field(line, "count"), 2);
    } else if (IsEvent(line, "disk.service")) {
      int64_t blkno = Field(line, "blkno");
      if (blkno >= 500 && blkno <= 502) {
        // The flagged run must arrive as three 1-block device requests.
        EXPECT_EQ(Field(line, "count"), 1) << line;
        ++flagged_services;
      }
    }
  }
  EXPECT_EQ(concats, 1);
  EXPECT_EQ(flagged_services, 3);
}

TEST(DriverTracePropertyTest, ConcatNeverMergesOntoChainDependency) {
  Rig rig{OrderingRules{.mode = OrderingMode::kChains}};
  // b depends on a; merging them into one device transfer would deadlock,
  // so the sequential pair must stay two requests.
  uint64_t a = rig.driver->IssueWrite(700, {MakeBlock(1)});
  rig.driver->IssueWrite(701, {MakeBlock(2)}, OrderingTag{.flag = false, .deps = {a}});
  // Control group: sequential pair without a dependency between them.
  rig.driver->IssueWrite(900, {MakeBlock(3)});
  rig.driver->IssueWrite(901, {MakeBlock(4)});
  rig.engine.Run();

  int concats = 0;
  int chain_services = 0;
  for (const std::string& line : rig.stats.trace_lines()) {
    if (IsEvent(line, "disk.concat")) {
      ++concats;
      EXPECT_EQ(Field(line, "blkno"), 900) << "merged across a chain dependency: " << line;
    } else if (IsEvent(line, "disk.service")) {
      int64_t blkno = Field(line, "blkno");
      if (blkno == 700 || blkno == 701) {
        EXPECT_EQ(Field(line, "count"), 1) << line;
        ++chain_services;
      }
    }
  }
  EXPECT_EQ(concats, 1);
  EXPECT_EQ(chain_services, 2);
}

TEST(DriverTraceTest, HasPendingWriteSeesQueuedRange) {
  Rig rig{OrderingRules{.mode = OrderingMode::kFlag, .semantics = FlagSemantics::kPart}};
  rig.Write(5000, 1, OrderingTag{.flag = true, .deps = {}});
  rig.Write(600, 2);
  EXPECT_TRUE(rig.driver->HasPendingWrite(600));
  EXPECT_FALSE(rig.driver->HasPendingWrite(601));
  rig.engine.Run();
  EXPECT_FALSE(rig.driver->HasPendingWrite(600));
}

}  // namespace
}  // namespace mufs
