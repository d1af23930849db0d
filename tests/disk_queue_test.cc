// Device command-queue tests: trace-replay property tests over
// whole-machine runs at queue depth {4, 16} (the tag and overlap rules on
// hand-built windows are in disk_driver_test's DriverQueueingTest):
//
//   (a) an ORDERED tag is never serviced while any earlier-accepted
//       command is still pending, and nothing is serviced past a pending
//       ordered barrier;
//   (b) SIMPLE-tag reordering actually happens (the property test is not
//       vacuous);
//   (c) depth 1 (the default) exposes none of the queueing surface - no
//       accept events, no queueing metrics - so the pre-queueing golden
//       sidecars (golden_stats_test) keep pinning it byte-for-byte.
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/machine.h"
#include "src/workload/workloads.h"

namespace mufs {
namespace {

// ---------------------------------------------------------------------
// Trace replay over whole-machine runs
// ---------------------------------------------------------------------

// Minimal JSONL field access for the deterministic trace schema.
bool IsEvent(const std::string& line, const char* name) {
  return line.find(std::string("\"event\":\"") + name + "\"") != std::string::npos;
}

uint64_t U64Field(const std::string& line, const char* key) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

std::string StrField(const std::string& line, const char* key) {
  std::string needle = std::string("\"") + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return "";
  }
  size_t start = pos + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

struct TracedRun {
  std::vector<std::string> lines;
  uint64_t tag_simple = 0;
  uint64_t tag_ordered = 0;
  uint64_t rpo_picks = 0;
  std::string stats_json;
};

// File churn with enough creates/removes to exercise every ordering
// point, traced, at the given queue depth.
TracedRun RunTraced(Scheme scheme, uint32_t queue_depth) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.queue_depth = queue_depth;
  cfg.collect_stats_trace = true;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  bool done = false;
  auto body = [](Machine* mm, Proc* pp, bool* flag) -> Task<void> {
    co_await mm->Boot(*pp);
    (void)co_await mm->fs().Mkdir(*pp, "/d");
    (void)co_await CreateFiles(*mm, *pp, "/d", 40, 2 * kBlockSize);
    (void)co_await RemoveFiles(*mm, *pp, "/d", 30);
    (void)co_await CreateFiles(*mm, *pp, "/d", 20, kBlockSize);
    co_await mm->Shutdown(*pp);
    *flag = true;
  };
  m.engine().Spawn(body(&m, &p, &done), "u");
  m.engine().RunUntil([&] { return done; });
  TracedRun run;
  run.lines = m.stats().trace_lines();
  // Dump before touching the queueing counters: reading one registers it
  // (create-on-first-use), which would pollute the depth-1 surface check.
  run.stats_json = m.DumpStatsJson();
  run.tag_simple = m.stats().counter("disk.tag_simple").value();
  run.tag_ordered = m.stats().counter("disk.tag_ordered").value();
  run.rpo_picks = m.stats().counter("disk.rpo_picks").value();
  return run;
}

struct ReplayResult {
  uint64_t accepts = 0;
  uint64_t services = 0;
  uint64_t simple_reorders = 0;  // Services that passed an earlier simple command.
};

// Replays disk.accept / disk.service / disk.complete and asserts the tag
// ordering invariants at every service event.
ReplayResult ReplayTrace(const std::vector<std::string>& lines) {
  struct Pending {
    uint64_t seq;
    bool ordered;
  };
  std::map<uint64_t, Pending> in_device;  // id -> pending command.
  ReplayResult res;
  for (const std::string& line : lines) {
    if (IsEvent(line, "disk.accept")) {
      uint64_t id = U64Field(line, "id");
      Pending pe;
      pe.seq = U64Field(line, "seq");
      pe.ordered = StrField(line, "tag") == "ordered";
      in_device[id] = pe;
      ++res.accepts;
    } else if (IsEvent(line, "disk.service")) {
      uint64_t id = U64Field(line, "id");
      auto me = in_device.find(id);
      if (me == in_device.end()) {
        continue;  // Depth-1 traces have no accept events.
      }
      ++res.services;
      bool passed_simple = false;
      for (const auto& [oid, other] : in_device) {
        if (oid == id || other.seq >= me->second.seq) {
          continue;
        }
        // `other` was accepted earlier and has not completed.
        EXPECT_FALSE(me->second.ordered)
            << "ordered command id=" << id << " serviced before earlier-accepted id=" << oid;
        EXPECT_FALSE(other.ordered)
            << "command id=" << id << " serviced past pending ordered barrier id=" << oid;
        passed_simple = true;
      }
      if (passed_simple) {
        ++res.simple_reorders;
      }
    } else if (IsEvent(line, "disk.complete")) {
      in_device.erase(U64Field(line, "id"));
    }
  }
  return res;
}

class QueueReplayTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QueueReplayTest, OrderedTagsAreBarriersInTheServiceOrder) {
  TracedRun run = RunTraced(Scheme::kSchedulerFlag, GetParam());
  ASSERT_GT(run.tag_ordered, 0u) << "flag scheme must issue ordered tags";
  ASSERT_GT(run.tag_simple, 0u) << "reads and data writes must stay simple";
  ReplayResult res = ReplayTrace(run.lines);
  EXPECT_EQ(res.accepts, run.tag_simple + run.tag_ordered);
  EXPECT_GT(res.services, 0u);
}

TEST_P(QueueReplayTest, SimpleTagReorderingActuallyHappens) {
  // No Order issues only simple tags: the device is free to pick by
  // position, so at depth > 1 some command must pass an earlier one -
  // otherwise the barrier test above is vacuous.
  TracedRun run = RunTraced(Scheme::kNoOrder, GetParam());
  EXPECT_EQ(run.tag_ordered, 0u);
  ReplayResult res = ReplayTrace(run.lines);
  EXPECT_GT(res.simple_reorders, 0u) << "no simple-tag command was ever reordered";
  EXPECT_GT(run.rpo_picks, 0u) << "the device never picked anything but the oldest command";
}

TEST_P(QueueReplayTest, ChainsDelegationHoldsUnderReplay) {
  TracedRun run = RunTraced(Scheme::kSchedulerChains, GetParam());
  ASSERT_GT(run.tag_ordered, 0u) << "chains scheme must issue ordered tags";
  ReplayResult res = ReplayTrace(run.lines);
  EXPECT_GT(res.services, 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, QueueReplayTest, ::testing::Values(4u, 16u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "Depth" + std::to_string(info.param);
                         });

TEST(QueueDepthOneTest, ExposesNoQueueingSurface) {
  // Depth 1 must look exactly like the pre-queueing driver: no accept
  // events in the trace and no queueing metrics in the dump, so the
  // golden sidecars (golden_stats_test) pin it byte-for-byte.
  TracedRun run = RunTraced(Scheme::kSchedulerFlag, 1);
  for (const std::string& line : run.lines) {
    EXPECT_FALSE(IsEvent(line, "disk.accept")) << line;
  }
  EXPECT_EQ(run.stats_json.find("disk.tag_simple"), std::string::npos);
  EXPECT_EQ(run.stats_json.find("disk.tag_ordered"), std::string::npos);
  EXPECT_EQ(run.stats_json.find("disk.rpo_picks"), std::string::npos);
  EXPECT_EQ(run.stats_json.find("disk.device_queue"), std::string::npos);
}

TEST(QueueDepthOneTest, DepthOneRunsAreByteIdenticalAcrossRepeats) {
  TracedRun a = RunTraced(Scheme::kSchedulerFlag, 1);
  TracedRun b = RunTraced(Scheme::kSchedulerFlag, 1);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.lines, b.lines);
}

TEST(QueueDeterminismTest, QueueedRunsAreByteIdenticalAcrossRepeats) {
  TracedRun a = RunTraced(Scheme::kSchedulerFlag, 16);
  TracedRun b = RunTraced(Scheme::kSchedulerFlag, 16);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_EQ(a.lines, b.lines);
}

}  // namespace
}  // namespace mufs
