// Golden-stats regression test: the full DumpStatsJson output of fixed
// zero-fault workloads (machine seed 42) must match the checked-in JSON
// byte for byte. This pins the whole deterministic counter surface — any
// unintended behaviour change in the driver, cache, policies or stats
// layer shows up as a golden diff.
//
// To regenerate after an INTENTIONAL change:
//   MUFS_REGEN_GOLDEN=1 ./golden_stats_test && git diff tests/golden/
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/workload/workloads.h"

namespace mufs {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(MUFS_GOLDEN_DIR) + "/" + name;
}

bool RegenMode() {
  const char* v = std::getenv("MUFS_REGEN_GOLDEN");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Compares `actual` with the golden file byte for byte (or rewrites the
// file in regeneration mode).
void CheckNamedGolden(const std::string& actual, const std::string& file) {
  ASSERT_FALSE(actual.empty());
  std::string path = GoldenPath(file);
  if (RegenMode()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with MUFS_REGEN_GOLDEN=1 to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  std::string expected = buf.str();
  // Trailing newline is part of the file, not the JSON.
  if (!expected.empty() && expected.back() == '\n') {
    expected.pop_back();
  }
  EXPECT_EQ(actual, expected)
      << "golden stats drifted for " << file
      << "; if the change is intentional, regenerate with MUFS_REGEN_GOLDEN=1";
}

// A reduced 2-user copy workload: big enough to exercise every scheme
// mechanism (allocation, directory growth, syncer flushes, ordering),
// small enough to keep tier 1 fast. `disks` > 1 runs it on a striped
// sharded machine; 1 pins the single-disk path (and must produce stats
// byte-identical to a config that never mentions disks at all).
// `queue_depth` > 1 turns on the device's tagged command queue.
std::string RunGoldenWorkload(Scheme scheme, uint32_t disks = 1, uint32_t queue_depth = 1) {
  TreeGenOptions opts;
  opts.file_count = 30;
  opts.total_bytes = 300'000;
  opts.dir_count = 6;
  TreeSpec tree = GenerateTree(opts);

  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.disks = disks;
  cfg.queue_depth = queue_depth;
  Machine m(cfg);
  SetupFn setup = [&tree](Machine& mm, Proc& p) -> Task<void> {
    FsStatus s = co_await PopulateTree(mm, p, tree, "/src");
    EXPECT_EQ(s, FsStatus::kOk);
  };
  UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
    FsStatus s = co_await CopyTree(mm, p, tree, "/src", "/copy" + std::to_string(u));
    EXPECT_EQ(s, FsStatus::kOk);
  };
  RunMeasurement meas = RunMultiUser(m, 2, setup, body);
  return meas.stats_json;
}

// Same tree and runner shapes for the remove/Andrew/Sdet goldens: each
// returns the full DumpStatsJson of one deterministic run.

std::string RunRemoveGoldenWorkload(Scheme scheme, uint32_t queue_depth = 1) {
  TreeGenOptions opts;
  opts.file_count = 30;
  opts.total_bytes = 300'000;
  opts.dir_count = 6;
  TreeSpec tree = GenerateTree(opts);

  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.queue_depth = queue_depth;
  Machine m(cfg);
  SetupFn setup = [&tree](Machine& mm, Proc& p) -> Task<void> {
    for (int u = 0; u < 2; ++u) {
      FsStatus s = co_await PopulateTree(mm, p, tree, "/tree" + std::to_string(u));
      EXPECT_EQ(s, FsStatus::kOk);
    }
  };
  UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
    FsStatus s = co_await RemoveTree(mm, p, tree, "/tree" + std::to_string(u));
    EXPECT_EQ(s, FsStatus::kOk);
  };
  RunMeasurement meas = RunMultiUser(m, 2, setup, body, /*drop_caches_after_setup=*/true);
  return meas.stats_json;
}

std::string RunAndrewGoldenWorkload(Scheme scheme) {
  TreeGenOptions opts;
  opts.file_count = 30;
  opts.total_bytes = 300'000;
  opts.dir_count = 6;
  TreeSpec tree = GenerateTree(opts);

  MachineConfig cfg;
  cfg.scheme = scheme;
  Machine m(cfg);
  SetupFn setup = [&tree](Machine& mm, Proc& p) -> Task<void> {
    (void)co_await PopulateTree(mm, p, tree, "/andrew-src");
  };
  UserFn body = [&tree](Machine& mm, Proc& p, int) -> Task<void> {
    (void)co_await AndrewBenchmark(mm, p, tree, "/andrew-src", "/andrew-work");
  };
  RunMeasurement meas = RunMultiUser(m, 1, setup, body);
  return meas.stats_json;
}

std::string RunSdetGoldenWorkload(Scheme scheme) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  Machine m(cfg);
  SetupFn setup = [](Machine&, Proc&) -> Task<void> { co_return; };
  UserFn body = [](Machine& mm, Proc& p, int u) -> Task<void> {
    FsStatus s = co_await SdetScript(mm, p, "/script" + std::to_string(u),
                                     /*seed=*/1000 + static_cast<uint64_t>(u),
                                     /*operations=*/120);
    EXPECT_EQ(s, FsStatus::kOk);
  };
  RunMeasurement meas = RunMultiUser(m, 2, setup, body, /*drop_caches_after_setup=*/false);
  return meas.stats_json;
}

void CheckGolden(Scheme scheme, const std::string& file, uint32_t disks = 1) {
  CheckNamedGolden(RunGoldenWorkload(scheme, disks), file);
}

TEST(GoldenStatsTest, ConventionalCopyStatsMatchGolden) {
  CheckGolden(Scheme::kConventional, "conventional_copy_seed42.json");
}

TEST(GoldenStatsTest, SoftUpdatesCopyStatsMatchGolden) {
  CheckGolden(Scheme::kSoftUpdates, "soft_updates_copy_seed42.json");
}

// --- Async-scheme goldens: the full zero-fault async.* stats surface
// (visibility/durability ledger depth, horizon lag, barrier accounting)
// pinned byte-for-byte on the paper's four workload families.

TEST(GoldenStatsTest, AsyncCopyStatsMatchGolden) {
  CheckGolden(Scheme::kAsync, "async_copy_seed42.json");
}

TEST(GoldenStatsTest, AsyncRemoveStatsMatchGolden) {
  CheckNamedGolden(RunRemoveGoldenWorkload(Scheme::kAsync), "async_remove_seed42.json");
}

TEST(GoldenStatsTest, AsyncAndrewStatsMatchGolden) {
  CheckNamedGolden(RunAndrewGoldenWorkload(Scheme::kAsync), "async_andrew_seed42.json");
}

TEST(GoldenStatsTest, AsyncSdetStatsMatchGolden) {
  CheckNamedGolden(RunSdetGoldenWorkload(Scheme::kAsync), "async_sdet_seed42.json");
}

// Soft updates on Sdet: the scheme and workload of fig6's Soft Updates
// rows.
TEST(GoldenStatsTest, SoftUpdatesSdetStatsMatchGolden) {
  CheckNamedGolden(RunSdetGoldenWorkload(Scheme::kSoftUpdates),
                   "soft_updates_sdet_seed42.json");
}

// --disks=1 is required to be the EXACT pre-volume machine: the same
// golden bytes as a config that never mentions the flag.
TEST(GoldenStatsTest, ExplicitSingleDiskMatchesSingleDiskGolden) {
  CheckGolden(Scheme::kConventional, "conventional_copy_seed42.json", /*disks=*/1);
}

// The 4-disk striped/sharded machine gets its own golden: pins the
// volume layer, shard routing, per-disk metric naming and the sharded
// DumpStatsJson surface byte-for-byte.
TEST(GoldenStatsTest, ConventionalCopyFourDiskStatsMatchGolden) {
  CheckGolden(Scheme::kConventional, "conventional_copy_4disk_seed42.json", /*disks=*/4);
}

// --- Ordering-gate goldens: the scheduler schemes' request-eligibility
// rules, pinned in the single-disk driver (Chains, and Flag Part-NR under
// the depth-1 C-LOOK pick) and in the striped volume's gate (Flag Part-NR
// and Chains on two disks, where the gate holds requests back). Every
// flag golden runs Part-NR; no golden pins Full or Back.

TEST(GoldenStatsTest, SchedulerChainsCopyStatsMatchGolden) {
  CheckGolden(Scheme::kSchedulerChains, "scheduler_chains_copy_seed42.json");
}

// Reads one counter out of a DumpStatsJson string (-1 if absent).
int64_t CounterIn(const std::string& json, const std::string& name) {
  std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  return pos == std::string::npos ? -1 : std::atoll(json.c_str() + pos + needle.size());
}

// One disk at depth 1: the C-LOOK pick over the flag gate's eligible
// requests, with wraps and sequential merges of queued writes.
TEST(GoldenStatsTest, SchedulerFlagCopyStatsMatchGolden) {
  std::string actual = RunGoldenWorkload(Scheme::kSchedulerFlag);
  EXPECT_GT(CounterIn(actual, "disk.clook_wraps"), 0);
  EXPECT_GT(CounterIn(actual, "disk.merged_requests"), 0);
  CheckNamedGolden(actual, "scheduler_flag_copy_seed42.json");
}

TEST(GoldenStatsTest, SchedulerFlagCopyTwoDiskStatsMatchGolden) {
  CheckGolden(Scheme::kSchedulerFlag, "scheduler_flag_copy_2disk_seed42.json", /*disks=*/2);
}

TEST(GoldenStatsTest, SchedulerChainsCopyTwoDiskStatsMatchGolden) {
  CheckGolden(Scheme::kSchedulerChains, "scheduler_chains_copy_2disk_seed42.json",
              /*disks=*/2);
}

// --- Tagged command-queue goldens: the device window at depth > 1, where
// ORDERED tags (Flag) and rotational-position picks (both) decide the
// service order. Each run must exercise what it pins, or the golden
// would hold the queueing path by accident only.

TEST(GoldenStatsTest, SchedulerFlagCopyQueueDepth16StatsMatchGolden) {
  std::string actual = RunGoldenWorkload(Scheme::kSchedulerFlag, /*disks=*/1, /*queue_depth=*/16);
  EXPECT_GT(CounterIn(actual, "disk.tag_ordered"), 0);
  EXPECT_GT(CounterIn(actual, "disk.rpo_picks"), 0);
  CheckNamedGolden(actual, "scheduler_flag_copy_qd16_seed42.json");
}

TEST(GoldenStatsTest, NoOrderCopyQueueDepth4StatsMatchGolden) {
  std::string actual = RunGoldenWorkload(Scheme::kNoOrder, /*disks=*/1, /*queue_depth=*/4);
  EXPECT_GT(CounterIn(actual, "disk.rpo_picks"), 0);
  CheckNamedGolden(actual, "no_order_copy_qd4_seed42.json");
}

// A striped volume at depth 4: the volume gate holds requests back and
// each member driver's device window reorders what it lets through.
TEST(GoldenStatsTest, SchedulerFlagCopyTwoDiskQueueDepth4StatsMatchGolden) {
  std::string actual = RunGoldenWorkload(Scheme::kSchedulerFlag, /*disks=*/2, /*queue_depth=*/4);
  EXPECT_GT(CounterIn(actual, "disk0.rpo_picks"), 0);
  EXPECT_GT(CounterIn(actual, "disk1.rpo_picks"), 0);
  EXPECT_GT(CounterIn(actual, "volume.held"), 0);
  CheckNamedGolden(actual, "scheduler_flag_copy_2disk_qd4_seed42.json");
}

// Chains' dependency lists become ORDERED tags in the device window.
TEST(GoldenStatsTest, SchedulerChainsRemoveQueueDepth16StatsMatchGolden) {
  std::string actual =
      RunRemoveGoldenWorkload(Scheme::kSchedulerChains, /*queue_depth=*/16);
  EXPECT_GT(CounterIn(actual, "disk.tag_ordered"), 0);
  CheckNamedGolden(actual, "scheduler_chains_remove_qd16_seed42.json");
}

// No Order's removal hooks (link removal, block and inode frees).
TEST(GoldenStatsTest, NoOrderRemoveStatsMatchGolden) {
  std::string actual = RunRemoveGoldenWorkload(Scheme::kNoOrder);
  EXPECT_GT(CounterIn(actual, "policy.inode_free"), 0);
  CheckNamedGolden(actual, "no_order_remove_seed42.json");
}

// --- Workload personality goldens: the zero-fault stats surface of each
// personality, pinned byte-for-byte on one representative scheme each so
// the four of them jointly cover most scheme mechanisms.

using PersonalityFn = Task<FsStatus> (*)(Machine&, Proc&, const std::string&, uint64_t,
                                         int, PersonalityOpMix*);

std::string RunPersonalityGolden(Scheme scheme, PersonalityFn fn) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  bool done = false;
  auto root = [](Machine* m, Proc* p, PersonalityFn fn, bool* done) -> Task<void> {
    co_await m->Boot(*p);
    FsStatus s = co_await fn(*m, *p, "/w", 42, 120, nullptr);
    EXPECT_EQ(s, FsStatus::kOk);
    co_await m->Shutdown(*p);
    *done = true;
  };
  m.engine().Spawn(root(&m, &p, fn, &done), "w");
  m.engine().RunUntil([&] { return done; });
  EXPECT_TRUE(done);
  return m.DumpStatsJson();
}

void CheckPersonalityGolden(Scheme scheme, PersonalityFn fn, const std::string& file) {
  CheckNamedGolden(RunPersonalityGolden(scheme, fn), file);
}

TEST(GoldenStatsTest, MailServerStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kSoftUpdates, &MailServerWorkload,
                         "mail_soft_updates_seed42.json");
}

TEST(GoldenStatsTest, BuildFarmStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kConventional, &BuildFarmWorkload,
                         "build_farm_conventional_seed42.json");
}

TEST(GoldenStatsTest, WebAssetSwapStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kSchedulerFlag, &WebAssetSwapWorkload,
                         "web_asset_scheduler_flag_seed42.json");
}

// Conventional's rename fence: the new entry's synchronous write before
// the old entry is cleared.
TEST(GoldenStatsTest, WebAssetSwapConventionalStatsMatchGolden) {
  std::string actual = RunPersonalityGolden(Scheme::kConventional, &WebAssetSwapWorkload);
  EXPECT_GT(CounterIn(actual, "policy.rename_fence"), 0);
  CheckNamedGolden(actual, "web_asset_conventional_seed42.json");
}

TEST(GoldenStatsTest, CacheCleanupStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kJournaling, &CacheCleanupWorkload,
                         "cache_cleanup_journaling_seed42.json");
}

// All four personalities additionally pinned under Async: the ledger's
// stats must stay deterministic across very different op mixes.

TEST(GoldenStatsTest, MailServerAsyncStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kAsync, &MailServerWorkload, "mail_async_seed42.json");
}

TEST(GoldenStatsTest, BuildFarmAsyncStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kAsync, &BuildFarmWorkload, "build_farm_async_seed42.json");
}

TEST(GoldenStatsTest, WebAssetSwapAsyncStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kAsync, &WebAssetSwapWorkload,
                         "web_asset_async_seed42.json");
}

TEST(GoldenStatsTest, CacheCleanupAsyncStatsMatchGolden) {
  CheckPersonalityGolden(Scheme::kAsync, &CacheCleanupWorkload,
                         "cache_cleanup_async_seed42.json");
}

}  // namespace
}  // namespace mufs
