// Golden-stats regression test: the full DumpStatsJson output of a fixed
// zero-fault workload (Conventional and Soft Updates, machine seed 42)
// must match the checked-in JSON byte for byte. This pins the whole
// deterministic counter surface — any unintended behaviour change in the
// driver, cache, policies or stats layer shows up as a golden diff.
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

// A reduced 2-user copy workload: big enough to exercise every scheme
// mechanism (allocation, directory growth, syncer flushes, ordering),
// small enough to keep tier 1 fast. `disks` > 1 runs it on a striped
// sharded machine; 1 pins the single-disk path (and must produce stats
// byte-identical to a config that never mentions disks at all).
std::string RunGoldenWorkload(Scheme scheme, uint32_t disks = 1) {
  TreeGenOptions opts;
  opts.file_count = 30;
  opts.total_bytes = 300'000;
  opts.dir_count = 6;
  TreeSpec tree = GenerateTree(opts);

  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.disks = disks;
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

void CheckGolden(Scheme scheme, const std::string& file, uint32_t disks = 1) {
  std::string actual = RunGoldenWorkload(scheme, disks);
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
      << "golden stats drifted for " << SchemeName(scheme)
      << "; if the change is intentional, regenerate with MUFS_REGEN_GOLDEN=1";
}

// Same tree and runner shapes for the Async remove/Andrew/Sdet goldens:
// each returns the full DumpStatsJson of one deterministic run.

std::string RunRemoveGoldenWorkload(Scheme scheme) {
  TreeGenOptions opts;
  opts.file_count = 30;
  opts.total_bytes = 300'000;
  opts.dir_count = 6;
  TreeSpec tree = GenerateTree(opts);

  MachineConfig cfg;
  cfg.scheme = scheme;
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
  if (!expected.empty() && expected.back() == '\n') {
    expected.pop_back();
  }
  EXPECT_EQ(actual, expected)
      << "golden stats drifted for " << file
      << "; if the change is intentional, regenerate with MUFS_REGEN_GOLDEN=1";
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
// rules, pinned in the single-disk driver (Chains) and in the striped
// volume's gate (Flag Part-NR and Chains on two disks, where the gate
// holds requests back). Full, Back and Part produce identical stats on
// this workload, so one flag golden covers them.

TEST(GoldenStatsTest, SchedulerChainsCopyStatsMatchGolden) {
  CheckGolden(Scheme::kSchedulerChains, "scheduler_chains_copy_seed42.json");
}

TEST(GoldenStatsTest, SchedulerFlagCopyTwoDiskStatsMatchGolden) {
  CheckGolden(Scheme::kSchedulerFlag, "scheduler_flag_copy_2disk_seed42.json", /*disks=*/2);
}

TEST(GoldenStatsTest, SchedulerChainsCopyTwoDiskStatsMatchGolden) {
  CheckGolden(Scheme::kSchedulerChains, "scheduler_chains_copy_2disk_seed42.json",
              /*disks=*/2);
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
  std::string actual = RunPersonalityGolden(scheme, fn);
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
  if (!expected.empty() && expected.back() == '\n') {
    expected.pop_back();
  }
  EXPECT_EQ(actual, expected)
      << "golden stats drifted for " << file
      << "; if the change is intentional, regenerate with MUFS_REGEN_GOLDEN=1";
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
