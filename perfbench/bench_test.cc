// The benchmark's own tests: the percentile helper, and that every
// workload is deterministic for a seed, varies with the seed, passes its
// output checks and is not perturbed by tracing. Workloads run at reduced
// size.
#include <gtest/gtest.h>

#include <string>

#include "perfbench/bench.h"
#include "perfbench/quantile.h"

namespace perfbench {
namespace {

TEST(QuantileTest, NearestRankPercentile) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(Percentile(v, 50), 5);
  EXPECT_EQ(Percentile(v, 51), 6);
  EXPECT_EQ(Percentile(v, 90), 9);
  EXPECT_EQ(Percentile(v, 99), 10);
  EXPECT_EQ(Percentile(v, 100), 10);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99), 7);
}

TEST(QuantileTest, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(5000), 99);
  EXPECT_EQ(TailPercentile(999), 98);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(25), 60);
  EXPECT_EQ(TailPercentile(19), 50);
  EXPECT_EQ(TailPercentile(0), 50);
  for (size_t n : {20u, 57u, 333u, 1001u}) {
    int pct = TailPercentile(n);
    size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
    EXPECT_GE(n - rank, kTailSamples) << n;
    if (pct < 99) {
      size_t next = static_cast<size_t>(std::ceil((pct + 1) / 100.0 * static_cast<double>(n)));
      EXPECT_LT(n - next, kTailSamples) << n;
    }
  }
}

TEST(QuantileTest, SummarizeSortsAndCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  Quantiles q = Summarize(v);
  EXPECT_EQ(q.n, 100u);
  EXPECT_EQ(q.p50, 50);
  EXPECT_EQ(q.tail_pct, 90);
  EXPECT_EQ(q.tail, 90);
}

TEST(TracerTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer t;
  Span root;
  root.name = "root";
  root.host_start = 0;
  root.host_end = 1'000'000'000;
  uint64_t id = t.Add(root);
  for (auto [b, e] : {std::pair<int64_t, int64_t>{100'000'000, 400'000'000},
                      {300'000'000, 500'000'000}}) {
    Span c;
    c.name = "child";
    c.parent = id;
    c.host_start = b;
    c.host_end = e;
    t.Add(c);
  }
  Span op;  // Request spans are not layers and cover nothing.
  op.name = "fs_op";
  op.parent = id;
  op.request = 0;
  op.host_start = 0;
  op.host_end = 1'000'000'000;
  t.Add(op);
  std::map<std::string, double> self = t.SelfSeconds();
  EXPECT_DOUBLE_EQ(self["root"], 0.6);
  EXPECT_DOUBLE_EQ(self["child"], 0.5);
  EXPECT_FALSE(self.contains("fs_op"));
}

class WorkloadDeterminismTest : public testing::TestWithParam<std::string> {};

RepResult RunReduced(const std::string& name, uint64_t seed, Tracer* tracer) {
  RunOptions o;
  o.seed = seed;
  o.reduced = true;
  o.tracer = tracer;
  o.verify = true;
  return FindWorkload(name)->run(o);
}

TEST_P(WorkloadDeterminismTest, SameSeedRepeatsAndOtherSeedDiffers) {
  RepResult a = RunReduced(GetParam(), 11, nullptr);
  RepResult b = RunReduced(GetParam(), 11, nullptr);
  for (const std::string& e : a.errors) {
    ADD_FAILURE() << e;
  }
  EXPECT_GT(a.attempted, 0u);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sim_ops, b.sim_ops);
  EXPECT_EQ(a.sim_user_s, b.sim_user_s);
  EXPECT_EQ(a.sim_drain_s, b.sim_drain_s);
  EXPECT_EQ(a.mutation_ms, b.mutation_ms);
  EXPECT_GT(a.sim_user_s, 0);
  EXPECT_GT(a.sim_drain_s, 0);
  EXPECT_FALSE(a.mutation_ms.empty());

  RepResult other = RunReduced(GetParam(), 12, nullptr);
  EXPECT_TRUE(other.errors.empty());
  EXPECT_NE(a.digest, other.digest);
  EXPECT_NE(a.mutation_ms, other.mutation_ms);
}

TEST_P(WorkloadDeterminismTest, TracingLeavesSimulatedResultsUnchanged) {
  RepResult plain = RunReduced(GetParam(), 11, nullptr);
  Tracer tracer;
  RepResult traced = RunReduced(GetParam(), 11, &tracer);
  EXPECT_TRUE(traced.errors.empty());
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_FALSE(tracer.spans().empty());
  EXPECT_FALSE(traced.machine_trace.empty());
  for (const char* phase : {"setup", "users", "drain", "shutdown", "fsck"}) {
    EXPECT_TRUE(tracer.SelfSeconds().contains(phase)) << phase;
  }
  // Crash images are taken and checked inside the users phase, so their
  // spans must be its children for its self time to exclude them.
  const std::vector<Span>& spans = tracer.spans();
  size_t snapshots = 0;
  size_t image_checks = 0;
  for (const Span& s : spans) {
    const bool under_users = s.parent != 0 && std::string(spans[s.parent - 1].name) == "users";
    snapshots += under_users && std::string(s.name) == "snapshot";
    image_checks += under_users && std::string(s.name) == "fsck";
  }
  EXPECT_EQ(image_checks, snapshots);
  if (GetParam() == "crash_recovery") {
    EXPECT_GT(snapshots, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDeterminismTest,
                         testing::Values("small_churn", "tree_copy", "sdet_mix",
                                         "crash_recovery"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace perfbench
