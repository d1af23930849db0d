// ParseBenchArgs: the command-line surface every bench binary shares.
// Each shared flag lands in its BenchArgs field and leaves argv; a bad
// count keeps its default with a warning; everything else stays in argv,
// in order, for the bench's own flags.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace mufs {
namespace {

// A mutable argv built from string literals.
struct Argv {
  Argv(std::initializer_list<const char*> args) : storage(args.begin(), args.end()) {
    for (std::string& s : storage) {
      ptrs.push_back(s.data());
    }
    argc = static_cast<int>(ptrs.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
};

TEST(BenchArgsTest, ParsesEverySharedFlag) {
  Argv v{"bench_x",          "--users=3",       "--stats-out=/tmp/x.jsonl",
         "--fault-rate=0.25", "--fault-seed=77", "--queue-depth=8",
         "--disks=2",         "--stripe-unit=16", "--shards=4",
         "--staleness-ns=12345"};
  BenchArgs a = ParseBenchArgs(&v.argc, v.ptrs.data());
  EXPECT_EQ(a.users, 3);
  EXPECT_EQ(a.stats_out, "/tmp/x.jsonl");
  EXPECT_DOUBLE_EQ(a.fault_rate, 0.25);
  EXPECT_EQ(a.fault_seed, 77u);
  EXPECT_EQ(a.queue_depth, 8u);
  EXPECT_EQ(a.disks, 2u);
  EXPECT_EQ(a.stripe_unit, 16u);
  EXPECT_EQ(a.shards, 4u);
  EXPECT_EQ(a.staleness_ns, 12345u);
  EXPECT_EQ(v.argc, 1);
}

TEST(BenchArgsTest, DefaultsWithoutFlags) {
  Argv v{"bench_x"};
  BenchArgs a = ParseBenchArgs(&v.argc, v.ptrs.data(), /*default_users=*/5);
  EXPECT_EQ(a.users, 5);
  EXPECT_EQ(a.stats_out, "");
  EXPECT_EQ(a.fault_rate, 0);
  EXPECT_EQ(a.fault_seed, 1u);
  EXPECT_EQ(a.queue_depth, 1u);
  EXPECT_EQ(a.disks, 1u);
  EXPECT_EQ(a.stripe_unit, 0u);
  EXPECT_EQ(a.shards, 0u);
  EXPECT_EQ(a.staleness_ns, 0u);
  EXPECT_EQ(v.argc, 1);
}

TEST(BenchArgsTest, NonPositiveCountKeepsDefaultAndWarns) {
  const BenchArgs defaults = [] {
    Argv v{"bench_x"};
    return ParseBenchArgs(&v.argc, v.ptrs.data(), /*default_users=*/5);
  }();
  for (const char* flag : {"--users=0", "--users=-2", "--queue-depth=0", "--disks=0",
                           "--stripe-unit=-1", "--shards=0", "--disks=abc"}) {
    Argv v{"bench_x", flag};
    testing::internal::CaptureStderr();
    BenchArgs a = ParseBenchArgs(&v.argc, v.ptrs.data(), /*default_users=*/5);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("warning: ignoring bad ") + flag + "\n");
    EXPECT_EQ(a.users, defaults.users) << flag;
    EXPECT_EQ(a.queue_depth, defaults.queue_depth) << flag;
    EXPECT_EQ(a.disks, defaults.disks) << flag;
    EXPECT_EQ(a.stripe_unit, defaults.stripe_unit) << flag;
    EXPECT_EQ(a.shards, defaults.shards) << flag;
    EXPECT_EQ(v.argc, 1) << flag << " stayed in argv";
  }
}

TEST(BenchArgsTest, UnknownArgumentsStayInOrder) {
  Argv v{"bench_x", "--json-out=a.json", "--users=2", "positional", "--disks=3", "--verbose"};
  BenchArgs a = ParseBenchArgs(&v.argc, v.ptrs.data());
  EXPECT_EQ(a.users, 2);
  EXPECT_EQ(a.disks, 3u);
  ASSERT_EQ(v.argc, 4);
  EXPECT_STREQ(v.ptrs[0], "bench_x");
  EXPECT_STREQ(v.ptrs[1], "--json-out=a.json");
  EXPECT_STREQ(v.ptrs[2], "positional");
  EXPECT_STREQ(v.ptrs[3], "--verbose");
}

TEST(BenchArgsTest, OutDirIsTheBinarysDirectory) {
  Argv nested{"build/bench/bench_x"};
  EXPECT_EQ(ParseBenchArgs(&nested.argc, nested.ptrs.data()).out_dir, "build/bench");
  Argv bare{"bench_x"};
  EXPECT_EQ(ParseBenchArgs(&bare.argc, bare.ptrs.data()).out_dir, "");
}

}  // namespace
}  // namespace mufs
