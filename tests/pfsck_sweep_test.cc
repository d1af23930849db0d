// Full in-place recovery sweep (label: slow, run nightly under
// ASan/UBSan): every scheme x {2,4} disks x a dense sample of crash
// points. Each cell asserts that the in-place sharded check reports
// exactly what the extracted-region reference reports, and a sampled
// subset repairs the crash image both ways and asserts the same
// stable-storage bytes. One disk is left to pfsck_test's sampled cells:
// there the region is the whole image.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fsck/crash_harness.h"
#include "src/fsck/fsck.h"
#include "src/fsck/pfsck.h"
#include "src/workload/workloads.h"
#include "tests/fsck_reference.h"
#include "tests/pfsck_test_util.h"

namespace mufs {
namespace {

struct SweepCase {
  Scheme scheme;
  uint32_t disks;
  std::string name;
};

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (Scheme scheme : kAllSchemes) {
    for (uint32_t disks : {2u, 4u}) {
      cases.push_back({scheme, disks,
                       std::string(SchemeName(scheme)) + "_" + std::to_string(disks) + "d"});
    }
  }
  return cases;
}

class PfsckSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PfsckSweepTest, InPlaceMatchesReferenceAcrossCrashPoints) {
  const SweepCase& c = GetParam();
  MachineConfig cfg;
  cfg.scheme = c.scheme;
  cfg.disks = c.disks;
  cfg.syncer.sweep_seconds = 3;
  ShardLayout layout = LayoutOf(cfg);
  CrashHarness harness(cfg);
  uint64_t total_writes = harness.MeasureWrites(PfsckChurn);
  ASSERT_GT(total_writes, 10u);

  std::vector<uint64_t> points;
  for (int i = 1; i <= 8; ++i) {
    uint64_t w = total_writes * static_cast<uint64_t>(i) / 9;
    if (w > 0 && (points.empty() || points.back() != w)) {
      points.push_back(w);
    }
  }

  FsckOptions opts;
  opts.check_stale_data = true;
  for (uint64_t w : points) {
    CrashResult in_place = harness.RunAndCrashAtWrite(PfsckChurn, w, opts);
    DiskImage crash = harness.CrashImageAtWrite(PfsckChurn, w);
    if (c.scheme == Scheme::kJournaling) {
      ReplayShards(&crash, layout);
    }
    EXPECT_EQ(ReportDifference(ReferenceCheckSharded(crash, layout, opts), in_place.report), "")
        << c.name << " crash@write " << w;
  }

  // Repair on a sampled subset (repair iterates full check passes, so
  // it is the expensive half).
  for (uint64_t w : {points.front(), points[points.size() / 2], points.back()}) {
    DiskImage reference = harness.CrashImageAtWrite(PfsckChurn, w);
    DiskImage in_place = reference.Snapshot();
    std::vector<FsckRepairReport> want = ReferenceRepairSharded(&reference, layout, opts);
    std::vector<FsckRepairReport> got = PfsckRepairSharded(&in_place, layout, opts);
    std::string context = c.name + " repair@write " + std::to_string(w);
    ASSERT_EQ(want.size(), got.size()) << context;
    for (size_t s = 0; s < want.size(); ++s) {
      ExpectRepairReportsIdentical(want[s], got[s], context + " shard " + std::to_string(s));
    }
    ExpectSameBytes(reference, in_place, context);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PfsckSweepTest, ::testing::ValuesIn(AllCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mufs
