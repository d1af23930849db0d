// Section 3.3 ablation: the block-copy (-CB) enhancement under scheduler
// chains. The paper reports -CB reduces elapsed time by 26% for 4-user
// copy and 57% for 4-user remove.
#include "bench/bench_common.h"

namespace mufs {
namespace {

int Main(const BenchArgs& args) {
  const int users = args.users;
  TreeSpec tree = GenerateTree();
  printf("Section 3.3 ablation: block copy (-CB) with scheduler chains\n");
  PrintRule(76);
  printf("%-12s %-8s %12s %12s %16s\n", "Benchmark", "CB", "Elapsed(s)", "DiskReqs",
         "WriteLockWaits");
  PrintRule(76);
  double copy_on = 0;
  double copy_off = 0;
  double rm_on = 0;
  double rm_off = 0;
  StatsSidecar sidecar("bench_ablation_blockcopy", args);
  for (bool cb : {false, true}) {
    MachineConfig cfg = BenchConfig(Scheme::kSchedulerChains);
    cfg.copy_blocks = cb;
    {
      Machine m(cfg);
      SetupFn setup = [&tree](Machine& mm, Proc& p) -> Task<void> {
        (void)co_await PopulateTree(mm, p, tree, "/src");
      };
      UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
        (void)co_await CopyTree(mm, p, tree, "/src", "/copy" + std::to_string(u));
      };
      RunMeasurement meas = RunMultiUser(m, users, setup, body);
      sidecar.Append(std::string("copy/") + (cb ? "cb" : "nocb"), meas.stats_json);
      printf("%-12s %-8s %12.1f %12llu %16llu\n", "copy", cb ? "yes" : "no",
             meas.ElapsedAvgSeconds(), static_cast<unsigned long long>(meas.disk_requests),
             static_cast<unsigned long long>(m.stats().counter("cache.write_lock_waits").value()));
      (cb ? copy_on : copy_off) = meas.ElapsedAvgSeconds();
    }
    {
      RunMeasurement meas = RunRemoveBenchmark(cfg, users, tree);
      sidecar.Append(std::string("remove/") + (cb ? "cb" : "nocb"), meas.stats_json);
      printf("%-12s %-8s %12.2f %12llu\n", "remove", cb ? "yes" : "no",
             meas.ElapsedAvgSeconds(), static_cast<unsigned long long>(meas.disk_requests));
      (cb ? rm_on : rm_off) = meas.ElapsedAvgSeconds();
    }
  }
  PrintRule(76);
  if (copy_off > 0 && rm_off > 0) {
    printf("-CB improvement: copy %.0f%% (paper ~26%%), remove %.0f%% (paper ~57%%)\n",
           100.0 * (copy_off - copy_on) / copy_off, 100.0 * (rm_off - rm_on) / rm_off);
  }
  return 0;
}

}  // namespace
}  // namespace mufs

int main(int argc, char** argv) {
  mufs::BenchArgs args = mufs::ParseBenchArgs(&argc, argv, /*default_users=*/4);
  return mufs::Main(args);
}
