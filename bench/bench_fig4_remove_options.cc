// Figure 4: the -NR / -CB options for the Part flag scheme on the 4-user
// remove benchmark (differences are larger than for copy).
#include "bench/bench_common.h"

namespace mufs {
namespace {

struct Variant {
  const char* name;
  bool nr;
  bool cb;
};

int Main(const BenchArgs& args) {
  const Variant kVariants[] = {
      {"Part", false, false},
      {"Part-NR", true, false},
      {"Part-CB", false, true},
      {"Part-NR/CB", true, true},
  };
  const int users = args.users;
  TreeSpec tree = GenerateTree();
  printf("Figure 4 reproduction: Part flag options, %d-user remove\n", users);
  PrintRule(86);
  printf("%-12s %12s %10s %20s %16s\n", "Variant", "Elapsed(s)", "CPU(s)", "AvgDriverResp(ms)",
         "WriteLockWaits");
  PrintRule(86);
  StatsSidecar sidecar("bench_fig4_remove_options", args);
  for (const Variant& v : kVariants) {
    MachineConfig cfg = BenchConfig(Scheme::kSchedulerFlag);
    cfg.flag_semantics = FlagSemantics::kPart;
    cfg.reads_bypass = v.nr;
    cfg.copy_blocks = v.cb;
    Machine m(cfg);
    SetupFn setup = [&tree, users](Machine& mm, Proc& p) -> Task<void> {
      for (int u = 0; u < users; ++u) {
        (void)co_await PopulateTree(mm, p, tree, "/tree" + std::to_string(u));
      }
    };
    UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
      (void)co_await RemoveTree(mm, p, tree, "/tree" + std::to_string(u));
    };
    RunMeasurement meas = RunMultiUser(m, users, setup, body, /*drop_caches=*/true);
    sidecar.Append(v.name, meas.stats_json);
    printf("%-12s %12.2f %10.2f %20.1f %16llu\n", v.name, meas.ElapsedAvgSeconds(),
           meas.cpu_seconds_total, meas.avg_response_ms,
           static_cast<unsigned long long>(m.stats().counter("cache.write_lock_waits").value()));
  }
  PrintRule(86);
  printf("Expected shape (paper fig 4): same trend as fig 3 but more extreme;\n");
  printf("queueing delays of many seconds for the full option set.\n");
  return 0;
}

}  // namespace
}  // namespace mufs

int main(int argc, char** argv) {
  mufs::BenchArgs args = mufs::ParseBenchArgs(&argc, argv, /*default_users=*/4);
  return mufs::Main(args);
}
