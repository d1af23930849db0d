// Figure 3: the -NR (read bypass) and -CB (block copy) implementation
// options for the Part flag scheme, 4-user copy benchmark.
// (a) elapsed time (with user CPU portion), (b) average driver response.
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
  printf("Figure 3 reproduction: Part flag options, %d-user copy\n", users);
  PrintRule(86);
  printf("%-12s %12s %10s %20s %16s\n", "Variant", "Elapsed(s)", "CPU(s)", "AvgDriverResp(ms)",
         "WriteLockWaits");
  PrintRule(86);
  StatsSidecar sidecar("bench_fig3_copy_options", args);
  for (const Variant& v : kVariants) {
    MachineConfig cfg = BenchConfig(Scheme::kSchedulerFlag);
    cfg.flag_semantics = FlagSemantics::kPart;
    cfg.reads_bypass = v.nr;
    cfg.copy_blocks = v.cb;
    Machine m(cfg);
    SetupFn setup = [&tree](Machine& mm, Proc& p) -> Task<void> {
      (void)co_await PopulateTree(mm, p, tree, "/src");
    };
    UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
      (void)co_await CopyTree(mm, p, tree, "/src", "/copy" + std::to_string(u));
    };
    RunMeasurement meas = RunMultiUser(m, users, setup, body);
    sidecar.Append(v.name, meas.stats_json);
    printf("%-12s %12.1f %10.1f %20.1f %16llu\n", v.name, meas.ElapsedAvgSeconds(),
           meas.cpu_seconds_total, meas.avg_response_ms,
           static_cast<unsigned long long>(m.stats().counter("cache.write_lock_waits").value()));
  }
  PrintRule(86);
  printf("Expected shape (paper fig 3): Part-NR/CB clearly fastest; omitting either\n");
  printf("option sacrifices much of the benefit (write-lock waits vanish with -CB).\n");
  return 0;
}

}  // namespace
}  // namespace mufs

int main(int argc, char** argv) {
  mufs::BenchArgs args = mufs::ParseBenchArgs(&argc, argv, /*default_users=*/4);
  return mufs::Main(args);
}
