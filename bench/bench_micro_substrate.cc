// Substrate micro-benchmarks (google-benchmark): how fast the simulator
// itself runs. These do not reproduce paper results; they keep the
// simulation engine honest (host-side performance regressions make the
// table/figure benches painfully slow).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/machine.h"
#include "src/disk/disk_model.h"
#include "src/workload/workloads.h"

namespace mufs {
namespace {

void BM_DiskModelAccess(benchmark::State& state) {
  DiskModel model{DiskGeometry{}};
  SimTime now = 0;
  uint32_t blk = 0;
  for (auto _ : state) {
    now += model.Access(true, blk, 1, now);
    blk = (blk + 997) % DiskGeometry{}.total_blocks;
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_DiskModelAccess);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    int count = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.Schedule(Usec(i), [&count] { ++count; });
    }
    state.ResumeTiming();
    engine.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_CoroutineChain(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    int result = 0;
    std::function<Task<int>(int)> rec = [&](int n) -> Task<int> {
      if (n == 0) {
        co_return 0;
      }
      int sub = co_await rec(n - 1);
      co_return sub + 1;
    };
    auto outer = [&]() -> Task<void> { result = co_await rec(1000); };
    engine.Spawn(outer(), "chain");
    engine.Run();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineChain);

void BM_FileCreateSimulated(benchmark::State& state) {
  // Host cost of simulating one create+write+remove under soft updates.
  auto scheme = static_cast<Scheme>(state.range(0));
  for (auto _ : state) {
    MachineConfig cfg;
    cfg.scheme = scheme;
    Machine m(cfg);
    Proc p = m.MakeProc("u");
    bool done = false;
    auto body = [](Machine* m, Proc* p, bool* done) -> Task<void> {
      co_await m->Boot(*p);
      (void)co_await m->fs().Mkdir(*p, "/d");
      (void)co_await CreateRemoveFiles(*m, *p, "/d", 50, 1024);
      *done = true;
    };
    m.engine().Spawn(body(&m, &p, &done), "u");
    m.engine().RunUntil([&] { return done; });
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_FileCreateSimulated)
    ->Arg(static_cast<int>(Scheme::kConventional))
    ->Arg(static_cast<int>(Scheme::kSoftUpdates))
    ->Arg(static_cast<int>(Scheme::kNoOrder));

// Sidecar companion: the micro-benchmarks measure host time (not
// simulated time), so they cannot emit per-run stats themselves. Run one
// small deterministic simulated workload instead so this binary, like
// every other bench, leaves a machine-readable record behind.
void EmitSidecar(const BenchArgs& args) {
  StatsSidecar sidecar("bench_micro_substrate", args);
  MachineConfig cfg;
  cfg.scheme = Scheme::kSoftUpdates;
  Machine m(cfg);
  Proc p = m.MakeProc("u");
  bool done = false;
  auto body = [](Machine* mm, Proc* pp, bool* flag) -> Task<void> {
    co_await mm->Boot(*pp);
    (void)co_await mm->fs().Mkdir(*pp, "/d");
    (void)co_await CreateRemoveFiles(*mm, *pp, "/d", 50, 1024);
    co_await mm->Shutdown(*pp);
    *flag = true;
  };
  m.engine().Spawn(body(&m, &p, &done), "u");
  m.engine().RunUntil([&] { return done; });
  sidecar.Append("soft_updates/create_remove_50", m.DumpStatsJson());
}

}  // namespace
}  // namespace mufs

int main(int argc, char** argv) {
  // Strip the shared mufs flags first; google-benchmark gets the rest.
  mufs::BenchArgs args = mufs::ParseBenchArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mufs::EmitSidecar(args);
  return 0;
}
