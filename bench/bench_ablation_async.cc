// Async-scheme ablation: what does decoupling visibility from
// durability buy, and what does the bounded-staleness window cost?
//
// Part 1 - op-return latency: the remove and Sdet benchmarks across the
// schemes whose return-time contract differs (Soft Updates, Journaling,
// Async, with No Order as the lower bound). The headline metric is the
// average return latency of a metadata mutation (unlink/rmdir for
// remove; create/unlink/mkdir/rmdir/rename for Sdet), read from the
// machine's fs.op.<name>.latency_ns histograms: the time the caller is
// blocked inside the op. Async returns as soon as the update
// is visible in the cache, so its per-op latency must sit strictly
// below Journaling (commit gating) and Soft Updates (dependency CPU +
// rollback writes). End-to-end elapsed time is reported as context; it
// includes the background flusher's durability writes, which Async pays
// inside the window while No Order defers them past benchmark end.
//
// Part 2 - staleness x commit-interval sweep: the Async scheme alone,
// sweeping the bounded-staleness window against the background flush
// (commit) interval, reporting latency plus the ledger's own accounting
// (admission stalls, flush epochs) so the latency/durability-lag
// trade-off is visible as a table.
//
// --json-out=PATH writes the perf trajectory (default BENCH_async.json
// in the working directory).
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"

namespace mufs {
namespace {

// Pulls one "counter":value out of a DumpStatsJson string (the dump is
// deterministic and flat, so plain string search is enough here).
uint64_t CounterFromJson(const std::string& json, const std::string& name) {
  std::string key = "\"" + name + "\":";
  size_t at = json.find(key);
  if (at == std::string::npos) {
    return 0;
  }
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

struct LatencyMeasurement {
  RunMeasurement rm;
  double op_ms = 0;  // Average return latency of the measured ops.
};

// Average of the fs.op.<name>.latency_ns histograms for `ops`, over every
// call the machine served. The setups issue none of these ops.
double AvgOpMs(Machine& m, std::initializer_list<const char*> ops) {
  uint64_t count = 0;
  SimDuration sum = 0;
  for (const char* op : ops) {
    const LatencyHistogram& h = m.stats().histogram(std::string("fs.op.") + op + ".latency_ns");
    count += h.count();
    sum += h.sum();
  }
  return count > 0 ? ToMs(sum) / static_cast<double>(count) : 0;
}

LatencyMeasurement RunRemoveLatency(const MachineConfig& cfg, int users,
                                    const TreeSpec& tree) {
  Machine m(cfg);
  LatencyMeasurement out;
  out.rm = RunRemoveBenchmark(m, users, tree);
  out.op_ms = AvgOpMs(m, {"unlink", "rmdir"});
  return out;
}

LatencyMeasurement RunSdetLatency(const MachineConfig& cfg, int scripts, int operations) {
  Machine m(cfg);
  SetupFn setup = [](Machine&, Proc&) -> Task<void> { co_return; };
  UserFn body = [operations](Machine& mm, Proc& p, int u) -> Task<void> {
    (void)co_await SdetScript(mm, p, "/script" + std::to_string(u),
                              /*seed=*/1000 + static_cast<uint64_t>(u), operations);
  };
  LatencyMeasurement out;
  out.rm = RunMultiUser(m, scripts, setup, body, /*drop_caches_after_setup=*/false);
  out.op_ms = AvgOpMs(m, {"create", "unlink", "mkdir", "rmdir", "rename"});
  return out;
}

struct BaselineRow {
  Scheme scheme;
  double remove_op_ms = 0;    // Avg return latency per unlink/rmdir.
  double sdet_op_ms = 0;      // Avg return latency per metadata mutation.
  double remove_elapsed_s = 0;
  double sdet_elapsed_s = 0;
};

struct SweepCell {
  uint64_t staleness_ms = 0;
  uint64_t flush_interval_ms = 0;  // 0 = derived (staleness / 4).
  double remove_op_ms = 0;
  double remove_elapsed_s = 0;
  uint64_t op_stalls = 0;
  uint64_t epochs = 0;
  uint64_t barrier_stalls = 0;
};

int Main(const BenchArgs& args, const std::string& json_out) {
  TreeGenOptions topts;
  topts.file_count = 150;
  topts.total_bytes = 1'500'000;
  topts.dir_count = 8;
  TreeSpec tree = GenerateTree(topts);
  const int users = args.users > 0 ? args.users : 4;
  const int sdet_ops = 200;

  printf("Async ablation: op-return latency with decoupled visibility/durability\n");
  printf("(remove: %d users x %zu-file tree; Sdet: %d scripts x %d ops;\n", users,
         tree.files.size(), users, sdet_ops);
  printf(" op-latency = avg time a caller is blocked per metadata mutation)\n");
  PrintRule(92);
  printf("%-18s %14s %14s %14s %14s\n", "Scheme", "RemoveOp(ms)", "SdetOp(ms)",
         "RemoveElap(s)", "SdetElap(s)");
  PrintRule(92);

  StatsSidecar sidecar("bench_ablation_async", args);
  const Scheme kLatencySchemes[] = {Scheme::kSoftUpdates, Scheme::kJournaling,
                                    Scheme::kAsync, Scheme::kNoOrder};
  std::vector<BaselineRow> baselines;
  for (Scheme s : kLatencySchemes) {
    MachineConfig cfg = BenchConfig(s, /*alloc_init=*/s == Scheme::kSoftUpdates);
    ApplyFaultArgs(&cfg, args);
    if (s == Scheme::kAsync && args.staleness_ns == 0) {
      // Baseline staleness bound: 2 s. Wide enough that the deadline-driven
      // flusher keeps durability writes off the benchmark's critical phase
      // (the sweep below shows the latency curve down to 25 ms), yet 15x
      // tighter than the 30 s cadence the conventional delayed-write cache
      // already accepts. --staleness-ns overrides it.
      cfg.async_staleness_window = Msec(2000);
    }
    BaselineRow row;
    row.scheme = s;
    LatencyMeasurement rem = RunRemoveLatency(cfg, users, tree);
    row.remove_op_ms = rem.op_ms;
    row.remove_elapsed_s = rem.rm.ElapsedAvgSeconds();
    sidecar.Append(std::string(SchemeName(s)) + "/remove", rem.rm.stats_json);
    LatencyMeasurement sd = RunSdetLatency(cfg, users, sdet_ops);
    row.sdet_op_ms = sd.op_ms;
    row.sdet_elapsed_s = sd.rm.ElapsedAvgSeconds();
    sidecar.Append(std::string(SchemeName(s)) + "/sdet", sd.rm.stats_json);
    baselines.push_back(row);
    printf("%-18s %14.4f %14.4f %14.3f %14.3f\n", std::string(SchemeName(s)).c_str(),
           row.remove_op_ms, row.sdet_op_ms, row.remove_elapsed_s, row.sdet_elapsed_s);
  }
  PrintRule(92);
  printf("Expected shape: Async per-op latency strictly below Journaling and Soft\n");
  printf("Updates on both benchmarks (ops return at visibility, not durability).\n");
  printf("Elapsed time is context only: Async pays its durability writes inside\n");
  printf("the window via flush epochs, where No Order defers them past the end.\n\n");

  // --- staleness x commit-interval sweep (Async only) ----------------
  const uint64_t staleness_ms[] = {25, 100, 500, 2000};
  const uint64_t interval_ms[] = {0, 5, 50};

  printf("Staleness x commit-interval sweep (Async remove, %d users)\n", users);
  PrintRule(92);
  printf("%-14s %-12s %12s %12s %10s %8s %14s\n", "Staleness(ms)", "Commit(ms)",
         "RemoveOp(ms)", "Elapsed(s)", "OpStalls", "Epochs", "BarrierStalls");
  PrintRule(92);
  std::vector<SweepCell> sweep;
  for (uint64_t st : staleness_ms) {
    for (uint64_t iv : interval_ms) {
      MachineConfig cfg = BenchConfig(Scheme::kAsync);
      ApplyFaultArgs(&cfg, args);
      cfg.async_staleness_window = Msec(static_cast<int64_t>(st));
      cfg.async_flush_interval = Msec(static_cast<int64_t>(iv));
      LatencyMeasurement rem = RunRemoveLatency(cfg, users, tree);
      SweepCell cell;
      cell.staleness_ms = st;
      cell.flush_interval_ms = iv;
      cell.remove_op_ms = rem.op_ms;
      cell.remove_elapsed_s = rem.rm.ElapsedAvgSeconds();
      cell.op_stalls = CounterFromJson(rem.rm.stats_json, "async.op_stalls");
      cell.epochs = CounterFromJson(rem.rm.stats_json, "async.epochs");
      cell.barrier_stalls = CounterFromJson(rem.rm.stats_json, "async.barrier_stalls");
      sweep.push_back(cell);
      sidecar.Append("sweep/st" + std::to_string(st) + "ms/iv" + std::to_string(iv) + "ms",
                     rem.rm.stats_json);
      std::string commit = iv == 0 ? "auto" : std::to_string(iv);
      printf("%-14llu %-12s %12.4f %12.3f %10llu %8llu %14llu\n",
             static_cast<unsigned long long>(st), commit.c_str(), cell.remove_op_ms,
             cell.remove_elapsed_s, static_cast<unsigned long long>(cell.op_stalls),
             static_cast<unsigned long long>(cell.epochs),
             static_cast<unsigned long long>(cell.barrier_stalls));
    }
  }
  PrintRule(92);
  printf("Expected shape: per-op latency is flat in the staleness window until the\n");
  printf("window is short enough that admission stalls appear (op_stalls > 0);\n");
  printf("shorter commit intervals buy a smaller durability lag for more epochs.\n");

  // Perf-trajectory summary (consumed by CI as BENCH_async_ci.json).
  std::string path = json_out.empty() ? "BENCH_async.json" : json_out;
  if (FILE* f = fopen(path.c_str(), "w")) {
    fprintf(f, "{\n  \"bench\": \"bench_ablation_async\",\n");
    fprintf(f, "  \"unit\": \"avg_ms_per_metadata_op\",\n  \"users\": %d,\n", users);
    fprintf(f, "  \"baselines\": [\n");
    for (size_t i = 0; i < baselines.size(); ++i) {
      const BaselineRow& r = baselines[i];
      fprintf(f,
              "    {\"scheme\": \"%s\", \"remove_op_ms\": %.4f, \"sdet_op_ms\": %.4f, "
              "\"remove_elapsed_s\": %.4f, \"sdet_elapsed_s\": %.4f}%s\n",
              std::string(SchemeName(r.scheme)).c_str(), r.remove_op_ms, r.sdet_op_ms,
              r.remove_elapsed_s, r.sdet_elapsed_s,
              i + 1 < baselines.size() ? "," : "");
    }
    fprintf(f, "  ],\n  \"staleness_sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepCell& c = sweep[i];
      fprintf(f,
              "    {\"staleness_ms\": %llu, \"commit_interval_ms\": %llu, "
              "\"remove_op_ms\": %.4f, \"remove_elapsed_s\": %.4f, "
              "\"op_stalls\": %llu, \"epochs\": %llu, \"barrier_stalls\": %llu}%s\n",
              static_cast<unsigned long long>(c.staleness_ms),
              static_cast<unsigned long long>(c.flush_interval_ms), c.remove_op_ms,
              c.remove_elapsed_s, static_cast<unsigned long long>(c.op_stalls),
              static_cast<unsigned long long>(c.epochs),
              static_cast<unsigned long long>(c.barrier_stalls),
              i + 1 < sweep.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
    printf("[perf trajectory: %s]\n", path.c_str());
  } else {
    fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }

  // The scheme's headline claim is checked right here: visibly-faster
  // returns than both durability-coupled schemes on both benchmarks.
  int rc = 0;
  const BaselineRow* async_row = nullptr;
  for (const BaselineRow& r : baselines) {
    if (r.scheme == Scheme::kAsync) {
      async_row = &r;
    }
  }
  for (const BaselineRow& r : baselines) {
    if (r.scheme != Scheme::kSoftUpdates && r.scheme != Scheme::kJournaling) {
      continue;
    }
    if (async_row->remove_op_ms >= r.remove_op_ms ||
        async_row->sdet_op_ms >= r.sdet_op_ms) {
      fprintf(stderr, "ERROR: Async op-return latency not strictly below %s\n",
              std::string(SchemeName(r.scheme)).c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace mufs

int main(int argc, char** argv) {
  mufs::BenchArgs args = mufs::ParseBenchArgs(&argc, argv);
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.rfind("--json-out=", 0) == 0) {
      json_out = argv[i] + 11;
    }
  }
  return mufs::Main(args, json_out);
}
