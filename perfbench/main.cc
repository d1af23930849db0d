// Command-line driver of the repository benchmark (see perfbench/NOTES.md).
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// A run derives the workload's input sets from the seed (set k uses seed
// N * 1000 + k) and runs them in turn, untraced: one whole cycle, then on
// in cycle order until S seconds have passed. Host metrics are medians
// over those repetitions. Simulated metrics combine the input sets: ops
// per simulated second of all user phases; each set's exact latency
// percentiles and drain time, averaged over the sets. Every later repetition of a set
// must repeat its first simulated results exactly. A last repetition of
// input set 0 also runs the serial fsck against the threaded one; it runs
// last, and outside the medians, because the serial checker's memory
// traffic slows the repetitions after it. The report ends with one JSON line:
// {"correct":...,"attempted":...,"failed":...,"metrics":{name:value,...}}.
// --trace 0 reports the end-to-end metrics. --trace 1 traces that last
// repetition and reports its per-layer metrics, plus the tracing overhead;
// --trace-out writes its spans as JSONL. The overhead is the median over
// back-to-back pairs of an untraced and a traced repetition of input set
// 0, run before the last repetition, so that drift in host speed cancels.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/quantile.h"

namespace {

using perfbench::RepResult;

constexpr size_t kMaxReps = 100000;
constexpr int kOverheadPairs = 4;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

// The simulated results a repetition of an input set must repeat exactly.
bool SameSimResults(const RepResult& a, const RepResult& b) {
  return a.digest == b.digest && a.sim_ops == b.sim_ops && a.sim_user_s == b.sim_user_s &&
         a.sim_drain_s == b.sim_drain_s && a.mutation_ms == b.mutation_ms;
}

void PrintSeries(const char* name, const std::vector<double>& v) {
  std::printf("  %-16s median %.6f over %zu reps (min %.6f, max %.6f)\n", name, Median(v),
              v.size(), *std::min_element(v.begin(), v.end()),
              *std::max_element(v.begin(), v.end()));
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + a).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      return Usage(("bad value for " + a).c_str());
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload);
  if (w == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage("--seconds must be positive and --trace 0 or 1");
  }

  const size_t sets = static_cast<size_t>(w->input_sets);
  std::vector<RepResult> first_cycle;  // Layers and traces dropped.
  std::vector<double> host_s;
  std::vector<double> setup_s;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto run = [&](size_t set, perfbench::Tracer* tracer, bool verify) {
    perfbench::RunOptions options;
    options.seed = seed * 1000 + set;
    options.tracer = tracer;
    options.verify = verify;
    RepResult r = w->run(options);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      errors.push_back("input set " + std::to_string(set) + ": " + e);
    }
    if (set < first_cycle.size() && !SameSimResults(first_cycle[set], r)) {
      errors.push_back("input set " + std::to_string(set) +
                       ": simulated results differ between repetitions");
    }
    return r;
  };

  // Whole first cycle, then repetitions in cycle order until time is up.
  const int64_t t0 = perfbench::HostNowNs();
  size_t reps = 0;
  while (reps < kMaxReps) {
    const size_t set = reps % sets;
    RepResult r = run(set, nullptr, false);
    host_s.push_back(r.host_s);
    setup_s.push_back(r.setup_s);
    if (first_cycle.size() < sets) {
      r.layers.clear();
      first_cycle.push_back(std::move(r));
    }
    ++reps;
    if (reps >= sets && static_cast<double>(perfbench::HostNowNs() - t0) / 1e9 >= seconds) {
      break;
    }
  }

  uint64_t sim_ops = 0;
  double sim_user_s = 0;
  double sim_drain_s = 0;
  double p50_sum = 0;
  double tail_sum = 0;
  size_t min_samples = SIZE_MAX;
  int min_tail_pct = 99;
  uint64_t digest = 0;
  for (const RepResult& r : first_cycle) {
    sim_ops += r.sim_ops;
    sim_user_s += r.sim_user_s;
    sim_drain_s += r.sim_drain_s;
    const perfbench::Quantiles q = perfbench::Summarize(r.mutation_ms);
    p50_sum += q.p50;
    tail_sum += q.tail;
    min_samples = std::min(min_samples, q.n);
    min_tail_pct = std::min(min_tail_pct, q.tail_pct);
    digest = perfbench::Fnv1a(&r.digest, sizeof(r.digest), digest);
  }
  const double n_sets = static_cast<double>(sets);

  std::vector<double> overhead_s;
  for (int i = 0; trace == 1 && i < kOverheadPairs; ++i) {
    // Every other pair runs its traced repetition first, so that an
    // effect of the order cancels out.
    perfbench::Tracer pair_tracer;
    double traced_s = 0;
    double plain_s = 0;
    if (i % 2 == 1) {
      traced_s = run(0, &pair_tracer, false).host_s;
    }
    plain_s = run(0, nullptr, false).host_s;
    if (i % 2 == 0) {
      traced_s = run(0, &pair_tracer, false).host_s;
    }
    overhead_s.push_back(traced_s - plain_s);
  }
  perfbench::Tracer tracer;
  RepResult last = run(0, trace == 1 ? &tracer : nullptr, true);

  std::printf("perfbench %s seed %llu: %zu repetitions over %zu input sets\n", workload.c_str(),
              static_cast<unsigned long long>(seed), reps, sets);
  PrintSeries("host_s", host_s);
  PrintSeries("setup_s", setup_s);
  std::printf("  sim_op latency: p50 and p%d (>= %zu samples beyond) of each input set, "
              "at least %zu metadata-mutation samples per set, averaged over %zu sets\n",
              min_tail_pct, perfbench::kTailSamples, min_samples, sets);
  std::printf("  sim ops %llu over %.6f simulated s of user phase; drain %.6f s per set\n",
              static_cast<unsigned long long>(sim_ops), sim_user_s, sim_drain_s / n_sets);

  std::map<std::string, double> metrics;
  if (trace == 0) {
    metrics["host_s"] = Median(host_s);
    metrics["setup_s"] = Median(setup_s);
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["sim_ops_per_s"] = sim_user_s > 0 ? static_cast<double>(sim_ops) / sim_user_s : 0;
    metrics["sim_op_p50_ms"] = p50_sum / n_sets;
    metrics["sim_op_p99_ms"] = tail_sum / n_sets;
    metrics["sim_drain_s"] = sim_drain_s / n_sets;
  } else {
    const RepResult& traced = last;
    for (const std::string& name : perfbench::LayerMetricNames()) {
      auto it = traced.layers.find(name);
      metrics[name] = it != traced.layers.end() ? it->second : 0;
    }
    metrics["trace.overhead_s"] = Median(overhead_s);
    std::printf("  per-phase self time (host s) of the traced repetition of input set 0:\n");
    for (const auto& [name, s] : tracer.SelfSeconds()) {
      std::printf("    %-20s %.6f\n", name.c_str(), s);
      std::string key = "trace.self." + name + "_s";
      if (metrics.contains(key)) {
        metrics[key] = s;
      }
    }
    std::printf("  tracing overhead %.6f s: median of traced minus untraced host_s over %d "
                "back-to-back pairs of input set 0 (",
                metrics["trace.overhead_s"], kOverheadPairs);
    for (size_t i = 0; i < overhead_s.size(); ++i) {
      std::printf("%s%.6f", i == 0 ? "" : ", ", overhead_s[i]);
    }
    std::printf("); a negative value means the overhead is below the host's noise\n");
    std::printf("  driver.queue_ms_p50/p99 are disk.queue_ns bucket upper edges\n");
    if (!trace_out.empty()) {
      if (tracer.WriteJsonl(trace_out, traced.machine_trace)) {
        std::printf("  spans: %zu, machine trace records: %zu -> %s\n", tracer.spans().size(),
                    traced.machine_trace.size(), trace_out.c_str());
      } else {
        errors.push_back("cannot write " + trace_out);
      }
    }
  }
  std::printf("  failed_op_share %.6g (%llu failed of %llu attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("  sim_digest %016llx\n", static_cast<unsigned long long>(digest));
  for (const std::string& e : errors) {
    std::printf("  CHECK FAILED %s\n", e.c_str());
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              errors.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
