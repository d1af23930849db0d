// Shared runners for the paper-reproduction benchmark binaries.
//
// Each bench binary reproduces one table or figure of Ganger & Patt
// (OSDI '94): it configures Machines, runs the workloads, and prints the
// same rows/series the paper reports, with the paper's own numbers
// alongside for shape comparison.
#ifndef MUFS_BENCH_BENCH_COMMON_H_
#define MUFS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/workloads.h"

namespace mufs {

// CLI overrides shared by every bench binary: --users=N scales the
// multi-user workloads, --stats-out=PATH redirects the JSONL sidecar,
// --fault-rate=P / --fault-seed=S enable disk fault injection (uniform
// profile derived from one probability; see FaultConfig::Uniform),
// --queue-depth=N enables device command queueing (1 = the paper's
// substrate, byte-identical stats to the pre-queueing driver),
// --disks=N builds a striped multi-disk volume with sharded metadata
// (1 = the exact single-disk machine) and --stripe-unit=K sets its
// chunk size in blocks (0 keeps the machine default).
// --staleness-ns=N bounds how long an Async-scheme update may stay
// visible-but-not-durable (0 keeps the machine default).
struct BenchArgs {
  int users = 0;
  std::string stats_out;
  std::string out_dir;  // Directory of the binary; sidecars default here.
  double fault_rate = 0;
  uint64_t fault_seed = 1;
  uint32_t queue_depth = 1;
  uint32_t disks = 1;
  uint32_t stripe_unit = 0;
  uint32_t shards = 0;         // 0 = one shard per disk.
  uint64_t staleness_ns = 0;   // 0 = machine default (Async scheme only).
};

// Parses the shared flags, REMOVING recognized arguments from argv so a
// framework (e.g. google-benchmark) can consume whatever remains.
// Unrecognized arguments are left in place. `default_users` seeds
// args.users for benches that take a user count.
inline BenchArgs ParseBenchArgs(int* argc, char** argv, int default_users = 0) {
  BenchArgs args;
  args.users = default_users;
  // Sidecars default next to the binary (i.e. under build/), never the
  // caller's working directory, so repeated runs don't litter the repo.
  std::string_view self = argv[0];
  size_t slash = self.rfind('/');
  if (slash != std::string_view::npos) {
    args.out_dir = std::string(self.substr(0, slash));
  }
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view a = argv[i];
    if (a.rfind("--users=", 0) == 0) {
      int n = std::atoi(argv[i] + 8);
      if (n > 0) {
        args.users = n;
      } else {
        std::fprintf(stderr, "warning: ignoring bad %s\n", argv[i]);
      }
    } else if (a.rfind("--stats-out=", 0) == 0) {
      args.stats_out = argv[i] + 12;
    } else if (a.rfind("--fault-rate=", 0) == 0) {
      args.fault_rate = std::atof(argv[i] + 13);
    } else if (a.rfind("--fault-seed=", 0) == 0) {
      args.fault_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (a.rfind("--queue-depth=", 0) == 0) {
      int n = std::atoi(argv[i] + 14);
      if (n > 0) {
        args.queue_depth = static_cast<uint32_t>(n);
      } else {
        std::fprintf(stderr, "warning: ignoring bad %s\n", argv[i]);
      }
    } else if (a.rfind("--disks=", 0) == 0) {
      int n = std::atoi(argv[i] + 8);
      if (n > 0) {
        args.disks = static_cast<uint32_t>(n);
      } else {
        std::fprintf(stderr, "warning: ignoring bad %s\n", argv[i]);
      }
    } else if (a.rfind("--stripe-unit=", 0) == 0) {
      int n = std::atoi(argv[i] + 14);
      if (n > 0) {
        args.stripe_unit = static_cast<uint32_t>(n);
      } else {
        std::fprintf(stderr, "warning: ignoring bad %s\n", argv[i]);
      }
    } else if (a.rfind("--shards=", 0) == 0) {
      int n = std::atoi(argv[i] + 9);
      if (n > 0) {
        args.shards = static_cast<uint32_t>(n);
      } else {
        std::fprintf(stderr, "warning: ignoring bad %s\n", argv[i]);
      }
    } else if (a.rfind("--staleness-ns=", 0) == 0) {
      args.staleness_ns = std::strtoull(argv[i] + 15, nullptr, 10);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return args;
}

// Applies --fault-rate/--fault-seed to a machine config (no-op when the
// rate is zero, keeping the zero-fault stats byte-identical).
inline void ApplyFaultArgs(MachineConfig* cfg, const BenchArgs& args) {
  if (args.fault_rate > 0) {
    cfg->fault = FaultConfig::Uniform(args.fault_rate, args.fault_seed);
  }
  cfg->queue_depth = args.queue_depth;  // 1 (the default) is a no-op.
  cfg->disks = args.disks;              // 1 (the default) is a no-op.
  if (args.stripe_unit > 0) {
    cfg->stripe_unit = args.stripe_unit;
  }
  cfg->shards = args.shards;  // 0 (the default) = one shard per disk.
  if (args.staleness_ns > 0) {
    cfg->async_staleness_window = static_cast<SimDuration>(args.staleness_ns);
  }
}

inline MachineConfig BenchConfig(Scheme scheme, bool alloc_init = false) {
  MachineConfig cfg;
  cfg.scheme = scheme;
  cfg.alloc_init = alloc_init;
  // Section 5: the Scheduler Flag data use Part-NR/CB; chains also use
  // the block-copy enhancement.
  cfg.flag_semantics = FlagSemantics::kPart;
  cfg.reads_bypass = true;
  cfg.copy_blocks = true;
  cfg.chains_track_freed = true;
  return cfg;
}

inline const std::vector<Scheme>& AllSchemes() {
  // Derived from the canonical list in machine.h: a new scheme joins
  // every bench table automatically.
  static const std::vector<Scheme> schemes(std::begin(kAllSchemes), std::end(kAllSchemes));
  return schemes;
}

// --- The copy benchmark (section 2): each "user" recursively copies the
// 535-file / 14.3 MB tree from a shared populated source into a private
// destination tree.
inline RunMeasurement RunCopyBenchmark(const MachineConfig& cfg, int users,
                                       const TreeSpec& tree) {
  Machine m(cfg);
  SetupFn setup = [&tree](Machine& mm, Proc& p) -> Task<void> {
    FsStatus s = co_await PopulateTree(mm, p, tree, "/src");
    (void)s;
  };
  UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
    FsStatus s = co_await CopyTree(mm, p, tree, "/src", "/copy" + std::to_string(u));
    (void)s;
  };
  return RunMultiUser(m, users, setup, body);
}

// --- The remove benchmark: each "user" deletes one freshly copied tree.
inline RunMeasurement RunRemoveBenchmark(const MachineConfig& cfg, int users,
                                         const TreeSpec& tree) {
  Machine m(cfg);
  SetupFn real_setup = [&tree, users](Machine& mm, Proc& p) -> Task<void> {
    for (int u = 0; u < users; ++u) {
      FsStatus s = co_await PopulateTree(mm, p, tree, "/tree" + std::to_string(u));
      (void)s;
    }
  };
  UserFn body = [&tree](Machine& mm, Proc& p, int u) -> Task<void> {
    FsStatus s = co_await RemoveTree(mm, p, tree, "/tree" + std::to_string(u));
    (void)s;
  };
  // The trees were "newly copied", but in the paper's separate-execution
  // methodology the metadata is no longer cached (4 trees of copies exceed
  // the 1994 machine's memory); removal re-reads directories and inodes.
  return RunMultiUser(m, users, real_setup, body, /*drop_caches_after_setup=*/true);
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) {
    putchar('-');
  }
  putchar('\n');
}

// Machine-readable companion to the printed tables: one JSONL record per
// measured machine-run, written to "<bench_name>.stats.jsonl" next to the
// bench binary (i.e. under build/, which is gitignored) unless
// --stats-out overrides the path. Each record is
// {"label":...,"run":<DumpStatsJson>}, so rows map 1:1 onto the paper
// tables/figures the binary prints.
// Deterministic: same build + same seed => byte-identical file.
class StatsSidecar {
 public:
  // args.stats_out (--stats-out) replaces the default path when set.
  StatsSidecar(const std::string& bench_name, const BenchArgs& args)
      : path_(!args.stats_out.empty()
                  ? args.stats_out
                  : (args.out_dir.empty() ? bench_name + ".stats.jsonl"
                                          : args.out_dir + "/" + bench_name + ".stats.jsonl")) {
    f_ = std::fopen(path_.c_str(), "w");
    if (f_ == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
    }
  }
  StatsSidecar(const StatsSidecar&) = delete;
  StatsSidecar& operator=(const StatsSidecar&) = delete;
  ~StatsSidecar() {
    if (f_ != nullptr) {
      std::fclose(f_);
      std::printf("[stats sidecar: %s]\n", path_.c_str());
    }
  }

  void Append(const std::string& label, const std::string& stats_json) {
    if (f_ == nullptr || stats_json.empty()) {
      return;
    }
    std::string esc;
    JsonEscape(label, &esc);
    std::fprintf(f_, "{\"label\":\"%s\",\"run\":%s}\n", esc.c_str(), stats_json.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_BENCH_BENCH_COMMON_H_
