// Crash-recovery benchmark: wall-clock fsck check and repair time over
// deterministic crash images, single-disk and 4-disk sharded volumes.
//
// This is the recovery-time companion to the paper's update-performance
// tables: metadata-update schemes are judged by BOTH steady-state
// throughput and how long the post-crash check takes. Check and repair
// are serial and in place (src/fsck/pfsck.h); the extract column times
// the reference that checks each shard on an extracted copy instead.
// Every cell re-checks its in-place report against that reference and
// the binary exits non-zero on a mismatch.
//
// Extra flags (on top of bench_common's shared set):
//   --quick            small workload only, fewer timing repetitions
//                      (CI smoke mode).
//   --json-out=PATH    write the perf-trajectory summary (BENCH_fsck.json
//                      schema) to PATH instead of ./BENCH_fsck.json.
#include "bench/bench_common.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/fsck/crash_harness.h"
#include "src/fsck/fsck.h"
#include "src/fsck/pfsck.h"
#include "tests/fsck_reference.h"

namespace mufs {
namespace {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Metadata churn sized by (dirs, files-per-dir): creates, partial
// unlinks, a second create wave and renames, with syncer flushes in
// between so the 2/3-of-run crash image holds a rich mix of settled and
// in-flight metadata.
CrashHarness::Workload Churn(int dirs, int files) {
  return [dirs, files](Machine& m, Proc& p) -> Task<void> {
    for (int d = 0; d < dirs; ++d) {
      std::string dir = "/d" + std::to_string(d);
      (void)co_await m.vfs().Mkdir(p, dir);
      (void)co_await CreateFiles(m, p, dir, files, 2 * kBlockSize);
    }
    co_await m.engine().Sleep(Sec(4));
    for (int d = 0; d < dirs; ++d) {
      std::string dir = "/d" + std::to_string(d);
      for (int i = 0; i < files; i += 3) {
        (void)co_await m.vfs().Unlink(p, dir + "/c" + std::to_string(i));
      }
    }
    co_await m.engine().Sleep(Sec(4));
    for (int d = 0; d < dirs; ++d) {
      std::string dir = "/d" + std::to_string(d);
      (void)co_await CreateFiles(m, p, dir, files / 2, kBlockSize);
      (void)co_await m.vfs().Rename(p, dir + "/c1", dir + "/renamed");
    }
  };
}

ShardLayout LayoutOf(const MachineConfig& cfg) {
  Machine m(cfg);
  ShardLayout layout;
  layout.num_shards = static_cast<uint32_t>(m.NumShards());
  layout.shard_blocks = m.ShardBlocks();
  layout.ino_stride = m.InoStride();
  return layout;
}

struct Cell {
  std::string config;
  uint32_t disks = 1;
  uint32_t inodes_in_use = 0;
  size_t findings = 0;
  double check_ms = 0;
  double repair_ms = 0;
  double extract_check_ms = 0;
  PfsckStats stats;
};

// Best-of-`reps` wall-clock milliseconds of fn().
template <typename Fn>
double BestMs(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    int64_t t0 = WallNs();
    fn();
    double ms = static_cast<double>(WallNs() - t0) / 1e6;
    if (r == 0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

int Main(const BenchArgs& args, bool quick, const std::string& json_out) {
  struct Size {
    const char* name;
    int dirs;
    int files;
  };
  std::vector<Size> sizes = {{"small", 4, 30}};
  if (!quick) {
    sizes.push_back({"large", 8, 90});
  }
  const int reps = quick ? 2 : 3;

  const unsigned cores = std::thread::hardware_concurrency();
  printf("Crash recovery: serial in-place fsck check + repair of crash images "
         "(best of %d, %u core%s)\n",
         reps, cores, cores == 1 ? "" : "s");
  PrintRule(110);
  printf("%-16s %6s %8s %9s %10s %11s %12s %12s %12s %12s\n", "Config", "Disks", "Inodes",
         "Findings", "Check(ms)", "Repair(ms)", "Extract(ms)", "Scan(ms)", "Walk(ms)",
         "Audit(ms)");
  PrintRule(110);

  StatsSidecar sidecar("bench_fsck", args);
  std::vector<Cell> cells;
  bool mismatch = false;

  for (const Size& size : sizes) {
    for (uint32_t disks : {1u, 4u}) {
      MachineConfig cfg;
      cfg.scheme = Scheme::kNoOrder;  // Maximum damage => maximum check work.
      cfg.disks = disks;
      cfg.syncer.sweep_seconds = 3;
      CrashHarness harness(cfg);
      CrashHarness::Workload churn = Churn(size.dirs, size.files);
      uint64_t total_writes = harness.MeasureWrites(churn);
      // Crash INSIDE the final flush burst: most metadata has reached the
      // disk (a rich directory tree to walk) but the last few writes are
      // still in flight (real findings to report).
      uint64_t crash_at = total_writes > 12 ? total_writes - 12 : total_writes * 5 / 6;
      const DiskImage crash = harness.CrashImageAtWrite(churn, crash_at);
      const ShardLayout layout = LayoutOf(cfg);
      FsckOptions opts;
      opts.check_stale_data = true;

      Cell cell;
      cell.config = std::string(size.name) + "_" + std::to_string(disks) + "d";
      cell.disks = disks;
      FsckReport report;
      cell.check_ms = BestMs(reps, [&] {
        cell.stats = {};
        report = PfsckCheckSharded(crash, layout, opts, &cell.stats);
      });
      std::vector<DiskImage> copies(reps, crash);  // Copied outside the timing.
      size_t next = 0;
      cell.repair_ms = BestMs(reps, [&] { PfsckRepairSharded(&copies[next++], layout, opts); });
      FsckReport reference;
      cell.extract_check_ms =
          BestMs(reps, [&] { reference = ReferenceCheckSharded(crash, layout, opts); });
      std::string diff = ReportDifference(reference, report);
      if (!diff.empty()) {
        fprintf(stderr, "ERROR: %s in-place report differs from the reference: %s\n",
                cell.config.c_str(), diff.c_str());
        mismatch = true;
      }
      cell.inodes_in_use = report.inodes_in_use;
      cell.findings = report.violations.size() + report.fixables.size();
      cells.push_back(cell);

      printf("%-16s %6u %8u %9zu %10.3f %11.3f %12.3f %12.3f %12.3f %12.3f\n",
             cell.config.c_str(), disks, cell.inodes_in_use, cell.findings, cell.check_ms,
             cell.repair_ms, cell.extract_check_ms,
             static_cast<double>(cell.stats.inode_scan_ns) / 1e6,
             static_cast<double>(cell.stats.dir_walk_ns) / 1e6,
             static_cast<double>(cell.stats.audit_ns) / 1e6);

      char json[512];
      snprintf(json, sizeof(json),
               "{\"check_ms\":%.3f,\"repair_ms\":%.3f,\"extract_check_ms\":%.3f,"
               "\"inode_scan_ns\":%llu,\"dir_walk_ns\":%llu,\"audit_ns\":%llu,"
               "\"findings\":%zu}",
               cell.check_ms, cell.repair_ms, cell.extract_check_ms,
               static_cast<unsigned long long>(cell.stats.inode_scan_ns),
               static_cast<unsigned long long>(cell.stats.dir_walk_ns),
               static_cast<unsigned long long>(cell.stats.audit_ns), cell.findings);
      sidecar.Append(cell.config, json);
    }
  }
  PrintRule(110);
  printf("Check and repair run serially, each shard in place. Extract is the reference\n");
  printf("check of each shard on an extracted copy; every in-place report above was\n");
  printf("re-checked against it. Scan/Walk/Audit split the last check by pass.\n");

  // Perf-trajectory summary (consumed by CI as BENCH_fsck.json).
  std::string path = json_out.empty() ? "BENCH_fsck.json" : json_out;
  if (FILE* f = fopen(path.c_str(), "w")) {
    fprintf(f, "{\n  \"bench\": \"bench_fsck\",\n  \"cores\": %u,\n", cores);
    fprintf(f, "  \"unit\": \"ms_wall_clock_best_of_%d\",\n  \"results\": [\n", reps);
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      fprintf(f,
              "    {\"config\": \"%s\", \"disks\": %u, \"inodes\": %u, \"check_ms\": %.3f, "
              "\"repair_ms\": %.3f, \"extract_check_ms\": %.3f}%s\n",
              c.config.c_str(), c.disks, c.inodes_in_use, c.check_ms, c.repair_ms,
              c.extract_check_ms, i + 1 < cells.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
    printf("[perf trajectory: %s]\n", path.c_str());
  } else {
    fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
  return mismatch ? 1 : 0;
}

}  // namespace
}  // namespace mufs

int main(int argc, char** argv) {
  mufs::BenchArgs args = mufs::ParseBenchArgs(&argc, argv);
  bool quick = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a.rfind("--json-out=", 0) == 0) {
      json_out = argv[i] + 11;
    }
  }
  return mufs::Main(args, quick, json_out);
}
