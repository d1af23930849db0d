// The paper's workloads, reusable by benchmarks, examples and tests:
//
//   - N-user copy / remove of the 535-file source tree (section 2);
//   - 1 KB file create / remove / create+remove throughput (figure 5);
//   - the Andrew benchmark's five phases (table 3);
//   - an Sdet-like software-development script mix (figure 6).
//
// All file data is written with fsck-verifiable tags (TagDataBlock), so
// any of these workloads can double as a crash-consistency workload.
#ifndef MUFS_SRC_WORKLOAD_WORKLOADS_H_
#define MUFS_SRC_WORKLOAD_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/workload/tree_gen.h"

namespace mufs {

// Writes `bytes` of tagged data to an (already created) file. Every 4 KB
// block begins with a DataBlockTag{ino, generation} header.
Task<FsStatus> WriteTagged(Machine& m, Proc& proc, uint32_t ino, uint64_t bytes);

// Creates the tree (directories + files with tagged data) under
// `root` (e.g. "/src"). Creates `root` itself.
Task<FsStatus> PopulateTree(Machine& m, Proc& proc, const TreeSpec& tree,
                            const std::string& root);

// Recursive copy: reads every file under src_root, creates and writes the
// equivalent under dst_root (the N-user copy benchmark body).
Task<FsStatus> CopyTree(Machine& m, Proc& proc, const TreeSpec& tree,
                        const std::string& src_root, const std::string& dst_root);

// Return-latency accounting for metadata MUTATIONS (create, unlink,
// mkdir, rmdir, rename): the time from op issue to op return, which is
// the contract the ordering schemes actually differ on (a scheme with
// decoupled visibility/durability returns at cache speed; a synchronous
// or commit-gated scheme blocks the caller). Reads and data writes are
// not counted.
struct MetaOpLatency {
  uint64_t ops = 0;
  SimDuration total = 0;
  double AvgMs() const {
    return ops > 0 ? ToSeconds(total) * 1000.0 / static_cast<double>(ops) : 0;
  }
};

// Recursive remove of a populated tree (the N-user remove benchmark body).
// `lat`, when set, accumulates the return latency of each Unlink/Rmdir.
Task<FsStatus> RemoveTree(Machine& m, Proc& proc, const TreeSpec& tree,
                          const std::string& root, MetaOpLatency* lat = nullptr);

// Figure 5 bodies: `count` 1 KB files in `dir` (which must exist).
Task<FsStatus> CreateFiles(Machine& m, Proc& proc, const std::string& dir, int count,
                           uint64_t file_bytes = 1024);
Task<FsStatus> RemoveFiles(Machine& m, Proc& proc, const std::string& dir, int count);
Task<FsStatus> CreateRemoveFiles(Machine& m, Proc& proc, const std::string& dir, int count,
                                 uint64_t file_bytes = 1024);

// Andrew benchmark (table 3). Phases operate on a pre-populated source
// tree; phase timings are returned in seconds of simulated time.
struct AndrewTimes {
  double make_dir = 0;   // (1) create directory tree
  double copy = 0;       // (2) copy files
  double scan_dir = 0;   // (3) stat every file
  double read_all = 0;   // (4) read every byte
  double compile = 0;    // (5) compile
  double Total() const { return make_dir + copy + scan_dir + read_all + compile; }
};
Task<AndrewTimes> AndrewBenchmark(Machine& m, Proc& proc, const TreeSpec& tree,
                                  const std::string& src_root, const std::string& work_root);

// One Sdet-like script: a randomized mix of software-development
// operations in the script's private directory. `lat`, when set,
// accumulates the return latency of the metadata mutations in the mix.
Task<FsStatus> SdetScript(Machine& m, Proc& proc, const std::string& dir, uint64_t seed,
                          int operations = 200, MetaOpLatency* lat = nullptr);

// ---------------------------------------------------------------------
// Workload personalities (adversarial fault / crash matrix)
// ---------------------------------------------------------------------
//
// Self-contained "personalities" concentrating on the metadata shapes
// the ordering schemes disagree about. Each creates its own `root`,
// performs a seeded op mix, and (optionally) reports the exact mix it
// executed. The mix is a pure function of the seed - two runs with the
// same seed perform the identical op sequence, so tests can pin
// determinism and benchmarks can report per-op rates. Individual op
// failures (e.g. under fault injection) are tolerated and skipped, like
// SdetScript; only a failed setup aborts the personality.

struct PersonalityOpMix {
  uint64_t creates = 0;  // Create calls that succeeded.
  uint64_t appends = 0;  // Data writes into already-existing files.
  uint64_t unlinks = 0;
  uint64_t stats = 0;    // Stat + ReadDir scans.
  uint64_t renames = 0;
  uint64_t mkdirs = 0;
  uint64_t rmdirs = 0;
  uint64_t reads = 0;    // Whole-file data reads.
  uint64_t Total() const {
    return creates + appends + unlinks + stats + renames + mkdirs + rmdirs + reads;
  }
  bool operator==(const PersonalityOpMix&) const = default;
};

// Mail server (maildir): deliveries create small messages in tmp/ and
// rename them into new/; readers move them to cur/ and re-read them;
// expunges unlink; deliveries also append to a growing log file. Small-
// file create/append/rename/unlink churn.
Task<FsStatus> MailServerWorkload(Machine& m, Proc& proc, const std::string& root,
                                  uint64_t seed, int operations = 200,
                                  PersonalityOpMix* mix = nullptr);

// Build farm: a deep source tree scanned by make-style dependency
// checks (stat storms down deep paths), with bursts of compiles
// (object creates), incremental edits and clean passes.
Task<FsStatus> BuildFarmWorkload(Machine& m, Proc& proc, const std::string& root,
                                 uint64_t seed, int operations = 200,
                                 PersonalityOpMix* mix = nullptr);

// Web-asset swap: a live asset directory updated by staging the new
// version of an asset and swapping it in. Rename does not replace, so
// a swap is unlink(live) + rename(staged, live) - rename-heavy, with
// reader traffic interleaved.
Task<FsStatus> WebAssetSwapWorkload(Machine& m, Proc& proc, const std::string& root,
                                    uint64_t seed, int operations = 200,
                                    PersonalityOpMix* mix = nullptr);

// Cache-backing cleanup, modeled on mcachefs's cleanup-backing loop:
// fill a backing tree with cached files, then walk it collecting sizes,
// sort victims deterministically (largest first) and unlink until a
// byte budget is freed, removing directories that emptied. Fill and
// cleanup passes alternate until the op budget is spent.
Task<FsStatus> CacheCleanupWorkload(Machine& m, Proc& proc, const std::string& root,
                                    uint64_t seed, int operations = 200,
                                    PersonalityOpMix* mix = nullptr);

// ---------------------------------------------------------------------
// Multi-user runner + measurement
// ---------------------------------------------------------------------

struct UserStats {
  SimDuration elapsed = 0;
  SimDuration cpu = 0;
  SimDuration io_wait = 0;
};

struct RunMeasurement {
  std::vector<UserStats> users;
  SimDuration wall = 0;            // Setup-to-last-finisher.
  uint64_t disk_requests = 0;      // Issued requests (merges included), timed phase.
  double avg_response_ms = 0;      // Driver response (queue + access), successful requests.
  double avg_access_ms = 0;        // Disk access time of each successful attempt.
  double cpu_seconds_total = 0;    // All users, timed phase.
  std::string stats_json;          // Machine::DumpStatsJson() at run end.

  double ElapsedAvgSeconds() const {
    if (users.empty()) {
      return 0;
    }
    double sum = 0;
    for (const auto& u : users) {
      sum += ToSeconds(u.elapsed);
    }
    return sum / static_cast<double>(users.size());
  }
};

// Runs `setup` (untimed), optionally drops clean caches, then runs
// `user_body` for each of `num_users` concurrently (timed) and collects
// the paper's statistics.
using SetupFn = std::function<Task<void>(Machine&, Proc&)>;
using UserFn = std::function<Task<void>(Machine&, Proc&, int)>;
RunMeasurement RunMultiUser(Machine& m, int num_users, const SetupFn& setup,
                            const UserFn& user_body, bool drop_caches_after_setup = true);

}  // namespace mufs

#endif  // MUFS_SRC_WORKLOAD_WORKLOADS_H_
