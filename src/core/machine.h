// Machine: assembles the full simulated system - engine, CPU, disk(s),
// driver(s), buffer cache(s), syncer daemon(s), file system(s) and
// ordering policy - from one config. This is the library's main entry
// point.
//
//   MachineConfig cfg;
//   cfg.scheme = Scheme::kSoftUpdates;
//   Machine m(cfg);
//   Proc user = m.MakeProc("user1");
//   m.engine().Spawn(MyWorkload(&m, &user), "user1");
//   m.engine().RunUntil([&] { return done; });
//
// With config.disks > 1 (or config.shards > 1) the machine becomes a
// striped multi-disk volume (src/volume/): N full disk stacks behind a
// StripedVolume, the block space partitioned into S shard regions, each
// running its own FileSystem + cache + syncer (+ journal), all glued
// together by a ShardedFs that routes operations by leaf-name hash.
// disks == 1 (the default) is the EXACT single-disk machine: no volume
// is constructed and no volume/per-disk metrics are registered.
#ifndef MUFS_SRC_CORE_MACHINE_H_
#define MUFS_SRC_CORE_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/async/visibility_ledger.h"
#include "src/cache/buffer_cache.h"
#include "src/cache/syncer.h"
#include "src/core/policies.h"
#include "src/disk/disk_image.h"
#include "src/disk/disk_model.h"
#include "src/driver/disk_driver.h"
#include "src/fault/fault_injector.h"
#include "src/fs/filesystem.h"
#include "src/fs/fs_interface.h"
#include "src/journal/journal_manager.h"
#include "src/journal/journal_recovery.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/volume/sharded_fs.h"
#include "src/volume/volume.h"

namespace mufs {

enum class Scheme {
  kNoOrder,
  kConventional,
  kSchedulerFlag,
  kSchedulerChains,
  kSoftUpdates,
  kJournaling,
  kAsync,
};

// Display name with spaces ("Soft Updates"), used in figures and logs.
std::string_view ToString(Scheme s);
// Compact identifier-safe name ("SoftUpdates"), used in stats sidecars,
// bench tables and gtest parameter names. The one place scheme names are
// stringified - everything else calls one of these two.
std::string_view SchemeName(Scheme s);

// Every scheme, in bench-table order (the unsafe NoOrder baseline last).
// Sweep tests and bench tables enumerate this array instead of keeping
// their own lists, so a new scheme propagates everywhere by being added
// here (next to its SchemeName entry above).
inline constexpr Scheme kAllSchemes[] = {
    Scheme::kConventional, Scheme::kSchedulerFlag, Scheme::kSchedulerChains,
    Scheme::kSoftUpdates,  Scheme::kJournaling,    Scheme::kAsync,
    Scheme::kNoOrder,
};

struct MachineConfig {
  Scheme scheme = Scheme::kConventional;

  // Scheduler-flag options (paper section 3.1/3.3).
  FlagSemantics flag_semantics = FlagSemantics::kPart;
  bool reads_bypass = true;  // -NR
  bool copy_blocks = true;   // -CB

  // Scheduler-chain variant (section 3.2): track freed resources (true)
  // or fall back to barrier behaviour (false).
  bool chains_track_freed = true;

  // The paper's "Ignore" datapoint: the file system issues flagged
  // asynchronous writes but the driver disregards the flags (figure 1/2
  // comparison only; NOT crash safe).
  bool ignore_flags = false;

  // Enforce allocation initialization for file data blocks (tables 1).
  bool alloc_init = false;

  // Device command-queue depth (--queue-depth). 1 = the paper's substrate
  // (no command queueing, byte-identical stats to the pre-queueing
  // driver); >1 enables SCSI-style tagged queueing: the driver dispatches
  // until the device queue is full and the device picks by rotational
  // position, with ordered tags at the Flag/Chains ordering boundaries.
  uint32_t queue_depth = 1;

  // Journaling options (Scheme::kJournaling only): size of the on-disk
  // log extent (journal superblock + ring) and the group-commit cadence.
  uint32_t journal_log_blocks = 1024;
  SimDuration journal_commit_interval = Sec(1);

  // Async-scheme options (Scheme::kAsync only): the bounded staleness
  // window (--staleness-ns) - an op that completed more than this long
  // before a crash must be durable by the crash - and the background
  // epoch-flush cadence (0 = staleness_window / 4). See src/async/.
  SimDuration async_staleness_window = Msec(500);
  SimDuration async_flush_interval = 0;

  // Disk fault injection (off by default: all rates zero). When enabled
  // the driver consults the injector on every service attempt and runs
  // its retry/remap/timeout recovery path. Multi-disk machines give disk
  // d an independent injector seeded fault.seed + d.
  FaultConfig fault;

  // Striped multi-disk volume (--disks / --stripe-unit): each member
  // disk gets its own `geometry`-sized model, fault injector and driver;
  // volume LBAs stripe over them in stripe_unit-block chunks. 1 = the
  // exact single-disk machine (no volume layer at all).
  //
  // stripe_unit 0 (the default) is shard-aligned placement: the unit is
  // sized so each shard's region lands contiguously on one member disk
  // (shards then scale with spindles - each arm stays inside its own
  // metadata zone). An explicit unit interleaves finely instead; that
  // buys intra-file parallelism but every arm then serves every shard's
  // hot metadata zones, and the seek cost usually dominates.
  uint32_t disks = 1;
  uint32_t stripe_unit = 0;
  // Metadata shards on the volume; 0 = one per disk. Each shard is a
  // complete file system owning volume region [s*SB, (s+1)*SB). Only
  // meaningful when the machine is multi (disks > 1 or shards > 1).
  uint32_t shards = 0;
  // CPU cores; 0 = one per disk (the scale-out node adds a core with
  // every spindle, so a multi-disk machine is N of the paper's machines
  // behind one namespace). Single-disk machines stay the paper's 1-CPU
  // i486 either way.
  uint32_t cpus = 0;

  DiskGeometry geometry;
  size_t cache_capacity_blocks = 8192;
  SyncerConfig syncer;
  FsCpuCosts cpu_costs;
  uint32_t total_inodes = 32768;
  uint64_t seed = 42;
  // Stream per-event JSONL trace records into the stats registry
  // (disk issue/service/complete, cache hit/miss/flush, syncer sweeps,
  // policy ordering points, soft-updates rollback/redo).
  bool collect_stats_trace = false;
  size_t stats_trace_cap = 1 << 20;
  // Format a fresh file system in the image at construction.
  bool format = true;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  const MachineConfig& config() const { return config_; }
  Engine& engine() { return *engine_; }
  Cpu& cpu() { return *cpu_; }
  // The stable-storage image. Multi-disk machines share ONE
  // volume-addressed image across all member drivers, so WriteCount(),
  // ArmTornWrite() and CrashNow() keep their machine-wide meaning.
  DiskImage& image() { return *image_; }
  DiskModel& disk() { return *models_[0]; }
  DiskModel& disk(size_t d) { return *models_[d]; }
  DiskDriver& driver() { return *drivers_[0]; }
  DiskDriver& driver(size_t d) { return *drivers_[d]; }
  BufferCache& cache() { return *caches_[0]; }
  BufferCache& cache(size_t s) { return *caches_[s]; }
  SyncerDaemon& syncer() { return *syncers_[0]; }
  SyncerDaemon& syncer(size_t s) { return *syncers_[s]; }
  // Null unless config.fault has a non-zero rate or scripted entries.
  FaultInjector* faults() { return faults_.empty() ? nullptr : faults_[0].get(); }
  FaultInjector* faults(size_t d) { return faults_[d].get(); }
  // Shard 0's file system (the only one on a single-disk machine).
  FileSystem& fs() { return *fss_[0]; }
  FileSystem& fs(size_t s) { return *fss_[s]; }
  // The operation surface workloads should use: the ShardedFs router on
  // a multi machine, the plain FileSystem otherwise.
  FsInterface& vfs() {
    return sharded_ != nullptr ? static_cast<FsInterface&>(*sharded_) : *fss_[0];
  }
  OrderingPolicy& policy() { return *policies_[0]; }
  // Null unless the scheme is kJournaling (shard 0's journal on multi).
  JournalManager* journal() { return journals_.empty() ? nullptr : journals_[0].get(); }
  JournalManager* journal(size_t s) { return journals_[s].get(); }
  // Null unless the scheme is kAsync (shard 0's ledger on multi).
  VisibilityLedger* ledger() { return ledgers_.empty() ? nullptr : ledgers_[0].get(); }
  VisibilityLedger* ledger(size_t s) { return ledgers_[s].get(); }
  // Null unless the machine is multi.
  StripedVolume* volume() { return volume_.get(); }
  ShardedFs* sharded() { return sharded_.get(); }
  // Result of the crash-recovery replay run by the last Boot (all zeros
  // for non-journaling schemes and fresh images; summed over shards).
  const JournalReplayReport& last_replay() const { return last_replay_; }
  StatsRegistry& stats() { return *stats_; }
  const StatsRegistry& stats() const { return *stats_; }

  // --- multi-disk topology -------------------------------------------
  size_t NumDisks() const { return drivers_.size(); }
  size_t NumShards() const { return fss_.size(); }
  bool IsMulti() const { return volume_ != nullptr; }
  uint32_t ShardBlocks() const { return shard_blocks_; }
  uint32_t ShardBase(size_t s) const { return static_cast<uint32_t>(s) * shard_blocks_; }
  // Global inode number stride between shards (= per-shard inode count).
  uint32_t InoStride() const { return config_.total_inodes; }

  // All metrics plus derived figures (disk utilization, cache hit rate)
  // and run identity (scheme, seed, simulated time) as one deterministic
  // JSON object - the machine-readable sidecar every bench emits.
  std::string DumpStatsJson() const;

  Proc MakeProc(std::string name);

  // Mounts the file system(s) and starts the syncer daemon(s). Run
  // inside the engine (spawn or as part of a workload) before any FS
  // operation.
  Task<void> Boot(Proc& proc);

  // Replaces the disk image contents (remounting a previously saved
  // image). Call before Boot, with config.format = false.
  void LoadImage(const DiskImage& saved) { *image_ = saved; }

  // "Power failure": a snapshot of stable storage exactly as it is now.
  // In-flight requests have not landed (the driver commits at service
  // completion); nothing in memory survives.
  DiskImage CrashNow() const { return image_->Snapshot(); }

  // Orderly shutdown: flush everything, stop the syncers.
  Task<void> Shutdown(Proc& proc);

 private:
  MachineConfig config_;
  uint32_t shard_blocks_ = 0;
  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<DiskImage> image_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Cpu> cpu_;
  std::vector<std::unique_ptr<DiskModel>> models_;
  std::vector<std::unique_ptr<FaultInjector>> faults_;  // Before drivers: outlive them.
  std::vector<std::unique_ptr<DiskDriver>> drivers_;
  std::unique_ptr<StripedVolume> volume_;              // Multi only.
  std::vector<std::unique_ptr<ShardDevice>> shard_devs_;  // Multi only.
  std::vector<std::unique_ptr<BufferCache>> caches_;
  std::vector<std::unique_ptr<SyncerDaemon>> syncers_;
  std::vector<std::unique_ptr<FileSystem>> fss_;
  std::vector<std::unique_ptr<JournalManager>> journals_;  // Empty unless journaling.
  std::vector<std::unique_ptr<VisibilityLedger>> ledgers_;  // Empty unless async.
  std::vector<std::unique_ptr<OrderingPolicy>> policies_;
  std::unique_ptr<ShardedFs> sharded_;                 // Multi only.
  JournalReplayReport last_replay_;
  Pid next_pid_ = 1;
};

}  // namespace mufs

#endif  // MUFS_SRC_CORE_MACHINE_H_
