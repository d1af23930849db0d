#include "src/core/machine.h"

#include "src/async/async_policy.h"
#include "src/core/softupdates/soft_updates_policy.h"
#include "src/journal/journal_policy.h"

namespace mufs {

std::string_view ToString(Scheme s) {
  switch (s) {
    case Scheme::kNoOrder:
      return "No Order";
    case Scheme::kConventional:
      return "Conventional";
    case Scheme::kSchedulerFlag:
      return "Scheduler Flag";
    case Scheme::kSchedulerChains:
      return "Scheduler Chains";
    case Scheme::kSoftUpdates:
      return "Soft Updates";
    case Scheme::kJournaling:
      return "Journaling";
    case Scheme::kAsync:
      return "Async";
  }
  return "?";
}

std::string_view SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kNoOrder:
      return "NoOrder";
    case Scheme::kConventional:
      return "Conventional";
    case Scheme::kSchedulerFlag:
      return "SchedulerFlag";
    case Scheme::kSchedulerChains:
      return "SchedulerChains";
    case Scheme::kSoftUpdates:
      return "SoftUpdates";
    case Scheme::kJournaling:
      return "Journaling";
    case Scheme::kAsync:
      return "Async";
  }
  return "?";
}

namespace {

// The scheme's driver-level ordering discipline. On a single disk it
// lives in the one DiskDriver; on a multi-disk machine it moves up into
// the StripedVolume gate and the member drivers run kNone.
OrderingRules MakeOrderingRules(const MachineConfig& cfg) {
  OrderingRules rules;
  switch (cfg.scheme) {
    case Scheme::kSchedulerFlag:
      rules.mode = cfg.ignore_flags ? OrderingMode::kNone : OrderingMode::kFlag;
      rules.semantics = cfg.flag_semantics;
      rules.reads_bypass = cfg.reads_bypass;
      break;
    case Scheme::kSchedulerChains:
      rules.mode = OrderingMode::kChains;
      break;
    default:
      // Conventional orders by waiting; NoOrder doesn't order; soft
      // updates orders in the cache layer. The driver runs free.
      break;
  }
  return rules;
}

DriverConfig MakeDriverConfig(const MachineConfig& cfg, StatsRegistry* stats,
                              FaultInjector* faults) {
  DriverConfig d;
  d.ordering = MakeOrderingRules(cfg);
  d.stats = stats;
  d.faults = faults;
  d.queue_depth = cfg.queue_depth;
  return d;
}

CacheConfig MakeCacheConfig(const MachineConfig& cfg, StatsRegistry* stats) {
  CacheConfig c;
  c.capacity_blocks = cfg.cache_capacity_blocks;
  c.stats = stats;
  // -CB only matters for schemes that issue ordered async writes while
  // processes keep updating the metadata. The async scheme's epoch
  // flusher writes hot buffers on a sub-second cadence, so it copies at
  // issue too: op-return latency must never wait on a flush write lock.
  c.copy_blocks = cfg.copy_blocks && (cfg.scheme == Scheme::kSchedulerFlag ||
                                      cfg.scheme == Scheme::kSchedulerChains ||
                                      cfg.scheme == Scheme::kAsync);
  return c;
}

std::unique_ptr<OrderingPolicy> MakePolicy(const MachineConfig& cfg, JournalManager* journal,
                                           VisibilityLedger* ledger) {
  switch (cfg.scheme) {
    case Scheme::kNoOrder:
      return std::make_unique<NoOrderPolicy>();
    case Scheme::kConventional:
      return std::make_unique<ConventionalPolicy>();
    case Scheme::kSchedulerFlag:
      return std::make_unique<SchedulerFlagPolicy>();
    case Scheme::kSchedulerChains:
      return std::make_unique<SchedulerChainPolicy>(cfg.chains_track_freed);
    case Scheme::kSoftUpdates:
      return std::make_unique<SoftUpdatesPolicy>();
    case Scheme::kJournaling:
      return std::make_unique<JournalPolicy>(journal);
    case Scheme::kAsync:
      return std::make_unique<AsyncPolicy>(ledger);
  }
  return nullptr;
}

}  // namespace

Machine::Machine(MachineConfig config) : config_(config) {
  const bool multi = config_.disks > 1 || config_.shards > 1;
  const size_t ndisks = config_.disks == 0 ? 1 : config_.disks;
  const size_t nshards = multi ? (config_.shards == 0 ? ndisks : config_.shards) : 1;
  const uint32_t volume_blocks =
      static_cast<uint32_t>(ndisks) * config_.geometry.total_blocks;
  assert(volume_blocks % nshards == 0);
  shard_blocks_ = volume_blocks / static_cast<uint32_t>(nshards);

  image_ = std::make_unique<DiskImage>(volume_blocks);
  engine_ = std::make_unique<Engine>();
  stats_ = std::make_unique<StatsRegistry>();
  stats_->SetClock([e = engine_.get()] { return e->Now(); });
  if (config_.collect_stats_trace) {
    stats_->EnableTrace(config_.stats_trace_cap);
  }
  const uint32_t ncpus =
      config_.cpus > 0 ? config_.cpus : static_cast<uint32_t>(ndisks);
  cpu_ = std::make_unique<Cpu>(engine_.get(), Msec(1), ncpus);

  VolumeLayout layout;
  layout.disks = static_cast<uint32_t>(ndisks);
  // Auto (0): shard-aligned striping. With S >= N shards the unit is one
  // shard region (shard s -> disk s % N, fully contiguous); with fewer
  // shards it is one disk's worth, which still concatenates cleanly.
  layout.stripe_unit = config_.stripe_unit > 0
                           ? config_.stripe_unit
                           : std::min(shard_blocks_, config_.geometry.total_blocks);
  layout.blocks_per_disk = config_.geometry.total_blocks;

  // --- per-disk stacks: model + fault injector + driver ---------------
  for (size_t d = 0; d < ndisks; ++d) {
    std::string instance = multi ? "disk" + std::to_string(d) : "";
    auto model = std::make_unique<DiskModel>(config_.geometry);
    model->AttachStats(stats_.get(), instance);
    FaultInjector* fi = nullptr;
    if (config_.fault.Enabled()) {
      FaultConfig fc = config_.fault;
      fc.seed += d;  // Independent fault streams per spindle.
      faults_.push_back(std::make_unique<FaultInjector>(fc));
      faults_.back()->AttachStats(stats_.get(), instance);
      fi = faults_.back().get();
    }
    DriverConfig dcfg = MakeDriverConfig(config_, stats_.get(), fi);
    if (multi) {
      dcfg.instance = instance;
      // The volume gate owns the scheme's ordering; member disks run free.
      dcfg.ordering = {};
      // Member drivers address their own disk; the shared image is
      // volume-addressed.
      dcfg.image_map = [layout, d](uint32_t local) {
        return layout.ToVolume(static_cast<uint32_t>(d), local);
      };
    }
    drivers_.push_back(std::make_unique<DiskDriver>(engine_.get(), model.get(),
                                                    image_.get(), dcfg));
    models_.push_back(std::move(model));
  }

  if (multi) {
    VolumeConfig vcfg;
    vcfg.layout = layout;
    vcfg.ordering = MakeOrderingRules(config_);
    vcfg.stats = stats_.get();
    std::vector<DiskDriver*> members;
    for (auto& drv : drivers_) {
      members.push_back(drv.get());
    }
    volume_ = std::make_unique<StripedVolume>(engine_.get(), std::move(members), vcfg);
  }

  // --- per-shard stacks: device view + cache + syncer + fs (+ journal) -
  const uint32_t journal_blocks =
      config_.scheme == Scheme::kJournaling ? config_.journal_log_blocks : 0;
  FsConfig fs_cfg;
  // The paper's "Alloc. Init." toggle applies to regular file data for
  // every scheme (Table 1 has N/Y rows even for soft updates; enforcing
  // it there costs only 3.8%).
  fs_cfg.alloc_init = config_.alloc_init;
  fs_cfg.costs = config_.cpu_costs;
  fs_cfg.stats = stats_.get();

  for (size_t s = 0; s < nshards; ++s) {
    BlockDevice* dev;
    if (multi) {
      shard_devs_.push_back(
          std::make_unique<ShardDevice>(engine_.get(), volume_.get(), ShardBase(s)));
      dev = shard_devs_.back().get();
    } else {
      dev = drivers_[0].get();
    }
    caches_.push_back(std::make_unique<BufferCache>(engine_.get(), dev,
                                                    MakeCacheConfig(config_, stats_.get())));
    SyncerConfig syncer_cfg = config_.syncer;
    syncer_cfg.stats = stats_.get();
    // Stagger the shards' syncer cadences across the interval so S
    // write-back bursts do not land on the volume at the same instant.
    syncer_cfg.initial_phase =
        syncer_cfg.interval * static_cast<SimDuration>(s) / static_cast<SimDuration>(nshards);
    syncers_.push_back(
        std::make_unique<SyncerDaemon>(engine_.get(), caches_.back().get(), syncer_cfg));
    fss_.push_back(std::make_unique<FileSystem>(engine_.get(), cpu_.get(),
                                                caches_.back().get(), syncers_.back().get(),
                                                fs_cfg));
    if (config_.format) {
      if (multi) {
        // Each shard is a complete file system formatted into its own
        // region of the volume image.
        DiskImage fresh(shard_blocks_);
        FileSystem::Mkfs(&fresh, config_.total_inodes, journal_blocks);
        BlockData blk;
        for (uint32_t blkno : fresh.WrittenBlocks()) {
          fresh.Read(blkno, &blk);
          image_->Write(ShardBase(s) + blkno, blk, 0);
        }
      } else {
        FileSystem::Mkfs(image_.get(), config_.total_inodes, journal_blocks);
      }
    }
    if (config_.scheme == Scheme::kJournaling) {
      JournalConfig jcfg;
      jcfg.commit_interval = config_.journal_commit_interval;
      jcfg.image_lba_base = ShardBase(s);
      journals_.push_back(std::make_unique<JournalManager>(engine_.get(), dev,
                                                           caches_.back().get(), image_.get(),
                                                           stats_.get(), jcfg));
      journals_.back()->AttachFs(fss_.back().get());
    }
    if (config_.scheme == Scheme::kAsync) {
      AsyncConfig acfg;
      acfg.staleness_window = config_.async_staleness_window;
      acfg.flush_interval = config_.async_flush_interval;
      acfg.stats = stats_.get();
      // Stagger the shards' epoch flushes across the cadence, like the
      // syncers, so S flush bursts do not land on the volume at once.
      acfg.initial_phase = VisibilityLedger::EffectiveFlushInterval(acfg) *
                           static_cast<SimDuration>(s) / static_cast<SimDuration>(nshards);
      ledgers_.push_back(std::make_unique<VisibilityLedger>(engine_.get(), acfg));
      ledgers_.back()->AttachFs(fss_.back().get());
    }
    policies_.push_back(
        MakePolicy(config_, journals_.empty() ? nullptr : journals_.back().get(),
                   ledgers_.empty() ? nullptr : ledgers_.back().get()));
    fss_.back()->SetPolicy(policies_.back().get());
  }

  if (multi) {
    std::vector<FileSystem*> shards;
    for (auto& fs : fss_) {
      shards.push_back(fs.get());
    }
    sharded_ = std::make_unique<ShardedFs>(engine_.get(), std::move(shards),
                                           config_.total_inodes);
  }
}

Machine::~Machine() {
  // Destroy the engine first: it unwinds every suspended coroutine frame
  // while the components those frames reference are still alive.
  engine_.reset();
}

Proc Machine::MakeProc(std::string name) {
  Proc p;
  p.pid = next_pid_++;
  p.name = std::move(name);
  return p;
}

Task<void> Machine::Boot(Proc& proc) {
  if (config_.scheme == Scheme::kJournaling) {
    // Crash recovery: replay committed log transactions into the image
    // before the file systems read anything from it - each shard's
    // journal in place in its own region.
    last_replay_ = {};
    for (size_t s = 0; s < fss_.size(); ++s) {
      JournalReplayReport r = JournalRecovery(image_.get(), ShardBase(s)).Run();
      last_replay_.Add(r);
      if (r.torn_tail) {
        stats_->counter("journal.replay_torn_tails").Inc();
      }
    }
    stats_->counter("journal.replay_txns").Inc(last_replay_.txns_replayed);
    stats_->counter("journal.replay_blocks").Inc(last_replay_.blocks_replayed);
  }
  for (auto& fs : fss_) {
    FsStatus s = co_await fs->Mount(proc);
    (void)s;
    assert(s == FsStatus::kOk);
  }
  for (auto& syncer : syncers_) {
    syncer->Start();
  }
  for (auto& journal : journals_) {
    co_await journal->Start();
  }
  for (auto& ledger : ledgers_) {
    ledger->Start();
  }
}

Task<void> Machine::Shutdown(Proc& proc) {
  co_await vfs().SyncEverything(proc);
  for (auto& ledger : ledgers_) {
    ledger->Stop();
  }
  for (auto& journal : journals_) {
    journal->Stop();
  }
  for (auto& syncer : syncers_) {
    syncer->Stop();
  }
}

std::string Machine::DumpStatsJson() const {
  // Identity + derived figures first, then the raw registry dump. All
  // deterministic: sorted keys, sim-clock timestamps, %.9g doubles.
  uint64_t hits = stats_->counter("cache.hits").value();
  uint64_t misses = stats_->counter("cache.misses").value();
  SimTime now = engine_->Now();
  double hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;

  std::string out = "{\"scheme\":\"";
  JsonEscape(SchemeName(config_.scheme), &out);
  out += "\",\"seed\":";
  out += std::to_string(config_.seed);
  out += ",\"sim_time_ns\":";
  out += std::to_string(now);
  out += ",\"derived\":{\"cache.hit_rate\":";
  out += JsonDouble(hit_rate);
  if (volume_ == nullptr) {
    uint64_t busy = stats_->counter("disk.busy_ns").value();
    double utilization = now > 0 ? static_cast<double>(busy) / static_cast<double>(now) : 0.0;
    out += ",\"disk.utilization\":";
    out += JsonDouble(utilization);
  } else {
    // Aggregate utilization (busy spindle-time over total spindle-time),
    // then each member disk's own figure. Key order stays lexicographic:
    // "disk." sorts before "disk0".
    uint64_t busy_total = 0;
    std::vector<uint64_t> busy(drivers_.size(), 0);
    for (size_t d = 0; d < drivers_.size(); ++d) {
      busy[d] = stats_->counter("disk" + std::to_string(d) + ".busy_ns").value();
      busy_total += busy[d];
    }
    double aggregate = now > 0 ? static_cast<double>(busy_total) /
                                     (static_cast<double>(now) *
                                      static_cast<double>(drivers_.size()))
                               : 0.0;
    out += ",\"disk.utilization\":";
    out += JsonDouble(aggregate);
    for (size_t d = 0; d < drivers_.size(); ++d) {
      double u = now > 0 ? static_cast<double>(busy[d]) / static_cast<double>(now) : 0.0;
      out += ",\"disk" + std::to_string(d) + ".utilization\":";
      out += JsonDouble(u);
    }
  }
  out += "},\"metrics\":";
  out += stats_->DumpJson();
  out += "}";
  return out;
}

}  // namespace mufs
