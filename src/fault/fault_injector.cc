#include "src/fault/fault_injector.h"

#include <algorithm>

namespace mufs {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kBadSector:
      return "bad_sector";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kTornWrite:
      return "torn_write";
    case FaultKind::kMisdirected:
      return "misdirected";
  }
  return "?";
}

FaultInjector::FaultInjector(const FaultConfig& config)
    : config_(config), rng_(config.seed) {}

void FaultInjector::AttachStats(StatsRegistry* stats, std::string_view instance) {
  stat_injected_ = &stats->counter(InstanceMetricName(instance, "fault.injected"));
  stat_transient_ = &stats->counter(InstanceMetricName(instance, "fault.transient"));
  stat_stalls_ = &stats->counter(InstanceMetricName(instance, "fault.stalls"));
  stat_bad_sectors_ = &stats->counter(InstanceMetricName(instance, "fault.bad_sectors"));
  stat_remapped_ = &stats->counter(InstanceMetricName(instance, "fault.remapped"));
  stat_torn_ = &stats->counter(InstanceMetricName(instance, "fault.torn_writes"));
  stat_misdirected_ = &stats->counter(InstanceMetricName(instance, "fault.misdirected"));
}

uint32_t FaultInjector::MisdirectVictim(uint32_t blkno, uint32_t count,
                                        uint32_t total_blocks) {
  // Forward slip by one transfer length when the landing range fits on
  // the medium; backward slip otherwise. Never reaches block 0: a
  // backward slip is only taken for blkno near total_blocks.
  if (total_blocks == 0 || blkno + 2 * count <= total_blocks) {
    return blkno + count;
  }
  return blkno >= count ? blkno - count : blkno;
}

FaultKind FaultInjector::Decide(IoDir dir, uint32_t blkno, uint32_t count) {
  FaultKind kind = FaultKind::kNone;
  if (!scripted_.empty()) {
    kind = scripted_.front();
    scripted_.pop_front();
    if (kind == FaultKind::kBadSector) {
      bad_.insert(blkno);
    }
  } else if (!bad_.empty() && !BadBlocksIn(blkno, count).empty()) {
    kind = FaultKind::kBadSector;
  } else if (config_.Enabled()) {
    // One draw per attempt, thresholds stacked so the draw sequence (and
    // therefore every same-seed run) is deterministic. The silent-damage
    // thresholds stack LAST: configs that leave them zero draw exactly
    // the schedules they drew before these classes existed.
    double u = rng_.UniformDouble();
    double err_rate =
        dir == IoDir::kRead ? config_.read_error_rate : config_.write_error_rate;
    double t1 = config_.stall_rate;
    double t2 = t1 + config_.bad_sector_rate;
    double t3 = t2 + err_rate;
    double t4 = t3 + config_.torn_write_rate;
    double t5 = t4 + config_.misdirect_rate;
    if (u < t1) {
      kind = FaultKind::kStall;
    } else if (u < t2) {
      bad_.insert(blkno);
      kind = FaultKind::kBadSector;
    } else if (u < t3) {
      kind = FaultKind::kTransient;
    } else if (u < t4) {
      kind = FaultKind::kTornWrite;
    } else if (u < t5) {
      kind = FaultKind::kMisdirected;
    }
  }
  // Silent damage is a write phenomenon; a read attempt passes clean.
  if ((kind == FaultKind::kTornWrite || kind == FaultKind::kMisdirected) &&
      dir != IoDir::kWrite) {
    kind = FaultKind::kNone;
  }
  if (kind == FaultKind::kTornWrite) {
    damage_.push_back({kind, blkno, count, 0});
  } else if (kind == FaultKind::kMisdirected) {
    damage_.push_back({kind, blkno, count, MisdirectVictim(blkno, count, total_blocks_)});
  }
  if (kind != FaultKind::kNone && stat_injected_ != nullptr) {
    stat_injected_->Inc();
    switch (kind) {
      case FaultKind::kTransient:
        stat_transient_->Inc();
        break;
      case FaultKind::kStall:
        stat_stalls_->Inc();
        break;
      case FaultKind::kBadSector:
        stat_bad_sectors_->Inc();
        break;
      case FaultKind::kTornWrite:
        stat_torn_->Inc();
        break;
      case FaultKind::kMisdirected:
        stat_misdirected_->Inc();
        break;
      case FaultKind::kNone:
        break;
    }
  }
  return kind;
}

void FaultInjector::Script(std::initializer_list<FaultKind> kinds) {
  scripted_.insert(scripted_.end(), kinds.begin(), kinds.end());
}

void FaultInjector::MarkBadSector(uint32_t blkno) { bad_.insert(blkno); }

std::vector<uint32_t> FaultInjector::BadBlocksIn(uint32_t blkno, uint32_t count) const {
  std::vector<uint32_t> out;
  for (uint32_t b = blkno; b < blkno + count; ++b) {
    if (bad_.contains(b)) {
      out.push_back(b);
    }
  }
  return out;
}

void FaultInjector::Remap(uint32_t blkno) {
  if (bad_.erase(blkno) > 0 && stat_remapped_ != nullptr) {
    stat_remapped_->Inc();
  }
}

}  // namespace mufs
