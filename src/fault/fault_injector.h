// Seeded, deterministic disk fault injection.
//
// The driver consults the injector once per service attempt (including
// retries). Five fault classes model the failure taxonomy the ordering
// schemes are ultimately defending against:
//
//   - transient read/write errors: the device spends the access time,
//     then reports a media error; a retry usually succeeds;
//   - latent bad sectors: every access to the block fails until the
//     driver remaps it into the spare pool;
//   - stalls: the command hangs at the device and never completes; the
//     driver detects this with a timeout and re-issues;
//   - torn writes: the device reports success but only a prefix of the
//     transfer's sectors persist (violating the paper's footnote-1
//     atomic-write-unit assumption) - SILENT damage, no retry;
//   - misdirected writes: the device reports success but the payload
//     lands one slip away from the intended LBA (adjacent-track
//     misdirection) - also silent.
//
// Faults come from a per-op Bernoulli draw (one uniform draw per
// attempt, so same-seed runs replay identically) or from a scripted
// FIFO that tests use to force exact schedules. Silent damage fired by
// either source is appended to a damage ledger so crash/recovery tests
// can classify what the scheme was actually up against.
#ifndef MUFS_SRC_FAULT_FAULT_INJECTOR_H_
#define MUFS_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/driver/request.h"
#include "src/sim/rng.h"
#include "src/stats/stats_registry.h"

namespace mufs {

enum class FaultKind : uint8_t {
  kNone = 0,       // Attempt succeeds.
  kTransient,      // One-shot media error; independent per attempt.
  kBadSector,      // Block joins the bad set; fails until remapped.
  kStall,          // Command hangs; driver must time out and re-issue.
  kTornWrite,      // Reported success; only a sector prefix persists.
  kMisdirected,    // Reported success; payload lands on the wrong block.
};

std::string_view FaultKindName(FaultKind kind);

// One silent-damage event (torn or misdirected write) as decided by the
// injector: which blocks the file system THINKS it wrote, and (for
// misdirection) where the payload actually landed.
struct DamageRecord {
  FaultKind kind = FaultKind::kNone;
  uint32_t blkno = 0;   // Intended first block of the transfer.
  uint32_t count = 0;   // Transfer length in blocks.
  uint32_t victim = 0;  // Misdirection landing block (0 for torn writes).
};

struct FaultConfig {
  uint64_t seed = 1;
  double read_error_rate = 0;   // P(transient error) per read attempt.
  double write_error_rate = 0;  // P(transient error) per write attempt.
  double stall_rate = 0;        // P(stall) per attempt.
  double bad_sector_rate = 0;   // P(mint a new bad sector) per attempt.
  double torn_write_rate = 0;   // P(torn persistence) per write attempt.
  double misdirect_rate = 0;    // P(wrong-LBA landing) per write attempt.

  bool Enabled() const {
    return read_error_rate > 0 || write_error_rate > 0 || stall_rate > 0 ||
           bad_sector_rate > 0 || torn_write_rate > 0 || misdirect_rate > 0;
  }

  // The bench/test knob: one headline rate, split across the classes so
  // transients dominate and terminal failures stay rare. Silent-damage
  // classes stay off: Uniform() keeps the "device is honest" model.
  static FaultConfig Uniform(double rate, uint64_t seed) {
    FaultConfig c;
    c.seed = seed;
    c.read_error_rate = rate;
    c.write_error_rate = rate;
    c.stall_rate = rate / 4;
    c.bad_sector_rate = rate / 8;
    return c;
  }

  // The adversarial knob: ONLY silent damage (the device lies), torn
  // writes at the headline rate and misdirected writes at half of it.
  // Every request still completes kOk, so whatever goes wrong is purely
  // the recovery story's problem.
  static FaultConfig Adversarial(double rate, uint64_t seed) {
    FaultConfig c;
    c.seed = seed;
    c.torn_write_rate = rate;
    c.misdirect_rate = rate / 2;
    return c;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  // Metrics go to `stats` from here on (fault.injected, fault.transient,
  // fault.stalls, fault.bad_sectors, fault.remapped, fault.torn_writes,
  // fault.misdirected). `instance` prefixes the names for multi-disk
  // machines ("" keeps the singleton names).
  void AttachStats(StatsRegistry* stats, std::string_view instance = "");

  // One decision per service attempt. Consumes the scripted FIFO first,
  // then the bad-sector set, then a single uniform draw. Silent write
  // damage (torn / misdirected) never fires on reads: a scripted or
  // drawn silent kind downgrades to kNone for a read attempt, without
  // disturbing the draw sequence.
  FaultKind Decide(IoDir dir, uint32_t blkno, uint32_t count);

  // Where a misdirected write of [blkno, blkno+count) actually lands:
  // one transfer-length slip forward (adjacent track), falling back to a
  // backward slip near the end of the disk. Deterministic, never block 0
  // (the medium's reserved LBA is out of the servo's reach).
  static uint32_t MisdirectVictim(uint32_t blkno, uint32_t count, uint32_t total_blocks);

  // Ledger of every silent-damage decision, in decision order.
  const std::vector<DamageRecord>& Damage() const { return damage_; }

  // The driver tells the injector the medium size at attach time so
  // misdirection victims stay on the medium (0 = unknown: always slip
  // forward).
  void SetTotalBlocks(uint32_t total) { total_blocks_ = total; }

  // --- scripted schedules (tests) -----------------------------------
  // Each entry feeds exactly one future Decide() call, oldest first;
  // kNone entries let an attempt through untouched.
  void Script(std::initializer_list<FaultKind> kinds);

  // --- bad-sector set ------------------------------------------------
  void MarkBadSector(uint32_t blkno);
  bool IsBad(uint32_t blkno) const { return bad_.contains(blkno); }
  // Bad blocks within [blkno, blkno + count), ascending.
  std::vector<uint32_t> BadBlocksIn(uint32_t blkno, uint32_t count) const;
  // Driver remapped `blkno` into the spare pool: accesses succeed again.
  // The model is transparent and LBA-preserving (reallocation-on-verify),
  // so the image contents are untouched.
  void Remap(uint32_t blkno);

 private:
  FaultConfig config_;
  Rng rng_;
  std::deque<FaultKind> scripted_;
  std::unordered_set<uint32_t> bad_;
  std::vector<DamageRecord> damage_;
  uint32_t total_blocks_ = 0;

  Counter* stat_injected_ = nullptr;
  Counter* stat_transient_ = nullptr;
  Counter* stat_stalls_ = nullptr;
  Counter* stat_bad_sectors_ = nullptr;
  Counter* stat_remapped_ = nullptr;
  Counter* stat_torn_ = nullptr;
  Counter* stat_misdirected_ = nullptr;
};

}  // namespace mufs

#endif  // MUFS_SRC_FAULT_FAULT_INJECTOR_H_
