// Offline journal recovery: run against a raw DiskImage (a crash
// snapshot or a remounted image) BEFORE the file system mounts. Scans
// the log ring from the journal superblock's horizon, replays every
// transaction whose commit record validates, discards the torn tail,
// and re-stamps the journal superblock so the next mount starts with an
// empty ring and a fresh sequence horizon.
#ifndef MUFS_SRC_JOURNAL_JOURNAL_RECOVERY_H_
#define MUFS_SRC_JOURNAL_JOURNAL_RECOVERY_H_

#include <cstdint>

#include "src/disk/disk_image.h"
#include "src/journal/journal_format.h"

namespace mufs {

struct JournalReplayReport {
  bool journal_present = false;  // Image has a journal extent.
  uint64_t txns_replayed = 0;
  uint64_t blocks_replayed = 0;     // Home-location block writes applied.
  uint64_t log_blocks_scanned = 0;  // Ring blocks examined.
  bool torn_tail = false;           // Scan ended at an incomplete txn.

  // Folds in another shard's replay of the same volume.
  void Add(const JournalReplayReport& r) {
    journal_present = journal_present || r.journal_present;
    txns_replayed += r.txns_replayed;
    blocks_replayed += r.blocks_replayed;
    log_blocks_scanned += r.log_blocks_scanned;
    torn_tail = torn_tail || r.torn_tail;
  }
};

class JournalRecovery {
 public:
  // `base` rebases every image access: a sharded machine's shard is a
  // complete filesystem (superblock at `base`, journal extent inside its
  // region) living at an offset inside the shared volume image, and its
  // recovery runs in place there. 0 = the whole image (single-disk).
  explicit JournalRecovery(DiskImage* image, uint32_t base = 0)
      : image_(image), base_(base) {}

  // Replays committed transactions into the image. Idempotent: a second
  // run finds an empty ring and replays nothing.
  JournalReplayReport Run();

 private:
  DiskImage* image_;
  uint32_t base_ = 0;
};

}  // namespace mufs

#endif  // MUFS_SRC_JOURNAL_JOURNAL_RECOVERY_H_
