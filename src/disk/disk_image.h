// Byte-accurate backing store for the simulated disk.
//
// The image holds the real content of every block ever written, which is
// what lets the fsck checker audit crash states: "stable storage" at any
// instant is exactly this map. Blocks never written read back as zeroes.
#ifndef MUFS_SRC_DISK_DISK_IMAGE_H_
#define MUFS_SRC_DISK_DISK_IMAGE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/disk/geometry.h"
#include "src/sim/time.h"

namespace mufs {

using BlockData = std::array<uint8_t, kBlockSize>;

// A torn write persists this prefix of the block (half its sectors);
// the rest of the block keeps its previous stable content.
constexpr size_t kTornPersistBytes = kBlockSize / 2;

// What every never-written block reads as.
inline constexpr BlockData kZeroBlock{};

class DiskImage {
 public:
  explicit DiskImage(uint32_t total_blocks) : total_blocks_(total_blocks) {}

  uint32_t TotalBlocks() const { return total_blocks_; }

  // Zero-copy read of a block's stable content; unwritten blocks view
  // kZeroBlock. A written block's view follows later writes to that
  // block and stays valid until the image is destroyed or assigned.
  const BlockData& View(uint32_t blkno) const {
    auto it = blocks_.find(blkno);
    return it == blocks_.end() ? kZeroBlock : it->second;
  }

  // Copies a block's stable content into `out`. Unwritten blocks are zero.
  void Read(uint32_t blkno, BlockData* out) const { *out = View(blkno); }

  // Atomically replaces a block's stable content (per the paper's
  // footnote 1, each critical structure fits in an atomic write unit).
  // When a torn write has been armed for this write index, only the
  // sector prefix persists instead - see ArmTornWrite().
  void Write(uint32_t blkno, const BlockData& data, SimTime when) {
    if (torn_arm_ != 0 && write_count_ + 1 == torn_arm_) {
      WriteTorn(blkno, data, when);
      return;
    }
    blocks_[blkno] = data;
    ++write_count_;
    last_write_time_ = when;
  }

  // Torn persistence: only the first kTornPersistBytes (half the block,
  // i.e. a prefix of its sectors) take the new content; the tail keeps
  // whatever was stable before. This deliberately violates the atomic-
  // write-unit assumption - it is how torn-write faults and mid-write
  // ("pulled the cord during the transfer") crash images are modelled.
  void WriteTorn(uint32_t blkno, const BlockData& data, SimTime when) {
    BlockData& cur = blocks_[blkno];  // Value-initialized (zero) if new.
    std::memcpy(cur.data(), data.data(), kTornPersistBytes);
    ++write_count_;
    ++torn_write_count_;
    last_write_time_ = when;
  }

  // Arms the harness-side mid-write crash model: the `nth_write`-th
  // device write (1-based, counted by WriteCount()) lands torn. Every
  // write boundary of a run can thereby also be explored as a torn
  // (mid-write) crash state. 0 disarms.
  void ArmTornWrite(uint64_t nth_write) { torn_arm_ = nth_write; }

  bool EverWritten(uint32_t blkno) const { return blocks_.contains(blkno); }
  uint64_t WriteCount() const { return write_count_; }
  uint64_t TornWriteCount() const { return torn_write_count_; }
  SimTime LastWriteTime() const { return last_write_time_; }

  // Snapshot for crash analysis: a deep copy of stable storage.
  DiskImage Snapshot() const { return *this; }

  // Copies a contiguous region [base, base+count) into a standalone
  // image whose block 0 is `base`. Recovery itself works in place (fsck
  // and journal replay take the region's base); tests use the copy as
  // the reference that in-place recovery must match.
  DiskImage ExtractRegion(uint32_t base, uint32_t count) const {
    DiskImage out(count);
    for (const auto& [blkno, data] : blocks_) {
      if (blkno >= base && blkno < base + count) {
        out.blocks_[blkno - base] = data;
      }
    }
    out.last_write_time_ = last_write_time_;
    return out;
  }

  // The set of blocks ever written, in ascending order. Used to scatter
  // a freshly formatted shard image into its volume region.
  std::vector<uint32_t> WrittenBlocks() const {
    std::vector<uint32_t> out;
    out.reserve(blocks_.size());
    for (const auto& [blkno, data] : blocks_) {
      out.push_back(blkno);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  uint32_t total_blocks_;
  std::unordered_map<uint32_t, BlockData> blocks_;
  uint64_t write_count_ = 0;
  uint64_t torn_write_count_ = 0;
  uint64_t torn_arm_ = 0;  // 1-based write index to tear; 0 = disarmed.
  SimTime last_write_time_ = 0;
};

}  // namespace mufs

#endif  // MUFS_SRC_DISK_DISK_IMAGE_H_
