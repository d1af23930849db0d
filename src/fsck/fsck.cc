#include "src/fsck/fsck.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_set>

namespace mufs {

std::string_view ToString(FsckViolationType t) {
  switch (t) {
    case FsckViolationType::kBadSuperblock:
      return "bad superblock";
    case FsckViolationType::kDanglingDirEntry:
      return "dangling directory entry";
    case FsckViolationType::kLinkCountTooLow:
      return "link count below reference count";
    case FsckViolationType::kDuplicateBlockClaim:
      return "block claimed twice";
    case FsckViolationType::kBadBlockPointer:
      return "bad block pointer";
    case FsckViolationType::kGarbageDirectory:
      return "garbage directory block";
    case FsckViolationType::kStaleDataExposed:
      return "stale data exposed through new pointer";
  }
  return "?";
}

void TagDataBlock(uint8_t* block_start, uint32_t ino, uint32_t generation) {
  DataBlockTag tag;
  tag.magic = kDataTagMagic;
  tag.ino = ino;
  tag.generation = generation;
  memcpy(block_start, &tag, sizeof(tag));
}

namespace {

// Adds the host time since the previous lap to one PfsckStats field; a
// no-op without stats.
class PassClock {
 public:
  explicit PassClock(PfsckStats* stats) : stats_(stats) {
    if (stats_ != nullptr) {
      last_ = std::chrono::steady_clock::now();
    }
  }

  void Lap(uint64_t PfsckStats::*field) {
    if (stats_ == nullptr) {
      return;
    }
    auto now = std::chrono::steady_clock::now();
    stats_->*field += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_).count());
    last_ = now;
  }

 private:
  PfsckStats* stats_;
  std::chrono::steady_clock::time_point last_;
};

// An entry of a block that was pointed to before it was initialized
// shows up as unparseable: out-of-range inode, bad name, or reserved bits.
bool GarbageEntry(const DirEntry& de, const SuperBlock& sb) {
  bool name_ok = de.name[0] != '\0';
  for (size_t i = 0; name_ok && i < kMaxNameLen && de.name[i] != '\0'; ++i) {
    if (!isprint(static_cast<unsigned char>(de.name[i]))) {
      name_ok = false;
    }
  }
  return de.ino >= sb.total_inodes || !name_ok || de.reserved != 0;
}

// The data-area blocks of a directory: its direct pointers and the
// pointers in its single indirect block, in that order.
std::vector<uint32_t> DirBlocks(const ImageRegion& region, const SuperBlock& sb,
                                const DiskInode& di) {
  std::vector<uint32_t> blocks;
  auto add = [&](uint32_t blkno) {
    if (blkno != 0 && sb.IsDataBlock(blkno)) {
      blocks.push_back(blkno);
    }
  };
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    add(di.direct[i]);
  }
  if (di.indirect != 0) {
    const uint32_t* ptrs = reinterpret_cast<const uint32_t*>(region.View(di.indirect).data());
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      add(ptrs[i]);
    }
  }
  return blocks;
}

// The tag of a data block that exposes someone else's data to `tag_ino`
// at `generation`; nullopt when the block was never written, starts
// with a zero header (initialized but unwritten), or is tagged right.
std::optional<DataBlockTag> ForeignTag(const ImageRegion& region, uint32_t blkno,
                                       uint32_t tag_ino, uint32_t generation) {
  if (!region.EverWritten(blkno)) {
    return std::nullopt;  // Reads as zeroes: no exposure.
  }
  const BlockData& blk = region.View(blkno);
  DataBlockTag tag;
  memcpy(&tag, blk.data(), sizeof(tag));
  if (std::all_of(blk.begin(), blk.begin() + sizeof(tag), [](uint8_t b) { return b == 0; })) {
    return std::nullopt;
  }
  if (tag.magic == kDataTagMagic && tag.ino == tag_ino && tag.generation == generation) {
    return std::nullopt;
  }
  return tag;
}

}  // namespace

DiskInode ImageRegion::ReadInode(const SuperBlock& sb, uint32_t ino) const {
  DiskInode di;
  memcpy(&di, View(sb.ItableBlock(ino)).data() + sb.ItableOffset(ino), sizeof(di));
  return di;
}

bool FsckChecker::ClaimBlock(uint32_t ino, uint32_t blkno, FsckReport* report) {
  if (blkno < sb_.data_start || blkno >= sb_.total_blocks) {
    report->violations.push_back(
        {FsckViolationType::kBadBlockPointer,
         "ino " + std::to_string(ino) + " -> block " + std::to_string(blkno)});
    return false;
  }
  auto [it, inserted] = block_owner_.try_emplace(blkno, ino);
  if (!inserted) {
    report->violations.push_back({FsckViolationType::kDuplicateBlockClaim,
                                  "block " + std::to_string(blkno) + " claimed by ino " +
                                      std::to_string(it->second) + " and ino " +
                                      std::to_string(ino)});
    return false;
  }
  ++report->blocks_claimed;
  return true;
}

std::vector<uint32_t> FsckChecker::CollectBlocks(uint32_t ino, const DiskInode& di,
                                                 FsckReport* report) {
  std::vector<uint32_t> data_blocks;
  auto add_data = [&](uint32_t blkno) {
    if (blkno != 0 && ClaimBlock(ino, blkno, report)) {
      data_blocks.push_back(blkno);
    }
  };
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    add_data(di.direct[i]);
  }
  auto walk_indirect = [&](uint32_t iblk, auto&& leaf_fn) {
    if (iblk == 0) {
      return;
    }
    if (!ClaimBlock(ino, iblk, report)) {
      return;
    }
    const uint32_t* ptrs = reinterpret_cast<const uint32_t*>(region_.View(iblk).data());
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      leaf_fn(ptrs[i]);
    }
  };
  walk_indirect(di.indirect, add_data);
  walk_indirect(di.double_indirect,
                [&](uint32_t mid) { walk_indirect(mid, add_data); });
  return data_blocks;
}

void FsckChecker::CheckInode(uint32_t ino, const DiskInode& di, FsckReport* report) {
  ++report->inodes_in_use;
  if (di.IsDir()) {
    ++report->dirs_seen;
  } else {
    ++report->files_seen;
  }
  std::vector<uint32_t> blocks = CollectBlocks(ino, di, report);
  if (options_.check_stale_data && !di.IsDir()) {
    for (uint32_t blkno : blocks) {
      std::optional<DataBlockTag> tag =
          ForeignTag(region_, blkno, options_.tag_ino_base + ino, di.generation);
      if (tag.has_value()) {
        report->violations.push_back(
            {FsckViolationType::kStaleDataExposed,
             "ino " + std::to_string(ino) + " gen " + std::to_string(di.generation) +
                 " block " + std::to_string(blkno) + " holds foreign data (tag ino " +
                 std::to_string(tag->ino) + " gen " + std::to_string(tag->generation) + ")"});
      }
    }
  }
}

void FsckChecker::CheckDirBlock(uint32_t dir_ino, uint32_t blkno, FsckReport* report,
                                std::vector<uint32_t>* children) {
  const BlockData& blk = region_.View(blkno);
  for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
    DirEntry de;
    memcpy(&de, blk.data() + e * kDirEntrySize, sizeof(de));
    if (de.ino == 0) {
      continue;
    }
    if (GarbageEntry(de, sb_)) {
      report->violations.push_back({FsckViolationType::kGarbageDirectory,
                                    "dir ino " + std::to_string(dir_ino) + " block " +
                                        std::to_string(blkno) + " entry " + std::to_string(e)});
      continue;
    }
    DiskInode target = ReadInode(de.ino);
    if (!target.InUse()) {
      report->violations.push_back(
          {FsckViolationType::kDanglingDirEntry,
           "dir ino " + std::to_string(dir_ino) + " entry '" + std::string(de.Name()) +
               "' -> free ino " + std::to_string(de.ino)});
      continue;
    }
    ++ref_counts_[de.ino];
    if (target.IsDir()) {
      children->push_back(de.ino);
    }
  }
}

void FsckChecker::WalkDirectories(FsckReport* report) {
  std::deque<uint32_t> queue;
  std::vector<bool> visited(sb_.total_inodes, false);
  queue.push_back(kRootIno);
  visited[kRootIno] = true;
  while (!queue.empty()) {
    uint32_t dir_ino = queue.front();
    queue.pop_front();
    DiskInode di = ReadInode(dir_ino);
    if (!di.IsDir()) {
      continue;
    }
    // The directory's blocks were claimed in the inode pass; re-walk the
    // pointers here without claiming.
    std::vector<uint32_t> children;
    for (uint32_t blkno : DirBlocks(region_, sb_, di)) {
      CheckDirBlock(dir_ino, blkno, report, &children);
    }
    child_dir_counts_[dir_ino] = static_cast<uint32_t>(children.size());
    for (uint32_t child : children) {
      if (child < sb_.total_inodes && !visited[child]) {
        visited[child] = true;
        queue.push_back(child);
      }
    }
  }
}

FsckReport FsckChecker::Check(PfsckStats* stats) {
  FsckReport report;
  block_owner_.clear();
  ref_counts_.clear();

  memcpy(&sb_, region_.View(0).data(), sizeof(sb_));
  if (sb_.magic != kFsMagic || sb_.total_blocks == 0 || sb_.total_inodes == 0) {
    report.violations.push_back({FsckViolationType::kBadSuperblock, "magic/geometry"});
    return report;
  }
  PassClock clock(stats);

  // Pass 1: inodes and block claims.
  for (uint32_t ino = kRootIno; ino < sb_.total_inodes; ++ino) {
    DiskInode di = ReadInode(ino);
    if (di.InUse()) {
      CheckInode(ino, di, &report);
    }
  }
  clock.Lap(&PfsckStats::inode_scan_ns);

  // Pass 2: directory tree, reference counts.
  WalkDirectories(&report);
  clock.Lap(&PfsckStats::dir_walk_ns);

  // Pass 3: link-count audit.
  for (uint32_t ino = kRootIno + 1; ino < sb_.total_inodes; ++ino) {
    DiskInode di = ReadInode(ino);
    if (!di.InUse()) {
      continue;
    }
    uint32_t refs = 0;
    auto it = ref_counts_.find(ino);
    if (it != ref_counts_.end()) {
      refs = it->second;
    }
    // Directory link counts in this format: 1 for the parent entry, 1 for
    // the directory itself, plus one per child directory (their "..").
    uint32_t minimum = refs;
    uint32_t expected = refs;
    if (di.IsDir()) {
      uint32_t children = 0;
      auto cit = child_dir_counts_.find(ino);
      if (cit != child_dir_counts_.end()) {
        children = cit->second;
      }
      if (refs > 0) {
        minimum = refs + 1;
        expected = refs + 1 + children;
      }
    }
    if (di.nlink < minimum) {
      report.violations.push_back(
          {FsckViolationType::kLinkCountTooLow,
           "ino " + std::to_string(ino) + " nlink " + std::to_string(di.nlink) + " refs " +
               std::to_string(refs)});
    } else if (refs == 0) {
      report.fixables.push_back({"orphaned ino " + std::to_string(ino)});
    } else if (di.nlink != expected) {
      report.fixables.push_back({"miscounted nlink on ino " + std::to_string(ino) +
                                 " nlink " + std::to_string(di.nlink) + " expected " +
                                 std::to_string(expected)});
    }
  }

  // Pass 4: bitmap audit (always fixable: fsck rebuilds bitmaps).
  for (uint32_t ino = kRootIno; ino < sb_.total_inodes; ++ino) {
    const BlockData& bm = region_.View(sb_.inode_bitmap_start + ino / kBitsPerBlock);
    bool marked = BitmapGet(bm.data(), ino % kBitsPerBlock);
    bool in_use = ReadInode(ino).InUse();
    if (in_use && !marked) {
      report.fixables.push_back({"ino " + std::to_string(ino) + " in use but free in bitmap"});
    }
  }
  for (const auto& [blkno, owner] : block_owner_) {
    const BlockData& bm = region_.View(sb_.block_bitmap_start + blkno / kBitsPerBlock);
    if (!BitmapGet(bm.data(), blkno % kBitsPerBlock)) {
      report.fixables.push_back(
          {"block " + std::to_string(blkno) + " in use but free in bitmap"});
    }
  }
  clock.Lap(&PfsckStats::audit_ns);
  return report;
}

// ---------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------

void FsckRepairer::WriteInode(uint32_t ino, const DiskInode& di) {
  BlockData blk = region_.View(sb_.ItableBlock(ino));
  memcpy(blk.data() + sb_.ItableOffset(ino), &di, sizeof(di));
  WriteBlock(sb_.ItableBlock(ino), blk);
}

void FsckRepairer::WriteBlock(uint32_t blkno, const BlockData& data) {
  // Repair happens "offline": keep the image's stable-storage timestamp.
  image_->Write(region_.base() + blkno, data, image_->LastWriteTime());
}

bool FsckRepairer::LoadSuper() {
  memcpy(&sb_, region_.View(0).data(), sizeof(sb_));
  return sb_.magic == kFsMagic && sb_.total_blocks != 0 && sb_.total_inodes != 0;
}

void FsckRepairer::ScrubInodePointers(FsckRepairReport* report) {
  auto claim = [&](uint32_t ino, uint32_t blkno) {
    if (!sb_.IsDataBlock(blkno)) {
      return false;
    }
    return block_owner_.try_emplace(blkno, ino).second;
  };
  for (uint32_t ino = kRootIno; ino < sb_.total_inodes; ++ino) {
    DiskInode di = ReadInode(ino);
    if (!di.InUse()) {
      continue;
    }
    bool inode_dirty = false;
    std::vector<uint32_t> data_blocks;
    auto scrub_ptr = [&](uint32_t* ptr) {
      if (*ptr == 0) {
        return;
      }
      if (!claim(ino, *ptr)) {
        *ptr = 0;
        ++report->pointers_cleared;
        return;
      }
      data_blocks.push_back(*ptr);
    };
    for (uint32_t i = 0; i < kNumDirect; ++i) {
      uint32_t before = di.direct[i];
      scrub_ptr(&di.direct[i]);
      inode_dirty |= di.direct[i] != before;
    }
    // An indirect block is itself a claim; if it survives, scrub the
    // pointers it holds (writing the block back on any change).
    auto scrub_indirect = [&](uint32_t* iblk, auto&& leaf_fn) {
      if (*iblk == 0) {
        return;
      }
      if (!claim(ino, *iblk)) {
        *iblk = 0;
        ++report->pointers_cleared;
        return;
      }
      BlockData blk = region_.View(*iblk);
      uint32_t* ptrs = reinterpret_cast<uint32_t*>(blk.data());
      bool blk_dirty = false;
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint32_t before = ptrs[i];
        leaf_fn(&ptrs[i]);
        blk_dirty |= ptrs[i] != before;
      }
      if (blk_dirty) {
        WriteBlock(*iblk, blk);
      }
    };
    {
      uint32_t before = di.indirect;
      scrub_indirect(&di.indirect, scrub_ptr);
      inode_dirty |= di.indirect != before;
    }
    {
      uint32_t before = di.double_indirect;
      scrub_indirect(&di.double_indirect,
                     [&](uint32_t* mid) { scrub_indirect(mid, scrub_ptr); });
      inode_dirty |= di.double_indirect != before;
    }
    if (inode_dirty) {
      WriteInode(ino, di);
    }
    if (options_.check_stale_data && !di.IsDir()) {
      for (uint32_t blkno : data_blocks) {
        if (ForeignTag(region_, blkno, options_.tag_ino_base + ino, di.generation)) {
          WriteBlock(blkno, kZeroBlock);
          ++report->data_blocks_scrubbed;
        }
      }
    }
  }
}

void FsckRepairer::ScrubDirectories(FsckRepairReport* report) {
  std::deque<uint32_t> queue;
  std::vector<bool> visited(sb_.total_inodes, false);
  queue.push_back(kRootIno);
  visited[kRootIno] = true;
  while (!queue.empty()) {
    uint32_t dir_ino = queue.front();
    queue.pop_front();
    DiskInode di = ReadInode(dir_ino);
    if (!di.IsDir()) {
      continue;
    }
    std::vector<uint32_t> children;
    // Out-of-range pointers were already zeroed by the pointer scrub.
    for (uint32_t blkno : DirBlocks(region_, sb_, di)) {
      const BlockData& blk = region_.View(blkno);
      std::optional<BlockData> cleared;  // Copied on the first cleared entry.
      for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
        DirEntry de;
        memcpy(&de, blk.data() + e * kDirEntrySize, sizeof(de));
        if (de.ino == 0) {
          continue;
        }
        if (GarbageEntry(de, sb_) || !ReadInode(de.ino).InUse()) {
          if (!cleared.has_value()) {
            cleared = blk;
          }
          memset(cleared->data() + e * kDirEntrySize, 0, kDirEntrySize);
          ++report->dir_entries_cleared;
          continue;
        }
        ++ref_counts_[de.ino];
        if (ReadInode(de.ino).IsDir()) {
          children.push_back(de.ino);
        }
      }
      if (cleared.has_value()) {
        WriteBlock(blkno, *cleared);
      }
    }
    child_dir_counts_[dir_ino] = static_cast<uint32_t>(children.size());
    for (uint32_t child : children) {
      if (child < sb_.total_inodes && !visited[child]) {
        visited[child] = true;
        queue.push_back(child);
      }
    }
  }
}

void FsckRepairer::FixLinkCountsAndOrphans(FsckRepairReport* report) {
  for (uint32_t ino = kRootIno + 1; ino < sb_.total_inodes; ++ino) {
    DiskInode di = ReadInode(ino);
    if (!di.InUse()) {
      continue;
    }
    uint32_t refs = 0;
    if (auto it = ref_counts_.find(ino); it != ref_counts_.end()) {
      refs = it->second;
    }
    if (refs == 0) {
      // Unreferenced: free the inode but keep its generation so any later
      // reuse still invalidates stale data tags. Its blocks return to the
      // free pool when the bitmaps are rebuilt; a directory's children
      // become orphans themselves and fall out in the next pass.
      DiskInode freed;
      freed.generation = di.generation + 1;
      WriteInode(ino, freed);
      ++report->inodes_cleared;
      continue;
    }
    uint32_t expected = refs;
    if (di.IsDir()) {
      uint32_t children = 0;
      if (auto cit = child_dir_counts_.find(ino); cit != child_dir_counts_.end()) {
        children = cit->second;
      }
      expected = refs + 1 + children;
    }
    if (di.nlink != expected) {
      di.nlink = static_cast<uint16_t>(expected);
      WriteInode(ino, di);
      ++report->link_counts_fixed;
    }
  }
}

void FsckRepairer::RebuildBitmaps(FsckRepairReport* report) {
  // Recompute claims from the surviving inode table (pointers are all
  // valid and unique after the scrub; orphans have been freed).
  std::unordered_set<uint32_t> claimed;
  auto walk_indirect = [&](uint32_t iblk, auto&& leaf_fn) {
    if (iblk == 0) {
      return;
    }
    claimed.insert(iblk);
    const uint32_t* ptrs = reinterpret_cast<const uint32_t*>(region_.View(iblk).data());
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      leaf_fn(ptrs[i]);
    }
  };
  auto add_leaf = [&](uint32_t blkno) {
    if (blkno != 0) {
      claimed.insert(blkno);
    }
  };
  for (uint32_t ino = kRootIno; ino < sb_.total_inodes; ++ino) {
    DiskInode di = ReadInode(ino);
    if (!di.InUse()) {
      continue;
    }
    for (uint32_t i = 0; i < kNumDirect; ++i) {
      add_leaf(di.direct[i]);
    }
    walk_indirect(di.indirect, add_leaf);
    walk_indirect(di.double_indirect, [&](uint32_t mid) { walk_indirect(mid, add_leaf); });
  }

  auto rewrite = [&](uint32_t bitmap_start, uint32_t bitmap_blocks, uint32_t total,
                     auto&& desired_fn) {
    for (uint32_t b = 0; b < bitmap_blocks; ++b) {
      const BlockData& bm = region_.View(bitmap_start + b);
      std::optional<BlockData> fixed;  // Copied on the first wrong bit.
      uint32_t base = b * kBitsPerBlock;
      for (uint32_t i = 0; i < kBitsPerBlock && base + i < total; ++i) {
        bool want = desired_fn(base + i);
        if (BitmapGet(bm.data(), i) != want) {
          if (!fixed.has_value()) {
            fixed = bm;
          }
          BitmapSet(fixed->data(), i, want);
          ++report->bitmap_bits_fixed;
        }
      }
      if (fixed.has_value()) {
        WriteBlock(bitmap_start + b, *fixed);
      }
    }
  };
  rewrite(sb_.inode_bitmap_start, sb_.inode_bitmap_blocks, sb_.total_inodes,
          [&](uint32_t ino) { return ino < kRootIno || ReadInode(ino).InUse(); });
  rewrite(sb_.block_bitmap_start, sb_.block_bitmap_blocks, sb_.total_blocks,
          [&](uint32_t blkno) { return blkno < sb_.data_start || claimed.contains(blkno); });
}

void FsckRepairer::RepairPass(FsckRepairReport* report) {
  block_owner_.clear();
  ref_counts_.clear();
  child_dir_counts_.clear();
  ScrubInodePointers(report);
  ScrubDirectories(report);
  FixLinkCountsAndOrphans(report);
  RebuildBitmaps(report);
}

FsckRepairReport FsckRepairer::Repair(PfsckStats* stats) {
  FsckRepairReport report;
  if (!LoadSuper()) {
    return report;  // A bad superblock is beyond repair here.
  }
  for (int pass = 0; pass < kMaxFsckRepairPasses; ++pass) {
    ++report.passes;
    RepairPass(&report);
    FsckReport check =
        FsckChecker(image_, options_, region_.base(), region_.count()).Check(stats);
    if (check.violations.empty() && check.fixables.empty()) {
      report.clean_after = true;
      break;
    }
  }
  return report;
}

}  // namespace mufs
