#include "src/fs/filesystem.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mufs {

// Cache-level hooks: serializes dirty in-core inodes into inode-table
// buffers just before those buffers are captured for a write, then
// forwards every hook to the policy (soft updates undo/redo, journaling's
// committed images). The policy is set before any I/O.
class FsBufferHooks final : public DepHooks {
 public:
  explicit FsBufferHooks(FileSystem* fs) : fs_(fs) {}

  std::shared_ptr<const BlockData> PrepareWrite(Buf& buf) override {
    fs_->SerializeInodesInto(buf);
    return fs_->policy()->PrepareWrite(buf);
  }
  void WriteDone(Buf& buf) override { fs_->policy()->WriteDone(buf); }
  // The serialized inode bytes stay in the (re-dirtied) buffer; only the
  // policy's dependency state needs restoring.
  void WriteAborted(Buf& buf) override { fs_->policy()->WriteAborted(buf); }
  void BufferAccessed(Buf& buf) override { fs_->policy()->BufferAccessed(buf); }

 private:
  FileSystem* fs_;
};

FileSystem::FileSystem(Engine* engine, Cpu* cpu, BufferCache* cache, SyncerDaemon* syncer,
                       FsConfig config)
    : engine_(engine),
      cpu_(cpu),
      cache_(cache),
      syncer_(syncer),
      config_(config),
      alloc_lock_(engine),
      stats_(cache->stats()) {
  buffer_hooks_ = std::make_unique<FsBufferHooks>(this);
  cache_->SetDepHooks(buffer_hooks_.get());
  stat_creates_ = &stats_->counter("fs.creates");
  stat_removes_ = &stats_->counter("fs.removes");
  stat_mkdirs_ = &stats_->counter("fs.mkdirs");
  stat_rmdirs_ = &stats_->counter("fs.rmdirs");
  stat_renames_ = &stats_->counter("fs.renames");
  stat_lookups_ = &stats_->counter("fs.lookups");
  stat_reads_ = &stats_->counter("fs.reads");
  stat_writes_ = &stats_->counter("fs.writes");
  stat_blocks_allocated_ = &stats_->counter("fs.blocks_allocated");
  stat_blocks_freed_ = &stats_->counter("fs.blocks_freed");
  stat_io_errors_ = &stats_->counter("fs.io_errors");
  stat_create_latency_ = &stats_->histogram("fs.op.create.latency_ns");
  stat_mkdir_latency_ = &stats_->histogram("fs.op.mkdir.latency_ns");
  stat_unlink_latency_ = &stats_->histogram("fs.op.unlink.latency_ns");
  stat_rmdir_latency_ = &stats_->histogram("fs.op.rmdir.latency_ns");
  stat_rename_latency_ = &stats_->histogram("fs.op.rename.latency_ns");
}

bool FileSystem::io_degraded() const {
  // Asynchronous write failures are noticed by the cache's completion
  // handler, not by any FS call site; fold them in here.
  return io_degraded_ || stats_->counter("cache.write_failures").value() > 0 ||
         stats_->counter("cache.read_failures").value() > 0;
}

FileSystem::~FileSystem() = default;

void FileSystem::SetPolicy(OrderingPolicy* policy) {
  policy_ = policy;
  policy_->Attach(this);
}

Task<void> FileSystem::Charge(Proc& proc, SimDuration d) {
  if (d > 0) {
    co_await cpu_->Consume(proc.pid, d);
  }
}

uint32_t FileSystem::NowSeconds() const {
  return static_cast<uint32_t>(engine_->Now() / kSecond);
}

// ---------------------------------------------------------------------
// mkfs / mount
// ---------------------------------------------------------------------

void FileSystem::Mkfs(DiskImage* image, uint32_t total_inodes, uint32_t journal_blocks) {
  SuperBlock sb;
  sb.total_blocks = image->TotalBlocks();
  sb.total_inodes = total_inodes;
  sb.inode_bitmap_start = 1;
  sb.inode_bitmap_blocks = (total_inodes + kBitsPerBlock - 1) / kBitsPerBlock;
  sb.block_bitmap_start = sb.inode_bitmap_start + sb.inode_bitmap_blocks;
  sb.block_bitmap_blocks = (sb.total_blocks + kBitsPerBlock - 1) / kBitsPerBlock;
  sb.inode_table_start = sb.block_bitmap_start + sb.block_bitmap_blocks;
  sb.inode_table_blocks = (total_inodes + kInodesPerBlock - 1) / kInodesPerBlock;
  sb.journal_start = sb.inode_table_start + sb.inode_table_blocks;
  sb.journal_blocks = journal_blocks;
  sb.data_start = sb.journal_start + sb.journal_blocks;

  BlockData blk;
  blk.fill(0);
  memcpy(blk.data(), &sb, sizeof(sb));
  image->Write(0, blk, 0);

  // Inode bitmap: ino 0 (reserved) and ino 1 (root) in use.
  blk.fill(0);
  BitmapSet(blk.data(), 0, true);
  BitmapSet(blk.data(), kRootIno, true);
  image->Write(sb.inode_bitmap_start, blk, 0);
  for (uint32_t b = 1; b < sb.inode_bitmap_blocks; ++b) {
    BlockData z;
    z.fill(0);
    image->Write(sb.inode_bitmap_start + b, z, 0);
  }

  // Block bitmap: everything before data_start is metadata, marked used.
  for (uint32_t b = 0; b < sb.block_bitmap_blocks; ++b) {
    BlockData bm;
    bm.fill(0);
    uint32_t first = b * kBitsPerBlock;
    for (uint32_t i = 0; i < kBitsPerBlock; ++i) {
      uint32_t blkno = first + i;
      if (blkno < sb.data_start) {
        BitmapSet(bm.data(), i, true);
      }
      // Bits past total_blocks stay zero; the allocator bounds-checks.
    }
    image->Write(sb.block_bitmap_start + b, bm, 0);
  }

  // Inode table: zeroed, with the root directory in ino 1.
  {
    BlockData it;
    it.fill(0);
    DiskInode root;
    root.mode = static_cast<uint16_t>(FileType::kDirectory);
    root.nlink = 2;
    root.generation = 1;
    root.spare[0] = kRootIno;  // Parent of root is root.
    memcpy(it.data() + kRootIno * kInodeSize, &root, sizeof(root));
    image->Write(sb.inode_table_start, it, 0);
  }
  for (uint32_t b = 1; b < sb.inode_table_blocks; ++b) {
    BlockData z;
    z.fill(0);
    image->Write(sb.inode_table_start + b, z, 0);
  }
}

Task<FsStatus> FileSystem::Mount(Proc& proc) {
  assert(policy_ != nullptr && "SetPolicy must be called before Mount");
  co_await Charge(proc, config_.costs.syscall);
  BufRef buf = co_await cache_->Bread(0);
  if (buf == nullptr) {
    co_return FsStatus::kIoError;
  }
  memcpy(&sb_, buf->data().data(), sizeof(sb_));
  if (sb_.magic != kFsMagic) {
    co_return FsStatus::kInvalid;
  }
  block_rotor_ = sb_.data_start;
  inode_rotor_ = kRootIno + 1;
  co_return FsStatus::kOk;
}

// ---------------------------------------------------------------------
// In-core inodes
// ---------------------------------------------------------------------

void FileSystem::SerializeInodesInto(Buf& buf) {
  if (buf.blkno() < sb_.inode_table_start ||
      buf.blkno() >= sb_.inode_table_start + sb_.inode_table_blocks) {
    return;
  }
  uint32_t first_ino = (buf.blkno() - sb_.inode_table_start) * kInodesPerBlock;
  for (uint32_t i = 0; i < kInodesPerBlock; ++i) {
    auto it = inode_cache_.find(first_ino + i);
    if (it != inode_cache_.end() && it->second->dirty_) {
      memcpy(buf.data().data() + i * kInodeSize, &it->second->d, sizeof(DiskInode));
      SetInodeDirty(*it->second, false);
    }
  }
}

Task<InodeRef> FileSystem::Iget(Proc& proc, uint32_t ino) {
  (void)proc;
  auto it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    co_return it->second;
  }
  BufRef buf = co_await cache_->Bread(sb_.ItableBlock(ino));
  // Another process may have loaded it while we waited on the read.
  it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    co_return it->second;
  }
  if (buf == nullptr) {
    co_return nullptr;  // Itable read failed; caller reports kIoError.
  }
  auto ip = std::make_shared<Inode>(engine_, ino);
  memcpy(&ip->d, buf->data().data() + sb_.ItableOffset(ino), sizeof(DiskInode));
  ip->itable_buf = buf;
  EvictInodesIfNeeded();
  CacheInode(ip);
  co_return ip;
}

InodeRef FileSystem::IgetCached(uint32_t ino) {
  auto it = inode_cache_.find(ino);
  return it == inode_cache_.end() ? nullptr : it->second;
}

void FileSystem::DropCleanInodes() {
  for (auto it = inode_cache_.begin(); it != inode_cache_.end();) {
    const InodeRef& ip = it->second;
    if (ip.use_count() == 1 && !ip->dirty_ && ip->dep_pin == 0 && !ip->lock.Held()) {
      it = inode_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

void FileSystem::EvictInodesIfNeeded() {
  if (inode_cache_.size() >= config_.inode_cache_capacity) {
    DropCleanInodes();
  }
}

Task<void> FileSystem::FlushInodeToBuffer(Inode& ip) {
  BufRef buf = ip.itable_buf;
  co_await cache_->BeginUpdate(*buf);
  memcpy(buf->data().data() + sb_.ItableOffset(ip.ino), &ip.d, sizeof(DiskInode));
  SetInodeDirty(ip, false);
  cache_->MarkDirty(*buf);
}

Task<void> FileSystem::MarkInodeDirty(Proc& proc, Inode& ip) {
  co_await Charge(proc, config_.costs.inode_update);
  SetInodeDirty(ip, true);
  if (policy_->WriteThroughInodes()) {
    // Section 3.3: pushing the change into the buffer can wait on the
    // write lock of an in-flight request (unless -CB is configured).
    co_await FlushInodeToBuffer(ip);
  } else {
    // Delayed-write policies: the buffer is marked dirty now and the
    // bytes are serialized lazily in PrepareWrite.
    cache_->MarkDirty(*ip.itable_buf);
  }
  policy_->NoteInodeUpdate(proc, ip);
}

void FileSystem::SetInodeDirty(Inode& ip, bool dirty) {
  if (ip.dirty_ == dirty) {
    return;
  }
  ip.dirty_ = dirty;
  // An inode displaced from its slot (see CacheInode) is no longer counted.
  auto it = inode_cache_.find(ip.ino);
  if (it != inode_cache_.end() && it->second.get() == &ip) {
    dirty ? ++dirty_inodes_ : --dirty_inodes_;
  }
}

void FileSystem::CacheInode(InodeRef ip) {
  assert(!ip->dirty_);
  InodeRef& slot = inode_cache_[ip->ino];
  // Create and Mkdir can reuse the number of a freed inode that is still
  // dirty under a delayed-write policy; its count leaves with the slot.
  if (slot != nullptr && slot->dirty_) {
    --dirty_inodes_;
  }
  slot = std::move(ip);
}

Task<void> FileSystem::FlushDirtyInodes() {
  std::vector<uint32_t> dirty;
  for (const auto& [ino, ip] : inode_cache_) {
    if (ip->dirty_) {
      dirty.push_back(ino);
    }
  }
  for (uint32_t ino : dirty) {
    auto it = inode_cache_.find(ino);
    if (it != inode_cache_.end() && it->second->dirty_) {
      co_await FlushInodeToBuffer(*it->second);
      cache_->MarkDirty(*it->second->itable_buf);
    }
  }
}

// ---------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------

Task<Result<uint32_t>> FileSystem::AllocBlock(Proc& proc, uint32_t hint) {
  co_await Charge(proc, config_.costs.block_alloc);
  LockGuard guard = co_await LockGuard::Acquire(&alloc_lock_);
  uint32_t start = hint >= sb_.data_start && hint < sb_.total_blocks ? hint : block_rotor_;
  // Two passes: [start, end) then [data_start, start).
  for (int pass = 0; pass < 2; ++pass) {
    uint32_t lo = pass == 0 ? start : sb_.data_start;
    uint32_t hi = pass == 0 ? sb_.total_blocks : start;
    uint32_t blkno = lo;
    while (blkno < hi) {
      uint32_t bm_index = blkno / kBitsPerBlock;
      BufRef bm = co_await cache_->Bread(sb_.block_bitmap_start + bm_index);
      if (bm == nullptr) {
        co_return FsStatus::kIoError;
      }
      uint32_t limit = std::min(hi, (bm_index + 1) * kBitsPerBlock);
      for (; blkno < limit; ++blkno) {
        if (!BitmapGet(bm->data().data(), blkno % kBitsPerBlock) &&
            !policy_->BlockBusy(blkno)) {
          co_await cache_->BeginUpdate(*bm);
          BitmapSet(bm->data().data(), blkno % kBitsPerBlock, true);
          cache_->MarkDirty(*bm);
          block_rotor_ = blkno + 1 < sb_.total_blocks ? blkno + 1 : sb_.data_start;
          stat_blocks_allocated_->Inc();
          co_return blkno;
        }
      }
    }
  }
  co_return FsStatus::kNoSpace;
}

Task<Result<uint32_t>> FileSystem::AllocInode(Proc& proc, uint32_t parent_hint) {
  co_await Charge(proc, config_.costs.block_alloc);
  LockGuard guard = co_await LockGuard::Acquire(&alloc_lock_);
  uint32_t start = parent_hint > 0 && parent_hint < sb_.total_inodes ? parent_hint : inode_rotor_;
  for (int pass = 0; pass < 2; ++pass) {
    uint32_t lo = pass == 0 ? start : 1;
    uint32_t hi = pass == 0 ? sb_.total_inodes : start;
    uint32_t ino = lo;
    while (ino < hi) {
      uint32_t bm_index = ino / kBitsPerBlock;
      BufRef bm = co_await cache_->Bread(sb_.inode_bitmap_start + bm_index);
      if (bm == nullptr) {
        co_return FsStatus::kIoError;
      }
      uint32_t limit = std::min(hi, (bm_index + 1) * kBitsPerBlock);
      for (; ino < limit; ++ino) {
        if (!BitmapGet(bm->data().data(), ino % kBitsPerBlock)) {
          co_await cache_->BeginUpdate(*bm);
          BitmapSet(bm->data().data(), ino % kBitsPerBlock, true);
          cache_->MarkDirty(*bm);
          inode_rotor_ = ino + 1 < sb_.total_inodes ? ino + 1 : 1;
          co_return ino;
        }
      }
    }
  }
  co_return FsStatus::kNoSpace;
}

Task<void> FileSystem::FreeBlocksInBitmap(Proc& proc, const std::vector<uint32_t>& blocks) {
  co_await Charge(proc, config_.costs.block_free * static_cast<SimDuration>(blocks.size()));
  LockGuard guard = co_await LockGuard::Acquire(&alloc_lock_);
  for (uint32_t blkno : blocks) {
    assert(blkno >= sb_.data_start && blkno < sb_.total_blocks);
    BufRef bm = co_await cache_->Bread(sb_.block_bitmap_start + blkno / kBitsPerBlock);
    if (bm == nullptr) {
      // The block stays marked allocated: a leak, which fsck repairs.
      NoteIoError();
      continue;
    }
    co_await cache_->BeginUpdate(*bm);
    BitmapSet(bm->data().data(), blkno % kBitsPerBlock, false);
    cache_->MarkDirty(*bm);
    stat_blocks_freed_->Inc();
  }
}

Task<void> FileSystem::FreeInodeInBitmap(Proc& proc, uint32_t ino) {
  co_await Charge(proc, config_.costs.block_free);
  LockGuard guard = co_await LockGuard::Acquire(&alloc_lock_);
  BufRef bm = co_await cache_->Bread(sb_.inode_bitmap_start + ino / kBitsPerBlock);
  if (bm == nullptr) {
    // The inode stays marked allocated: a leak, which fsck repairs.
    NoteIoError();
    co_return;
  }
  co_await cache_->BeginUpdate(*bm);
  BitmapSet(bm->data().data(), ino % kBitsPerBlock, false);
  cache_->MarkDirty(*bm);
  // The in-core inode (mode 0) can leave the cache once clean.
}

// ---------------------------------------------------------------------
// Block mapping
// ---------------------------------------------------------------------

Task<Result<BufRef>> FileSystem::AllocAttachedBlock(Proc& proc, Inode& ip, PtrLoc loc,
                                                    bool init_required, BlockRole role,
                                                    uint32_t hint) {
  Result<uint32_t> blk = co_await AllocBlock(proc, hint);
  if (!blk.Ok()) {
    co_return blk.status();
  }
  BufRef data_buf = co_await cache_->Bget(blk.value());
  data_buf->data().fill(0);

  // The pointer is set in-core now; the on-disk carrier (itable buffer or
  // indirect buffer) is only updated when the policy calls
  // CommitBlockPointer, after its rule-3 ordering is in place.
  switch (loc.kind) {
    case PtrLoc::Kind::kInodeDirect:
      ip.d.direct[loc.index] = blk.value();
      break;
    case PtrLoc::Kind::kInodeIndirect:
      ip.d.indirect = blk.value();
      break;
    case PtrLoc::Kind::kInodeDouble:
      ip.d.double_indirect = blk.value();
      break;
    case PtrLoc::Kind::kIndirectSlot:
      break;
  }
  co_await policy_->SetupAllocation(proc, ip, data_buf, loc, init_required, role);
  co_return data_buf;
}

Task<void> FileSystem::CommitBlockPointer(Proc& proc, Inode& ip, const PtrLoc& loc,
                                          uint32_t blkno) {
  if (loc.kind == PtrLoc::Kind::kIndirectSlot) {
    co_await cache_->BeginUpdate(*loc.indirect_buf);
    *loc.indirect_buf->At<uint32_t>(loc.index * sizeof(uint32_t)) = blkno;
    cache_->MarkDirty(*loc.indirect_buf);
    co_return;
  }
  co_await MarkInodeDirty(proc, ip);
}

Task<Result<uint32_t>> FileSystem::BlockMap(Proc& proc, Inode& ip, uint32_t lbn, bool alloc) {
  bool force_init = ip.d.IsDir() || config_.alloc_init;
  BlockRole leaf_role = ip.d.IsDir() ? BlockRole::kDirectory : BlockRole::kFileData;
  // Direct blocks.
  if (lbn < kNumDirect) {
    uint32_t blk = ip.d.direct[lbn];
    if (blk != 0 || !alloc) {
      co_return blk;
    }
    PtrLoc loc{.kind = PtrLoc::Kind::kInodeDirect, .index = lbn, .indirect_buf = nullptr};
    uint32_t hint = lbn > 0 ? ip.d.direct[lbn - 1] + 1 : 0;
    Result<BufRef> buf = co_await AllocAttachedBlock(proc, ip, loc, force_init, leaf_role, hint);
    if (!buf.Ok()) {
      co_return buf.status();
    }
    co_return ip.d.direct[lbn];
  }

  // Single indirect.
  uint32_t idx = lbn - kNumDirect;
  if (idx < kPtrsPerBlock) {
    if (ip.d.indirect == 0) {
      if (!alloc) {
        co_return 0u;
      }
      PtrLoc loc{.kind = PtrLoc::Kind::kInodeIndirect, .indirect_buf = nullptr};
      // Indirect blocks are metadata: always initialization-ordered.
      Result<BufRef> buf = co_await AllocAttachedBlock(proc, ip, loc, /*init_required=*/true,
                                                       BlockRole::kIndirect,
                                                       ip.d.direct[kNumDirect - 1] + 1);
      if (!buf.Ok()) {
        co_return buf.status();
      }
    }
    BufRef ibuf = co_await cache_->Bread(ip.d.indirect);
    if (ibuf == nullptr) {
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*ibuf);
    uint32_t blk = *ibuf->At<uint32_t>(idx * sizeof(uint32_t));
    if (blk != 0 || !alloc) {
      co_return blk;
    }
    PtrLoc loc{.kind = PtrLoc::Kind::kIndirectSlot, .index = idx, .indirect_buf = ibuf};
    Result<BufRef> buf =
        co_await AllocAttachedBlock(proc, ip, loc, force_init, leaf_role, ip.d.indirect + 1);
    if (!buf.Ok()) {
      co_return buf.status();
    }
    co_return *ibuf->At<uint32_t>(idx * sizeof(uint32_t));
  }

  // Double indirect.
  idx -= kPtrsPerBlock;
  if (idx >= kPtrsPerBlock * kPtrsPerBlock) {
    co_return FsStatus::kInvalid;  // Beyond maximum file size.
  }
  if (ip.d.double_indirect == 0) {
    if (!alloc) {
      co_return 0u;
    }
    PtrLoc loc{.kind = PtrLoc::Kind::kInodeDouble, .indirect_buf = nullptr};
    Result<BufRef> buf = co_await AllocAttachedBlock(proc, ip, loc, /*init_required=*/true,
                                                     BlockRole::kIndirect, ip.d.indirect + 1);
    if (!buf.Ok()) {
      co_return buf.status();
    }
  }
  BufRef dbuf = co_await cache_->Bread(ip.d.double_indirect);
  if (dbuf == nullptr) {
    co_return FsStatus::kIoError;
  }
  co_await cache_->BeginRead(*dbuf);
  uint32_t l1 = idx / kPtrsPerBlock;
  uint32_t l2 = idx % kPtrsPerBlock;
  uint32_t mid = *dbuf->At<uint32_t>(l1 * sizeof(uint32_t));
  if (mid == 0) {
    if (!alloc) {
      co_return 0u;
    }
    PtrLoc loc{.kind = PtrLoc::Kind::kIndirectSlot, .index = l1, .indirect_buf = dbuf};
    Result<BufRef> buf = co_await AllocAttachedBlock(proc, ip, loc, /*init_required=*/true,
                                                     BlockRole::kIndirect,
                                                     ip.d.double_indirect + 1);
    if (!buf.Ok()) {
      co_return buf.status();
    }
    mid = *dbuf->At<uint32_t>(l1 * sizeof(uint32_t));
  }
  BufRef mbuf = co_await cache_->Bread(mid);
  if (mbuf == nullptr) {
    co_return FsStatus::kIoError;
  }
  co_await cache_->BeginRead(*mbuf);
  uint32_t blk = *mbuf->At<uint32_t>(l2 * sizeof(uint32_t));
  if (blk != 0 || !alloc) {
    co_return blk;
  }
  PtrLoc loc{.kind = PtrLoc::Kind::kIndirectSlot, .index = l2, .indirect_buf = mbuf};
  Result<BufRef> buf = co_await AllocAttachedBlock(proc, ip, loc, force_init, leaf_role, mid + 1);
  if (!buf.Ok()) {
    co_return buf.status();
  }
  co_return *mbuf->At<uint32_t>(l2 * sizeof(uint32_t));
}

// ---------------------------------------------------------------------
// Truncation / link release
// ---------------------------------------------------------------------

Task<FsStatus> FileSystem::TruncateLocked(Proc& proc, Inode& ip, uint64_t new_size) {
  if (new_size >= ip.d.size) {
    ip.d.size = new_size;
    co_await MarkInodeDirty(proc, ip);
    co_return FsStatus::kOk;
  }
  uint32_t keep_blocks =
      static_cast<uint32_t>((new_size + kBlockSize - 1) / kBlockSize);
  std::vector<uint32_t> freed;
  std::vector<BufRef> updated_indirects;

  // Direct pointers.
  for (uint32_t i = keep_blocks < kNumDirect ? keep_blocks : kNumDirect; i < kNumDirect; ++i) {
    if (ip.d.direct[i] != 0) {
      freed.push_back(ip.d.direct[i]);
      ip.d.direct[i] = 0;
    }
  }

  // Single indirect tree.
  uint32_t indirect_limit = kNumDirect + kPtrsPerBlock;
  if (ip.d.indirect != 0 && keep_blocks < indirect_limit) {
    BufRef ibuf = co_await cache_->Bread(ip.d.indirect);
    if (ibuf == nullptr) {
      // Cannot walk the tree: leak those blocks (fsck repairs) rather
      // than free blindly. Direct pointers already reset stay reset.
      NoteIoError();
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*ibuf);
    uint32_t first = keep_blocks > kNumDirect ? keep_blocks - kNumDirect : 0;
    co_await cache_->BeginUpdate(*ibuf);
    for (uint32_t i = first; i < kPtrsPerBlock; ++i) {
      uint32_t* slot = ibuf->At<uint32_t>(i * sizeof(uint32_t));
      if (*slot != 0) {
        freed.push_back(*slot);
        *slot = 0;
      }
    }
    cache_->MarkDirty(*ibuf);
    if (first == 0) {
      freed.push_back(ip.d.indirect);
      ip.d.indirect = 0;
    } else {
      updated_indirects.push_back(ibuf);
    }
  }

  // Double indirect tree (all-or-nothing beyond the single range).
  if (ip.d.double_indirect != 0 && keep_blocks < indirect_limit + kPtrsPerBlock * kPtrsPerBlock) {
    BufRef dbuf = co_await cache_->Bread(ip.d.double_indirect);
    if (dbuf == nullptr) {
      NoteIoError();
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*dbuf);
    uint64_t keep_in_double =
        keep_blocks > indirect_limit ? keep_blocks - indirect_limit : 0;
    co_await cache_->BeginUpdate(*dbuf);
    for (uint32_t l1 = 0; l1 < kPtrsPerBlock; ++l1) {
      uint32_t* mid_slot = dbuf->At<uint32_t>(l1 * sizeof(uint32_t));
      if (*mid_slot == 0) {
        continue;
      }
      uint64_t sub_first_lbn = static_cast<uint64_t>(l1) * kPtrsPerBlock;
      BufRef mbuf = co_await cache_->Bread(*mid_slot);
      if (mbuf == nullptr) {
        // Leak this subtree; fsck repairs the leaked blocks.
        NoteIoError();
        continue;
      }
      co_await cache_->BeginRead(*mbuf);
      co_await cache_->BeginUpdate(*mbuf);
      bool sub_empty = true;
      for (uint32_t l2 = 0; l2 < kPtrsPerBlock; ++l2) {
        if (sub_first_lbn + l2 < keep_in_double) {
          sub_empty = false;
          continue;
        }
        uint32_t* slot = mbuf->At<uint32_t>(l2 * sizeof(uint32_t));
        if (*slot != 0) {
          freed.push_back(*slot);
          *slot = 0;
        }
      }
      cache_->MarkDirty(*mbuf);
      if (sub_empty) {
        freed.push_back(*mid_slot);
        *mid_slot = 0;
      } else {
        updated_indirects.push_back(mbuf);
      }
    }
    cache_->MarkDirty(*dbuf);
    if (keep_in_double == 0) {
      freed.push_back(ip.d.double_indirect);
      ip.d.double_indirect = 0;
    } else {
      updated_indirects.push_back(dbuf);
    }
  }

  ip.d.size = new_size;
  ip.d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, ip);
  if (!freed.empty()) {
    co_await policy_->SetupBlockFree(proc, ip, std::move(freed), std::move(updated_indirects));
  }
  co_return FsStatus::kOk;
}

Task<void> FileSystem::ReleaseLink(Proc& proc, uint32_t ino) {
  InodeRef ip = co_await Iget(proc, ino);
  if (ip == nullptr) {
    // Cannot load the inode: the link count stays high (fsck repairs).
    NoteIoError();
    co_return;
  }
  LockGuard guard = co_await LockGuard::Acquire(&ip->lock);
  assert(ip->d.nlink > 0);
  if (ip->d.IsDir() && ip->d.nlink == 2) {
    // Losing its parent entry takes an (empty) directory's self-link with
    // it: rmdir drops both here, after the protecting entry write.
    ip->d.nlink = 0;
  } else {
    ip->d.nlink--;
  }
  ip->d.ctime = NowSeconds();
  co_await MarkInodeDirty(proc, *ip);
  if (ip->d.nlink > 0) {
    co_return;
  }
  // Last link gone: clear the mode first so the truncation's inode write
  // carries both the reset pointers and the freed mode in one I/O.
  ip->d.mode = static_cast<uint16_t>(FileType::kFree);
  co_await TruncateLocked(proc, *ip, 0);
  co_await policy_->SetupInodeFree(proc, *ip);
}

}  // namespace mufs
