// Path resolution, directory manipulation and file I/O for FileSystem.
#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/fs/filesystem.h"

namespace mufs {

namespace {

// Pairs OrderingPolicy::OpBegin with OpEnd on every exit path of a
// mutating operation (ops have many early co_returns).
struct OpGuard {
  explicit OpGuard(OrderingPolicy* p) : policy(p) {}
  OpGuard(const OpGuard&) = delete;
  OpGuard& operator=(const OpGuard&) = delete;
  ~OpGuard() { policy->OpEnd(); }
  OrderingPolicy* policy;
};

}  // namespace

// ---------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------

Result<FileSystem::PathParts> FileSystem::SplitPath(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return FsStatus::kInvalid;
  }
  PathParts parts;
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) {
      j = path.size();
    }
    if (j > i) {
      std::string comp = path.substr(i, j - i);
      if (comp == "." || comp == "..") {
        return FsStatus::kInvalid;  // Handled logically via parent links.
      }
      if (comp.size() > kMaxNameLen) {
        return FsStatus::kNameTooLong;
      }
      parts.components.push_back(std::move(comp));
    }
    i = j + 1;
  }
  return parts;
}

Task<Result<FileSystem::ParentLookup>> FileSystem::LookupParent(Proc& proc,
                                                                const std::string& path) {
  Result<PathParts> parts = SplitPath(path);
  if (!parts.Ok()) {
    co_return parts.status();
  }
  if (parts.value().components.empty()) {
    co_return FsStatus::kInvalid;  // Root has no parent entry.
  }
  InodeRef dir = co_await Iget(proc, kRootIno);
  if (dir == nullptr) {
    co_return FsStatus::kIoError;
  }
  auto& comps = parts.value().components;
  for (size_t i = 0; i + 1 < comps.size(); ++i) {
    co_await Charge(proc, config_.costs.name_component);
    if (!dir->d.IsDir()) {
      co_return FsStatus::kNotDirectory;
    }
    Result<uint32_t> next = co_await LookupIn(proc, *dir, comps[i]);
    if (!next.Ok()) {
      co_return next.status();
    }
    dir = co_await Iget(proc, next.value());
    if (dir == nullptr) {
      co_return FsStatus::kIoError;
    }
  }
  if (!dir->d.IsDir()) {
    co_return FsStatus::kNotDirectory;
  }
  co_return ParentLookup{std::move(dir), comps.back()};
}

Task<Result<uint32_t>> FileSystem::LookupIn(Proc& proc, Inode& dir, std::string_view name) {
  Result<EntryLoc> loc = co_await FindEntry(proc, dir, name);
  if (!loc.Ok()) {
    co_return loc.status();
  }
  co_return loc.value().ino;
}

Task<Result<FileSystem::EntryLoc>> FileSystem::FindEntry(Proc& proc, Inode& dir,
                                                         std::string_view name) {
  uint32_t nblocks = static_cast<uint32_t>((dir.d.size + kBlockSize - 1) / kBlockSize);
  for (uint32_t lbn = 0; lbn < nblocks; ++lbn) {
    co_await Charge(proc, config_.costs.dir_scan_block);
    Result<uint32_t> blk = co_await BlockMap(proc, dir, lbn, /*alloc=*/false);
    if (!blk.Ok() || blk.value() == 0) {
      continue;
    }
    BufRef buf = co_await cache_->Bread(blk.value());
    if (buf == nullptr) {
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*buf);
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const DirEntry* de = buf->At<DirEntry>(e * kDirEntrySize);
      if (de->ino != 0 && de->Name() == name) {
        co_return EntryLoc{buf, e * kDirEntrySize, de->ino};
      }
    }
  }
  co_return FsStatus::kNotFound;
}

Task<Result<FileSystem::EntryLoc>> FileSystem::AddEntry(Proc& proc, Inode& dir,
                                                        std::string_view name, uint32_t ino) {
  // Scan for a free slot.
  uint32_t nblocks = static_cast<uint32_t>((dir.d.size + kBlockSize - 1) / kBlockSize);
  for (uint32_t lbn = 0; lbn < nblocks; ++lbn) {
    co_await Charge(proc, config_.costs.dir_scan_block);
    Result<uint32_t> blk = co_await BlockMap(proc, dir, lbn, /*alloc=*/false);
    if (!blk.Ok() || blk.value() == 0) {
      continue;
    }
    BufRef buf = co_await cache_->Bread(blk.value());
    if (buf == nullptr) {
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*buf);
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      if (buf->At<DirEntry>(e * kDirEntrySize)->ino == 0 &&
          !policy_->DirSlotBusy(buf->blkno(), e * kDirEntrySize)) {
        co_await cache_->BeginUpdate(*buf);
        DirEntry* de = buf->At<DirEntry>(e * kDirEntrySize);
        de->ino = ino;
        de->SetName(name);
        cache_->MarkDirty(*buf);
        co_return EntryLoc{buf, e * kDirEntrySize, ino};
      }
    }
  }
  // Grow the directory by one block (rule 3: directory blocks are always
  // initialization-ordered; BlockMap handles that via the policy).
  Result<uint32_t> blk = co_await BlockMap(proc, dir, nblocks, /*alloc=*/true);
  if (!blk.Ok()) {
    co_return blk.status();
  }
  dir.d.size = static_cast<uint64_t>(nblocks + 1) * kBlockSize;
  dir.d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, dir);
  BufRef buf = co_await cache_->Bread(blk.value());
  if (buf == nullptr) {
    co_return FsStatus::kIoError;
  }
  co_await cache_->BeginUpdate(*buf);
  DirEntry* de = buf->At<DirEntry>(0);
  de->ino = ino;
  de->SetName(name);
  cache_->MarkDirty(*buf);
  co_return EntryLoc{buf, 0, ino};
}

Task<Result<bool>> FileSystem::DirIsEmpty(Proc& proc, Inode& dir) {
  uint32_t nblocks = static_cast<uint32_t>((dir.d.size + kBlockSize - 1) / kBlockSize);
  for (uint32_t lbn = 0; lbn < nblocks; ++lbn) {
    co_await Charge(proc, config_.costs.dir_scan_block);
    Result<uint32_t> blk = co_await BlockMap(proc, dir, lbn, /*alloc=*/false);
    if (!blk.Ok() || blk.value() == 0) {
      continue;
    }
    BufRef buf = co_await cache_->Bread(blk.value());
    if (buf == nullptr) {
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*buf);
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      if (buf->At<DirEntry>(e * kDirEntrySize)->ino != 0) {
        co_return false;
      }
    }
  }
  co_return true;
}

// ---------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------

Task<Result<uint32_t>> FileSystem::Create(Proc& proc, const std::string& path) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall + config_.costs.create);
  Result<ParentLookup> pl = co_await LookupParent(proc, path);
  if (!pl.Ok()) {
    co_return pl.status();
  }
  InodeRef parent = pl.value().parent;
  LockGuard guard = co_await LockGuard::Acquire(&parent->lock);

  Result<EntryLoc> existing = co_await FindEntry(proc, *parent, pl.value().leaf);
  if (existing.Ok()) {
    co_return FsStatus::kExists;
  }
  Result<uint32_t> ino = co_await AllocInode(proc, parent->ino);
  if (!ino.Ok()) {
    co_return ino.status();
  }

  // Build the new in-core inode over the on-disk slot (generation bumps).
  BufRef itable = co_await cache_->Bread(sb_.ItableBlock(ino.value()));
  if (itable == nullptr) {
    co_return FsStatus::kIoError;
  }
  auto ip = std::make_shared<Inode>(engine_, ino.value());
  const DiskInode* old = itable->At<DiskInode>(sb_.ItableOffset(ino.value()));
  ip->d.generation = old->generation + 1;
  ip->d.mode = static_cast<uint16_t>(FileType::kRegular);
  ip->d.nlink = 1;
  ip->d.size = 0;
  ip->d.atime = ip->d.mtime = ip->d.ctime = NowSeconds();
  ip->itable_buf = itable;
  CacheInode(ip);
  co_await MarkInodeDirty(proc, *ip);

  Result<EntryLoc> entry = co_await AddEntry(proc, *parent, pl.value().leaf, ino.value());
  if (!entry.Ok()) {
    co_return entry.status();
  }
  parent->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *parent);

  co_await policy_->SetupLinkAdd(proc, *parent, entry.value().buf, entry.value().offset, *ip,
                                 /*new_inode=*/true);
  stat_creates_->Inc();
  co_return ino.value();
}

Task<FsStatus> FileSystem::Mkdir(Proc& proc, const std::string& path) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall + config_.costs.create);
  Result<ParentLookup> pl = co_await LookupParent(proc, path);
  if (!pl.Ok()) {
    co_return pl.status();
  }
  InodeRef parent = pl.value().parent;
  LockGuard guard = co_await LockGuard::Acquire(&parent->lock);

  Result<EntryLoc> existing = co_await FindEntry(proc, *parent, pl.value().leaf);
  if (existing.Ok()) {
    co_return FsStatus::kExists;
  }
  Result<uint32_t> ino = co_await AllocInode(proc, parent->ino);
  if (!ino.Ok()) {
    co_return ino.status();
  }

  BufRef itable = co_await cache_->Bread(sb_.ItableBlock(ino.value()));
  if (itable == nullptr) {
    co_return FsStatus::kIoError;
  }
  auto ip = std::make_shared<Inode>(engine_, ino.value());
  const DiskInode* old = itable->At<DiskInode>(sb_.ItableOffset(ino.value()));
  ip->d.generation = old->generation + 1;
  ip->d.mode = static_cast<uint16_t>(FileType::kDirectory);
  ip->d.nlink = 2;  // Itself ("."), plus the parent entry.
  ip->d.size = 0;
  ip->d.spare[0] = parent->ino;  // ".." kept in the inode.
  ip->d.atime = ip->d.mtime = ip->d.ctime = NowSeconds();
  ip->itable_buf = itable;
  CacheInode(ip);
  co_await MarkInodeDirty(proc, *ip);

  parent->d.nlink++;  // New subdirectory's "..".
  parent->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *parent);

  Result<EntryLoc> entry = co_await AddEntry(proc, *parent, pl.value().leaf, ino.value());
  if (!entry.Ok()) {
    co_return entry.status();
  }
  co_await policy_->SetupLinkAdd(proc, *parent, entry.value().buf, entry.value().offset, *ip,
                                 /*new_inode=*/true);
  stat_mkdirs_->Inc();
  co_return FsStatus::kOk;
}

Task<FsStatus> FileSystem::Link(Proc& proc, const std::string& existing,
                                const std::string& link_path) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall + config_.costs.create);
  Result<uint32_t> target = co_await Lookup(proc, existing);
  if (!target.Ok()) {
    co_return target.status();
  }
  Result<ParentLookup> pl = co_await LookupParent(proc, link_path);
  if (!pl.Ok()) {
    co_return pl.status();
  }
  InodeRef parent = pl.value().parent;
  LockGuard guard = co_await LockGuard::Acquire(&parent->lock);
  Result<EntryLoc> dup = co_await FindEntry(proc, *parent, pl.value().leaf);
  if (dup.Ok()) {
    co_return FsStatus::kExists;
  }
  InodeRef ip = co_await Iget(proc, target.value());
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  if (ip->d.IsDir()) {
    co_return FsStatus::kIsDirectory;
  }
  ip->d.nlink++;
  ip->d.ctime = NowSeconds();
  co_await MarkInodeDirty(proc, *ip);
  Result<EntryLoc> entry = co_await AddEntry(proc, *parent, pl.value().leaf, ip->ino);
  if (!entry.Ok()) {
    co_return entry.status();
  }
  parent->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *parent);
  co_await policy_->SetupLinkAdd(proc, *parent, entry.value().buf, entry.value().offset, *ip,
                                 /*new_inode=*/false);
  co_return FsStatus::kOk;
}

Task<FsStatus> FileSystem::Unlink(Proc& proc, const std::string& path) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall + config_.costs.remove);
  Result<ParentLookup> pl = co_await LookupParent(proc, path);
  if (!pl.Ok()) {
    co_return pl.status();
  }
  InodeRef parent = pl.value().parent;
  LockGuard guard = co_await LockGuard::Acquire(&parent->lock);

  Result<EntryLoc> loc = co_await FindEntry(proc, *parent, pl.value().leaf);
  if (!loc.Ok()) {
    co_return loc.status();
  }
  InodeRef ip = co_await Iget(proc, loc.value().ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  if (ip->d.IsDir()) {
    co_return FsStatus::kIsDirectory;
  }

  BufRef buf = loc.value().buf;
  co_await cache_->BeginUpdate(*buf);
  DirEntry old_entry = *buf->At<DirEntry>(loc.value().offset);
  memset(buf->At<DirEntry>(loc.value().offset), 0, kDirEntrySize);
  cache_->MarkDirty(*buf);
  parent->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *parent);

  co_await policy_->SetupLinkRemove(proc, *parent, buf, loc.value().offset, old_entry,
                                    loc.value().ino, /*rename=*/nullptr);
  stat_removes_->Inc();
  co_return FsStatus::kOk;
}

Task<FsStatus> FileSystem::Rmdir(Proc& proc, const std::string& path) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall + config_.costs.remove);
  Result<ParentLookup> pl = co_await LookupParent(proc, path);
  if (!pl.Ok()) {
    co_return pl.status();
  }
  InodeRef parent = pl.value().parent;
  LockGuard guard = co_await LockGuard::Acquire(&parent->lock);

  Result<EntryLoc> loc = co_await FindEntry(proc, *parent, pl.value().leaf);
  if (!loc.Ok()) {
    co_return loc.status();
  }
  InodeRef child = co_await Iget(proc, loc.value().ino);
  if (child == nullptr) {
    co_return FsStatus::kIoError;
  }
  if (!child->d.IsDir()) {
    co_return FsStatus::kNotDirectory;
  }
  LockGuard child_guard = co_await LockGuard::Acquire(&child->lock);
  Result<bool> empty = co_await DirIsEmpty(proc, *child);
  if (!empty.Ok()) {
    co_return empty.status();
  }
  if (!empty.value()) {
    co_return FsStatus::kNotEmpty;
  }

  BufRef buf = loc.value().buf;
  co_await cache_->BeginUpdate(*buf);
  DirEntry old_entry = *buf->At<DirEntry>(loc.value().offset);
  memset(buf->At<DirEntry>(loc.value().offset), 0, kDirEntrySize);
  cache_->MarkDirty(*buf);

  parent->d.nlink--;  // The removed child's "..".
  parent->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *parent);
  // The child's own links (self + parent entry) are both dropped by
  // ReleaseLink whenever the policy allows it; decrementing here would
  // let a low link count reach disk before the cleared entry does.
  child_guard.Release();

  co_await policy_->SetupLinkRemove(proc, *parent, buf, loc.value().offset, old_entry,
                                    loc.value().ino, /*rename=*/nullptr);
  stat_rmdirs_->Inc();
  co_return FsStatus::kOk;
}

Task<FsStatus> FileSystem::Rename(Proc& proc, const std::string& from, const std::string& to) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall + config_.costs.create);
  Result<ParentLookup> from_pl = co_await LookupParent(proc, from);
  if (!from_pl.Ok()) {
    co_return from_pl.status();
  }
  Result<ParentLookup> to_pl = co_await LookupParent(proc, to);
  if (!to_pl.Ok()) {
    co_return to_pl.status();
  }
  InodeRef from_dir = from_pl.value().parent;
  InodeRef to_dir = to_pl.value().parent;

  // Lock parents in ino order to avoid deadlock.
  LockGuard g1;
  LockGuard g2;
  if (from_dir->ino == to_dir->ino) {
    g1 = co_await LockGuard::Acquire(&from_dir->lock);
  } else if (from_dir->ino < to_dir->ino) {
    g1 = co_await LockGuard::Acquire(&from_dir->lock);
    g2 = co_await LockGuard::Acquire(&to_dir->lock);
  } else {
    g2 = co_await LockGuard::Acquire(&to_dir->lock);
    g1 = co_await LockGuard::Acquire(&from_dir->lock);
  }

  Result<EntryLoc> src = co_await FindEntry(proc, *from_dir, from_pl.value().leaf);
  if (!src.Ok()) {
    co_return src.status();
  }
  Result<EntryLoc> dst = co_await FindEntry(proc, *to_dir, to_pl.value().leaf);
  if (dst.Ok()) {
    co_return FsStatus::kExists;  // Replacement is not supported.
  }
  InodeRef ip = co_await Iget(proc, src.value().ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }

  // Rule 1 discipline, mirroring BSD: bump nlink so a crash between the
  // two entry writes leaves the count >= the number of on-disk entries.
  ip->d.nlink++;
  ip->d.ctime = NowSeconds();
  co_await MarkInodeDirty(proc, *ip);

  Result<EntryLoc> added = co_await AddEntry(proc, *to_dir, to_pl.value().leaf, ip->ino);
  if (!added.Ok()) {
    ip->d.nlink--;
    co_await MarkInodeDirty(proc, *ip);
    co_return added.status();
  }
  to_dir->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *to_dir);
  co_await policy_->SetupLinkAdd(proc, *to_dir, added.value().buf, added.value().offset, *ip,
                                 /*new_inode=*/false);

  // Remove the old name. AddEntry never relocates existing entries, so
  // the location found above is still valid.
  BufRef old_buf = src.value().buf;
  co_await cache_->BeginUpdate(*old_buf);
  DirEntry old_entry = *old_buf->At<DirEntry>(src.value().offset);
  memset(old_buf->At<DirEntry>(src.value().offset), 0, kDirEntrySize);
  cache_->MarkDirty(*old_buf);
  from_dir->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *from_dir);

  // Directory moves update the parent back-pointer and link counts.
  if (ip->d.IsDir() && from_dir->ino != to_dir->ino) {
    ip->d.spare[0] = to_dir->ino;
    co_await MarkInodeDirty(proc, *ip);
    from_dir->d.nlink--;
    to_dir->d.nlink++;
    co_await MarkInodeDirty(proc, *from_dir);
    co_await MarkInodeDirty(proc, *to_dir);
  }

  OrderingPolicy::RenameContext rctx{added.value().buf, added.value().offset, ip->ino};
  co_await policy_->SetupLinkRemove(proc, *from_dir, old_buf, src.value().offset, old_entry,
                                    ip->ino, &rctx);
  stat_renames_->Inc();
  co_return FsStatus::kOk;
}

Task<Result<uint32_t>> FileSystem::Lookup(Proc& proc, const std::string& path) {
  ++proc.fs_calls;
  stat_lookups_->Inc();
  co_await Charge(proc, config_.costs.syscall);
  Result<PathParts> parts = SplitPath(path);
  if (!parts.Ok()) {
    co_return parts.status();
  }
  if (parts.value().components.empty()) {
    co_return static_cast<uint32_t>(kRootIno);
  }
  Result<ParentLookup> pl = co_await LookupParent(proc, path);
  if (!pl.Ok()) {
    co_return pl.status();
  }
  co_await Charge(proc, config_.costs.name_component);
  co_return co_await LookupIn(proc, *pl.value().parent, pl.value().leaf);
}

Task<Result<StatInfo>> FileSystem::Stat(Proc& proc, const std::string& path) {
  Result<uint32_t> ino = co_await Lookup(proc, path);
  if (!ino.Ok()) {
    co_return ino.status();
  }
  co_return co_await StatIno(proc, ino.value());
}

Task<Result<StatInfo>> FileSystem::StatIno(Proc& proc, uint32_t ino) {
  InodeRef ip = co_await Iget(proc, ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  co_return StatInfo{ip->ino, ip->d.Type(), ip->d.nlink, ip->d.size, ip->d.generation};
}

Task<Result<std::vector<DirEntryInfo>>> FileSystem::ReadDir(Proc& proc,
                                                            const std::string& path) {
  ++proc.fs_calls;
  co_await Charge(proc, config_.costs.syscall);
  Result<uint32_t> ino = co_await Lookup(proc, path);
  if (!ino.Ok()) {
    co_return ino.status();
  }
  InodeRef dir = co_await Iget(proc, ino.value());
  if (dir == nullptr) {
    co_return FsStatus::kIoError;
  }
  if (!dir->d.IsDir()) {
    co_return FsStatus::kNotDirectory;
  }
  std::vector<DirEntryInfo> out;
  uint32_t nblocks = static_cast<uint32_t>((dir->d.size + kBlockSize - 1) / kBlockSize);
  for (uint32_t lbn = 0; lbn < nblocks; ++lbn) {
    co_await Charge(proc, config_.costs.dir_scan_block);
    Result<uint32_t> blk = co_await BlockMap(proc, *dir, lbn, /*alloc=*/false);
    if (!blk.Ok() || blk.value() == 0) {
      continue;
    }
    BufRef buf = co_await cache_->Bread(blk.value());
    if (buf == nullptr) {
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginRead(*buf);
    for (uint32_t e = 0; e < kDirEntriesPerBlock; ++e) {
      const DirEntry* de = buf->At<DirEntry>(e * kDirEntrySize);
      if (de->ino != 0) {
        out.push_back(DirEntryInfo{de->ino, std::string(de->Name())});
      }
    }
  }
  co_return out;
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

Task<Result<uint64_t>> FileSystem::WriteFile(Proc& proc, uint32_t ino, uint64_t offset,
                                             std::span<const uint8_t> data) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  stat_writes_->Inc();
  co_await Charge(proc, config_.costs.syscall +
                            config_.costs.per_kb_io *
                                static_cast<SimDuration>((data.size() + 1023) / 1024));
  InodeRef ip = co_await Iget(proc, ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  LockGuard guard = co_await LockGuard::Acquire(&ip->lock);
  if (ip->d.IsDir()) {
    co_return FsStatus::kIsDirectory;
  }

  uint64_t written = 0;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint32_t lbn = static_cast<uint32_t>(pos / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    uint64_t chunk = std::min<uint64_t>(kBlockSize - in_block, data.size() - written);

    Result<uint32_t> blk = co_await BlockMap(proc, *ip, lbn, /*alloc=*/true);
    if (!blk.Ok()) {
      co_return blk.status();
    }
    bool whole_block = in_block == 0 && chunk == kBlockSize;
    bool past_eof = pos >= ip->d.size;
    // NOTE: co_await must not appear inside a conditional expression -
    // GCC 12 double-destroys the awaited temporary (toolchain bug); use
    // statement form everywhere.
    BufRef buf;
    if (whole_block || past_eof) {
      buf = co_await cache_->Bget(blk.value());
    } else {
      buf = co_await cache_->Bread(blk.value());
    }
    if (buf == nullptr) {
      co_return FsStatus::kIoError;
    }
    co_await cache_->BeginUpdate(*buf);
    memcpy(buf->data().data() + in_block, data.data() + written, chunk);
    cache_->MarkDirty(*buf);
    written += chunk;
  }
  if (offset + written > ip->d.size) {
    ip->d.size = offset + written;
  }
  ip->d.mtime = NowSeconds();
  co_await MarkInodeDirty(proc, *ip);
  co_return written;
}

Task<Result<uint64_t>> FileSystem::ReadFile(Proc& proc, uint32_t ino, uint64_t offset,
                                            std::span<uint8_t> out) {
  ++proc.fs_calls;
  stat_reads_->Inc();
  InodeRef ip = co_await Iget(proc, ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  if (ip->d.IsDir()) {
    co_return FsStatus::kIsDirectory;
  }
  if (offset >= ip->d.size) {
    co_return static_cast<uint64_t>(0);
  }
  uint64_t want = std::min<uint64_t>(out.size(), ip->d.size - offset);
  co_await Charge(proc, config_.costs.syscall +
                            config_.costs.per_kb_io *
                                static_cast<SimDuration>((want + 1023) / 1024));
  uint64_t done = 0;
  while (done < want) {
    uint64_t pos = offset + done;
    uint32_t lbn = static_cast<uint32_t>(pos / kBlockSize);
    uint32_t in_block = static_cast<uint32_t>(pos % kBlockSize);
    uint64_t chunk = std::min<uint64_t>(kBlockSize - in_block, want - done);
    Result<uint32_t> blk = co_await BlockMap(proc, *ip, lbn, /*alloc=*/false);
    if (!blk.Ok()) {
      co_return blk.status();
    }
    if (blk.value() == 0) {
      memset(out.data() + done, 0, chunk);  // Hole.
    } else {
      BufRef buf = co_await cache_->Bread(blk.value());
      if (buf == nullptr) {
        co_return FsStatus::kIoError;
      }
      co_await cache_->BeginRead(*buf);
      memcpy(out.data() + done, buf->data().data() + in_block, chunk);
    }
    done += chunk;
  }
  co_return done;
}

Task<FsStatus> FileSystem::Truncate(Proc& proc, uint32_t ino, uint64_t new_size) {
  ++proc.fs_calls;
  co_await policy_->OpBegin(proc);
  OpGuard op(policy_);
  co_await Charge(proc, config_.costs.syscall);
  InodeRef ip = co_await Iget(proc, ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  LockGuard guard = co_await LockGuard::Acquire(&ip->lock);
  co_return co_await TruncateLocked(proc, *ip, new_size);
}

// ---------------------------------------------------------------------
// Sync
// ---------------------------------------------------------------------

Task<FsStatus> FileSystem::Fsync(Proc& proc, uint32_t ino) {
  ++proc.fs_calls;
  co_await Charge(proc, config_.costs.syscall);
  InodeRef ip = co_await Iget(proc, ino);
  if (ip == nullptr) {
    co_return FsStatus::kIoError;
  }
  co_await FlushInodeToBuffer(*ip);
  cache_->MarkDirty(*ip->itable_buf);
  co_await policy_->FlushAll(proc);
  co_return FsStatus::kOk;
}

Task<FsStatus> FileSystem::SyncEverything(Proc& proc) {
  ++proc.fs_calls;
  co_await policy_->FlushAll(proc);
  // Buffers whose final write failed terminally stay in the cache (dirty,
  // write_failed) and are excluded from flush passes; report them here so
  // callers learn the image is degraded rather than silently "clean".
  co_return io_degraded() ? FsStatus::kIoError : FsStatus::kOk;
}

}  // namespace mufs
