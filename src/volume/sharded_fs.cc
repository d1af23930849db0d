#include "src/volume/sharded_fs.h"

#include <cassert>
#include <cstring>
#include <set>
#include <utility>

#include "src/fsck/fsck.h"

namespace mufs {

ShardedFs::ShardedFs(Engine* engine, std::vector<FileSystem*> shards,
                     uint32_t ino_stride)
    : engine_(engine),
      shards_(std::move(shards)),
      ino_stride_(ino_stride),
      ns_mu_(engine) {
  assert(!shards_.empty());
  assert(ino_stride_ > 0);
}

uint32_t ShardedFs::HashLeaf(std::string_view leaf) {
  // FNV-1a, 32-bit.
  uint32_t h = 2166136261u;
  for (char c : leaf) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

std::string_view ShardedFs::Leaf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return path;
  }
  return std::string_view(path).substr(slash + 1);
}

Task<void> ShardedFs::MirrorBranch(FileSystem* fs, Proc* proc, DirOp op,
                                   const std::string* a, const std::string* b,
                                   FanState* fan) {
  FsStatus st = FsStatus::kOk;
  switch (op) {
    case DirOp::kMkdir:
      st = co_await fs->Mkdir(*proc, *a);
      break;
    case DirOp::kRmdir:
      st = co_await fs->Rmdir(*proc, *a);
      break;
    case DirOp::kRename:
      st = co_await fs->Rename(*proc, *a, *b);
      break;
  }
  if (fan->worst == FsStatus::kOk) {
    fan->worst = st;
  }
  if (--fan->remaining == 0) {
    fan->cv.NotifyAll();
  }
}

Task<FsStatus> ShardedFs::Broadcast(Proc& proc, DirOp op, const std::string& a,
                                    const std::string& b, size_t first) {
  // The mirrors are independent file systems on (with striping) different
  // spindle sets: run the branches concurrently and join. The caller's
  // frame outlives the join, so the branches may borrow its strings.
  FanState fan(engine_);
  fan.remaining = static_cast<int>(shards_.size() - first);
  if (fan.remaining == 0) {
    co_return FsStatus::kOk;
  }
  for (size_t s = first; s < shards_.size(); ++s) {
    engine_->Spawn(MirrorBranch(shards_[s], &proc, op, &a, &b, &fan), "shard-mirror");
  }
  while (fan.remaining > 0) {
    co_await fan.cv.Await();
  }
  co_return fan.worst;
}

Task<Result<uint32_t>> ShardedFs::Create(Proc& proc, const std::string& path) {
  size_t s = ShardOfPath(path);
  Result<uint32_t> r = co_await shards_[s]->Create(proc, path);
  if (!r.Ok()) {
    co_return r.status();
  }
  co_return EncodeIno(s, r.value());
}

Task<FsStatus> ShardedFs::Mkdir(Proc& proc, const std::string& path) {
  // Directories are mirrored: create the directory in every shard so any
  // shard can resolve paths through it. Shard 0 is the gatekeeper - its
  // result decides existence/validity before the mirrors are touched.
  LockGuard g = co_await LockGuard::Acquire(&ns_mu_);
  FsStatus s0 = co_await shards_[0]->Mkdir(proc, path);
  if (s0 != FsStatus::kOk) {
    co_return s0;
  }
  co_return co_await Broadcast(proc, DirOp::kMkdir, path, path, /*first=*/1);
}

Task<FsStatus> ShardedFs::Unlink(Proc& proc, const std::string& path) {
  co_return co_await shards_[ShardOfPath(path)]->Unlink(proc, path);
}

Task<FsStatus> ShardedFs::Rmdir(Proc& proc, const std::string& path) {
  // A mirrored directory is removable only when EVERY shard's mirror is
  // empty (each shard holds its own files); pre-check all shards before
  // mutating any, so a kNotEmpty cannot strand a half-removed mirror.
  LockGuard g = co_await LockGuard::Acquire(&ns_mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<std::vector<DirEntryInfo>> rd = co_await shards_[s]->ReadDir(proc, path);
    if (!rd.Ok()) {
      co_return rd.status();
    }
    if (!rd.value().empty()) {
      co_return FsStatus::kNotEmpty;
    }
  }
  co_return co_await Broadcast(proc, DirOp::kRmdir, path, path, /*first=*/0);
}

Task<FsStatus> ShardedFs::Rename(Proc& proc, const std::string& from,
                                 const std::string& to) {
  size_t s_from = ShardOfPath(from);
  size_t s_to = ShardOfPath(to);
  // Directories are mirrored in every shard (including s_from), so the
  // source shard's view is authoritative for the source's type.
  Result<StatInfo> src = co_await shards_[s_from]->Stat(proc, from);
  if (!src.Ok()) {
    co_return src.status();
  }
  if (src.value().type == FileType::kDirectory) {
    // Directory rename: broadcast to keep the mirrors identical. Reject
    // if the destination name is taken by a regular file in its shard
    // (the other shards cannot see it, but the rename must).
    LockGuard g = co_await LockGuard::Acquire(&ns_mu_);
    Result<StatInfo> dst = co_await shards_[s_to]->Stat(proc, to);
    if (dst.Ok() && dst.value().type == FileType::kRegular) {
      co_return FsStatus::kExists;
    }
    co_return co_await Broadcast(proc, DirOp::kRename, from, to, /*first=*/0);
  }
  if (s_from == s_to) {
    co_return co_await shards_[s_from]->Rename(proc, from, to);
  }
  // Regular-file migration touches no directory structure, so it runs
  // outside the namespace lock: its per-shard operations are internally
  // consistent, and a concurrent rmdir of the destination's parent just
  // fails the Create (source intact - the unlink comes last).
  co_return co_await CrossShardRename(proc, from, to, s_from, s_to);
}

Task<FsStatus> ShardedFs::CrossShardRename(Proc& proc, const std::string& from,
                                           const std::string& to, size_t s_from,
                                           size_t s_to) {
  // Two-shard ordered protocol, non-replacing like FileSystem::Rename:
  //   1. copy the file into the destination shard under the new name,
  //   2. force the destination shard's copy durable (barrier),
  //   3. unlink the source name in the source shard.
  // The barrier orders "new name durable" before "old name removed", so
  // a crash at ANY point leaves the file reachable under at least one of
  // the two names, and each shard's own ordering scheme keeps that
  // shard's metadata fsck-consistent.
  Result<StatInfo> src = co_await shards_[s_from]->Stat(proc, from);
  if (!src.Ok()) {
    co_return src.status();
  }
  if (src.value().type != FileType::kRegular) {
    co_return FsStatus::kIsDirectory;
  }
  Result<StatInfo> dst = co_await shards_[s_to]->Stat(proc, to);
  if (dst.Ok()) {
    co_return FsStatus::kExists;
  }
  if (dst.status() != FsStatus::kNotFound) {
    co_return dst.status();
  }
  std::vector<uint8_t> data(src.value().size);
  if (!data.empty()) {
    Result<uint64_t> rd =
        co_await shards_[s_from]->ReadFile(proc, src.value().ino, 0, data);
    if (!rd.Ok()) {
      co_return rd.status();
    }
    data.resize(rd.value());
  }
  Result<uint32_t> created = co_await shards_[s_to]->Create(proc, to);
  if (!created.Ok()) {
    co_return created.status();
  }
  Result<StatInfo> created_st = co_await shards_[s_to]->StatIno(proc, created.value());
  if (!created_st.Ok()) {
    co_return created_st.status();
  }
  // The file is now owned by a new inode in a new shard: restamp any
  // workload data-block tags with the destination's GLOBAL inode number
  // and generation, so fsck's stale-data check accepts the migrated
  // blocks. Untagged blocks pass through byte-identical.
  for (uint64_t off = 0; off + sizeof(DataBlockTag) <= data.size(); off += kBlockSize) {
    DataBlockTag tag;
    std::memcpy(&tag, data.data() + off, sizeof(tag));
    if (tag.magic == kDataTagMagic) {
      tag.ino = EncodeIno(s_to, created.value());
      tag.generation = created_st.value().generation;
      std::memcpy(data.data() + off, &tag, sizeof(tag));
    }
  }
  if (!data.empty()) {
    Result<uint64_t> wr =
        co_await shards_[s_to]->WriteFile(proc, created.value(), 0, data);
    if (!wr.Ok()) {
      co_return wr.status();
    }
  }
  // Barrier: force the destination durable (Fsync drains the shard's
  // dirty state through its ordering policy) before the source name can
  // be removed. The two shards have independent ordering domains -
  // without this, the source's unlink could reach stable storage first
  // and a crash would lose the file. Schemes whose metadata updates are
  // synchronous (Conventional) already persisted the destination entry
  // inside Create, so the explicit barrier is elided.
  if (!shards_[s_to]->policy()->MetadataSynchronous()) {
    FsStatus barrier = co_await shards_[s_to]->Fsync(proc, created.value());
    if (barrier != FsStatus::kOk) {
      co_return barrier;
    }
  }
  co_return co_await shards_[s_from]->Unlink(proc, from);
}

Task<FsStatus> ShardedFs::Link(Proc& proc, const std::string& existing,
                               const std::string& link_path) {
  size_t s_from = ShardOfPath(existing);
  size_t s_to = ShardOfPath(link_path);
  if (s_from != s_to) {
    // A hard link cannot span shards (one inode, two ordering domains).
    co_return FsStatus::kBusy;
  }
  co_return co_await shards_[s_from]->Link(proc, existing, link_path);
}

Task<Result<uint32_t>> ShardedFs::Lookup(Proc& proc, const std::string& path) {
  Result<StatInfo> st = co_await Stat(proc, path);
  if (!st.Ok()) {
    co_return st.status();
  }
  co_return st.value().ino;
}

Task<Result<StatInfo>> ShardedFs::Stat(Proc& proc, const std::string& path) {
  size_t s = ShardOfPath(path);
  Result<StatInfo> st = co_await shards_[s]->Stat(proc, path);
  if (!st.Ok()) {
    co_return st.status();
  }
  if (st.value().type == FileType::kDirectory && s != 0) {
    // Directory inode numbers are canonically shard 0's mirror.
    co_return co_await shards_[0]->Stat(proc, path);
  }
  StatInfo info = st.value();
  info.ino = EncodeIno(s, info.ino);
  co_return info;
}

Task<Result<StatInfo>> ShardedFs::StatIno(Proc& proc, uint32_t ino) {
  size_t s = ShardOfIno(ino);
  if (s >= shards_.size()) {
    co_return FsStatus::kInvalid;
  }
  Result<StatInfo> st = co_await shards_[s]->StatIno(proc, LocalIno(ino));
  if (!st.Ok()) {
    co_return st.status();
  }
  StatInfo info = st.value();
  info.ino = ino;
  co_return info;
}

Task<Result<std::vector<DirEntryInfo>>> ShardedFs::ReadDir(Proc& proc,
                                                           const std::string& path) {
  // Union of all shards' listings. Directory entries are mirrored and
  // appear in every shard - shard 0 (visited first) wins the dedupe, so
  // mirrored directories report their canonical shard-0 inode numbers.
  std::vector<DirEntryInfo> out;
  std::set<std::string> seen;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Result<std::vector<DirEntryInfo>> rd = co_await shards_[s]->ReadDir(proc, path);
    if (!rd.Ok()) {
      co_return rd.status();
    }
    for (DirEntryInfo& e : rd.value()) {
      if (seen.insert(e.name).second) {
        out.push_back({EncodeIno(s, e.ino), std::move(e.name)});
      }
    }
  }
  co_return out;
}

Task<Result<uint64_t>> ShardedFs::WriteFile(Proc& proc, uint32_t ino, uint64_t offset,
                                            std::span<const uint8_t> data) {
  size_t s = ShardOfIno(ino);
  if (s >= shards_.size()) {
    co_return FsStatus::kInvalid;
  }
  co_return co_await shards_[s]->WriteFile(proc, LocalIno(ino), offset, data);
}

Task<Result<uint64_t>> ShardedFs::ReadFile(Proc& proc, uint32_t ino, uint64_t offset,
                                           std::span<uint8_t> out) {
  size_t s = ShardOfIno(ino);
  if (s >= shards_.size()) {
    co_return FsStatus::kInvalid;
  }
  co_return co_await shards_[s]->ReadFile(proc, LocalIno(ino), offset, out);
}

Task<FsStatus> ShardedFs::Truncate(Proc& proc, uint32_t ino, uint64_t new_size) {
  size_t s = ShardOfIno(ino);
  if (s >= shards_.size()) {
    co_return FsStatus::kInvalid;
  }
  co_return co_await shards_[s]->Truncate(proc, LocalIno(ino), new_size);
}

Task<FsStatus> ShardedFs::Fsync(Proc& proc, uint32_t ino) {
  size_t s = ShardOfIno(ino);
  if (s >= shards_.size()) {
    co_return FsStatus::kInvalid;
  }
  co_return co_await shards_[s]->Fsync(proc, LocalIno(ino));
}

Task<FsStatus> ShardedFs::SyncEverything(Proc& proc) {
  FsStatus worst = FsStatus::kOk;
  for (FileSystem* fs : shards_) {
    FsStatus st = co_await fs->SyncEverything(proc);
    if (worst == FsStatus::kOk) {
      worst = st;
    }
  }
  co_return worst;
}

bool ShardedFs::io_degraded() const {
  for (FileSystem* fs : shards_) {
    if (fs->io_degraded()) {
      return true;
    }
  }
  return false;
}

bool ShardedFs::AnyDirtyInode() const {
  for (FileSystem* fs : shards_) {
    if (fs->AnyDirtyInode()) {
      return true;
    }
  }
  return false;
}

void ShardedFs::DropCleanInodes() {
  for (FileSystem* fs : shards_) {
    fs->DropCleanInodes();
  }
}

}  // namespace mufs
