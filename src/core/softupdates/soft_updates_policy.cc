#include "src/core/softupdates/soft_updates_policy.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

namespace mufs {

SoftUpdatesPolicy::SoftUpdatesPolicy() {
  sys_proc_.pid = kSystemPid;
  sys_proc_.name = "softdep";
}

SoftUpdatesPolicy::~SoftUpdatesPolicy() = default;

void SoftUpdatesPolicy::Attach(FileSystem* fs) {
  OrderingPolicy::Attach(fs);
  stat_alloc_deps_ = &stats()->counter("su.alloc_deps");
  stat_dir_adds_ = &stats()->counter("su.dir_adds");
  stat_dir_rems_ = &stats()->counter("su.dir_rems");
  stat_cancelled_pairs_ = &stats()->counter("su.cancelled_pairs");
  stat_undos_ = &stats()->counter("su.undos");
  stat_redos_ = &stats()->counter("su.redos");
  stat_deferred_frees_ = &stats()->counter("su.deferred_frees");
  stat_workitems_ = &stats()->counter("su.workitems");
}

SoftUpdatesPolicy::BlockDeps* SoftUpdatesPolicy::FindDeps(uint32_t blkno) {
  auto it = deps_.find(blkno);
  return it == deps_.end() ? nullptr : &it->second;
}

void SoftUpdatesPolicy::MaybeErase(uint32_t blkno) {
  auto it = deps_.find(blkno);
  if (it != deps_.end() && it->second.Empty() && !it->second.write_in_flight) {
    deps_.erase(it);
  }
}

void SoftUpdatesPolicy::PinInode(uint32_t ino) {
  InodeRef ip = fs()->IgetCached(ino);
  assert(ip != nullptr);
  ip->dep_pin++;
}

void SoftUpdatesPolicy::UnpinInode(uint32_t ino) {
  InodeRef ip = fs()->IgetCached(ino);
  if (ip != nullptr) {
    assert(ip->dep_pin > 0);
    ip->dep_pin--;
  }
}

bool SoftUpdatesPolicy::HasPendingDeps() const {
  if (!newblk_.empty()) {
    return true;
  }
  for (const auto& [blkno, bd] : deps_) {
    if (!bd.Empty()) {
      return true;
    }
  }
  return false;
}

bool SoftUpdatesPolicy::DirSlotBusy(uint32_t blkno, uint32_t offset) const {
  auto it = deps_.find(blkno);
  if (it == deps_.end()) {
    return false;
  }
  for (const auto& rm : it->second.rems) {
    if (rm->offset == offset && rm->wait_add != nullptr) {
      return true;  // Rename hold: the slot's old entry may be restored.
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Setup hooks (the four structural changes)
// ---------------------------------------------------------------------

namespace {

// Byte offset of the block pointer within its carrier block.
uint32_t PointerOffset(const SuperBlock& sb, const Inode& ip, const PtrLoc& loc) {
  switch (loc.kind) {
    case PtrLoc::Kind::kInodeDirect:
      return sb.ItableOffset(ip.ino) +
             static_cast<uint32_t>(offsetof(DiskInode, direct)) + loc.index * 4;
    case PtrLoc::Kind::kInodeIndirect:
      return sb.ItableOffset(ip.ino) + static_cast<uint32_t>(offsetof(DiskInode, indirect));
    case PtrLoc::Kind::kInodeDouble:
      return sb.ItableOffset(ip.ino) +
             static_cast<uint32_t>(offsetof(DiskInode, double_indirect));
    case PtrLoc::Kind::kIndirectSlot:
      return loc.index * 4;
  }
  return 0;
}

}  // namespace

Task<void> SoftUpdatesPolicy::SetupAllocation(Proc& proc, Inode& ip, BufRef data_buf, PtrLoc loc,
                                              bool init_required,
                                              BlockRole role) {
  (void)role;
  NoteOrderingPoint("alloc", init_required ? "dep_record" : "delayed");
  if (!init_required) {
    // Alloc-init disabled for plain file data (the paper's "N" rows):
    // the pointer may reach disk before the data block does.
    co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
    co_return;
  }
  auto dep = std::make_unique<AllocDep>();
  dep->kind = loc.kind;
  dep->owner_ino = ip.ino;
  dep->new_blkno = data_buf->blkno();
  dep->old_blkno = 0;
  dep->old_size = ip.d.size;
  dep->data_pin = data_buf;
  dep->ptr_offset = PointerOffset(fs()->sb(), ip, loc);
  uint32_t carrier;
  if (loc.kind == PtrLoc::Kind::kIndirectSlot) {
    carrier = loc.indirect_buf->blkno();
    BlockDeps& cbd = DepsFor(carrier);
    if (cbd.safe_copy == nullptr) {
      // indirdep: snapshot the on-disk-consistent contents before the new
      // pointer lands in the live buffer; keep the block resident.
      cbd.safe_copy = std::make_shared<BlockData>(loc.indirect_buf->data());
      cbd.pinned = loc.indirect_buf;
    }
  } else {
    carrier = fs()->sb().ItableBlock(ip.ino);
  }
  dep->carrier_blkno = carrier;
  newblk_[data_buf->blkno()] = dep.get();
  PinInode(ip.ino);
  DepsFor(carrier).allocs.push_back(std::move(dep));
  stat_alloc_deps_->Inc();
  // Now the pointer may enter the live carrier (undo protects it).
  co_await fs()->CommitBlockPointer(proc, ip, loc, data_buf->blkno());
}

Task<void> SoftUpdatesPolicy::SetupBlockFree(Proc& proc, Inode& ip, std::vector<uint32_t> blocks,
                                             std::vector<BufRef> updated_indirects) {
  (void)proc;
  NoteOrderingPoint("block_free", "dep_record");
  // Cancel outstanding allocation dependencies for blocks being freed
  // (paper: "outstanding alloc and allocsafe dependencies for
  // de-allocated blocks are freed at this point").
  for (uint32_t blk : blocks) {
    auto it = newblk_.find(blk);
    if (it == newblk_.end()) {
      continue;
    }
    AllocDep* dep = it->second;
    // Read before the erase below destroys `dep`.
    const uint32_t carrier = dep->carrier_blkno;
    BlockDeps* cbd = FindDeps(carrier);
    if (cbd != nullptr) {
      UnpinInode(dep->owner_ino);
      std::erase_if(cbd->allocs,
                    [dep](const std::unique_ptr<AllocDep>& d) { return d.get() == dep; });
      MaybeErase(carrier);
    }
    newblk_.erase(it);
  }

  // freeblocks: defer the bitmap frees until every carrier holding reset
  // pointers has been written.
  auto f = std::make_shared<PendingFree>();
  f->blocks = std::move(blocks);
  std::vector<uint32_t> carriers;
  carriers.push_back(fs()->sb().ItableBlock(ip.ino));
  for (const BufRef& ibuf : updated_indirects) {
    carriers.push_back(ibuf->blkno());
  }
  f->remaining_carriers = static_cast<int>(carriers.size());
  for (uint32_t c : carriers) {
    DepsFor(c).frees.push_back(FreeRef{f});
  }
  stat_deferred_frees_->Inc();
  if (stats()->tracing()) {
    stats()->Trace("su.deferred_free", {{"kind", "blocks"},
                                        {"n", f->blocks.size()},
                                        {"carriers", carriers.size()}});
  }
  co_return;
}

Task<void> SoftUpdatesPolicy::SetupLinkAdd(BufRef dir_buf, uint32_t offset, Inode& target,
                                           bool new_inode) {
  (void)new_inode;
  NoteOrderingPoint("link_add", "dep_record");
  auto add = std::make_unique<DirAddDep>();
  add->dir_blkno = dir_buf->blkno();
  add->offset = offset;
  add->new_ino = target.ino;
  add->itable_blkno = fs()->sb().ItableBlock(target.ino);
  inode_waiters_[add->itable_blkno].push_back(add.get());
  PinInode(target.ino);
  DepsFor(add->dir_blkno).adds.push_back(std::move(add));
  stat_dir_adds_->Inc();
  co_return;
}

Task<void> SoftUpdatesPolicy::SetupLinkRemove(Proc& proc, BufRef dir_buf, uint32_t offset,
                                              DirEntry old_entry, uint32_t removed_ino,
                                              const RenameContext* rename) {
  NoteOrderingPoint("link_remove", rename != nullptr ? "dep_record_rename" : "dep_record");
  BlockDeps* bd = FindDeps(dir_buf->blkno());
  if (bd != nullptr) {
    // Cancellation: removing an entry whose addition never reached disk.
    // Both dependencies disappear and the removal completes with no disk
    // writes at all (the create/remove fast path of figure 5c).
    for (auto it = bd->adds.begin(); it != bd->adds.end(); ++it) {
      if ((*it)->offset == offset && (*it)->new_ino == removed_ino) {
        FinishAdd(it->get());
        bd->adds.erase(it);
        MaybeErase(dir_buf->blkno());
        stat_cancelled_pairs_->Inc();
        co_await fs()->ReleaseLink(proc, removed_ino);
        co_return;
      }
    }
  }

  auto rem = std::make_unique<DirRemDep>();
  rem->dir_blkno = dir_buf->blkno();
  rem->offset = offset;
  rem->removed_ino = removed_ino;
  rem->old_entry = old_entry;
  if (rename != nullptr) {
    // Rule 1: hold the removal until the new entry is on disk.
    BlockDeps* nbd = FindDeps(rename->new_dir_buf->blkno());
    if (nbd != nullptr) {
      for (auto& add : nbd->adds) {
        if (add->offset == rename->new_offset && add->new_ino == rename->moved_ino) {
          rem->wait_add = add.get();
          add->rename_waiter = rem.get();
          break;
        }
      }
    }
  }
  DepsFor(rem->dir_blkno).rems.push_back(std::move(rem));
  stat_dir_rems_->Inc();
  co_return;  // ReleaseLink runs from the workitem queue later.
}

Task<void> SoftUpdatesPolicy::SetupInodeFree(Proc& proc, Inode& ip) {
  (void)proc;
  NoteOrderingPoint("inode_free", "dep_record");
  // freefile: the inode bitmap bit clears only after the reset inode
  // (mode 0) reaches stable storage.
  auto f = std::make_shared<PendingFree>();
  f->is_inode = true;
  f->ino = ip.ino;
  f->remaining_carriers = 1;
  DepsFor(fs()->sb().ItableBlock(ip.ino)).frees.push_back(FreeRef{f});
  stat_deferred_frees_->Inc();
  if (stats()->tracing()) {
    stats()->Trace("su.deferred_free", {{"kind", "inode"}, {"ino", ip.ino}});
  }
  co_return;
}

// ---------------------------------------------------------------------
// Write-time undo / completion-time redo
// ---------------------------------------------------------------------

std::shared_ptr<const BlockData> SoftUpdatesPolicy::PrepareWrite(Buf& buf) {
  // addsafe capture is independent of whether the block itself carries
  // dependency records: any write of an inode-table block captures the
  // (serialized) inodes that directory adds are waiting on.
  auto wit_capture = inode_waiters_.find(buf.blkno());
  if (wit_capture != inode_waiters_.end()) {
    for (DirAddDep* ad : wit_capture->second) {
      ad->inode_captured = true;
    }
  }
  auto it = deps_.find(buf.blkno());
  if (it == deps_.end()) {
    return nullptr;
  }
  BlockDeps& bd = it->second;
  bd.write_in_flight = true;

  if (bd.safe_copy != nullptr) {
    // indirdep: the safe copy (old-consistent pointers) is the source.
    return bd.safe_copy;
  }

  // Inode-table carriers: undo pointers whose blocks are uninitialized.
  for (auto& ad : bd.allocs) {
    if (!ad->init_done) {
      memcpy(buf.data().data() + ad->ptr_offset, &ad->old_blkno, sizeof(uint32_t));
      if (ad->kind == PtrLoc::Kind::kInodeDirect) {
        uint32_t size_off = fs()->sb().ItableOffset(ad->owner_ino) +
                            static_cast<uint32_t>(offsetof(DiskInode, size));
        uint64_t* szp = buf.At<uint64_t>(size_off);
        if (*szp > ad->old_size) {
          *szp = ad->old_size;
        }
      }
      ad->undone_in_flight = true;
      stat_undos_->Inc();
      if (stats()->tracing()) {
        stats()->Trace("su.rollback", {{"kind", "alloc"}, {"blkno", buf.blkno()}});
      }
    } else {
      ad->captured = true;
    }
  }
  for (FreeRef& fr : bd.frees) {
    if (!fr.done) {
      fr.captured = true;
    }
  }
  // Directory blocks: undo entries whose inodes are not yet on disk, and
  // removals held by a rename.
  for (auto& ad : bd.adds) {
    if (!ad->inode_written) {
      *buf.At<uint32_t>(ad->offset) = 0;  // Entry "unused".
      ad->undone_in_flight = true;
      buf.MarkRolledBack();
      stat_undos_->Inc();
      if (stats()->tracing()) {
        stats()->Trace("su.rollback", {{"kind", "dir_add"}, {"blkno", buf.blkno()}});
      }
    } else {
      ad->captured = true;
    }
  }
  for (auto& rm : bd.rems) {
    if (rm->wait_add != nullptr) {
      memcpy(buf.data().data() + rm->offset, &rm->old_entry, sizeof(DirEntry));
      rm->undone_in_flight = true;
      buf.MarkRolledBack();
      stat_undos_->Inc();
      if (stats()->tracing()) {
        stats()->Trace("su.rollback", {{"kind", "dir_rem"}, {"blkno", buf.blkno()}});
      }
    } else {
      rm->captured = true;
    }
  }
  return nullptr;
}

void SoftUpdatesPolicy::CompleteNewBlock(Buf& buf) {
  auto it = newblk_.find(buf.blkno());
  if (it == newblk_.end() || it->second->data_pin.get() != &buf) {
    return;  // Not a pending new block (or a stale same-number buffer).
  }
  AllocDep* ad = it->second;
  ad->init_done = true;
  ad->data_pin.reset();  // The block may be evicted from now on.
  newblk_.erase(it);
  if (ad->kind == PtrLoc::Kind::kIndirectSlot) {
    // allocindirect: fold the now-safe pointer into the safe copy and
    // retire the dependency immediately (paper appendix).
    BlockDeps* cbd = FindDeps(ad->carrier_blkno);
    if (cbd != nullptr && cbd->safe_copy != nullptr) {
      memcpy(cbd->safe_copy->data() + ad->ptr_offset, &ad->new_blkno, sizeof(uint32_t));
    }
    uint32_t carrier = ad->carrier_blkno;
    UnpinInode(ad->owner_ino);
    if (cbd != nullptr) {
      std::erase_if(cbd->allocs,
                    [ad](const std::unique_ptr<AllocDep>& d) { return d.get() == ad; });
    }
    fs()->cache()->MarkDirty(carrier);
  } else {
    // allocdirect: the carrier must be written (again) with the pointer.
    fs()->cache()->MarkDirty(ad->carrier_blkno);
  }
}

void SoftUpdatesPolicy::FinishAdd(DirAddDep* add) {
  UnpinInode(add->new_ino);
  RemoveInodeWaiter(add);
  if (add->rename_waiter != nullptr) {
    add->rename_waiter->wait_add = nullptr;
    fs()->cache()->MarkDirty(add->rename_waiter->dir_blkno);
    add->rename_waiter = nullptr;
  }
}

void SoftUpdatesPolicy::RemoveInodeWaiter(DirAddDep* add) {
  auto it = inode_waiters_.find(add->itable_blkno);
  if (it != inode_waiters_.end()) {
    std::erase(it->second, add);
    if (it->second.empty()) {
      inode_waiters_.erase(it);
    }
  }
}

void SoftUpdatesPolicy::QueueRemWorkitem(DirRemDep* rem) {
  uint32_t ino = rem->removed_ino;
  stat_workitems_->Inc();
  fs()->syncer()->EnqueueWork([this, ino]() -> Task<void> {
    co_await fs()->ReleaseLink(sys_proc_, ino);
  });
}

void SoftUpdatesPolicy::QueueFreeWorkitem(const std::shared_ptr<PendingFree>& f) {
  stat_workitems_->Inc();
  fs()->syncer()->EnqueueWork([this, f]() -> Task<void> {
    if (f->is_inode) {
      co_await fs()->FreeInodeInBitmap(sys_proc_, f->ino);
    } else {
      // Deps owned by the de-allocated blocks complete now (paper: "this
      // applies only to directory blocks").
      for (uint32_t blk : f->blocks) {
        co_await CompleteDepsOwnedBy(blk);
      }
      co_await fs()->FreeBlocksInBitmap(sys_proc_, f->blocks);
    }
  });
}

Task<void> SoftUpdatesPolicy::CompleteDepsOwnedBy(uint32_t blkno) {
  BlockDeps* bd = FindDeps(blkno);
  if (bd == nullptr) {
    co_return;
  }
  std::vector<std::unique_ptr<DirAddDep>> adds = std::move(bd->adds);
  std::vector<std::unique_ptr<DirRemDep>> rems = std::move(bd->rems);
  bd->adds.clear();
  bd->rems.clear();
  for (auto& add : adds) {
    FinishAdd(add.get());
  }
  for (auto& rm : rems) {
    if (rm->wait_add != nullptr) {
      rm->wait_add->rename_waiter = nullptr;
    }
    co_await fs()->ReleaseLink(sys_proc_, rm->removed_ino);
  }
  MaybeErase(blkno);
}

void SoftUpdatesPolicy::WriteDone(Buf& buf) {
  CompleteNewBlock(buf);

  // addsafe: inodes in this block reached disk (independent of deps_).
  auto wit = inode_waiters_.find(buf.blkno());
  if (wit != inode_waiters_.end()) {
    auto& waiters = wit->second;
    for (auto w_it = waiters.begin(); w_it != waiters.end();) {
      DirAddDep* ad = *w_it;
      if (ad->inode_captured) {
        ad->inode_written = true;
        fs()->cache()->MarkDirty(ad->dir_blkno);
        w_it = waiters.erase(w_it);
      } else {
        ++w_it;
      }
    }
    if (waiters.empty()) {
      inode_waiters_.erase(wit);
    }
  }

  auto it = deps_.find(buf.blkno());
  if (it == deps_.end()) {
    return;
  }
  BlockDeps& bd = it->second;
  bd.write_in_flight = false;

  // allocdirect completion / redo.
  for (auto ad_it = bd.allocs.begin(); ad_it != bd.allocs.end();) {
    AllocDep* ad = ad_it->get();
    if (ad->undone_in_flight) {
      // Redo: refresh the buffer from the pinned in-core inode.
      InodeRef ip = fs()->IgetCached(ad->owner_ino);
      if (ip != nullptr && ad->kind != PtrLoc::Kind::kIndirectSlot) {
        memcpy(buf.data().data() + fs()->sb().ItableOffset(ad->owner_ino), &ip->d,
               sizeof(DiskInode));
      }
      ad->undone_in_flight = false;
      stat_redos_->Inc();
      if (stats()->tracing()) {
        stats()->Trace("su.redo", {{"kind", "alloc"}, {"blkno", buf.blkno()}});
      }
      ++ad_it;
    } else if (ad->captured && ad->init_done) {
      UnpinInode(ad->owner_ino);
      ad_it = bd.allocs.erase(ad_it);
    } else {
      ad->captured = false;
      ++ad_it;
    }
  }

  // freeblocks / freefile.
  for (auto fr_it = bd.frees.begin(); fr_it != bd.frees.end();) {
    if (fr_it->captured && !fr_it->done) {
      fr_it->done = true;
      if (--fr_it->free->remaining_carriers == 0) {
        QueueFreeWorkitem(fr_it->free);
      }
      fr_it = bd.frees.erase(fr_it);
    } else {
      ++fr_it;
    }
  }

  // Directory adds: redo undone entries; retire entries now on disk.
  for (auto ad_it = bd.adds.begin(); ad_it != bd.adds.end();) {
    DirAddDep* ad = ad_it->get();
    if (ad->undone_in_flight) {
      *buf.At<uint32_t>(ad->offset) = ad->new_ino;
      ad->undone_in_flight = false;
      stat_redos_->Inc();
      if (stats()->tracing()) {
        stats()->Trace("su.redo", {{"kind", "dir_add"}, {"blkno", buf.blkno()}});
      }
      ++ad_it;
    } else if (ad->captured) {
      FinishAdd(ad);
      ad_it = bd.adds.erase(ad_it);
    } else {
      ++ad_it;
    }
  }

  // Directory removals: redo held ones; queue link-count work for the
  // ones whose cleared entry is now on stable storage.
  for (auto rm_it = bd.rems.begin(); rm_it != bd.rems.end();) {
    DirRemDep* rm = rm_it->get();
    if (rm->undone_in_flight) {
      memset(buf.data().data() + rm->offset, 0, sizeof(DirEntry));
      rm->undone_in_flight = false;
      stat_redos_->Inc();
      if (stats()->tracing()) {
        stats()->Trace("su.redo", {{"kind", "dir_rem"}, {"blkno", buf.blkno()}});
      }
      ++rm_it;
    } else if (rm->captured) {
      QueueRemWorkitem(rm);
      rm_it = bd.rems.erase(rm_it);
    } else {
      ++rm_it;
    }
  }

  // indirdep retirement: no pending allocindirects -> drop the safe copy.
  if (bd.safe_copy != nullptr && bd.allocs.empty()) {
    bd.safe_copy.reset();
    bd.pinned.reset();
  }
  MaybeErase(buf.blkno());
}

void SoftUpdatesPolicy::WriteAborted(Buf& buf) {
  // The write never reached stable storage: undo the undos (restore the
  // in-memory truth in the re-dirtied buffer) and reset capture state, but
  // retire NOTHING - every dependency waits for the next, successful write.
  auto wit = inode_waiters_.find(buf.blkno());
  if (wit != inode_waiters_.end()) {
    for (DirAddDep* ad : wit->second) {
      ad->inode_captured = false;
    }
  }
  auto it = deps_.find(buf.blkno());
  if (it == deps_.end()) {
    return;
  }
  BlockDeps& bd = it->second;
  bd.write_in_flight = false;
  for (auto& ad : bd.allocs) {
    if (ad->undone_in_flight) {
      InodeRef ip = fs()->IgetCached(ad->owner_ino);
      if (ip != nullptr && ad->kind != PtrLoc::Kind::kIndirectSlot) {
        memcpy(buf.data().data() + fs()->sb().ItableOffset(ad->owner_ino), &ip->d,
               sizeof(DiskInode));
      }
      ad->undone_in_flight = false;
      stat_redos_->Inc();
    }
    ad->captured = false;
  }
  for (FreeRef& fr : bd.frees) {
    if (!fr.done) {
      fr.captured = false;
    }
  }
  for (auto& ad : bd.adds) {
    if (ad->undone_in_flight) {
      *buf.At<uint32_t>(ad->offset) = ad->new_ino;
      ad->undone_in_flight = false;
      stat_redos_->Inc();
    }
    ad->captured = false;
  }
  for (auto& rm : bd.rems) {
    if (rm->undone_in_flight) {
      memset(buf.data().data() + rm->offset, 0, sizeof(DirEntry));
      rm->undone_in_flight = false;
      stat_redos_->Inc();
    }
    rm->captured = false;
  }
}

void SoftUpdatesPolicy::BufferAccessed(Buf& buf) {
  BlockDeps* bd = FindDeps(buf.blkno());
  if (bd == nullptr || bd->write_in_flight) {
    return;
  }
  // The block may have been evicted and re-read while dependencies were
  // pending: re-apply the in-memory truth. (Entry names persist even for
  // undone adds - only the inode number field is zeroed on disk.)
  for (auto& ad : bd->adds) {
    uint32_t* inop = buf.At<uint32_t>(ad->offset);
    if (*inop != ad->new_ino) {
      *inop = ad->new_ino;
      if (ad->inode_written) {
        fs()->cache()->MarkDirty(buf);
      }
    }
  }
  for (auto& rm : bd->rems) {
    // A later create may have reused the removed entry's slot. Its
    // pending add, restored above, is then the in-memory truth there.
    // (A rename-held removal's slot is never reused, see DirSlotBusy, so
    // PrepareWrite's restore of an old entry cannot meet a new one.)
    if (std::any_of(bd->adds.begin(), bd->adds.end(),
                    [&rm](const std::unique_ptr<DirAddDep>& ad) {
                      return ad->offset == rm->offset;
                    })) {
      continue;
    }
    uint32_t* inop = buf.At<uint32_t>(rm->offset);
    if (*inop != 0) {
      *inop = 0;  // The removal is the in-memory truth.
    }
  }
}

Task<void> SoftUpdatesPolicy::FlushAll(Proc& proc) {
  for (int round = 0; round < 200; ++round) {
    co_await OrderingPolicy::FlushAll(proc);
    if (!HasPendingDeps()) {
      co_return;
    }
    // Dependencies outstanding: give completions a beat and retry.
    co_await fs()->engine()->Sleep(Msec(1));
  }
}

}  // namespace mufs
