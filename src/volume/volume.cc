#include "src/volume/volume.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mufs {

StripedVolume::StripedVolume(Engine* engine, std::vector<DiskDriver*> disks,
                             StatsRegistry* stats, VolumeConfig config)
    : disks_(std::move(disks)),
      config_(config),
      gate_(engine, config.ordering),
      all_done_(engine),
      stat_reads_(&stats->counter("volume.reads")),
      stat_writes_(&stats->counter("volume.writes")),
      stat_splits_(&stats->counter("volume.splits")),
      stat_held_(&stats->counter("volume.held")) {
  assert(!disks_.empty());
  assert(config_.layout.disks == disks_.size());
  assert(config_.layout.stripe_unit > 0);
}

uint64_t StripedVolume::IssueWrite(uint32_t blkno,
                                   std::vector<std::shared_ptr<const BlockData>> data,
                                   OrderingTag tag, IoCallback isr) {
  assert(!data.empty());
  auto req = std::make_unique<VReq>();
  req->dir = IoDir::kWrite;
  req->blkno = blkno;
  req->count = static_cast<uint32_t>(data.size());
  req->flag = tag.flag;
  req->deps = std::move(tag.deps);
  req->data = std::move(data);
  req->isr = std::move(isr);
  stat_writes_->Inc();
  return Issue(std::move(req));
}

uint64_t StripedVolume::IssueRead(uint32_t blkno, BlockData* out, IoCallback isr) {
  auto req = std::make_unique<VReq>();
  req->dir = IoDir::kRead;
  req->blkno = blkno;
  req->count = 1;
  req->read_out = out;
  req->isr = std::move(isr);
  stat_reads_->Inc();
  return Issue(std::move(req));
}

uint64_t StripedVolume::Issue(std::unique_ptr<VReq> req) {
  uint64_t id = next_id_++;
  VReq* r = req.get();
  r->id = id;
  r->issue_index = gate_.NextIssueIndex(r->flag);
  requests_.emplace(id, std::move(req));
  gate_.Index(r);
  // Only `r` goes now: requests a completion made ready before its ISR
  // issued `r` follow in TryDispatch.
  if (gate_.Ready(*r)) {
    gate_.Start(r);
    Forward(r);
  } else {
    stat_held_->Inc();
  }
  return id;
}

void StripedVolume::TryDispatch() {
  // Forwarding changes no request's answer (only completions do), so the
  // ready set is forwarded whole.
  for (GatedRequest* r : gate_.StartAllReady()) {
    Forward(static_cast<VReq*>(r));
  }
}

size_t StripedVolume::HeldCount() const {
  // A forwarded request has sub-requests out until it leaves requests_.
  return std::count_if(requests_.begin(), requests_.end(),
                       [](const auto& entry) { return entry.second->subs_outstanding == 0; });
}

void StripedVolume::Forward(VReq* r) {
  const VolumeLayout& lay = config_.layout;
  if (r->dir == IoDir::kRead) {
    uint32_t disk = 0, local = 0;
    lay.Map(r->blkno, &disk, &local);
    r->subs_outstanding = 1;
    disks_[disk]->IssueRead(local, r->read_out,
                            [this, r](IoStatus s) { OnSubComplete(r, s); });
    return;
  }
  // Count stripe-chunk runs first so a sub completing while later subs
  // are still being issued cannot retire the request early.
  uint32_t subs = 0;
  for (uint32_t v = r->blkno; v < r->blkno + r->count;) {
    uint32_t run = std::min(lay.RunLength(v), r->blkno + r->count - v);
    v += run;
    ++subs;
  }
  r->subs_outstanding = subs;
  if (subs > 1) {
    stat_splits_->Inc(subs - 1);
  }
  for (uint32_t v = r->blkno; v < r->blkno + r->count;) {
    uint32_t run = std::min(lay.RunLength(v), r->blkno + r->count - v);
    uint32_t disk = 0, local = 0;
    lay.Map(v, &disk, &local);
    std::vector<std::shared_ptr<const BlockData>> slice(
        r->data.begin() + (v - r->blkno), r->data.begin() + (v - r->blkno) + run);
    disks_[disk]->IssueWrite(local, std::move(slice), {},
                             [this, r](IoStatus s) { OnSubComplete(r, s); });
    v += run;
  }
}

void StripedVolume::OnSubComplete(VReq* r, IoStatus status) {
  // Interrupt level: must not block. Notifications only schedule wakeups.
  if (r->status == IoStatus::kOk) {
    r->status = status;
  }
  assert(r->subs_outstanding > 0);
  if (--r->subs_outstanding > 0) {
    return;
  }
  auto node = requests_.extract(r->id);
  assert(!node.empty());
  gate_.Retire(r);
  gate_.Complete(r->id, r->status);
  if (r->isr) {
    r->isr(r->status);
  }
  if (gate_.PendingCount() == 0) {
    all_done_.NotifyAll();
  }
  // `node` keeps the request alive through its own completion; dispatch
  // newly eligible requests after the dead index is gone.
  TryDispatch();
}

Task<void> StripedVolume::Drain() {
  while (gate_.PendingCount() != 0) {
    co_await all_done_.Await();
  }
}

// ---------------------------------------------------------------------------

IoCallback ShardDevice::WrapIsr(IoCallback isr) {
  ++outstanding_;
  return [this, isr = std::move(isr)](IoStatus status) {
    --outstanding_;
    if (outstanding_ == 0) {
      idle_.NotifyAll();
    }
    if (isr) {
      isr(status);
    }
  };
}

uint64_t ShardDevice::IssueWrite(uint32_t blkno,
                                 std::vector<std::shared_ptr<const BlockData>> data,
                                 OrderingTag tag, IoCallback isr) {
  return volume_->IssueWrite(base_ + blkno, std::move(data), std::move(tag),
                             WrapIsr(std::move(isr)));
}

uint64_t ShardDevice::IssueRead(uint32_t blkno, BlockData* out, IoCallback isr) {
  return volume_->IssueRead(base_ + blkno, out, WrapIsr(std::move(isr)));
}

Task<void> ShardDevice::Drain() {
  while (outstanding_ != 0) {
    co_await idle_.Await();
  }
}

}  // namespace mufs
