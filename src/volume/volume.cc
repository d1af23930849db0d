#include "src/volume/volume.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mufs {

StripedVolume::StripedVolume(Engine* engine, std::vector<DiskDriver*> disks,
                             VolumeConfig config)
    : disks_(std::move(disks)),
      config_(config),
      gate_(engine, config.ordering),
      all_done_(engine) {
  assert(!disks_.empty());
  assert(config_.layout.disks == disks_.size());
  assert(config_.layout.stripe_unit > 0);
  assert(config_.stats != nullptr);
  stat_reads_ = &config_.stats->counter("volume.reads");
  stat_writes_ = &config_.stats->counter("volume.writes");
  stat_splits_ = &config_.stats->counter("volume.splits");
  stat_held_ = &config_.stats->counter("volume.held");
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
  req->id = next_id_++;
  req->issue_index = gate_.NextIssueIndex(req->flag);
  gate_.Index(*req);
  uint64_t id = req->id;
  if (gate_.Eligible(*req)) {
    VReq* r = req.get();
    in_flight_.emplace(id, std::move(req));
    Forward(r);
  } else {
    stat_held_->Inc();
    held_.push_back(std::move(req));
  }
  return id;
}

void StripedVolume::TryDispatch() {
  // Forward every held request that became eligible, in issue order.
  // Eligibility under every mode is monotone in completions, so one pass
  // suffices per completion event; requests forwarded here cannot make an
  // EARLIER held request eligible (only completions can).
  for (auto it = held_.begin(); it != held_.end();) {
    if (gate_.Eligible(**it)) {
      VReq* r = it->get();
      in_flight_.emplace(r->id, std::move(*it));
      it = held_.erase(it);
      Forward(r);
    } else {
      ++it;
    }
  }
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
  auto node = in_flight_.extract(r->id);
  assert(!node.empty());
  gate_.Retire(*r);
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
