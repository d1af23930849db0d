#include "src/driver/ordering_gate.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

namespace mufs {

namespace {

constexpr uint64_t kNoFrontier = std::numeric_limits<uint64_t>::max();

void Drop(std::unordered_map<uint64_t, std::vector<GatedRequest*>>* parked, uint64_t key,
          GatedRequest* r) {
  auto it = parked->find(key);
  assert(it != parked->end());
  std::erase(it->second, r);
  if (it->second.empty()) {
    parked->erase(it);
  }
}

}  // namespace

uint64_t OrderingGate::NextIssueIndex(bool flag) {
  uint64_t index = next_issue_index_++;
  if (flag && TracksFlagHistory()) {
    flagged_indices_.push_back(index);
  }
  return index;
}

void OrderingGate::Index(GatedRequest* r) {
  assert(r->slot_ == GatedRequest::Slot::kOut);
  pending_indices_.insert(r->issue_index);
  if (r->flag) {
    pending_flagged_indices_.insert(r->issue_index);
  }
  if (r->dir == IoDir::kWrite) {
    for (uint32_t b = r->blkno; b < r->blkno + r->count; ++b) {
      pending_writes_by_block_[b].insert(r->issue_index);
    }
  }
  Place(r);
}

void OrderingGate::Unindex(GatedRequest* r) {
  using Slot = GatedRequest::Slot;
  assert(r->slot_ != Slot::kOut);
  switch (r->slot_) {
    case Slot::kReady:
      ready_.erase({r->blkno, r->issue_index});
      break;
    case Slot::kBehindFrontier:
      behind_frontier_.erase(r->issue_index);
      break;
    case Slot::kOnWrite:
      Drop(&on_write_, r->blocker_, r);
      break;
    case Slot::kOnDep:
      Drop(&on_dep_, r->blocker_, r);
      break;
    case Slot::kStarted:
    case Slot::kOut:
      break;
  }
  r->slot_ = Slot::kOut;
  pending_indices_.erase(r->issue_index);
  pending_flagged_indices_.erase(r->issue_index);
  if (r->dir == IoDir::kWrite) {
    for (uint32_t b = r->blkno; b < r->blkno + r->count; ++b) {
      auto it = pending_writes_by_block_.find(b);
      if (it != pending_writes_by_block_.end()) {
        it->second.erase(r->issue_index);
        if (it->second.empty()) {
          pending_writes_by_block_.erase(it);
        }
      }
    }
  }
  if (auto node = on_write_.extract(r->issue_index)) {
    Wake(std::move(node.mapped()));
  }
  if (rules_.mode == OrderingMode::kFlag) {
    // The frontier only advances when a request leaves: release its
    // newly passed prefix.
    uint64_t limit = FrontierLimit();
    while (!behind_frontier_.empty() && behind_frontier_.begin()->first <= limit) {
      GatedRequest* next = behind_frontier_.begin()->second;
      behind_frontier_.erase(behind_frontier_.begin());
      Place(next);
    }
  }
}

void OrderingGate::Retire(GatedRequest* r) {
  Unindex(r);
  if (TracksFlagHistory()) {
    // Flagged indices only matter while some request issued at or after
    // them is still pending; drop entries below the oldest pending index.
    uint64_t oldest = pending_indices_.empty() ? next_issue_index_ : *pending_indices_.begin();
    while (!flagged_indices_.empty() && flagged_indices_.front() < oldest) {
      flagged_indices_.pop_front();
    }
  }
}

void OrderingGate::Start(GatedRequest* r) {
  assert(Ready(*r));
  ready_.erase({r->blkno, r->issue_index});
  r->slot_ = GatedRequest::Slot::kStarted;
}

GatedRequest* OrderingGate::NextReadyFrom(uint32_t from, bool* wrapped) const {
  *wrapped = false;
  if (ready_.empty()) {
    return nullptr;
  }
  auto it = ready_.lower_bound({from, 0});
  if (it == ready_.end()) {
    *wrapped = true;
    it = ready_.begin();
  }
  return it->second;
}

std::vector<GatedRequest*> OrderingGate::StartAllReady() {
  std::vector<GatedRequest*> started;
  started.reserve(ready_.size());
  for (auto& [key, r] : ready_) {
    r->slot_ = GatedRequest::Slot::kStarted;
    started.push_back(r);
  }
  ready_.clear();
  std::sort(started.begin(), started.end(), [](const GatedRequest* a, const GatedRequest* b) {
    return a->issue_index < b->issue_index;
  });
  return started;
}

void OrderingGate::Place(GatedRequest* r) {
  using Slot = GatedRequest::Slot;
  if (FacesOverlap(*r)) {
    if (uint64_t write = EarlierOverlappingWrite(*r); write != 0) {
      r->slot_ = Slot::kOnWrite;
      r->blocker_ = write;
      on_write_[write].push_back(r);
      return;
    }
  }
  if (rules_.mode == OrderingMode::kChains) {
    for (uint64_t dep : r->deps) {
      if (!IsComplete(dep)) {
        r->slot_ = Slot::kOnDep;
        r->blocker_ = dep;
        on_dep_[dep].push_back(r);
        return;
      }
    }
  }
  if (FacesFrontier(*r) && r->issue_index > FrontierLimit()) {
    r->slot_ = Slot::kBehindFrontier;
    behind_frontier_.emplace(r->issue_index, r);
    return;
  }
  r->slot_ = Slot::kReady;
  ready_.emplace(std::pair{r->blkno, r->issue_index}, r);
}

void OrderingGate::Wake(std::vector<GatedRequest*> parked) {
  // Each placement reads only the indexes, which Place never changes, so
  // the order of the wakeups does not matter.
  for (GatedRequest* r : parked) {
    Place(r);
  }
}

uint64_t OrderingGate::EarlierOverlappingWrite(const GatedRequest& r) const {
  // Parking on the latest earlier write of a block wakes `r` once per
  // block: overlapping writes retire in issue order.
  for (uint32_t b = r.blkno; b < r.blkno + r.count; ++b) {
    auto it = pending_writes_by_block_.find(b);
    if (it == pending_writes_by_block_.end()) {
      continue;
    }
    auto later = it->second.lower_bound(r.issue_index);
    if (later != it->second.begin()) {
      return *std::prev(later);
    }
  }
  return 0;
}

uint64_t OrderingGate::FrontierLimit() const {
  switch (rules_.semantics) {
    case FlagSemantics::kPart:
      return pending_flagged_indices_.empty() ? kNoFrontier : *pending_flagged_indices_.begin();
    case FlagSemantics::kFull: {
      if (pending_flagged_indices_.empty()) {
        return kNoFrontier;
      }
      uint64_t flagged = *pending_flagged_indices_.begin();
      return flagged == *pending_indices_.begin() ? flagged : flagged - 1;
    }
    case FlagSemantics::kBack: {
      if (pending_indices_.empty()) {
        return kNoFrontier;
      }
      auto it = std::lower_bound(flagged_indices_.begin(), flagged_indices_.end(),
                                 *pending_indices_.begin());
      return it == flagged_indices_.end() ? kNoFrontier : *it;
    }
  }
  return kNoFrontier;
}

void OrderingGate::Complete(uint64_t id, IoStatus status) {
  if (id >= completed_.size()) {
    completed_.resize(id + 1);
  }
  if (completed_[id] == 0) {
    completed_[id] = static_cast<uint8_t>(status) + 1;
  }
  auto it = waiters_.find(id);
  if (it != waiters_.end()) {
    it->second->Set();
    waiters_.erase(it);
  }
  if (auto node = on_dep_.extract(id)) {
    Wake(std::move(node.mapped()));
  }
}

Task<IoStatus> OrderingGate::WaitFor(uint64_t id) {
  if (IsComplete(id)) {
    co_return CompletionStatus(id);
  }
  auto it = waiters_.find(id);
  if (it == waiters_.end()) {
    it = waiters_.emplace(id, std::make_unique<OneShotEvent>(engine_)).first;
  }
  co_await it->second->Wait();
  co_return CompletionStatus(id);
}

}  // namespace mufs
