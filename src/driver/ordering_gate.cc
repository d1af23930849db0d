#include "src/driver/ordering_gate.h"

#include <algorithm>
#include <iterator>

namespace mufs {

uint64_t OrderingGate::NextIssueIndex(bool flag) {
  uint64_t index = next_issue_index_++;
  if (flag) {
    flagged_indices_.push_back(index);
  }
  return index;
}

void OrderingGate::Index(const GatedRequest& r) {
  pending_indices_.insert(r.issue_index);
  if (r.flag) {
    pending_flagged_indices_.insert(r.issue_index);
  }
  if (r.dir == IoDir::kWrite) {
    for (uint32_t b = r.blkno; b < r.blkno + r.count; ++b) {
      pending_writes_by_block_[b].insert(r.issue_index);
    }
  }
}

void OrderingGate::Unindex(const GatedRequest& r) {
  pending_indices_.erase(r.issue_index);
  pending_flagged_indices_.erase(r.issue_index);
  if (r.dir == IoDir::kWrite) {
    for (uint32_t b = r.blkno; b < r.blkno + r.count; ++b) {
      auto it = pending_writes_by_block_.find(b);
      if (it != pending_writes_by_block_.end()) {
        it->second.erase(r.issue_index);
        if (it->second.empty()) {
          pending_writes_by_block_.erase(it);
        }
      }
    }
  }
}

void OrderingGate::Retire(const GatedRequest& r) {
  Unindex(r);
  // Flagged indices only matter while some request issued at or after
  // them is still pending; drop entries below the oldest pending index.
  uint64_t oldest = pending_indices_.empty() ? next_issue_index_ : *pending_indices_.begin();
  auto it = std::lower_bound(flagged_indices_.begin(), flagged_indices_.end(), oldest);
  flagged_indices_.erase(flagged_indices_.begin(), it);
}

bool OrderingGate::ConflictsWithEarlierWrite(const GatedRequest& r) const {
  // A pending (or in-service) write of any overlapping block with an
  // earlier issue index. Per-block index keeps this O(count * log n).
  for (uint32_t b = r.blkno; b < r.blkno + r.count; ++b) {
    auto it = pending_writes_by_block_.find(b);
    if (it != pending_writes_by_block_.end() && !it->second.empty() &&
        *it->second.begin() < r.issue_index) {
      return true;
    }
  }
  return false;
}

bool OrderingGate::Eligible(const GatedRequest& r) const {
  if (r.dir == IoDir::kWrite && ConflictsWithEarlierWrite(r)) {
    return false;
  }
  switch (rules_.mode) {
    case OrderingMode::kNone:
      return true;

    case OrderingMode::kChains: {
      for (uint64_t dep : r.deps) {
        if (!completed_.contains(dep)) {
          return false;
        }
      }
      return true;
    }

    case OrderingMode::kFlag: {
      if (r.dir == IoDir::kRead && rules_.reads_bypass) {
        return !ConflictsWithEarlierWrite(r);
      }
      // O(log n) checks against the incrementally maintained index sets.
      // A request's own index never trips a strict `< r.issue_index`
      // comparison, so no self-exclusion is needed.
      auto flagged_before_me = [&] {
        return !pending_flagged_indices_.empty() &&
               *pending_flagged_indices_.begin() < r.issue_index;
      };
      switch (rules_.semantics) {
        case FlagSemantics::kPart:
          // Wait only for pending flagged requests issued before us.
          return !flagged_before_me();
        case FlagSemantics::kBack: {
          // Wait for everything issued at or before the last flagged
          // request that was issued before us (even if that flagged
          // request itself already completed).
          auto it = std::lower_bound(flagged_indices_.begin(), flagged_indices_.end(),
                                     r.issue_index);
          if (it == flagged_indices_.begin()) {
            return true;
          }
          uint64_t m = *std::prev(it);
          return pending_indices_.empty() || *pending_indices_.begin() > m;
        }
        case FlagSemantics::kFull: {
          if (flagged_before_me()) {
            return false;
          }
          if (r.flag && !pending_indices_.empty() &&
              *pending_indices_.begin() < r.issue_index) {
            return false;
          }
          return true;
        }
      }
      return true;
    }
  }
  return true;
}

void OrderingGate::Complete(uint64_t id, IoStatus status) {
  completed_.emplace(id, status);
  auto it = waiters_.find(id);
  if (it != waiters_.end()) {
    it->second->Set();
    waiters_.erase(it);
  }
}

Task<IoStatus> OrderingGate::WaitFor(uint64_t id) {
  auto done = completed_.find(id);
  if (done != completed_.end()) {
    co_return done->second;
  }
  auto it = waiters_.find(id);
  if (it == waiters_.end()) {
    it = waiters_.emplace(id, std::make_unique<OneShotEvent>(engine_)).first;
  }
  co_await it->second->Wait();
  co_return completed_.at(id);
}

}  // namespace mufs
