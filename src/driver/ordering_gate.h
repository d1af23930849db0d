// Request-eligibility rules of the paper's scheduler schemes (section 3),
// in one place for every layer that enforces them.
//
// The gate tracks every incomplete request by its issue index and
// answers one question: may this request start now? The ordering
// disciplines are:
//   kNone    - no constraints (Conventional relies on synchronous
//              waiting; No Order / Ignore simply don't care);
//   kFlag    - one-bit ordering flag with Full/Back/Part semantics,
//              optionally letting non-conflicting reads bypass (-NR);
//   kChains  - explicit per-request dependency lists.
//
// Flag semantics (section 3.1), where "earlier" is issue order:
//   Full: a flagged request F may start only when every earlier request
//         has completed, and no later request may start before F.
//   Back: a request R may start only if, for every flagged F issued
//         before R, every request issued at or before F has completed.
//         (F itself reorders freely with earlier non-flagged requests.)
//   Part: R may start only when every flagged request issued before R
//         has completed. (Earlier non-flagged requests are free.)
//   -NR:  a read may bypass any of the above provided it does not
//         conflict (overlap) with a pending earlier write.
// Under every discipline, two writes of overlapping ranges start in
// issue order, or stale data could land last.
//
// The rules are monotone: a request once eligible stays eligible, since
// only completions change the answer. The gate also keeps the completion
// table the Chains rule reads, with the waiters of BlockDevice::WaitFor.
//
// Two owners, one gate each. A DiskDriver gates its pick candidates: its
// queue by the scheme's rules at queue depth 1, and at depth > 1 only the
// device's command window, with Full semantics, where an ORDERED tag is
// the flag and issue order is acceptance order. A StripedVolume gates
// volume issue order (its member drivers then run kNone).
#ifndef MUFS_SRC_DRIVER_ORDERING_GATE_H_
#define MUFS_SRC_DRIVER_ORDERING_GATE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/driver/request.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace mufs {

enum class OrderingMode : uint8_t { kNone, kFlag, kChains };
enum class FlagSemantics : uint8_t { kFull, kBack, kPart };

struct OrderingRules {
  OrderingMode mode = OrderingMode::kNone;
  FlagSemantics semantics = FlagSemantics::kPart;
  bool reads_bypass = false;  // -NR
};

// The fields of a request the rules read. Driver and volume requests
// derive from it.
struct GatedRequest {
  IoDir dir = IoDir::kRead;
  uint32_t blkno = 0;
  uint32_t count = 0;
  bool flag = false;
  uint64_t issue_index = 0;     // Position in issue order.
  std::vector<uint64_t> deps;   // Chains: ids that must complete first.
};

class OrderingGate {
 public:
  OrderingGate(Engine* engine, OrderingRules rules) : engine_(engine), rules_(rules) {}
  OrderingGate(const OrderingGate&) = delete;
  OrderingGate& operator=(const OrderingGate&) = delete;

  // Hands out the next issue index; a flagged request's index is
  // remembered for the Back rule.
  uint64_t NextIssueIndex(bool flag);

  // Starts / stops `r` constraining other requests. Index() a request
  // once its issue index and block range are final; a request whose
  // range changes (a merge) is re-indexed.
  void Index(const GatedRequest& r);
  void Unindex(const GatedRequest& r);
  // `r` has completed: unindexes it and drops Back bookkeeping that no
  // pending request can need any more.
  void Retire(const GatedRequest& r);

  bool Eligible(const GatedRequest& r) const;

  // Indexed requests (pending or in service).
  size_t PendingCount() const { return pending_indices_.size(); }

  // Completion table: records `id`'s terminal status and wakes its
  // waiters.
  void Complete(uint64_t id, IoStatus status);
  bool IsComplete(uint64_t id) const { return completed_.contains(id); }
  IoStatus CompletionStatus(uint64_t id) const {
    auto it = completed_.find(id);
    return it == completed_.end() ? IoStatus::kOk : it->second;
  }
  Task<IoStatus> WaitFor(uint64_t id);

 private:
  bool ConflictsWithEarlierWrite(const GatedRequest& r) const;

  Engine* engine_;
  OrderingRules rules_;
  uint64_t next_issue_index_ = 1;
  // Issue indices of every flagged request still relevant for Back
  // semantics, ascending (pruned as the queue drains).
  std::vector<uint64_t> flagged_indices_;
  // Eligibility indexes, maintained incrementally so checks are O(log n)
  // instead of O(queue) (large queues are a *feature* of this paper's
  // workloads - seconds of queued ordered writes - so the naive scans
  // were quadratic).
  std::set<uint64_t> pending_indices_;          // All pending + in-service.
  std::set<uint64_t> pending_flagged_indices_;  // Flagged subset.
  // Per-block pending WRITE issue indices (overlap checks).
  std::unordered_map<uint32_t, std::set<uint64_t>> pending_writes_by_block_;
  std::unordered_map<uint64_t, IoStatus> completed_;
  std::unordered_map<uint64_t, std::unique_ptr<OneShotEvent>> waiters_;
};

}  // namespace mufs

#endif  // MUFS_SRC_DRIVER_ORDERING_GATE_H_
