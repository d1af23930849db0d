// Request-eligibility rules of the paper's scheduler schemes (section 3),
// in one place for every layer that enforces them.
//
// The gate tracks every incomplete request by its issue index and keeps
// the set of requests that may start now (the ready set), which the
// pickers read. The ordering disciplines are:
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
// Each flag rule admits a prefix of issue order, up to a frontier. With
// P the oldest pending flagged index and O the oldest pending index:
//   Part passes R iff R <= P;
//   Full passes R iff R < P, or R == P == O (the flagged request is
//        also the oldest pending one);
//   Back passes R iff R <= the first flagged index at or after O
//        (flagged requests that already completed count too).
// -NR reads skip the frontier and face only the overlap rule.
//
// Where a request is held while indexed, in exactly one place:
//   - the ready set, ordered by (blkno, issue index), if it may start;
//   - behind the frontier, in issue order, if only a flag rule holds it;
//   - parked on one blocker: the latest earlier pending write that
//     overlaps it, else the first Chains dependency not yet complete;
//   - started, once a picker has taken it, until it is retired.
// A request moves only when its answer can change: Unindex (a merge, or
// Retire) wakes the requests parked on it and advances the frontier, and
// Complete(id) wakes the requests parked on id. Indexing a new request
// never changes another's answer, since every rule looks only at earlier
// requests. A merged request adopts a newer issue index and may lose its
// eligibility, so its owner unindexes it first and indexes it again.
// The gate also keeps the completion table the Chains rule reads, with
// the waiters of BlockDevice::WaitFor.
//
// Two owners, one gate each. A DiskDriver gates its pick candidates: its
// queue by the scheme's rules at queue depth 1, and at depth > 1 only the
// device's command window, with Full semantics, where an ORDERED tag is
// the flag and issue order is acceptance order. A StripedVolume gates
// volume issue order (its member drivers then run kNone).
#ifndef MUFS_SRC_DRIVER_ORDERING_GATE_H_
#define MUFS_SRC_DRIVER_ORDERING_GATE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
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

 private:
  friend class OrderingGate;
  enum class Slot : uint8_t { kOut, kReady, kBehindFrontier, kOnWrite, kOnDep, kStarted };
  // Where the gate holds the request; kOnWrite / kOnDep park it on
  // `blocker_` (a write's issue index / a dependency id).
  Slot slot_ = Slot::kOut;
  uint64_t blocker_ = 0;
};

class OrderingGate {
 public:
  OrderingGate(Engine* engine, OrderingRules rules) : engine_(engine), rules_(rules) {}
  OrderingGate(const OrderingGate&) = delete;
  OrderingGate& operator=(const OrderingGate&) = delete;

  // Hands out the next issue index (the first is 1); under Back semantics
  // a flagged request's index is remembered.
  uint64_t NextIssueIndex(bool flag);

  // Starts / stops `r` constraining other requests. Index() a request
  // once its issue index and block range are final; a request whose
  // range changes (a merge) is unindexed first and indexed again. The
  // gate holds `r` by pointer until Unindex() or Retire().
  void Index(GatedRequest* r);
  void Unindex(GatedRequest* r);
  // `r` has completed: unindexes it and drops Back bookkeeping that no
  // pending request can need any more.
  void Retire(GatedRequest* r);

  // True if `r` (indexed, not started) may start now.
  bool Ready(const GatedRequest& r) const { return r.slot_ == GatedRequest::Slot::kReady; }
  // A picker takes ready `r` out of the ready set; `r` stays indexed
  // until Retire().
  void Start(GatedRequest* r);
  // C-LOOK over the ready set: the lowest block number at or past `from`
  // (the earliest issued among equals), else the lowest overall, with
  // *wrapped set. Null if nothing is ready.
  GatedRequest* NextReadyFrom(uint32_t from, bool* wrapped) const;
  // Starts every ready request and returns them in issue order.
  std::vector<GatedRequest*> StartAllReady();

  // Indexed requests (pending or started).
  size_t PendingCount() const { return pending_indices_.size(); }

  // Completion table: records `id`'s terminal status (the first, if `id`
  // completes twice) and wakes its waiters.
  void Complete(uint64_t id, IoStatus status);
  bool IsComplete(uint64_t id) const { return id < completed_.size() && completed_[id] != 0; }
  // kOk for an unknown id.
  IoStatus CompletionStatus(uint64_t id) const {
    return IsComplete(id) ? static_cast<IoStatus>(completed_[id] - 1) : IoStatus::kOk;
  }
  Task<IoStatus> WaitFor(uint64_t id);

 private:
  // Puts indexed `r` where its current answer says.
  void Place(GatedRequest* r);
  void Wake(std::vector<GatedRequest*> parked);
  // The latest pending write issued before `r` that overlaps it (0: none).
  uint64_t EarlierOverlappingWrite(const GatedRequest& r) const;
  // The highest issue index the flag rules pass now.
  uint64_t FrontierLimit() const;
  // Writes face the overlap rule under every mode; -NR reads face it
  // instead of the flag frontier.
  bool FacesOverlap(const GatedRequest& r) const {
    return r.dir == IoDir::kWrite || (rules_.mode == OrderingMode::kFlag && rules_.reads_bypass);
  }
  bool FacesFrontier(const GatedRequest& r) const {
    return rules_.mode == OrderingMode::kFlag && !(r.dir == IoDir::kRead && rules_.reads_bypass);
  }
  bool TracksFlagHistory() const {
    return rules_.mode == OrderingMode::kFlag && rules_.semantics == FlagSemantics::kBack;
  }

  Engine* engine_;
  OrderingRules rules_;
  uint64_t next_issue_index_ = 1;
  // Back only: issue indices of every flagged request at or after the
  // oldest pending index at the last Retire, ascending.
  std::deque<uint64_t> flagged_indices_;
  std::set<uint64_t> pending_indices_;          // All indexed requests.
  std::set<uint64_t> pending_flagged_indices_;  // Flagged subset.
  // Per-block pending WRITE issue indices (overlap checks).
  std::unordered_map<uint32_t, std::set<uint64_t>> pending_writes_by_block_;

  std::map<std::pair<uint32_t, uint64_t>, GatedRequest*> ready_;  // By (blkno, issue index).
  std::map<uint64_t, GatedRequest*> behind_frontier_;             // By issue index.
  std::unordered_map<uint64_t, std::vector<GatedRequest*>> on_write_;  // By write's index.
  std::unordered_map<uint64_t, std::vector<GatedRequest*>> on_dep_;    // By dependency id.

  // By request id, which the owners hand out densely from 1: 0 while
  // incomplete, else the terminal status + 1.
  std::vector<uint8_t> completed_;
  std::unordered_map<uint64_t, std::unique_ptr<OneShotEvent>> waiters_;
};

}  // namespace mufs

#endif  // MUFS_SRC_DRIVER_ORDERING_GATE_H_
