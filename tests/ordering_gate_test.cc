// Differential test for OrderingGate's ready set. Seeded random sequences
// drive a gate directly: reads and writes over a few blocks (so overlaps
// are common), random flags, Chains dependencies on earlier ids, merges
// into the newest request, starts of ready requests, and Retire and
// Complete of started requests in any order. After every step the gate's
// ready set and its C-LOOK pick are compared with a reference that
// re-decides each indexed request from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/driver/ordering_gate.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace mufs {
namespace {

// The eligibility rules decided one request at a time over index sets of
// the pending requests: the check every pick ran before the gate kept a
// ready set.
class ReferenceGate {
 public:
  explicit ReferenceGate(OrderingRules rules) : rules_(rules) {}

  // Mirrors OrderingGate::NextIssueIndex handing out `index`.
  void Issued(uint64_t index, bool flag) {
    next_issue_index_ = index + 1;
    if (flag) {
      flagged_indices_.push_back(index);
    }
  }

  void Index(const GatedRequest& r) {
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

  void Unindex(const GatedRequest& r) {
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

  void Retire(const GatedRequest& r) {
    Unindex(r);
    uint64_t oldest = pending_indices_.empty() ? next_issue_index_ : *pending_indices_.begin();
    auto it = std::lower_bound(flagged_indices_.begin(), flagged_indices_.end(), oldest);
    flagged_indices_.erase(flagged_indices_.begin(), it);
  }

  void Complete(uint64_t id) { completed_.insert(id); }

  bool Eligible(const GatedRequest& r) const {
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
        auto flagged_before_me = [&] {
          return !pending_flagged_indices_.empty() &&
                 *pending_flagged_indices_.begin() < r.issue_index;
        };
        switch (rules_.semantics) {
          case FlagSemantics::kPart:
            return !flagged_before_me();
          case FlagSemantics::kBack: {
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

 private:
  bool ConflictsWithEarlierWrite(const GatedRequest& r) const {
    for (uint32_t b = r.blkno; b < r.blkno + r.count; ++b) {
      auto it = pending_writes_by_block_.find(b);
      if (it != pending_writes_by_block_.end() && !it->second.empty() &&
          *it->second.begin() < r.issue_index) {
        return true;
      }
    }
    return false;
  }

  OrderingRules rules_;
  uint64_t next_issue_index_ = 1;
  std::vector<uint64_t> flagged_indices_;
  std::set<uint64_t> pending_indices_;
  std::set<uint64_t> pending_flagged_indices_;
  std::unordered_map<uint32_t, std::set<uint64_t>> pending_writes_by_block_;
  std::unordered_set<uint64_t> completed_;
};

constexpr uint32_t kBlocks = 12;
constexpr uint32_t kMaxMergedBlocks = 4;

struct TestRequest : GatedRequest {
  std::vector<uint64_t> ids;  // Every id merged into the request.
  bool indexed = true;  // False once retired, and inside a merge.
  bool started = false;
  bool completed = false;
};

// One random sequence: the gate under test and the reference see the same
// operations, and every step ends in Check().
class Sequence {
 public:
  Sequence(OrderingRules rules, uint64_t seed)
      : gate_(&engine_, rules), ref_(rules), rng_(seed), seed_(seed) {}

  void Run(int steps) {
    for (step_ = 0; step_ < steps && !::testing::Test::HasFailure(); ++step_) {
      Step();
      Check();
    }
  }

 private:
  enum Action { kIssue, kMerge, kStart, kStartAll, kRetire, kComplete };

  void Step() {
    const double issue = live_.size() < 24 ? 4 : 0.5;
    const std::vector<double> weights = {issue, 1, 3, 0.3, 2, 2};
    for (;;) {
      switch (static_cast<Action>(rng_.WeightedIndex(weights))) {
        case kIssue:
          Issue();
          return;
        case kMerge:
          if (Merge()) {
            return;
          }
          break;
        case kStart:
          if (StartOne()) {
            return;
          }
          break;
        case kStartAll:
          StartAll();
          return;
        case kRetire:
          if (TestRequest* r = PickStarted([](TestRequest* q) { return q->indexed; })) {
            gate_.Retire(r);
            ref_.Retire(*r);
            r->indexed = false;
            Forget(r);
            return;
          }
          break;
        case kComplete:
          if (TestRequest* r = PickStarted([](TestRequest* q) { return !q->completed; })) {
            for (uint64_t id : r->ids) {
              gate_.Complete(id, IoStatus::kOk);
              ref_.Complete(id);
            }
            r->completed = true;
            Forget(r);
            return;
          }
          break;
      }
    }
  }

  void Issue() {
    auto r = std::make_unique<TestRequest>();
    r->dir = rng_.Bernoulli(0.7) ? IoDir::kWrite : IoDir::kRead;
    r->count = r->dir == IoDir::kWrite ? static_cast<uint32_t>(rng_.UniformInt(1, 3)) : 1;
    r->blkno = static_cast<uint32_t>(rng_.UniformInt(0, kBlocks - r->count));
    r->flag = rng_.Bernoulli(0.3);
    r->deps = RandomEarlierIds({});
    r->ids.push_back(next_id_++);
    r->issue_index = gate_.NextIssueIndex(r->flag);
    ref_.Issued(r->issue_index, r->flag);
    gate_.Index(r.get());
    ref_.Index(*r);
    live_.push_back(std::move(r));
  }

  // A sequential write joins the newest request that no picker has taken,
  // as DiskDriver::TryMerge does: that request adopts the newer issue
  // index, so it is unindexed and indexed again.
  bool Merge() {
    TestRequest* tail = nullptr;
    for (const auto& r : live_) {
      if (!r->started && (tail == nullptr || r->issue_index > tail->issue_index)) {
        tail = r.get();
      }
    }
    if (tail == nullptr || tail->dir != IoDir::kWrite || tail->flag ||
        tail->count == kMaxMergedBlocks) {
      return false;
    }
    bool append = rng_.Bernoulli(0.5);
    if (append ? tail->blkno + tail->count == kBlocks : tail->blkno == 0) {
      append = !append;
    }
    gate_.Unindex(tail);
    ref_.Unindex(*tail);
    tail->indexed = false;
    Check();
    if (!append) {
      --tail->blkno;
    }
    ++tail->count;
    std::vector<uint64_t> deps = RandomEarlierIds(tail->ids);
    tail->deps.insert(tail->deps.end(), deps.begin(), deps.end());
    tail->ids.push_back(next_id_++);
    tail->issue_index = gate_.NextIssueIndex(false);
    ref_.Issued(tail->issue_index, false);
    gate_.Index(tail);
    ref_.Index(*tail);
    tail->indexed = true;
    return true;
  }

  // Starts the C-LOOK pick from a random origin, or a random ready request.
  bool StartOne() {
    GatedRequest* pick = nullptr;
    if (rng_.Bernoulli(0.5)) {
      bool wrapped = false;
      pick = gate_.NextReadyFrom(static_cast<uint32_t>(rng_.UniformInt(0, kBlocks)), &wrapped);
    } else {
      std::vector<TestRequest*> ready;
      for (const auto& r : live_) {
        if (gate_.Ready(*r)) {
          ready.push_back(r.get());
        }
      }
      if (!ready.empty()) {
        pick = ready[rng_.UniformInt(0, static_cast<int64_t>(ready.size()) - 1)];
      }
    }
    if (pick == nullptr) {
      return false;
    }
    gate_.Start(pick);
    static_cast<TestRequest*>(pick)->started = true;
    return true;
  }

  // The striped volume's dispatch: every ready request, in issue order.
  void StartAll() {
    std::vector<GatedRequest*> expected;
    for (const auto& r : live_) {
      if (!r->started && ref_.Eligible(*r)) {
        expected.push_back(r.get());
      }
    }
    std::sort(expected.begin(), expected.end(), [](const GatedRequest* a, const GatedRequest* b) {
      return a->issue_index < b->issue_index;
    });
    std::vector<GatedRequest*> started = gate_.StartAllReady();
    EXPECT_EQ(started, expected) << Where();
    for (GatedRequest* r : started) {
      static_cast<TestRequest*>(r)->started = true;
    }
  }

  template <typename Pred>
  TestRequest* PickStarted(Pred pred) {
    std::vector<TestRequest*> candidates;
    for (const auto& r : live_) {
      if (r->started && pred(r.get())) {
        candidates.push_back(r.get());
      }
    }
    if (candidates.empty()) {
      return nullptr;
    }
    return candidates[rng_.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1)];
  }

  // Drops started `r` once it is both retired and complete.
  void Forget(TestRequest* r) {
    if (!r->indexed && r->completed) {
      std::erase_if(live_, [r](const auto& q) { return q.get() == r; });
    }
  }

  // Up to two ids issued before now, none of them in `exclude`.
  std::vector<uint64_t> RandomEarlierIds(const std::vector<uint64_t>& exclude) {
    std::vector<uint64_t> deps;
    if (next_id_ == 1) {
      return deps;
    }
    for (int64_t n = rng_.UniformInt(0, 2); n > 0; --n) {
      uint64_t id = static_cast<uint64_t>(rng_.UniformInt(1, static_cast<int64_t>(next_id_) - 1));
      if (std::find(exclude.begin(), exclude.end(), id) == exclude.end()) {
        deps.push_back(id);
      }
    }
    return deps;
  }

  void Check() {
    size_t indexed = 0;
    std::vector<TestRequest*> queued;  // Indexed, not started, issue order.
    for (const auto& r : live_) {
      if (!r->indexed) {
        continue;
      }
      ++indexed;
      if (r->started) {
        EXPECT_FALSE(gate_.Ready(*r)) << Where() << " started index " << r->issue_index;
      } else {
        queued.push_back(r.get());
      }
    }
    EXPECT_EQ(gate_.PendingCount(), indexed) << Where();
    std::sort(queued.begin(), queued.end(), [](const TestRequest* a, const TestRequest* b) {
      return a->issue_index < b->issue_index;
    });
    // The C-LOOK pick as a scan over every indexed request.
    const uint32_t from = static_cast<uint32_t>(rng_.UniformInt(0, kBlocks));
    TestRequest* best_forward = nullptr;
    TestRequest* best_wrap = nullptr;
    for (TestRequest* r : queued) {
      const bool eligible = ref_.Eligible(*r);
      EXPECT_EQ(gate_.Ready(*r), eligible) << Where() << " index " << r->issue_index;
      if (!eligible) {
        continue;
      }
      if (r->blkno >= from) {
        if (best_forward == nullptr || r->blkno < best_forward->blkno) {
          best_forward = r;
        }
      } else if (best_wrap == nullptr || r->blkno < best_wrap->blkno) {
        best_wrap = r;
      }
    }
    bool wrapped = false;
    GatedRequest* pick = gate_.NextReadyFrom(from, &wrapped);
    EXPECT_EQ(pick, best_forward != nullptr ? best_forward : best_wrap)
        << Where() << " C-LOOK from " << from;
    EXPECT_EQ(wrapped, best_forward == nullptr && best_wrap != nullptr) << Where();
  }

  std::string Where() const {
    return "seed " + std::to_string(seed_) + " step " + std::to_string(step_) + ":";
  }

  Engine engine_;
  OrderingGate gate_;
  ReferenceGate ref_;
  Rng rng_;
  uint64_t seed_;
  int step_ = 0;
  uint64_t next_id_ = 1;
  // Requests not yet both retired and complete.
  std::vector<std::unique_ptr<TestRequest>> live_;
};

struct RulesCase {
  const char* name;
  OrderingRules rules;
};

class OrderingGateDifferentialTest : public ::testing::TestWithParam<RulesCase> {};

TEST_P(OrderingGateDifferentialTest, ReadySetMatchesReferenceAtEveryStep) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Sequence(GetParam().rules, seed).Run(400);
  }
}

constexpr RulesCase kRulesCases[] = {
    {"None", {OrderingMode::kNone}},
    {"Chains", {OrderingMode::kChains}},
    {"Full", {OrderingMode::kFlag, FlagSemantics::kFull, false}},
    {"FullNR", {OrderingMode::kFlag, FlagSemantics::kFull, true}},
    {"Back", {OrderingMode::kFlag, FlagSemantics::kBack, false}},
    {"BackNR", {OrderingMode::kFlag, FlagSemantics::kBack, true}},
    {"Part", {OrderingMode::kFlag, FlagSemantics::kPart, false}},
    {"PartNR", {OrderingMode::kFlag, FlagSemantics::kPart, true}},
};

INSTANTIATE_TEST_SUITE_P(AllRules, OrderingGateDifferentialTest, ::testing::ValuesIn(kRulesCases),
                         [](const ::testing::TestParamInfo<RulesCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mufs
