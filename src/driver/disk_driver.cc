#include "src/driver/disk_driver.h"

#include <algorithm>
#include <cassert>

#include "src/fault/fault_injector.h"

namespace mufs {

namespace {

constexpr uint32_t kMaxMergedBlocks = 16;  // 64 KB max device transfer.

// Takes ownership of `r` out of `from`.
template <typename R>
std::unique_ptr<R> Detach(std::list<std::unique_ptr<R>>* from, R* r) {
  auto it = std::find_if(from->begin(), from->end(), [r](const auto& q) { return q.get() == r; });
  std::unique_ptr<R> owned = std::move(*it);
  from->erase(it);
  return owned;
}

}  // namespace

DiskDriver::DiskDriver(Engine* engine, DiskModel* model, DiskImage* image, DriverConfig config)
    : engine_(engine),
      model_(model),
      image_(image),
      config_(config),
      gate_(engine, config.ordering),
      work_available_(engine),
      queue_empty_(engine) {
  // With an image_map the image is the whole volume; this disk's media
  // (and with it the fault injector's victim space) is its own geometry.
  media_blocks_ =
      config_.image_map ? model_->geometry().total_blocks : image_->TotalBlocks();
  if (config_.faults != nullptr) {
    // Lets the injector's damage ledger name the same misdirection
    // victims the media transfer will use.
    config_.faults->SetTotalBlocks(media_blocks_);
  }
  if (config_.stats != nullptr) {
    stats_ = config_.stats;
  } else {
    owned_stats_ = std::make_unique<StatsRegistry>();
    owned_stats_->SetClock([engine] { return engine->Now(); });
    stats_ = owned_stats_.get();
  }
  const std::string& inst = config_.instance;
  stat_reads_ = &stats_->counter(InstanceMetricName(inst, "disk.reads"));
  stat_writes_ = &stats_->counter(InstanceMetricName(inst, "disk.writes"));
  stat_blocks_read_ = &stats_->counter(InstanceMetricName(inst, "disk.blocks_read"));
  stat_blocks_written_ = &stats_->counter(InstanceMetricName(inst, "disk.blocks_written"));
  stat_merges_ = &stats_->counter(InstanceMetricName(inst, "disk.merged_requests"));
  stat_clook_wraps_ = &stats_->counter(InstanceMetricName(inst, "disk.clook_wraps"));
  stat_busy_ns_ = &stats_->counter(InstanceMetricName(inst, "disk.busy_ns"));
  stat_retries_ = &stats_->counter(InstanceMetricName(inst, "driver.retries"));
  stat_timeouts_ = &stats_->counter(InstanceMetricName(inst, "driver.timeouts"));
  stat_remaps_ = &stats_->counter(InstanceMetricName(inst, "driver.remaps"));
  stat_gave_up_ = &stats_->counter(InstanceMetricName(inst, "driver.gave_up"));
  stat_queue_depth_ = &stats_->gauge(InstanceMetricName(inst, "disk.queue_depth"));
  stat_response_ = &stats_->histogram(InstanceMetricName(inst, "disk.response_ns"));
  stat_access_ = &stats_->histogram(InstanceMetricName(inst, "disk.access_ns"));
  stat_queue_delay_ = &stats_->histogram(InstanceMetricName(inst, "disk.queue_ns"));
  if (config_.queue_depth > 1) {
    // Registered only in queueing mode: the depth-1 stats surface (and
    // with it every golden sidecar) must stay byte-identical.
    device_queue_ = std::make_unique<DeviceQueue>(config_.queue_depth);
    stat_tag_simple_ = &stats_->counter(InstanceMetricName(inst, "disk.tag_simple"));
    stat_tag_ordered_ = &stats_->counter(InstanceMetricName(inst, "disk.tag_ordered"));
    stat_rpo_picks_ = &stats_->counter(InstanceMetricName(inst, "disk.rpo_picks"));
    stat_device_queue_ = &stats_->gauge(InstanceMetricName(inst, "disk.device_queue"));
  }
  trace_names_.issue = InstanceMetricName(inst, "disk.issue");
  trace_names_.concat = InstanceMetricName(inst, "disk.concat");
  trace_names_.accept = InstanceMetricName(inst, "disk.accept");
  trace_names_.service = InstanceMetricName(inst, "disk.service");
  trace_names_.complete = InstanceMetricName(inst, "disk.complete");
  trace_names_.fault = InstanceMetricName(inst, "disk.fault");
  trace_names_.remap = InstanceMetricName(inst, "disk.remap");
  trace_names_.gave_up = InstanceMetricName(inst, "disk.gave_up");
  service_proc_ =
      engine_->Spawn(ServiceLoop(), inst.empty() ? "disk-driver" : inst + "-driver");
}

DiskDriver::~DiskDriver() { stopping_ = true; }

uint64_t DiskDriver::IssueWrite(uint32_t blkno, std::vector<std::shared_ptr<const BlockData>> data,
                                OrderingTag tag, IoCallback isr) {
  assert(!data.empty());
  auto req = std::make_unique<Request>();
  req->dir = IoDir::kWrite;
  req->blkno = blkno;
  req->count = static_cast<uint32_t>(data.size());
  req->flag = tag.flag;
  req->device_ordered = tag.device_ordered;
  req->deps = std::move(tag.deps);
  req->data = std::move(data);
  return Enqueue(std::move(req), std::move(isr));
}

uint64_t DiskDriver::IssueRead(uint32_t blkno, BlockData* out, IoCallback isr) {
  auto req = std::make_unique<Request>();
  req->dir = IoDir::kRead;
  req->blkno = blkno;
  req->count = 1;
  req->read_out = out;
  return Enqueue(std::move(req), std::move(isr));
}

uint64_t DiskDriver::Enqueue(std::unique_ptr<Request> req, IoCallback isr) {
  uint64_t id = next_id_++;
  req->ids.push_back(id);
  req->issue_index = gate_.NextIssueIndex(req->flag);
  req->issue_time = engine_->Now();
  if (isr) {
    req->isrs.push_back(std::move(isr));
  }
  ++total_requests_;
  if (req->dir == IoDir::kWrite) {
    stat_writes_->Inc();
    stat_blocks_written_->Inc(req->count);
  } else {
    stat_reads_->Inc();
    stat_blocks_read_->Inc(req->count);
  }
  if (stats_->tracing()) {
    stats_->Trace(trace_names_.issue, {{"id", id},
                                 {"dir", req->dir == IoDir::kWrite ? "w" : "r"},
                                 {"blkno", req->blkno},
                                 {"count", req->count},
                                 {"flag", req->flag},
                                 {"ndeps", req->deps.size()},
                                 {"qdepth", PendingCount()}});
  }

  if (req->dir == IoDir::kWrite && TryMerge(req.get())) {
    ++merged_requests_;
    stat_merges_->Inc();
    if (stats_->tracing()) {
      stats_->Trace(trace_names_.concat, {{"id", id}, {"blkno", queue_.back()->blkno},
                                    {"count", queue_.back()->count}});
    }
  } else {
    gate_.Index(*req);
    queue_.push_back(std::move(req));
  }
  stat_queue_depth_->Set(static_cast<int64_t>(PendingCount()));
  Kick();
  return id;
}

bool DiskDriver::TryMerge(Request* incoming) {
  // Sequential concatenation (paper section 2): only with the most
  // recently issued pending request, so no request is reordered past a
  // request issued between the two, which keeps every flag semantics and
  // chain dependency intact.
  if (queue_.empty() || incoming->flag) {
    return false;
  }
  Request* tail = queue_.back().get();
  if (tail == in_service_ || tail->dir != IoDir::kWrite || tail->flag) {
    return false;
  }
  if (tail->count + incoming->count > kMaxMergedBlocks) {
    return false;
  }
  // A dependency on a request merged into the same device transfer would
  // deadlock; keep them separate.
  for (uint64_t dep : incoming->deps) {
    if (std::find(tail->ids.begin(), tail->ids.end(), dep) != tail->ids.end()) {
      return false;
    }
  }
  if (tail->blkno + tail->count == incoming->blkno) {
    // Append.
    gate_.Unindex(*tail);
    tail->data.insert(tail->data.end(), incoming->data.begin(), incoming->data.end());
  } else if (incoming->blkno + incoming->count == tail->blkno) {
    // Prepend.
    gate_.Unindex(*tail);
    tail->data.insert(tail->data.begin(), incoming->data.begin(), incoming->data.end());
    tail->blkno = incoming->blkno;
  } else {
    return false;
  }
  tail->count += incoming->count;
  tail->device_ordered = tail->device_ordered || incoming->device_ordered;
  tail->ids.insert(tail->ids.end(), incoming->ids.begin(), incoming->ids.end());
  tail->deps.insert(tail->deps.end(), incoming->deps.begin(), incoming->deps.end());
  tail->isrs.insert(tail->isrs.end(), std::make_move_iterator(incoming->isrs.begin()),
                    std::make_move_iterator(incoming->isrs.end()));
  // Adopt the newer issue index: eligibility constraints only grow, which
  // is always safe (delaying a write never violates ordering).
  tail->issue_index = incoming->issue_index;
  gate_.Index(*tail);
  return true;
}

DiskDriver::Request* DiskDriver::PickNext() {
  // C-LOOK: smallest eligible block number at or beyond the scan origin;
  // wrap to the smallest eligible otherwise.
  Request* best_forward = nullptr;
  Request* best_wrap = nullptr;
  for (const auto& q : queue_) {
    if (!gate_.Eligible(*q)) {
      continue;
    }
    if (q->blkno >= scan_from_) {
      if (best_forward == nullptr || q->blkno < best_forward->blkno) {
        best_forward = q.get();
      }
    } else if (best_wrap == nullptr || q->blkno < best_wrap->blkno) {
      best_wrap = q.get();
    }
  }
  if (best_forward != nullptr) {
    return best_forward;
  }
  if (best_wrap != nullptr) {
    stat_clook_wraps_->Inc();
  }
  return best_wrap;
}

DiskDriver::Request* DiskDriver::PickFromDevice() {
  DispatchToDevice();
  const DeviceCommand* cmd = device_queue_->PickNext(*model_, engine_->Now());
  if (cmd == nullptr) {
    return nullptr;
  }
  if (cmd->seq != device_queue_->OldestSeq()) {
    stat_rpo_picks_->Inc();  // A true reordering, not just FIFO.
  }
  return static_cast<Request*>(cmd->cookie);
}

Task<void> DiskDriver::ServiceLoop() {
  while (!stopping_) {
    Request* r = device_queue_ == nullptr ? PickNext() : PickFromDevice();
    if (r == nullptr) {
      if (PendingCount() == 0) {
        queue_empty_.NotifyAll();
      }
      co_await work_available_.Await();
      continue;
    }
    // At depth 1 the request leaves the queue for service. A device
    // command stays in the device queue across retries, so its tag keeps
    // constraining (and being constrained by) its queue siblings, and no
    // sibling can be reordered past a barrier by a retry.
    std::unique_ptr<Request> owned;
    if (device_queue_ == nullptr) {
      owned = Detach(&queue_, r);
    }
    in_service_ = r;
    IoStatus status = co_await ServiceOne(r);
    scan_from_ = r->blkno + r->count;
    if (device_queue_ != nullptr) {
      owned = Detach(&accepted_, r);
      device_queue_->Remove(r->device_seq);
    }
    Complete(r, status);
    in_service_ = nullptr;
    stat_queue_depth_->Set(static_cast<int64_t>(PendingCount()));
    if (device_queue_ != nullptr) {
      stat_device_queue_->Set(static_cast<int64_t>(device_queue_->Size()));
    }
  }
}

TagKind DiskDriver::DeviceTagFor(const Request& r) const {
  // kNone covers Conventional (orders by waiting), No Order, soft updates
  // (orders in the cache), journaling (orders via the log) AND the
  // "Ignore" datapoint - all simple tags, the device runs free. For the
  // scheduler schemes, every ordering boundary (flag, dependency list, or
  // the policy's explicit annotation) becomes an ordered tag.
  if (config_.ordering.mode == OrderingMode::kNone) {
    return TagKind::kSimple;
  }
  if (r.device_ordered || r.flag || !r.deps.empty()) {
    return TagKind::kOrdered;
  }
  return TagKind::kSimple;
}

void DiskDriver::DispatchToDevice() {
  // Strict issue-order dispatch: ordered-tag semantics are defined over
  // acceptance order, so dispatching in issue order makes the device's
  // barriers coincide with the schemes' issue-order constraints. A
  // chain dependency always names an earlier-issued request, which is
  // therefore either complete or accepted earlier - an ordered tag on the
  // dependent request subsumes it.
  while (!queue_.empty() && !device_queue_->Full()) {
    std::unique_ptr<Request> req = std::move(queue_.front());
    queue_.pop_front();
    Request* r = req.get();
    TagKind tag = DeviceTagFor(*r);
    r->device_seq = device_queue_->Accept(tag, r->dir == IoDir::kWrite, r->blkno, r->count, r);
    (tag == TagKind::kOrdered ? stat_tag_ordered_ : stat_tag_simple_)->Inc();
    if (stats_->tracing()) {
      stats_->Trace(trace_names_.accept, {{"id", r->ids.front()},
                                    {"seq", r->device_seq},
                                    {"tag", TagKindName(tag)},
                                    {"blkno", r->blkno},
                                    {"count", r->count},
                                    {"dq", device_queue_->Size()}});
    }
    accepted_.push_back(std::move(req));
  }
  stat_device_queue_->Set(static_cast<int64_t>(device_queue_->Size()));
}

Task<IoStatus> DiskDriver::ServiceOne(Request* r) {
  stat_queue_delay_->Record(engine_->Now() - r->issue_time);
  // One device command per iteration; a faulted attempt either backs off
  // and retries (the request stays in_service_, so its id, issue index
  // and every eligibility/dependency structure are untouched) or gives
  // up and completes with kFailed.
  uint32_t attempts = 0;       // Failed attempts so far.
  uint32_t bad_hits = 0;       // Consecutive bad-sector failures.
  SimDuration backoff = config_.retry_backoff;
  IoStatus status = IoStatus::kOk;
  for (;;) {
    FaultKind fault = config_.faults == nullptr
                          ? FaultKind::kNone
                          : config_.faults->Decide(r->dir, r->blkno, r->count);
    if (fault == FaultKind::kTornWrite || fault == FaultKind::kMisdirected) {
      // Silent damage: the device reports success, so from here on this
      // attempt IS the success path (access time, no retry). The damaged
      // media transfer itself happens at Complete().
      r->silent_damage = static_cast<uint8_t>(fault);
      if (stats_->tracing()) {
        stats_->Trace(trace_names_.fault, {{"id", r->ids.front()},
                                     {"blkno", r->blkno},
                                     {"count", r->count},
                                     {"kind", FaultKindName(fault)},
                                     {"attempt", attempts}});
      }
      fault = FaultKind::kNone;
    }
    if (fault == FaultKind::kNone) {
      uint32_t from_cyl = model_->CurrentCylinder();
      SimDuration dur =
          model_->Access(r->dir == IoDir::kWrite, r->blkno, r->count, engine_->Now());
      stat_busy_ns_->Inc(static_cast<uint64_t>(dur));
      stat_access_->Record(dur);
      if (stats_->tracing()) {
        uint32_t to_cyl = model_->CylinderOf(r->blkno);
        uint32_t seek_cyls = to_cyl > from_cyl ? to_cyl - from_cyl : from_cyl - to_cyl;
        stats_->Trace(trace_names_.service,
                      {{"id", r->ids.front()},
                       {"dir", r->dir == IoDir::kWrite ? "w" : "r"},
                       {"blkno", r->blkno},
                       {"count", r->count},
                       {"origin", scan_from_},
                       {"seek_cyls", seek_cyls},
                       {"qdepth", PendingCount()}});
      }
      co_await engine_->Sleep(dur);
      break;
    }
    if (stats_->tracing()) {
      stats_->Trace(trace_names_.fault, {{"id", r->ids.front()},
                                   {"blkno", r->blkno},
                                   {"count", r->count},
                                   {"kind", FaultKindName(fault)},
                                   {"attempt", attempts}});
    }
    if (fault == FaultKind::kStall) {
      // The command hangs at the device; the driver detects it with a
      // timeout, aborts, and re-issues.
      stat_timeouts_->Inc();
      stat_busy_ns_->Inc(static_cast<uint64_t>(config_.request_timeout));
      co_await engine_->Sleep(config_.request_timeout);
    } else {
      // Media error: the device spends the access time before reporting
      // the failure.
      SimDuration dur =
          model_->Access(r->dir == IoDir::kWrite, r->blkno, r->count, engine_->Now());
      stat_busy_ns_->Inc(static_cast<uint64_t>(dur));
      co_await engine_->Sleep(dur);
      if (fault == FaultKind::kBadSector) {
        ++bad_hits;
        if (bad_hits >= 2) {
          // The same sectors failed verification twice: reallocate them
          // into the spare pool if spares remain. The remap is
          // transparent and LBA-preserving, so the next attempt both
          // succeeds and sees the original contents.
          std::vector<uint32_t> bad = config_.faults->BadBlocksIn(r->blkno, r->count);
          if (!bad.empty() &&
              spares_used_ + bad.size() <= static_cast<size_t>(config_.spare_blocks)) {
            for (uint32_t b : bad) {
              config_.faults->Remap(b);
              ++spares_used_;
              stat_remaps_->Inc();
              if (stats_->tracing()) {
                stats_->Trace(trace_names_.remap, {{"id", r->ids.front()}, {"blkno", b}});
              }
            }
            bad_hits = 0;
          }
        }
      }
    }
    if (attempts >= static_cast<uint32_t>(config_.max_retries)) {
      stat_gave_up_->Inc();
      if (stats_->tracing()) {
        stats_->Trace(trace_names_.gave_up, {{"id", r->ids.front()},
                                       {"blkno", r->blkno},
                                       {"count", r->count},
                                       {"attempts", attempts + 1}});
      }
      status = IoStatus::kFailed;
      break;
    }
    ++attempts;
    stat_retries_->Inc();
    // Exponential backoff in simulated time before the re-issue.
    co_await engine_->Sleep(backoff);
    backoff = std::min<SimDuration>(backoff * 2, config_.retry_backoff_cap);
  }
  co_return status;
}

void DiskDriver::Complete(Request* req, IoStatus status) {
  SimTime now = engine_->Now();
  if (status == IoStatus::kOk) {
    stat_response_->Record(now - req->issue_time);
    if (stats_->tracing()) {
      stats_->Trace(trace_names_.complete, {{"id", req->ids.front()},
                                      {"blkno", req->blkno},
                                      {"count", req->count},
                                      {"response_ns", now - req->issue_time}});
    }
    // Media transfer happens only on success: a failed write leaves the
    // image untouched, a failed read leaves the destination untouched.
    if (req->dir == IoDir::kWrite) {
      switch (static_cast<FaultKind>(req->silent_damage)) {
        case FaultKind::kTornWrite: {
          // A prefix of the transfer persists in full, the in-flight
          // block persists torn, the tail never reaches the medium.
          uint32_t torn_at = req->count / 2;
          for (uint32_t i = 0; i < torn_at; ++i) {
            image_->Write(MapLba(req->blkno + i), *req->data[i], engine_->Now());
          }
          image_->WriteTorn(MapLba(req->blkno + torn_at), *req->data[torn_at],
                            engine_->Now());
          break;
        }
        case FaultKind::kMisdirected: {
          // The whole payload lands one slip away; the intended range
          // keeps its stale content. The victim is picked in this disk's
          // own LBA space (a misdirection never jumps spindles).
          uint32_t victim =
              FaultInjector::MisdirectVictim(req->blkno, req->count, media_blocks_);
          for (uint32_t i = 0; i < req->count; ++i) {
            image_->Write(MapLba(victim + i), *req->data[i], engine_->Now());
          }
          break;
        }
        default:
          for (uint32_t i = 0; i < req->count; ++i) {
            image_->Write(MapLba(req->blkno + i), *req->data[i], engine_->Now());
          }
          break;
      }
    } else {
      image_->Read(MapLba(req->blkno), req->read_out);
    }
  } else if (stats_->tracing()) {
    stats_->Trace(trace_names_.complete, {{"id", req->ids.front()},
                                    {"blkno", req->blkno},
                                    {"count", req->count},
                                    {"response_ns", now - req->issue_time},
                                    {"status", IoStatusName(status)}});
  }
  gate_.Retire(*req);
  for (uint64_t id : req->ids) {
    gate_.Complete(id, status);
  }
  // Interrupt-level completion processing (must not block). Every ISR
  // receives the terminal status and must handle failure.
  for (auto& isr : req->isrs) {
    isr(status);
  }
}

void DiskDriver::Kick() { work_available_.NotifyAll(); }

size_t DiskDriver::PendingCount() const {
  size_t n = queue_.size() + accepted_.size();
  if (in_service_ != nullptr && device_queue_ == nullptr) {
    ++n;  // Depth 1: the in-service request is detached from the queue.
  }
  return n;
}

Task<void> DiskDriver::Drain() {
  while (PendingCount() != 0) {
    co_await queue_empty_.Await();
  }
}

}  // namespace mufs
