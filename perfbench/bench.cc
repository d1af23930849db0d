#include "perfbench/bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "bench/bench_common.h"
#include "perfbench/quantile.h"
#include "src/fsck/fsck.h"
#include "src/workload/tree_gen.h"

namespace perfbench {

using mufs::DiskImage;
using mufs::FsckOptions;
using mufs::FsckReport;
using mufs::FsStatus;
using mufs::Machine;
using mufs::PfsckStats;
using mufs::Proc;
using mufs::Result;
using mufs::Scheme;
using mufs::ShardLayout;
using mufs::SimDuration;
using mufs::SimTime;
using mufs::Task;

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Fnv1a(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

namespace {

double Secs(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// fsck threads: the 4-core host the benchmark was sized on.
constexpr uint32_t kFsckThreads = 4;

}  // namespace

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

uint64_t Tracer::Begin(const char* name, uint64_t parent, int64_t sim) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.host_start = HostNowNs();
  s.host_end = s.host_start;
  s.sim_start = sim;
  return Add(s);
}

void Tracer::End(uint64_t id, int64_t sim) {
  Span& s = spans_[id - 1];
  s.host_end = HostNowNs();
  s.sim_end = sim;
}

uint64_t Tracer::Add(Span span) {
  span.id = spans_.size() + 1;
  spans_.push_back(span);
  return span.id;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::vector<const Span*>> children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.request < 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (s.request >= 0) {
      continue;
    }
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const Span* c : children[s.id]) {
      cover.emplace_back(std::max(c->host_start, s.host_start),
                         std::min(c->host_end, s.host_end));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.host_start;
    for (const auto& [b, e] : cover) {
      int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    out[s.name] += Secs(s.host_end - s.host_start - covered);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path,
                        const std::vector<std::string>& machine_records) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"span\":\"%s\",\"id\":%llu,\"parent\":%llu,\"host_start_ns\":%lld,"
                 "\"host_end_ns\":%lld,\"sim_start_ns\":%lld,\"sim_end_ns\":%lld",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), static_cast<long long>(s.host_start),
                 static_cast<long long>(s.host_end), static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end));
    if (s.request >= 0) {
      std::fprintf(f, ",\"request\":%d", s.request);
    }
    if (s.op != nullptr) {
      std::fprintf(f, ",\"op\":\"%s\",\"status\":\"%s\"", s.op, s.status);
    }
    if (s.value != 0) {
      std::fprintf(f, ",\"value\":%.17g", s.value);
    }
    std::fputs("}\n", f);
  }
  for (const std::string& line : machine_records) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// FsOps
// ---------------------------------------------------------------------

const char* OpName(OpKind kind) {
  static constexpr const char* kNames[kOpKinds] = {
      "create", "unlink", "mkdir", "rmdir", "rename",
      "write",  "read",   "stat",  "lookup", "readdir",
  };
  return kNames[static_cast<int>(kind)];
}

bool IsMetaMutation(OpKind kind) { return static_cast<int>(kind) <= static_cast<int>(OpKind::kRename); }

void FsOps::set_user_span(int user, uint64_t id) {
  if (user_spans_.size() <= static_cast<size_t>(user)) {
    user_spans_.resize(static_cast<size_t>(user) + 1, 0);
  }
  user_spans_[static_cast<size_t>(user)] = id;
}

FsOps::Start FsOps::Begin() const {
  return Start{m_->engine().Now(), tracer_ != nullptr ? HostNowNs() : 0};
}

void FsOps::End(OpKind kind, int user, const Start& start, FsStatus status) {
  SimTime now = m_->engine().Now();
  samples_.push_back(OpSample{kind, user, status, now - start.sim});
  if (status != FsStatus::kOk) {
    ++failed_;
  }
  if (tracer_ != nullptr) {
    Span s;
    s.name = "fs_op";
    s.parent = static_cast<size_t>(user) < user_spans_.size()
                   ? user_spans_[static_cast<size_t>(user)]
                   : 0;
    s.host_start = start.host;
    s.host_end = HostNowNs();
    s.sim_start = start.sim;
    s.sim_end = now;
    s.request = user;
    s.op = OpName(kind);
    s.status = mufs::ToString(status).data();
    tracer_->Add(s);
  }
  if (after_op_) {
    after_op_();
  }
}

Task<Result<uint32_t>> FsOps::Create(Proc& p, int user, const std::string& path) {
  Start s = Begin();
  Result<uint32_t> r = co_await m_->vfs().Create(p, path);
  End(OpKind::kCreate, user, s, r.status());
  co_return r;
}

Task<FsStatus> FsOps::Mkdir(Proc& p, int user, const std::string& path) {
  Start s = Begin();
  FsStatus r = co_await m_->vfs().Mkdir(p, path);
  End(OpKind::kMkdir, user, s, r);
  co_return r;
}

Task<FsStatus> FsOps::Unlink(Proc& p, int user, const std::string& path) {
  Start s = Begin();
  FsStatus r = co_await m_->vfs().Unlink(p, path);
  End(OpKind::kUnlink, user, s, r);
  co_return r;
}

Task<FsStatus> FsOps::Rmdir(Proc& p, int user, const std::string& path) {
  Start s = Begin();
  FsStatus r = co_await m_->vfs().Rmdir(p, path);
  End(OpKind::kRmdir, user, s, r);
  co_return r;
}

Task<FsStatus> FsOps::Rename(Proc& p, int user, const std::string& from, const std::string& to) {
  Start s = Begin();
  FsStatus r = co_await m_->vfs().Rename(p, from, to);
  End(OpKind::kRename, user, s, r);
  co_return r;
}

Task<Result<uint32_t>> FsOps::Lookup(Proc& p, int user, const std::string& path) {
  Start s = Begin();
  Result<uint32_t> r = co_await m_->vfs().Lookup(p, path);
  End(OpKind::kLookup, user, s, r.status());
  co_return r;
}

Task<Result<mufs::StatInfo>> FsOps::Stat(Proc& p, int user, const std::string& path) {
  Start s = Begin();
  Result<mufs::StatInfo> r = co_await m_->vfs().Stat(p, path);
  End(OpKind::kStat, user, s, r.status());
  co_return r;
}

Task<Result<std::vector<mufs::DirEntryInfo>>> FsOps::ReadDir(Proc& p, int user,
                                                             const std::string& path) {
  Start s = Begin();
  Result<std::vector<mufs::DirEntryInfo>> r = co_await m_->vfs().ReadDir(p, path);
  End(OpKind::kReadDir, user, s, r.status());
  co_return r;
}

Task<Result<uint64_t>> FsOps::Read(Proc& p, int user, uint32_t ino, std::span<uint8_t> out) {
  Start s = Begin();
  Result<uint64_t> r = co_await m_->vfs().ReadFile(p, ino, 0, out);
  End(OpKind::kRead, user, s, r.status());
  co_return r;
}

uint64_t WholeTagSize(uint64_t bytes) {
  uint64_t tail = bytes % mufs::kBlockSize;
  return tail != 0 && tail < sizeof(mufs::DataBlockTag) ? bytes + sizeof(mufs::DataBlockTag)
                                                        : bytes;
}

Task<FsStatus> FsOps::WriteTagged(Proc& p, int user, uint32_t ino, uint64_t bytes) {
  bytes = WholeTagSize(bytes);
  Start s = Begin();
  Result<mufs::StatInfo> st = co_await m_->vfs().StatIno(p, ino);
  End(OpKind::kStat, user, s, st.status());
  if (!st.Ok()) {
    co_return st.status();
  }
  std::vector<uint8_t> data(bytes, 0x6d);
  for (uint64_t off = 0; off < bytes; off += mufs::kBlockSize) {
    if (bytes - off >= sizeof(mufs::DataBlockTag)) {
      mufs::TagDataBlock(data.data() + off, ino, st.value().generation);
    }
  }
  s = Begin();
  Result<uint64_t> w = co_await m_->vfs().WriteFile(p, ino, 0, data);
  End(OpKind::kWrite, user, s, w.status());
  co_return w.status();
}

// ---------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "workload.user_host_s", "workload.drain_host_s",
        "sim.events", "sim.host_ns_per_event", "sim.cpu_busy_s", "sim.cpu_share",
        "fs.any_dirty_inode_us",
    };
    for (int k = 0; k < kOpKinds; ++k) {
      std::string base = std::string("fs.op.") + OpName(static_cast<OpKind>(k));
      n.push_back(base + ".count");
      n.push_back(base + ".p50_ms");
      n.push_back(base + ".p99_ms");
    }
    for (const char* s : {
             "cache.dirty_count_us", "cache.hit_rate", "cache.misses", "cache.sync_writes",
             "cache.write_lock_waits", "cache.block_copies", "cache.evictions",
             "cache.dirty_blocks_max", "syncer.passes", "syncer.workitems",
             "policy.ordering_points", "su.undos", "su.redos", "su.deferred_frees",
             "su.workitems", "journal.txns", "journal.blocks_logged", "journal.forced_commits",
             "journal.checkpoint_stalls", "driver.requests", "driver.queue_depth_max",
             "driver.merged_requests", "driver.queue_ms_p50", "driver.queue_ms_p99",
             "disk.utilization", "disk.access_ms_mean", "disk.seek_s", "disk.rotation_s",
             "disk.transfer_s", "disk.prefetch_hits", "disk.blocks_read", "disk.blocks_written",
             "volume.splits", "volume.held", "disk0.utilization", "disk1.utilization",
             "fsck.check_host_s", "fsck.repair_host_s", "fsck.serial_check_host_s",
             "fsck.inode_scan_ns", "fsck.dir_walk_ns", "fsck.merge_ns", "fsck.audit_ns",
             "fsck.findings", "disk_image.snapshot_ms", "stats.dump_json_ms",
             "trace.overhead_s", "trace.self.setup_s", "trace.self.users_s",
             "trace.self.drain_s", "trace.self.shutdown_s", "trace.self.fsck_s",
         }) {
      n.emplace_back(s);
    }
    return n;
  }();
  return names;
}

namespace {

// The disk instances of a machine: "" for the single-disk machine (plain
// "disk.*" metric names), "disk<d>" per member disk of a volume.
std::vector<std::string> DiskInstances(Machine& m) {
  if (!m.IsMulti()) {
    return {""};
  }
  std::vector<std::string> out;
  for (size_t d = 0; d < m.NumDisks(); ++d) {
    out.push_back("disk" + std::to_string(d));
  }
  return out;
}

double SumDiskCounter(Machine& m, std::string_view base) {
  double sum = 0;
  for (const std::string& inst : DiskInstances(m)) {
    sum += static_cast<double>(m.stats().counter(mufs::InstanceMetricName(inst, base)).value());
  }
  return sum;
}

// The disk's bucket upper edge holding the nearest-rank `pct` sample, in
// ms, over every member disk's histogram (all share one edge set). The
// overflow bucket reads as the largest sample seen.
double BucketEdgeMs(Machine& m, std::string_view base, double pct) {
  std::vector<uint64_t> buckets;
  std::vector<SimDuration> edges;
  SimDuration max = 0;
  uint64_t count = 0;
  for (const std::string& inst : DiskInstances(m)) {
    const mufs::LatencyHistogram& h = m.stats().histogram(mufs::InstanceMetricName(inst, base));
    edges = h.edges();
    buckets.resize(h.buckets().size(), 0);
    for (size_t i = 0; i < h.buckets().size(); ++i) {
      buckets[i] += h.buckets()[i];
    }
    max = std::max(max, h.max());
    count += h.count();
  }
  if (count == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(count)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return mufs::ToMs(i < edges.size() ? edges[i] : max);
    }
  }
  return mufs::ToMs(max);
}

// Registry reads create missing metrics, so this runs only after the
// run's digest has been taken from DumpStatsJson.
void ReadLayerMetrics(Machine& m, std::map<std::string, double>* out) {
  auto counter = [&m](std::string_view name) {
    return static_cast<double>(m.stats().counter(name).value());
  };
  std::map<std::string, double>& L = *out;
  double hits = counter("cache.hits");
  double misses = counter("cache.misses");
  L["cache.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  L["cache.misses"] = misses;
  for (const char* name : {"cache.sync_writes", "cache.write_lock_waits", "cache.block_copies",
                           "cache.evictions", "syncer.passes", "syncer.workitems",
                           "policy.ordering_points", "su.undos", "su.redos",
                           "su.deferred_frees", "su.workitems", "journal.txns",
                           "journal.blocks_logged", "journal.forced_commits",
                           "journal.checkpoint_stalls", "volume.splits", "volume.held"}) {
    L[name] = counter(name);
  }
  L["cache.dirty_blocks_max"] = static_cast<double>(m.stats().gauge("cache.dirty_blocks").max());

  double requests = 0;
  double depth_max = 0;
  for (size_t d = 0; d < m.NumDisks(); ++d) {
    requests += static_cast<double>(m.driver(d).TotalRequests());
  }
  for (const std::string& inst : DiskInstances(m)) {
    depth_max = std::max(depth_max, static_cast<double>(
                                        m.stats()
                                            .gauge(mufs::InstanceMetricName(inst, "disk.queue_depth"))
                                            .max()));
  }
  L["driver.requests"] = requests;
  L["driver.queue_depth_max"] = depth_max;
  L["driver.merged_requests"] = SumDiskCounter(m, "disk.merged_requests");
  L["driver.queue_ms_p50"] = BucketEdgeMs(m, "disk.queue_ns", 50);
  L["driver.queue_ms_p99"] = BucketEdgeMs(m, "disk.queue_ns", 99);

  double now = static_cast<double>(m.engine().Now());
  double busy = SumDiskCounter(m, "disk.busy_ns");
  double disks = static_cast<double>(m.NumDisks());
  L["disk.utilization"] = now > 0 ? busy / (now * disks) : 0;
  double access_sum = 0;
  double access_n = 0;
  for (const std::string& inst : DiskInstances(m)) {
    const mufs::LatencyHistogram& h =
        m.stats().histogram(mufs::InstanceMetricName(inst, "disk.access_ns"));
    access_sum += static_cast<double>(h.sum());
    access_n += static_cast<double>(h.count());
  }
  L["disk.access_ms_mean"] = access_n > 0 ? access_sum / access_n / 1e6 : 0;
  L["disk.seek_s"] = SumDiskCounter(m, "disk.model.seek_ns") / 1e9;
  L["disk.rotation_s"] = SumDiskCounter(m, "disk.model.rotation_ns") / 1e9;
  L["disk.transfer_s"] = SumDiskCounter(m, "disk.model.transfer_ns") / 1e9;
  L["disk.prefetch_hits"] = SumDiskCounter(m, "disk.model.prefetch_hits");
  L["disk.blocks_read"] = SumDiskCounter(m, "disk.blocks_read");
  L["disk.blocks_written"] = SumDiskCounter(m, "disk.blocks_written");
  if (m.IsMulti()) {
    for (size_t d = 0; d < std::min<size_t>(2, m.NumDisks()); ++d) {
      std::string inst = "disk" + std::to_string(d);
      L[inst + ".utilization"] =
          now > 0 ? counter(mufs::InstanceMetricName(inst, "disk.busy_ns")) / now : 0;
    }
  }
}

void AddOpLayerMetrics(const std::vector<OpSample>& samples, std::map<std::string, double>* out) {
  std::vector<std::vector<double>> by_kind(kOpKinds);
  for (const OpSample& s : samples) {
    by_kind[static_cast<size_t>(s.kind)].push_back(mufs::ToMs(s.latency));
  }
  for (int k = 0; k < kOpKinds; ++k) {
    std::string base = std::string("fs.op.") + OpName(static_cast<OpKind>(k));
    Quantiles q = Summarize(by_kind[static_cast<size_t>(k)]);
    (*out)[base + ".count"] = static_cast<double>(q.n);
    (*out)[base + ".p50_ms"] = q.p50;
    (*out)[base + ".p99_ms"] = q.tail;
  }
}

bool Quiescent(Machine& m) {
  if (m.vfs().AnyDirtyInode()) {
    return false;
  }
  for (size_t d = 0; d < m.NumDisks(); ++d) {
    if (m.driver(d).PendingCount() != 0) {
      return false;
    }
  }
  for (size_t s = 0; s < m.NumShards(); ++s) {
    if (m.cache(s).DirtyCount() != 0 || m.syncer(s).PendingWork() != 0) {
      return false;
    }
  }
  return true;
}

Task<void> ShutdownRoot(Machine* m, Proc* proc, bool* done) {
  co_await m->Shutdown(*proc);
  *done = true;
}

ShardLayout LayoutOf(Machine& m) {
  ShardLayout layout;
  layout.num_shards = static_cast<uint32_t>(m.NumShards());
  layout.shard_blocks = m.ShardBlocks();
  layout.ino_stride = m.InoStride();
  return layout;
}

FsckOptions CheckOptions(uint32_t threads) {
  FsckOptions o;
  o.check_stale_data = true;
  o.threads = threads;
  return o;
}

// A volume image with more than one shard is checked shard by shard.
FsckReport CheckImage(const DiskImage& image, const ShardLayout& layout, uint32_t threads,
                      PfsckStats* stats) {
  if (layout.num_shards > 1) {
    return mufs::PfsckCheckSharded(image, layout, CheckOptions(threads), stats);
  }
  return mufs::PfsckCheck(&image, CheckOptions(threads), stats);
}

bool SameReport(const FsckReport& a, const FsckReport& b) {
  if (a.violations.size() != b.violations.size() || a.fixables.size() != b.fixables.size() ||
      a.inodes_in_use != b.inodes_in_use || a.dirs_seen != b.dirs_seen ||
      a.files_seen != b.files_seen || a.blocks_claimed != b.blocks_claimed) {
    return false;
  }
  for (size_t i = 0; i < a.violations.size(); ++i) {
    if (a.violations[i].type != b.violations[i].type ||
        a.violations[i].detail != b.violations[i].detail) {
      return false;
    }
  }
  for (size_t i = 0; i < a.fixables.size(); ++i) {
    if (a.fixables[i].detail != b.fixables[i].detail) {
      return false;
    }
  }
  return true;
}

uint64_t ReportDigest(const FsckReport& r, uint64_t h) {
  for (const mufs::FsckViolation& v : r.violations) {
    h = Fnv1a(v.detail.data(), v.detail.size(), h);
  }
  for (const mufs::FsckFixable& f : r.fixables) {
    h = Fnv1a(f.detail.data(), f.detail.size(), h);
  }
  uint64_t counts[] = {r.inodes_in_use, r.dirs_seen, r.files_seen, r.blocks_claimed};
  return Fnv1a(counts, sizeof(counts), h);
}

void AddPfsckStats(const PfsckStats& st, std::map<std::string, double>* out) {
  (*out)["fsck.inode_scan_ns"] += static_cast<double>(st.inode_scan_ns);
  (*out)["fsck.dir_walk_ns"] += static_cast<double>(st.dir_walk_ns);
  (*out)["fsck.merge_ns"] += static_cast<double>(st.merge_ns);
  (*out)["fsck.audit_ns"] += static_cast<double>(st.audit_ns);
}

// Host microseconds per call of `probe`, averaged over enough calls to
// rise well above the clock's resolution.
template <typename Fn>
double ProbeUs(Fn probe) {
  constexpr int kCalls = 64;
  int64_t t0 = HostNowNs();
  size_t sink = 0;
  for (int i = 0; i < kCalls; ++i) {
    sink += probe();
  }
  int64_t t1 = HostNowNs();
  volatile size_t keep = sink;
  (void)keep;
  return static_cast<double>(t1 - t0) / 1e3 / kCalls;
}

}  // namespace

// ---------------------------------------------------------------------
// RunSim
// ---------------------------------------------------------------------

SimOutcome RunSim(const SimSpec& spec, const RunOptions& options, uint64_t parent) {
  Tracer* tracer = options.tracer;
  SimOutcome out;
  const int64_t t_start = HostNowNs();
  SpanScope setup_span(tracer, "setup", parent);

  mufs::MachineConfig config = spec.config;
  config.collect_stats_trace = tracer != nullptr;
  Machine m(config);
  FsOps ops(&m, tracer);
  std::optional<SpanScope> users_span;
  int64_t hook_ns = 0;
  if (spec.after_op) {
    ops.set_after_op([&spec, &m, &users_span, &hook_ns] {
      const int64_t t = HostNowNs();
      spec.after_op(m, users_span ? users_span->id() : 0);
      hook_ns += HostNowNs() - t;
    });
  }

  struct Phase {
    int started = 0;
    int finished = 0;
    int64_t host_start = 0;
    int64_t host_end = 0;
    SimTime sim_start = 0;
    SimTime sim_end = 0;
    uint64_t events0 = 0;
    SimDuration cpu0 = 0;
  } ph;

  mufs::UserFn body = [&](Machine& mm, Proc& p, int u) -> Task<void> {
    if (ph.started++ == 0) {
      ph.host_start = HostNowNs();
      ph.sim_start = mm.engine().Now();
      ph.events0 = mm.engine().EventsProcessed();
      ph.cpu0 = mm.cpu().TotalCharged();
      setup_span.Close();
      users_span.emplace(tracer, "users", parent, ph.sim_start);
    }
    uint64_t user_span = 0;
    if (tracer != nullptr) {
      Span s;
      s.name = "user";
      s.parent = users_span->id();
      s.host_start = HostNowNs();
      s.sim_start = mm.engine().Now();
      s.request = u;
      user_span = tracer->Add(s);
      ops.set_user_span(u, user_span);
    }
    co_await spec.body(ops, p, u);
    if (tracer != nullptr) {
      tracer->End(user_span, mm.engine().Now());
    }
    if (++ph.finished == spec.users) {
      ph.host_end = HostNowNs();
      ph.sim_end = mm.engine().Now();
      users_span->Close(ph.sim_end);
    }
  };

  mufs::RunMultiUser(m, spec.users, spec.setup, body, spec.drop_caches_after_setup);
  // RunMultiUser gives up draining after 90 simulated seconds; keep going
  // so sim_drain_s always measures the time to full quiescence.
  if (!Quiescent(m)) {
    SimTime limit = m.engine().Now() + mufs::Sec(3600);
    m.engine().RunUntil([&m, limit] { return Quiescent(m) || m.engine().Now() >= limit; });
  }
  const int64_t t_quiet = HostNowNs();
  const SimTime sim_quiet = m.engine().Now();

  if (tracer != nullptr) {
    Span drain;
    drain.name = "drain";
    drain.parent = parent;
    drain.host_start = ph.host_end;
    drain.host_end = t_quiet;
    drain.sim_start = ph.sim_end;
    drain.sim_end = sim_quiet;
    tracer->Add(drain);
    // Per-call host cost of the two scans RunMultiUser's drain predicate
    // runs. Nothing is dirty now, so AnyDirtyInode walks the whole inode
    // cache, as each predicate call does once every inode is clean;
    // DirtyCount always walks the whole buffer table.
    auto probe = [&](const char* name, double calls_per_probe, auto fn) {
      Span s;
      s.name = name;
      s.parent = parent;
      s.sim_start = s.sim_end = sim_quiet;
      s.host_start = HostNowNs();
      s.value = ProbeUs(fn) / calls_per_probe;
      s.host_end = HostNowNs();
      tracer->Add(s);
      return s.value;
    };
    out.layers["fs.any_dirty_inode_us"] = probe("probe.any_dirty_inode_us", 1, [&m] {
      return static_cast<size_t>(m.vfs().AnyDirtyInode());
    });
    out.layers["cache.dirty_count_us"] =
        probe("probe.dirty_count_us", static_cast<double>(m.NumShards()), [&m] {
          size_t n = 0;
          for (size_t s = 0; s < m.NumShards(); ++s) {
            n += m.cache(s).DirtyCount();
          }
          return n;
        });
  }

  const int64_t t_probed = HostNowNs();
  std::string stats_json = m.DumpStatsJson();
  const int64_t t_dumped = HostNowNs();
  out.dump_json_ms = static_cast<double>(t_dumped - t_probed) / 1e6;
  if (tracer != nullptr) {
    Span dump;
    dump.name = "dump_stats_json";
    dump.parent = parent;
    dump.host_start = t_probed;
    dump.host_end = t_dumped;
    tracer->Add(dump);
  }

  // RunMultiUser's own DumpStatsJson, which ends its drain, is taken out
  // of drain_s by subtracting the one timed above.
  out.setup_s = Secs(ph.host_start - t_start);
  out.users_s = Secs(ph.host_end - ph.host_start - hook_ns);
  out.host_s = Secs(t_quiet - ph.host_start - hook_ns);
  out.drain_s = Secs(t_quiet - ph.host_end) - out.dump_json_ms / 1e3;
  out.samples = ops.samples();
  out.ops = out.samples.size();
  out.failed = ops.failed();
  out.user_sim_s = mufs::ToSeconds(ph.sim_end - ph.sim_start);
  out.drain_sim_s = mufs::ToSeconds(sim_quiet - ph.sim_end);

  uint64_t h = Fnv1a(stats_json.data(), stats_json.size());
  for (const OpSample& s : out.samples) {
    int64_t fields[] = {static_cast<int64_t>(s.kind), s.user, static_cast<int64_t>(s.status),
                        s.latency};
    h = Fnv1a(fields, sizeof(fields), h);
  }
  out.digest = h;

  uint64_t events = m.engine().EventsProcessed() - ph.events0;
  double cpu_busy = mufs::ToSeconds(m.cpu().TotalCharged() - ph.cpu0);
  double span_s = mufs::ToSeconds(sim_quiet - ph.sim_start);
  out.layers["workload.user_host_s"] = out.users_s;
  out.layers["workload.drain_host_s"] = out.drain_s;
  out.layers["stats.dump_json_ms"] = out.dump_json_ms;
  out.layers["sim.events"] = static_cast<double>(events);
  out.layers["sim.host_ns_per_event"] =
      events > 0 ? out.host_s * 1e9 / static_cast<double>(events) : 0;
  out.layers["sim.cpu_busy_s"] = cpu_busy;
  out.layers["sim.cpu_share"] =
      span_s > 0 ? cpu_busy / (span_s * static_cast<double>(m.cpu().Cores())) : 0;
  ReadLayerMetrics(m, &out.layers);
  AddOpLayerMetrics(out.samples, &out.layers);

  {
    SpanScope shutdown_span(tracer, "shutdown", parent, m.engine().Now());
    bool done = false;
    Proc proc = m.MakeProc("shutdown");
    m.engine().Spawn(ShutdownRoot(&m, &proc, &done), "shutdown");
    m.engine().RunUntil([&done] { return done; });
    shutdown_span.Close(m.engine().Now());
  }

  {
    SpanScope fsck_span(tracer, "fsck", parent);
    const ShardLayout layout = LayoutOf(m);
    PfsckStats stats;
    int64_t c0 = HostNowNs();
    FsckReport report = CheckImage(m.image(), layout, kFsckThreads, &stats);
    int64_t c1 = HostNowNs();
    out.findings = report.violations.size() + report.fixables.size();
    if (!report.violations.empty()) {
      out.first_finding = std::string(mufs::ToString(report.violations[0].type)) + ": " +
                          report.violations[0].detail;
    } else if (!report.fixables.empty()) {
      out.first_finding = "fixable: " + report.fixables[0].detail;
    }
    out.layers["fsck.check_host_s"] = Secs(c1 - c0);
    out.layers["fsck.findings"] = static_cast<double>(out.findings);
    AddPfsckStats(stats, &out.layers);
    if (options.verify) {
      FsckReport serial = CheckImage(m.image(), layout, 0, nullptr);
      out.layers["fsck.serial_check_host_s"] = Secs(HostNowNs() - c1);
      out.serial_matches = SameReport(report, serial);
    }
  }
  if (tracer != nullptr) {
    out.machine_trace = m.stats().trace_lines();
  }
  return out;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

namespace {

// Every input a workload draws comes from the benchmark seed; the machine
// keeps its own default seed.
uint64_t InputSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
}

std::string UserDir(int u) { return "/u" + std::to_string(u); }

mufs::SetupFn MakeUserDirs(int users, uint64_t* failures) {
  return [users, failures](Machine& m, Proc& p) -> Task<void> {
    for (int u = 0; u < users; ++u) {
      std::string dir = UserDir(u);
      FsStatus s = co_await m.vfs().Mkdir(p, dir);
      *failures += s != FsStatus::kOk;
    }
  };
}

// Fills the fields every simulated workload reports the same way.
RepResult FromSim(const SimOutcome& o, const char* label, double extra_setup_s) {
  RepResult r;
  r.setup_s = o.setup_s + extra_setup_s;
  r.host_s = o.host_s;
  r.attempted = o.ops;
  r.failed = o.failed;
  r.digest = o.digest;
  r.sim_ops = o.ops;
  r.sim_user_s = o.user_sim_s;
  r.sim_drain_s = o.drain_sim_s;
  for (const OpSample& s : o.samples) {
    if (IsMetaMutation(s.kind)) {
      r.mutation_ms.push_back(mufs::ToMs(s.latency));
    }
  }
  r.layers = o.layers;
  r.machine_trace = o.machine_trace;
  if (o.findings != 0) {
    r.errors.push_back(std::string(label) + ": fsck after Shutdown found " +
                       std::to_string(o.findings) + " findings, first: " + o.first_finding);
  }
  if (!o.serial_matches) {
    r.errors.push_back(std::string(label) + ": threaded fsck report differs from serial");
  }
  if (o.failed != 0) {
    r.errors.push_back(std::string(label) + ": " + std::to_string(o.failed) + " FS ops failed");
  }
  return r;
}

void CheckSetup(uint64_t failures, const char* label, RepResult* r) {
  if (failures != 0) {
    r->errors.push_back(std::string(label) + ": " + std::to_string(failures) +
                        " set-up ops failed");
  }
}

// small_churn's set-up: the user directories, then a first round of the
// churn in each, so that the user phase starts with the directory,
// inode-table and bitmap blocks it works on already cached.
mufs::SetupFn WarmChurnDirs(int users, int files, uint64_t* failures) {
  return [users, files, failures](Machine& m, Proc& p) -> Task<void> {
    for (int u = 0; u < users; ++u) {
      const std::string dir = UserDir(u);
      FsStatus s = co_await m.vfs().Mkdir(p, dir);
      *failures += s != FsStatus::kOk;
      for (int i = 0; i < files; ++i) {
        const std::string path = dir + "/w" + std::to_string(i);
        Result<uint32_t> ino = co_await m.vfs().Create(p, path);
        if (!ino.Ok()) {
          ++*failures;
          continue;
        }
        s = co_await mufs::WriteTagged(m, p, ino.value(), WholeTagSize(1024));
        *failures += s != FsStatus::kOk;
        s = co_await m.vfs().Unlink(p, path);
        *failures += s != FsStatus::kOk;
      }
    }
  };
}

// small_churn: SoftUpdates, 8 users, warm cache. Each user creates,
// writes about 1 KB and unlinks files in a private directory.
RepResult SmallChurn(const RunOptions& o) {
  const int users = 8;
  const int triples = o.reduced ? 40 : 600;
  const int warm_files = o.reduced ? 8 : 100;
  uint64_t setup_failures = 0;
  SimSpec spec;
  spec.config = mufs::BenchConfig(Scheme::kSoftUpdates);
  spec.users = users;
  spec.drop_caches_after_setup = false;
  spec.setup = WarmChurnDirs(users, warm_files, &setup_failures);
  const uint64_t seed = o.seed;
  spec.body = [seed, triples](FsOps& ops, Proc& p, int u) -> Task<void> {
    mufs::Rng rng(InputSeed(seed, static_cast<uint64_t>(u)));
    const std::string dir = UserDir(u);
    for (int i = 0; i < triples; ++i) {
      std::string path = dir + "/f" + std::to_string(i);
      Result<uint32_t> ino = co_await ops.Create(p, u, path);
      if (!ino.Ok()) {
        continue;
      }
      uint64_t bytes = 512 + rng.Next() % 1024;
      FsStatus w = co_await ops.WriteTagged(p, u, ino.value(), bytes);
      (void)w;
      FsStatus r = co_await ops.Unlink(p, u, path);
      (void)r;
    }
  };
  RepResult r = FromSim(RunSim(spec, o, 0), "small_churn", 0);
  CheckSetup(setup_failures, "small_churn", &r);
  return r;
}

// tree_copy: SchedulerFlag Part-NR/CB with allocation initialisation,
// 4 users each copying one shared, cold, seeded 535-file tree.
RepResult TreeCopy(const RunOptions& o) {
  const int64_t t0 = HostNowNs();
  mufs::TreeGenOptions gen;
  gen.seed = InputSeed(o.seed, 0);
  if (o.reduced) {
    gen.file_count = 60;
    gen.total_bytes = 1'200'000;
    gen.dir_count = 6;
  }
  mufs::TreeSpec spec_tree = mufs::GenerateTree(gen);
  for (mufs::TreeSpec::File& f : spec_tree.files) {
    f.size = WholeTagSize(f.size);  // mufs::PopulateTree writes the source as given.
  }
  auto tree = std::make_shared<const mufs::TreeSpec>(std::move(spec_tree));
  const double gen_s = Secs(HostNowNs() - t0);

  uint64_t setup_failures = 0;
  SimSpec spec;
  spec.config = mufs::BenchConfig(Scheme::kSchedulerFlag, /*alloc_init=*/true);
  spec.users = 4;
  spec.setup = [tree, &setup_failures](Machine& m, Proc& p) -> Task<void> {
    FsStatus s = co_await mufs::PopulateTree(m, p, *tree, "/src");
    setup_failures += s != FsStatus::kOk;
  };
  spec.body = [tree](FsOps& ops, Proc& p, int u) -> Task<void> {
    const std::string dst = "/copy" + std::to_string(u);
    FsStatus s = co_await ops.Mkdir(p, u, dst);
    for (const std::string& dir : tree->directories) {
      std::string path = dst + "/" + dir;
      s = co_await ops.Mkdir(p, u, path);
    }
    (void)s;
    std::vector<uint8_t> buffer;
    for (const mufs::TreeSpec::File& f : tree->files) {
      std::string src = "/src/" + f.path;
      Result<uint32_t> in = co_await ops.Lookup(p, u, src);
      if (!in.Ok()) {
        continue;
      }
      buffer.resize(f.size);
      Result<uint64_t> rd = co_await ops.Read(p, u, in.value(), buffer);
      (void)rd;
      std::string path = dst + "/" + f.path;
      Result<uint32_t> outf = co_await ops.Create(p, u, path);
      if (outf.Ok()) {
        FsStatus w = co_await ops.WriteTagged(p, u, outf.value(), f.size);
        (void)w;
      }
    }
  };
  RepResult r = FromSim(RunSim(spec, o, 0), "tree_copy", gen_s);
  CheckSetup(setup_failures, "tree_copy", &r);
  return r;
}

// One Sdet-like script in `dir`: create+write, read, edit, unlink,
// stat/readdir, mkdir/rmdir, rename and compile, in the proportions of
// mufs::SdetScript. Every op is chosen so that it succeeds: names are
// unique, removed files exist and removed subdirectories are empty.
Task<void> SdetMix(FsOps& ops, Proc& p, int u, const std::string& dir, uint64_t seed, int n) {
  Machine& m = ops.machine();
  mufs::Rng rng(seed);
  FsStatus s = co_await ops.Mkdir(p, u, dir);
  (void)s;
  std::vector<std::string> files;
  std::vector<std::string> subdirs;
  std::vector<uint8_t> buf(8192);
  int name = 0;
  for (int i = 0; i < n; ++i) {
    double r = rng.UniformDouble();
    if (r < 0.18 || files.empty()) {
      std::string path = dir + "/f" + std::to_string(name++);
      Result<uint32_t> ino = co_await ops.Create(p, u, path);
      if (ino.Ok()) {
        s = co_await ops.WriteTagged(p, u, ino.value(), 512 + rng.Next() % 8192);
        files.push_back(path);
      }
    } else if (r < 0.38) {
      const std::string& path = files[rng.Next() % files.size()];
      Result<uint32_t> ino = co_await ops.Lookup(p, u, path);
      if (ino.Ok()) {
        Result<uint64_t> rd = co_await ops.Read(p, u, ino.value(), buf);
        (void)rd;
      }
    } else if (r < 0.53) {
      const std::string& path = files[rng.Next() % files.size()];
      Result<uint32_t> ino = co_await ops.Lookup(p, u, path);
      if (ino.Ok()) {
        co_await m.cpu().Consume(p.pid, mufs::Msec(15));  // The editor.
        s = co_await ops.WriteTagged(p, u, ino.value(), 512 + rng.Next() % 8192);
      }
    } else if (r < 0.63) {
      size_t idx = rng.Next() % files.size();
      s = co_await ops.Unlink(p, u, files[idx]);
      if (s == FsStatus::kOk) {
        files.erase(files.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else if (r < 0.71) {
      if (rng.Next() % 2 == 0) {
        const std::string& path = files[rng.Next() % files.size()];
        Result<mufs::StatInfo> st = co_await ops.Stat(p, u, path);
        (void)st;
      } else {
        Result<std::vector<mufs::DirEntryInfo>> ls = co_await ops.ReadDir(p, u, dir);
        (void)ls;
      }
    } else if (r < 0.76) {
      std::string sub = dir + "/sub" + std::to_string(name++);
      s = co_await ops.Mkdir(p, u, sub);
      if (s == FsStatus::kOk) {
        subdirs.push_back(sub);
      }
    } else if (r < 0.80 && !subdirs.empty()) {
      size_t idx = rng.Next() % subdirs.size();
      s = co_await ops.Rmdir(p, u, subdirs[idx]);
      if (s == FsStatus::kOk) {
        subdirs.erase(subdirs.begin() + static_cast<ptrdiff_t>(idx));
      }
    } else if (r < 0.86) {
      size_t idx = rng.Next() % files.size();
      std::string to = dir + "/r" + std::to_string(name++);
      s = co_await ops.Rename(p, u, files[idx], to);
      if (s == FsStatus::kOk) {
        files[idx] = to;
      }
    } else {
      const std::string& path = files[rng.Next() % files.size()];
      Result<uint32_t> ino = co_await ops.Lookup(p, u, path);
      if (ino.Ok()) {
        Result<uint64_t> rd = co_await ops.Read(p, u, ino.value(), buf);
        (void)rd;
        co_await m.cpu().Consume(p.pid, mufs::Msec(80));  // The compiler.
        std::string obj = dir + "/o" + std::to_string(name++);
        Result<uint32_t> oino = co_await ops.Create(p, u, obj);
        if (oino.Ok()) {
          s = co_await ops.WriteTagged(p, u, oino.value(), 2048 + rng.Next() % 16384);
          files.push_back(obj);
        }
      }
    }
  }
}

// sdet_mix: Journaling on a 2-disk striped volume, 8 users each running
// seeded Sdet-mix scripts in private directories.
RepResult SdetMixWorkload(const RunOptions& o) {
  const int users = 8;
  const int scripts = o.reduced ? 2 : 8;
  const int ops_per_script = o.reduced ? 40 : 200;
  uint64_t setup_failures = 0;
  SimSpec spec;
  spec.config = mufs::BenchConfig(Scheme::kJournaling);
  spec.config.disks = 2;
  spec.users = users;
  spec.setup = MakeUserDirs(users, &setup_failures);
  const uint64_t seed = o.seed;
  spec.body = [seed, scripts, ops_per_script](FsOps& ops, Proc& p, int u) -> Task<void> {
    for (int k = 0; k < scripts; ++k) {
      std::string dir = UserDir(u) + "/s" + std::to_string(k);
      uint64_t script_seed = InputSeed(seed, static_cast<uint64_t>(u * scripts + k));
      co_await SdetMix(ops, p, u, dir, script_seed, ops_per_script);
    }
  };
  RepResult r = FromSim(RunSim(spec, o, 0), "sdet_mix", 0);
  CheckSetup(setup_failures, "sdet_mix", &r);
  return r;
}

// Threaded check and repair of one crash image: the timed work of the
// crash_recovery workload.
struct CrashCheck {
  const RunOptions* options;
  std::map<std::string, double>* layers;
  int64_t check_ns = 0;
  int64_t repair_ns = 0;
  int64_t serial_ns = 0;
  uint64_t images = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;

  // `parent`: the users phase span the image was taken in.
  void Run(DiskImage image, const ShardLayout& layout, uint64_t parent) {
    Tracer* tracer = options->tracer;
    SpanScope image_span(tracer, "fsck", parent);
    PfsckStats stats;
    SpanScope check_span(tracer, "check", image_span.id());
    int64_t t0 = HostNowNs();
    FsckReport report = CheckImage(image, layout, kFsckThreads, &stats);
    check_ns += HostNowNs() - t0;
    check_span.Close();
    digest = ReportDigest(report, digest);
    (*layers)["fsck.findings"] +=
        static_cast<double>(report.violations.size() + report.fixables.size());
    bool differs = false;
    if (options->verify) {
      SpanScope serial_span(tracer, "serial_check", image_span.id());
      int64_t s0 = HostNowNs();
      differs = !SameReport(report, CheckImage(image, layout, 0, nullptr));
      serial_ns += HostNowNs() - s0;
    }
    SpanScope repair_span(tracer, "repair", image_span.id());
    FsckOptions opts = CheckOptions(kFsckThreads);
    bool clean = false;
    int64_t r0 = HostNowNs();
    if (layout.num_shards > 1) {
      mufs::FsckRepairReport merged;
      mufs::PfsckRepairSharded(&image, layout, opts, &merged, &stats);
      clean = merged.clean_after;
    } else {
      clean = mufs::PfsckRepair(&image, opts, &stats).clean_after;
    }
    repair_ns += HostNowNs() - r0;
    AddPfsckStats(stats, layers);
    ++images;
    failed += differs || !clean;
  }
};

// crash_recovery: NoOrder churn on a 1-disk and a 4-disk machine. Crash
// images are taken along each run; the timed phase is the threaded check
// and repair of every image. Each image is checked and repaired as soon
// as it is taken and then dropped, so only one is alive at a time; the
// set-up time is the rest of the run's host time.
RepResult CrashRecovery(const RunOptions& o) {
  const int64_t t_start = HostNowNs();
  const int files_per_user = 250;
  const size_t images_per_machine = o.reduced ? 2 : 8;

  std::map<std::string, double> fsck_layers;
  for (const char* name : {"fsck.inode_scan_ns", "fsck.dir_walk_ns", "fsck.merge_ns",
                           "fsck.audit_ns", "fsck.findings"}) {
    fsck_layers[name] = 0;
  }
  CrashCheck crash{&o, &fsck_layers};
  int64_t snapshot_ns = 0;
  std::optional<RepResult> first;
  std::vector<std::string> errors;
  uint64_t setup_failures = 0;
  for (uint32_t disks : {1u, 4u}) {
    SimSpec spec;
    spec.config = mufs::BenchConfig(Scheme::kNoOrder);
    spec.config.disks = disks;
    // 16 users keep the user phase long enough for the syncer to commit
    // writes at well over images_per_machine distinct points.
    spec.users = 16;
    spec.setup = MakeUserDirs(spec.users, &setup_failures);
    const uint64_t seed = o.seed + disks;
    spec.body = [seed, files_per_user](FsOps& ops, Proc& p, int u) -> Task<void> {
      mufs::Rng rng(InputSeed(seed, static_cast<uint64_t>(u)));
      std::vector<std::string> files;
      std::string sub;
      for (int i = 0; i < files_per_user; ++i) {
        if (i % 24 == 0) {
          sub = UserDir(u) + "/d" + std::to_string(i / 24);
          FsStatus s = co_await ops.Mkdir(p, u, sub);
          (void)s;
        }
        std::string path = sub + "/f" + std::to_string(i);
        Result<uint32_t> ino = co_await ops.Create(p, u, path);
        if (!ino.Ok()) {
          continue;
        }
        FsStatus s = co_await ops.WriteTagged(p, u, ino.value(), 512 + rng.Next() % 6144);
        files.push_back(path);
        if (files.size() > 1 && rng.Bernoulli(0.3)) {
          size_t idx = rng.Next() % (files.size() - 1);
          s = co_await ops.Unlink(p, u, files[idx]);
          files.erase(files.begin() + static_cast<ptrdiff_t>(idx));
        }
        (void)s;
      }
    };
    // A first, untraced run lists the device write counts seen at op
    // boundaries of the user phase. The second, identical run takes a
    // crash image at images_per_machine of them, evenly spaced.
    std::vector<uint64_t> seen;
    spec.after_op = [&seen](Machine& m, uint64_t) {
      uint64_t writes = m.image().WriteCount();
      if (seen.empty() || seen.back() != writes) {
        seen.push_back(writes);
      }
    };
    RunOptions count_run = o;
    count_run.tracer = nullptr;
    count_run.verify = false;
    RunSim(spec, count_run, 0);

    std::vector<uint64_t> points;
    for (size_t i = 1; i <= images_per_machine && seen.size() > images_per_machine; ++i) {
      points.push_back(seen[i * (seen.size() - 1) / images_per_machine]);
    }
    size_t taken = 0;
    spec.after_op = [&](Machine& m, uint64_t users_span) {
      if (taken == points.size() || m.image().WriteCount() != points[taken]) {
        return;
      }
      ++taken;
      SpanScope snapshot_span(o.tracer, "snapshot", users_span);
      int64_t t = HostNowNs();
      DiskImage image = m.CrashNow();
      snapshot_ns += HostNowNs() - t;
      snapshot_span.Close();
      crash.Run(std::move(image), LayoutOf(m), users_span);
    };
    SimOutcome sim = RunSim(spec, o, 0);
    crash.digest = Fnv1a(&sim.digest, sizeof(sim.digest), crash.digest);
    std::string label = "crash_recovery/" + std::to_string(disks) + "d";
    RepResult part = FromSim(sim, label.c_str(), 0);
    errors.insert(errors.end(), part.errors.begin(), part.errors.end());
    if (taken != images_per_machine) {
      errors.push_back(label + ": " + std::to_string(taken) + " crash images, expected " +
                       std::to_string(images_per_machine));
    }
    if (!first) {
      first = std::move(part);
    }
  }

  // Simulated metrics and layers are the 1-disk source run's; the fsck
  // layers are the timed phase's.
  RepResult r = std::move(*first);
  r.errors = std::move(errors);
  CheckSetup(setup_failures, "crash_recovery", &r);
  for (const auto& [name, value] : fsck_layers) {
    r.layers[name] = value;
  }
  r.layers["disk_image.snapshot_ms"] =
      crash.images > 0 ? static_cast<double>(snapshot_ns) / 1e6 / static_cast<double>(crash.images)
                       : 0;
  r.layers["fsck.check_host_s"] = Secs(crash.check_ns);
  r.layers["fsck.repair_host_s"] = Secs(crash.repair_ns);
  r.layers["fsck.serial_check_host_s"] = Secs(crash.serial_ns);
  r.host_s = Secs(crash.check_ns + crash.repair_ns);
  r.setup_s = Secs(HostNowNs() - t_start) - r.host_s - Secs(crash.serial_ns);
  r.attempted = crash.images;
  r.failed = crash.failed;
  r.digest = crash.digest;
  if (crash.failed != 0) {
    r.errors.push_back("crash_recovery: " + std::to_string(crash.failed) +
                       " images failed the serial comparison or did not repair clean");
  }
  return r;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"small_churn", SmallChurn, 32},
      {"tree_copy", TreeCopy, 32},
      {"sdet_mix", SdetMixWorkload, 24},
      {"crash_recovery", CrashRecovery, 4},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
