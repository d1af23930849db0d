// The repository benchmark: four seeded workloads driven through the
// public API (Machine, RunMultiUser, FsInterface, pfsck), measured on
// both clocks.
//
// Host time is measured from outside, by timing the calls this benchmark
// makes into public functions. Simulated time and counts are read from the
// machine's StatsRegistry after the run. Every FS call a workload makes
// goes through FsOps, which stamps it in simulated and host time, so op
// latencies are exact samples rather than histogram buckets.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/fsck/pfsck.h"
#include "src/workload/workloads.h"

namespace perfbench {

// steady_clock nanoseconds.
int64_t HostNowNs();

// ---------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------

// One timed interval. Ids are 1-based; parent 0 is the root. Sim times
// are -1 where a span has no simulated extent (fsck, set-up outside the
// engine).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t host_start = 0;
  int64_t host_end = 0;
  int64_t sim_start = -1;
  int64_t sim_end = -1;
  int request = -1;              // User and FS op spans: the issuing user.
  const char* op = nullptr;      // FS op spans: the op type.
  const char* status = nullptr;  // FS op spans: FsStatus name.
  double value = 0;              // Probe spans: the probe's reading.
};

class Tracer {
 public:
  uint64_t Begin(const char* name, uint64_t parent, int64_t sim = -1);
  void End(uint64_t id, int64_t sim = -1);
  // Records an already finished span (FS ops, probes).
  uint64_t Add(Span span);
  const std::vector<Span>& spans() const { return spans_; }
  // Host seconds of each phase span name not covered by its child phase
  // spans, summed over spans of that name. User and FS op spans (those
  // with a request id) are left out: concurrent users interleave on the
  // one host thread, so their host intervals overlap and carry no
  // exclusive host time.
  std::map<std::string, double> SelfSeconds() const;
  // Spans, then the machine's own stats-trace records, one JSON object
  // per line. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path, const std::vector<std::string>& machine_records) const;

 private:
  std::vector<Span> spans_;
};

// Begins a span on construction and ends it on destruction; inert when
// the tracer is null (untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t parent, int64_t sim = -1)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, parent, sim) : 0) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return id_; }
  void Close(int64_t sim = -1) {
    if (tracer_ != nullptr) {
      tracer_->End(id_, sim);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// ---------------------------------------------------------------------
// Timed FS operations
// ---------------------------------------------------------------------

enum class OpKind : uint8_t {
  kCreate,
  kUnlink,
  kMkdir,
  kRmdir,
  kRename,
  kWrite,
  kRead,
  kStat,
  kLookup,
  kReadDir,
};
inline constexpr int kOpKinds = 10;
const char* OpName(OpKind kind);
// The metadata mutations whose return latency the paper's schemes differ on.
bool IsMetaMutation(OpKind kind);

// `bytes` grown, where needed, so that no data block ends up holding a
// tail too short for a whole DataBlockTag: the post-Shutdown stale-data
// check reads every data block's tag.
uint64_t WholeTagSize(uint64_t bytes);

struct OpSample {
  OpKind kind;
  int user;
  mufs::FsStatus status;
  mufs::SimDuration latency;
};

// The FsInterface calls a workload makes, each stamped in simulated and
// host time. A call whose status is not kOk counts as failed.
class FsOps {
 public:
  FsOps(mufs::Machine* m, Tracer* tracer) : m_(m), tracer_(tracer) {}

  mufs::Machine& machine() { return *m_; }
  // Parent span of `user`'s op spans.
  void set_user_span(int user, uint64_t id);
  // Runs after every op; the crash workload snapshots images from here.
  void set_after_op(std::function<void()> fn) { after_op_ = std::move(fn); }

  mufs::Task<mufs::Result<uint32_t>> Create(mufs::Proc& p, int user, const std::string& path);
  mufs::Task<mufs::FsStatus> Mkdir(mufs::Proc& p, int user, const std::string& path);
  mufs::Task<mufs::FsStatus> Unlink(mufs::Proc& p, int user, const std::string& path);
  mufs::Task<mufs::FsStatus> Rmdir(mufs::Proc& p, int user, const std::string& path);
  mufs::Task<mufs::FsStatus> Rename(mufs::Proc& p, int user, const std::string& from,
                                    const std::string& to);
  mufs::Task<mufs::Result<uint32_t>> Lookup(mufs::Proc& p, int user, const std::string& path);
  mufs::Task<mufs::Result<mufs::StatInfo>> Stat(mufs::Proc& p, int user,
                                                const std::string& path);
  mufs::Task<mufs::Result<std::vector<mufs::DirEntryInfo>>> ReadDir(mufs::Proc& p, int user,
                                                                    const std::string& path);
  mufs::Task<mufs::Result<uint64_t>> Read(mufs::Proc& p, int user, uint32_t ino,
                                          std::span<uint8_t> out);
  // Stats the inode for its generation, then writes WholeTagSize(bytes)
  // of fsck-tagged data at offset 0 (a stat op and a write op).
  mufs::Task<mufs::FsStatus> WriteTagged(mufs::Proc& p, int user, uint32_t ino,
                                         uint64_t bytes);

  const std::vector<OpSample>& samples() const { return samples_; }
  uint64_t failed() const { return failed_; }

 private:
  struct Start {
    mufs::SimTime sim;
    int64_t host;
  };
  Start Begin() const;
  void End(OpKind kind, int user, const Start& start, mufs::FsStatus status);

  mufs::Machine* m_;
  Tracer* tracer_;
  std::vector<uint64_t> user_spans_;
  std::function<void()> after_op_;
  std::vector<OpSample> samples_;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------
// One simulated run: RunMultiUser, drain, Shutdown, fsck
// ---------------------------------------------------------------------

using UserBody = std::function<mufs::Task<void>(FsOps&, mufs::Proc&, int)>;

struct SimSpec {
  mufs::MachineConfig config;
  int users = 1;
  bool drop_caches_after_setup = true;
  mufs::SetupFn setup;
  UserBody body;
  // Optional hook run after every FS op, with the machine and the users
  // phase span, the parent of any span the hook opens. Its host time is
  // left out of users_s and host_s.
  std::function<void(mufs::Machine&, uint64_t users_span)> after_op;
};

struct SimOutcome {
  // Host seconds.
  double setup_s = 0;  // Machine construction through the first user's start.
  double users_s = 0;  // First user's start to last user's return, less after_op.
  double drain_s = 0;  // Last user's return to quiescence, less one DumpStatsJson.
  double host_s = 0;   // users_s + everything up to quiescence.
  double dump_json_ms = 0;
  // Simulated results.
  uint64_t ops = 0;
  uint64_t failed = 0;
  double user_sim_s = 0;  // Simulated seconds from the first user's start to the last's return.
  double drain_sim_s = 0;
  std::vector<OpSample> samples;
  uint64_t digest = 0;  // Final DumpStatsJson plus the ordered op samples.
  // Output check: findings of the post-Shutdown fsck (0 = clean).
  uint64_t findings = 0;
  std::string first_finding;
  bool serial_matches = true;  // Verifying runs also run the serial checker.
  // Per-layer metrics (see LayerMetricNames in bench.cc).
  std::map<std::string, double> layers;
  std::vector<std::string> machine_trace;
};

struct RunOptions;
SimOutcome RunSim(const SimSpec& spec, const RunOptions& options, uint64_t parent_span);

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

// One repetition of a workload on one input set: set-up, timed phase,
// output checks.
struct RepResult {
  double setup_s = 0;
  double host_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // Failed output checks; empty = correct.
  uint64_t digest = 0;
  // Simulated results of the user phase and drain, exact for the input
  // set; the runner combines them over a run's input sets.
  uint64_t sim_ops = 0;
  double sim_user_s = 0;
  double sim_drain_s = 0;
  std::vector<double> mutation_ms;  // Return latencies of metadata mutations.
  std::map<std::string, double> layers;
  std::vector<std::string> machine_trace;
};

struct RunOptions {
  uint64_t seed = 1;
  bool reduced = false;      // The small sizes the benchmark's own tests use.
  Tracer* tracer = nullptr;  // Non-null: record spans and per-layer probes.
  // Also run the serial checker and require its report to equal the
  // threaded one. Costs host time outside both timed phases.
  bool verify = false;
};

using WorkloadFn = RepResult (*)(const RunOptions& options);

struct Workload {
  const char* name;
  WorkloadFn run;
  // Input sets one run cycles through (see main.cc): enough that the
  // combined simulated results, drain time above all, are steady from
  // seed to seed.
  int input_sets;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// Every per-layer metric name, in report order. A traced run reports all
// of them; a layer a workload does not exercise reads 0.
const std::vector<std::string>& LayerMetricNames();

// FNV-1a, chained through `h`.
uint64_t Fnv1a(const void* data, size_t len, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
