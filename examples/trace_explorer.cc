// Trace explorer: runs a small workload and dumps the per-request I/O
// trace (issue/queue/access/response times) the way the instrumented
// device driver of the paper's section 2 would, then prints summary
// statistics per request type. The rows are rebuilt from the stats
// registry's JSONL trace (disk.issue, disk.service, disk.complete).
//
//   $ ./build/examples/trace_explorer [scheme]
//   scheme: conventional | flag | chains | softupdates | noorder
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/machine.h"
#include "src/workload/workloads.h"

using namespace mufs;  // NOLINT: example brevity.

namespace {

Task<void> Workload(Machine* m, Proc* p, bool* done) {
  co_await m->Boot(*p);
  (void)co_await m->fs().Mkdir(*p, "/t");
  (void)co_await CreateFiles(*m, *p, "/t", 30, 8 * 1024);
  for (int i = 0; i < 30; i += 3) {
    (void)co_await m->fs().Unlink(*p, "/t/c" + std::to_string(i));
  }
  co_await m->Shutdown(*p);
  *done = true;
}

Scheme ParseScheme(const char* arg) {
  if (strcmp(arg, "conventional") == 0) {
    return Scheme::kConventional;
  }
  if (strcmp(arg, "flag") == 0) {
    return Scheme::kSchedulerFlag;
  }
  if (strcmp(arg, "chains") == 0) {
    return Scheme::kSchedulerChains;
  }
  if (strcmp(arg, "noorder") == 0) {
    return Scheme::kNoOrder;
  }
  return Scheme::kSoftUpdates;
}

bool IsEvent(const std::string& line, std::string_view event) {
  return line.find("\"event\":\"" + std::string(event) + "\"") != std::string::npos;
}

// Integer field `key` of a trace record.
int64_t Field(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\":");
  return pos == std::string::npos ? 0 : std::atoll(line.c_str() + pos + key.size() + 3);
}

// One completed device request, in completion order.
struct Row {
  int64_t id, blkno, count;
  bool read, flagged;
  SimTime issue, service, complete;
};

std::vector<Row> CompletedRequests(const std::vector<std::string>& lines) {
  std::map<int64_t, const std::string*> issues;
  std::map<int64_t, SimTime> services;
  std::vector<Row> rows;
  for (const std::string& line : lines) {
    if (IsEvent(line, "disk.issue")) {
      issues[Field(line, "id")] = &line;
    } else if (IsEvent(line, "disk.service")) {
      services[Field(line, "id")] = Field(line, "t");
    } else if (IsEvent(line, "disk.complete")) {
      // A merged request completes under its first issue's id.
      const std::string& issue = *issues.at(Field(line, "id"));
      Row r{Field(line, "id"), Field(line, "blkno"), Field(line, "count"),
            issue.find("\"dir\":\"r\"") != std::string::npos, Field(issue, "flag") != 0,
            Field(issue, "t"), 0, Field(line, "t")};
      auto s = services.find(r.id);
      r.service = s == services.end() ? r.complete : s->second;  // A failed request has none.
      rows.push_back(r);
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  MachineConfig cfg;
  cfg.scheme = argc > 1 ? ParseScheme(argv[1]) : Scheme::kSoftUpdates;
  cfg.collect_stats_trace = true;
  Machine m(cfg);
  Proc proc = m.MakeProc("tracer");
  bool done = false;
  m.engine().Spawn(Workload(&m, &proc, &done), "tracer");
  m.engine().RunUntil([&] { return done; });

  const std::vector<Row> traces = CompletedRequests(m.stats().trace_lines());
  printf("scheme=%s, %zu device requests\n\n", std::string(ToString(cfg.scheme)).c_str(),
         traces.size());
  printf("%-6s %-5s %8s %6s %5s %10s %10s %10s\n", "id", "dir", "blkno", "count", "flag",
         "queue(ms)", "access(ms)", "resp(ms)");
  size_t shown = 0;
  for (const auto& t : traces) {
    if (shown++ >= 40) {
      printf("... (%zu more)\n", traces.size() - 40);
      break;
    }
    printf("%-6lld %-5s %8lld %6lld %5s %10.2f %10.2f %10.2f\n", static_cast<long long>(t.id),
           t.read ? "R" : "W", static_cast<long long>(t.blkno), static_cast<long long>(t.count),
           t.flagged ? "*" : "", ToMs(t.service - t.issue), ToMs(t.complete - t.service),
           ToMs(t.complete - t.issue));
  }

  double read_access = 0;
  double write_access = 0;
  size_t reads = 0;
  size_t writes = 0;
  for (const auto& t : traces) {
    if (t.read) {
      read_access += ToMs(t.complete - t.service);
      ++reads;
    } else {
      write_access += ToMs(t.complete - t.service);
      ++writes;
    }
  }
  printf("\nsummary: %zu reads (avg access %.2f ms), %zu writes (avg access %.2f ms)\n", reads,
         reads ? read_access / static_cast<double>(reads) : 0, writes,
         writes ? write_access / static_cast<double>(writes) : 0);
  printf("cache: %llu hits, %llu misses, %llu delayed writes, %llu write issues\n",
         static_cast<unsigned long long>(m.stats().counter("cache.hits").value()),
         static_cast<unsigned long long>(m.stats().counter("cache.misses").value()),
         static_cast<unsigned long long>(m.stats().counter("cache.delayed_writes").value()),
         static_cast<unsigned long long>(m.stats().counter("cache.write_issues").value()));
  return 0;
}
