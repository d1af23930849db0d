// Reads a disk driver's behaviour back from the stats registry's JSONL
// trace: event matching, integer fields, and the per-request completion
// records (completion order, merged size, retries, terminal status).
#ifndef MUFS_TESTS_DRIVER_TRACE_UTIL_H_
#define MUFS_TESTS_DRIVER_TRACE_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/stats/stats_registry.h"

namespace mufs {

inline bool IsEvent(const std::string& line, std::string_view event) {
  return line.find("\"event\":\"" + std::string(event) + "\"") != std::string::npos;
}

inline int64_t Field(const std::string& line, const std::string& key) {
  size_t pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) {
    return -1;
  }
  return std::atoll(line.c_str() + pos + key.size() + 3);
}

// One device request, as disk.complete reports it (a merged request
// completes once, under its first issue's id).
struct Completion {
  int64_t id = 0;
  uint32_t blkno = 0;
  uint32_t count = 0;
  bool ok = true;        // False: retries or spares ran out.
  uint32_t retries = 0;  // Failed attempts that were retried.
};

// Every completed device request, in completion order.
inline std::vector<Completion> Completions(const StatsRegistry& stats) {
  std::map<int64_t, uint32_t> failed_attempts;  // By request id.
  std::vector<Completion> out;
  for (const std::string& line : stats.trace_lines()) {
    if (IsEvent(line, "disk.fault")) {
      // Torn and misdirected writes are silent: the attempt succeeds.
      if (line.find("\"kind\":\"torn_write\"") == std::string::npos &&
          line.find("\"kind\":\"misdirected\"") == std::string::npos) {
        ++failed_attempts[Field(line, "id")];
      }
    } else if (IsEvent(line, "disk.complete")) {
      Completion c;
      c.id = Field(line, "id");
      c.blkno = static_cast<uint32_t>(Field(line, "blkno"));
      c.count = static_cast<uint32_t>(Field(line, "count"));
      c.ok = line.find("\"status\":") == std::string::npos;
      // A failed request's last failed attempt is not retried.
      c.retries = failed_attempts[c.id] - (c.ok ? 0 : 1);
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace mufs

#endif  // MUFS_TESTS_DRIVER_TRACE_UTIL_H_
