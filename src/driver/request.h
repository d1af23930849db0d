// Disk request types shared by the driver and its clients.
#ifndef MUFS_SRC_DRIVER_REQUEST_H_
#define MUFS_SRC_DRIVER_REQUEST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/disk/disk_image.h"
#include "src/sim/time.h"

namespace mufs {

enum class IoDir : uint8_t { kRead, kWrite };

// Per-request completion status. Requests terminate with kOk or kFailed;
// the intermediate codes describe individual service attempts (surfaced
// in traces and driver statistics, never to clients).
enum class IoStatus : uint8_t {
  kOk = 0,      // Completed successfully.
  kMediaError,  // One attempt hit a transient error or a bad sector.
  kTimeout,     // One attempt stalled past the driver's timeout.
  kFailed,      // Terminal: retries and the spare pool are exhausted.
};

inline const char* IoStatusName(IoStatus s) {
  switch (s) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kMediaError:
      return "media_error";
    case IoStatus::kTimeout:
      return "timeout";
    case IoStatus::kFailed:
      return "failed";
  }
  return "?";
}

// Completion callback (ISR): receives the request's terminal status.
// Callbacks must check it — completion does not imply success.
using IoCallback = std::function<void(IoStatus)>;

// Ordering information a file system attaches to a write request.
struct OrderingTag {
  // One-bit ordering flag (scheduler-flag schemes, paper section 3.1).
  bool flag = false;
  // Explicit request dependencies (scheduler-chain scheme, section 3.2):
  // ids of previously issued requests that must complete first.
  std::vector<uint64_t> deps;
};

}  // namespace mufs

#endif  // MUFS_SRC_DRIVER_REQUEST_H_
