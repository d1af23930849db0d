// Simulated process context threaded through file-system calls.
//
// Plays the role of `curproc`: identifies who to charge CPU time to.
// Elapsed time is measured by the workload, CPU time by the Cpu model,
// and op-return latency by FileSystem in the stats registry.
#ifndef MUFS_SRC_FS_PROC_H_
#define MUFS_SRC_FS_PROC_H_

#include <string>

#include "src/sim/cpu.h"

namespace mufs {

struct Proc {
  Pid pid = kSystemPid;
  std::string name = "proc";
};

}  // namespace mufs

#endif  // MUFS_SRC_FS_PROC_H_
