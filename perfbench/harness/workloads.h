// Entry points of the three harness modes. Each fills `out` with raw
// samples, counters, checks and (when traced) spans, and returns a process
// exit code.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "common.h"

namespace ccsbench {

int RunBatch(const Flags& flags, Result* out);
int RunServe(const Flags& flags, Result* out);
int RunStream(const Flags& flags, Result* out);

}  // namespace ccsbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
