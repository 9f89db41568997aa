// ccsbench_harness --mode batch|serve|stream --out FILE [workload flags]
//
// Runs one workload for --seconds and writes its raw samples as JSON to
// --out. perfbench/run.py builds this binary, chooses the flags and turns
// the samples into metrics.
#include <cstdio>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  const ccsbench::Flags flags(argc, argv);
  const std::string mode = flags.Str("mode");
  const std::string out_path = flags.Str("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "usage: %s --mode batch|serve|stream --out FILE ...\n",
                 argv[0]);
    return 2;
  }
  ccsbench::Result out;
  int code = 2;
  if (mode == "batch") {
    code = ccsbench::RunBatch(flags, &out);
  } else if (mode == "serve") {
    code = ccsbench::RunServe(flags, &out);
  } else if (mode == "stream") {
    code = ccsbench::RunStream(flags, &out);
  } else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
  }
  if (code != 0) return code;
  if (!out.Write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 3;
  }
  return 0;
}
