// The workload interface main() drives: repeated timed set-up, then either
// the measured run (tracing off, end-to-end metrics) or the traced run
// (per-layer metrics).

#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

#include <memory>

#include "harness/common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the fixture from scratch: open stores, load documents, start
  /// servers. Timed by main() (setup_s). Inputs are generated before.
  virtual void Setup(const fs::path& dir) = 0;
  /// Stops servers and releases the fixture (not timed).
  virtual void Teardown() = 0;
  /// The measured run: open-loop HTTP load, answers checked.
  virtual RunResult Run() = 0;
  /// The traced run: the same seeded operations replayed through each
  /// module's public functions, timed from outside.
  virtual RunResult Trace() = 0;
};

std::unique_ptr<Workload> MakeXdbRead(const Args& args);
std::unique_ptr<Workload> MakeEditChurn(const Args& args);
std::unique_ptr<Workload> MakeIngest(const Args& args);
std::unique_ptr<Workload> MakeFederated(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
