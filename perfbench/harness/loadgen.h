// Open-loop HTTP load generator.
//
// A run is a few independent streams (at most nproc), each one keep-alive
// connection issuing its own pre-generated schedule. Every operation is
// timed from its *scheduled* send time, so a stall that delays later
// requests is charged to them (no coordinated omission); how late each
// send actually went out is kept as the generator's lag.

#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "server/http_client.h"

namespace perfbench {

/// Request classes the workloads report separately.
enum OpClass : int { kQuery = 0, kGet = 1, kPut = 2 };

/// One pre-generated operation: when it is due (µs after the run starts),
/// its class, and an index into the workload's own request table.
struct ScheduledOp {
  int64_t due_us = 0;
  int cls = kQuery;
  size_t item = 0;
};

/// What happened to one operation.
struct OpRecord {
  int cls = kQuery;
  size_t item = 0;
  int64_t due_us = 0;
  double lag_us = 0;      ///< send time minus due time
  double latency_us = 0;  ///< completion time minus due time
  bool ok = false;
};

/// Executes one operation on the stream's connection and checks the answer;
/// returns false when the request failed, was refused or answered wrongly.
using OpFn = std::function<bool(const ScheduledOp&, netmark::server::HttpClient&)>;

struct StreamResult {
  std::vector<OpRecord> records;
  uint64_t connections_opened = 0;
  uint64_t connections_reused = 0;
};

/// Runs every stream on its own thread and connection against
/// 127.0.0.1:`port`, starting together; returns when all schedules finish.
std::vector<StreamResult> RunOpenLoop(uint16_t port,
                                      const std::vector<std::vector<ScheduledOp>>& streams,
                                      const std::vector<OpFn>& fns);

/// Latencies (ms) of all records, grouped by `label`.
std::map<std::string, std::vector<double>> LatencyByClass(
    const std::vector<StreamResult>& results, const std::function<std::string(const OpRecord&)>& label);

/// Latency summary of the records of one class (`cls` < 0: all classes).
struct LatencySummary {
  size_t count = 0;
  size_t failed = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double lag_p99_ms = 0;
};
LatencySummary Summarize(const std::vector<StreamResult>& results, int cls);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
