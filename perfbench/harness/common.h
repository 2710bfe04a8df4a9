// Shared plumbing for the benchmark harness: arguments, failure handling,
// instance set-up at shipped defaults, seeded inputs, and process probes.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/netmark.h"
#include "harness/stats.h"
#include "query/xdb_query.h"
#include "workload/corpus.h"
#include "workload/query_workload.h"

namespace perfbench {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores and drop folders (inside the checkout).
  fs::path workdir;
  /// Latency limit on the capacity ladder's p99 (query_max_qps).
  double p99_limit_ms = 10;
};

/// What a workload's measured run hands back to main().
struct RunResult {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable report lines (printed before the JSON line).
  std::vector<std::string> report;
};

/// Sets op_p50_ms, the latency metric every workload reports, from its
/// per-class latencies (ms): the geometric mean over classes of each
/// class's p50 (ClassGeomean). Reports each class's p50/p75/p90/p99.
void AddLatencyMetrics(const std::map<std::string, std::vector<double>>& by_class, RunResult* out);

[[noreturn]] void Die(const std::string& what);
void Check(const netmark::Status& status, const std::string& what);
template <typename T>
T Unwrap(netmark::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Opens an instance at the shipped defaults (wal=commit, result and plan
/// caches on, default trace sampling) with its store under `data_dir`.
std::unique_ptr<netmark::Netmark> OpenNetmark(const fs::path& data_dir);
/// Ingests `docs` one by one through the facade (each a durable commit).
void LoadDocs(netmark::Netmark* nm, const std::vector<netmark::workload::GeneratedDoc>& docs);
/// file name -> doc id, from the store's listing.
std::map<std::string, int64_t> DocIds(netmark::Netmark* nm);

/// Vocabulary queries from workload::QueryWorkload in exact shape
/// proportions: each block of ten holds four context-only, three
/// content-only and three combined queries (the workload's own mix) in
/// seeded order, so a run's share of expensive shapes does not drift with
/// the seed. Every query carries limit=20, which keeps each cached answer
/// small enough that the whole vocabulary fits the result cache's byte
/// bound (8 MiB) as well as its 1,024 entries.
class VocabularyMix {
 public:
  explicit VocabularyMix(uint64_t seed) : qw_(seed), rng_(seed * 2654435761ULL + 1) {}
  netmark::query::XdbQuery Next();

 private:
  netmark::workload::QueryWorkload qw_;
  netmark::Rng rng_;
  std::vector<int> block_;
  std::deque<netmark::query::XdbQuery> pending_[3];
};

/// "context", "content" or "combined": which clauses an XDB query has.
/// Latency is reported per shape, since the shapes' costs differ severalfold.
std::string QueryShape(const netmark::query::XdbQuery& q);

/// Runs `fn` once for each distinct string of `items`, on `threads` threads
/// (cache warm-up before timing).
void ForEachDistinctParallel(const std::vector<std::string>& items, int threads,
                             const std::function<void(const std::string&)>& fn);

/// Shuffles `v` with `rng` (Fisher-Yates).
template <typename T>
void Shuffle(std::vector<T>& v, netmark::Rng& rng) {
  for (size_t k = v.size(); k > 1; --k) std::swap(v[k - 1], v[rng.Uniform(k)]);
}

/// The stylesheet registered as `report` for `xslt=` requests.
extern const char kReportSheet[];

/// A token only `doc` holds, or "" when its format has none: proposals name
/// `investigator<N>`, budget sheets `task<N*100>`.
std::string UniqueToken(const netmark::workload::GeneratedDoc& doc);
/// A section heading every document of `doc`'s format carries ("" for CSV).
std::string FormatHeading(const netmark::workload::GeneratedDoc& doc);
/// `content` with a searchable revision marker added in the document's own
/// format, so a re-PUT version is distinguishable by GET and query.
std::string WithMarker(const netmark::workload::GeneratedDoc& doc,
                       const std::string& marker);

/// CPU seconds this process has used (all threads, user + system).
double CpuSeconds();
/// Sets cpu_ms_per_op: CPU milliseconds the whole process (servers,
/// daemon, generator) spent per operation over a measured phase.
void AddCpuMetric(double cpu_seconds, uint64_t ops, RunResult* out);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();
/// Restarts the peak at the current resident set, so peak_rss_mb covers
/// the measured phase rather than set-up and cache warm-up.
void ResetPeakRss();
/// Bytes of regular files under `dir`.
uint64_t DirBytes(const fs::path& dir);

/// Formats "name = value unit" report lines.
std::string Line(const std::string& name, double value, const std::string& unit,
                 const std::string& note = "");

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
