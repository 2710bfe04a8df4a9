// The traced run's measurement side: spans recorded from the benchmark's
// own code around calls into each module's public functions, kept in
// memory and reduced to the per-layer metrics listed in BENCHMARK.json.
//
// Nothing here is compiled into the program under test: every span wraps a
// public call (ParseXdbQuery, QueryExecutor::Execute, XmlStore::GetNode,
// ComposeResults, xml::Serialize, ...), and the counters come from the
// instance's own metrics registry.

#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/netmark.h"
#include "federation/router.h"
#include "harness/common.h"
#include "harness/loadgen.h"
#include "server/http_server.h"
#include "xslt/stylesheet.h"

namespace perfbench {

/// One recorded span: name, start/end (ns, steady clock) and the span that
/// caused it (its request's root; -1 for a root or a free-standing span).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// \brief In-memory span and sample store for the traced run.
class Layers {
 public:
  /// Opens a request span of class `cls` (e.g. "xdb_miss", "get").
  void BeginRequest(const std::string& cls);
  /// Closes it: records its in-process end-to-end time and the part no
  /// stage span covered (the unattributed remainder).
  void EndRequest();
  /// Renames the open request's class (its cache outcome is known late).
  void SetRequestClass(const std::string& cls) { request_class_ = cls; }

  /// Times `fn` as a stage span `name` under the open request (or as a
  /// free-standing span when none is open) and records its µs under `name`.
  template <typename F>
  decltype(auto) Stage(const std::string& name, F&& fn) {
    const int64_t start = NowNs();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      fn();
      EndStage(name, start);
    } else {
      decltype(auto) out = fn();
      EndStage(name, start);
      return out;
    }
  }

  /// Closes a stage span `name` opened at `start_ns` (for calls whose
  /// stage name is known only afterwards).
  void EndStage(const std::string& name, int64_t start_ns);

  /// Records one sample (a count, a size, a 0/1 outcome) under `name`.
  void Observe(const std::string& name, double value) { samples_[name].push_back(value); }
  /// Sets a single-valued metric (registry readouts, ratios).
  void Set(const std::string& name, double value) { samples_[name] = {value}; }

  const std::vector<double>& Values(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Per request class: in-process end-to-end p50 beside each stage's p50
  /// and the unattributed remainder.
  std::vector<std::string> CoverageReport() const;

  /// Reduces the samples to every per-layer metric; dies naming any metric
  /// the run left unmeasured, so a missing stage is loud, not silent.
  std::map<std::string, Metric> Reduce(std::vector<std::string>* report) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Span> spans_;
  int request_span_ = -1;
  std::string request_class_;
  int64_t request_attributed_ns_ = 0;
  /// Stage names seen per request class, in first-seen order.
  std::map<std::string, std::vector<std::string>> class_stages_;
};

/// One per-layer metric: how it is reduced, and the prediction it carries.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
  const char* moves;    ///< end-to-end metric it should move
  const char* on;       ///< on which workload
  const char* flat_on;  ///< where it should stay flat
};
const std::vector<LayerMetricSpec>& LayerMetricSpecs();

// --- Replays: one operation through the modules, stage by stage ----------

/// The pieces of one instance the replays call into.
struct ReplayTarget {
  netmark::Netmark* nm = nullptr;
  /// Uncached executor over the same store (the reference evaluator).
  const netmark::query::QueryExecutor* uncached = nullptr;
  /// Executor sharing the service's result and plan caches.
  const netmark::query::QueryExecutor* cached = nullptr;
  const netmark::xslt::Stylesheet* sheet = nullptr;
};

/// An /xdb request: parse → BeginRead → Execute (service caches) → Compose
/// → [XSLT] → Serialize, then off the request path the uncached Execute,
/// per-term TextLookup and GetNode over the hits.
void ReplayQuery(Layers& layers, const ReplayTarget& target, const std::string& query_string);
/// GET /docs/{id}: BeginRead → Reconstruct → Serialize.
void ReplayGet(Layers& layers, const ReplayTarget& target, int64_t doc_id);
/// A WebDAV replace as the PUT handler does it: convert → ListDocuments →
/// DeleteDocument → PrepareDocument → InsertPrepared. Returns the new id.
int64_t ReplayPut(Layers& layers, const ReplayTarget& target, const std::string& file_name,
                  const std::string& content);
/// One drop-folder file through convert → prepare → insert (no daemon).
void ReplayIngestFile(Layers& layers, const ReplayTarget& target, const std::string& file_name,
                      const std::string& content);

/// The same read operations timed with and without stage spans; reports
/// the difference as bench.tracing_overhead_pct. Uses uncached execution
/// and reconstruction so cache state cannot bias either side.
void MeasureTracingOverhead(Layers& layers, const ReplayTarget& target,
                            const std::vector<std::string>& queries,
                            const std::vector<int64_t>& doc_ids);

/// Databank query at the mediator: Router::QueryFederated, then each
/// source's Execute directly and a raw HttpClient::Get per remote.
struct FederationTarget {
  netmark::federation::Router* router = nullptr;
  std::string databank;
  /// source name -> kind ("local", "remote", "content_only").
  std::map<std::string, std::string> kinds;
  /// remote source name -> client for its /xdb endpoint.
  std::map<std::string, netmark::server::HttpClient*> remotes;
};
void ReplayFederated(Layers& layers, const FederationTarget& target, const std::string& query_string);

/// Reads the storage, daemon and server counters off `nm`'s registry.
/// `docs_committed` is how many documents the traced run committed.
void ReadRegistry(Layers& layers, netmark::Netmark* nm, uint64_t docs_committed);

// --- Served instance with a timed handler --------------------------------

/// An HttpServer around the instance's service (what StartServer builds),
/// whose handler also records how long NetmarkService::Handle took per
/// request, keyed by the X-Perfbench-Op request header.
class TimedServer {
 public:
  explicit TimedServer(netmark::Netmark* nm, size_t max_ops);
  ~TimedServer();
  TimedServer(const TimedServer&) = delete;
  TimedServer& operator=(const TimedServer&) = delete;
  uint16_t port() const { return server_->port(); }
  /// Handle time of op `id` in µs (0 when the request never reached it).
  double handle_us(size_t id) const { return handle_ns_[id].load() / 1000.0; }
  static constexpr const char* kOpHeader = "X-Perfbench-Op";

 private:
  std::unique_ptr<std::atomic<int64_t>[]> handle_ns_;
  size_t max_ops_;
  std::unique_ptr<netmark::server::HttpServer> server_;
};

/// Runs an open-loop schedule against a TimedServer: each request carries
/// its op id, and the round trip is compared with the server-side Handle
/// time of the same request (server.handle_us, server.http_overhead_us).
/// `send` builds and sends op `item` with extra headers on the client.
using TimedSendFn = std::function<bool(const ScheduledOp&, netmark::server::HttpClient&,
                                       const netmark::server::HeaderMap&)>;
void RunTimedHttpPhase(Layers& layers, TimedServer& server,
                       const std::vector<std::vector<ScheduledOp>>& streams,
                       const TimedSendFn& send);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
