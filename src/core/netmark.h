// Netmark: the top-level facade — one object wiring the XML store,
// converters, query engine, XSLT composition, federation router, HTTP
// server and ingestion daemon together. This is the API the examples and
// applications use.
//
// Quickstart:
//
//   auto nm = netmark::Netmark::Open({.data_dir = "/tmp/nm"});
//   (*nm)->IngestContent("report.txt", "OVERVIEW\nThe shuttle engine ...");
//   auto hits = (*nm)->Query("context=Overview&content=engine");
//   auto xml  = (*nm)->QueryToXml("context=Overview");

#ifndef NETMARK_CORE_NETMARK_H_
#define NETMARK_CORE_NETMARK_H_

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "convert/registry.h"
#include "federation/router.h"
#include "observability/metrics.h"
#include "observability/slow_log.h"
#include "query/compose.h"
#include "query/executor.h"
#include "server/daemon.h"
#include "server/http_server.h"
#include "server/netmark_service.h"
#include "storage/database.h"
#include "xmlstore/xml_store.h"
#include "xslt/stylesheet.h"

namespace netmark {

/// Construction options.
struct NetmarkOptions {
  /// Directory holding the store (created if missing).
  std::string data_dir;
  /// Node-type rules for the SGML parser (CONTEXT/INTENSE/SIMULATION tags).
  xml::NodeTypeConfig node_types = xml::NodeTypeConfig::Default();
  /// Durability knobs: write-ahead log, fsync policy, checkpoint trigger
  /// (the `[storage]` INI section).
  storage::StorageOptions storage;
  /// Federation resilience knobs (deadlines, retries, breakers, fan-out).
  federation::RouterOptions router;
  /// Serving knobs: worker-pool size, accept-queue capacity, keep-alive
  /// limits and timeouts for StartServer.
  server::HttpServerOptions http_server;
  /// Slow-query log threshold (ms; 0 disables). The NETMARK_SLOW_QUERY_MS
  /// env var always wins.
  int64_t slow_query_ms = observability::kDefaultSlowQueryMs;
  /// Result-cache sizing (the `[query]` INI section: cache_enabled /
  /// cache_entries / cache_bytes). Entries are keyed by (canonical query,
  /// commit epoch) — see docs/query_cache.md.
  query::ResultCacheOptions query_cache;
  /// Compiled-plan cache sizing (`[query] plan_entries`).
  query::QueryPlanCache::Options plan_cache;
  /// Trace sampling / retention knobs (the `[observability]` INI section:
  /// trace_sample_rate, trace_store_capacity, trace_slow_keep_ms) backing
  /// GET /traces — see docs/observability.md.
  observability::TraceStoreOptions trace_store;
};

/// \brief One NETMARK instance.
class Netmark {
 public:
  static Result<std::unique_ptr<Netmark>> Open(const NetmarkOptions& options);
  ~Netmark();

  // --- Ingestion ---

  /// Converts (per extension/content sniffing) and stores a file from disk.
  Result<int64_t> IngestFile(const std::filesystem::path& path);
  /// Converts and stores in-memory content under a file name.
  Result<int64_t> IngestContent(const std::string& file_name,
                                std::string_view content);

  // --- Query ---

  /// Parses and executes an XDB query string ("context=...&content=...").
  Result<std::vector<query::QueryHit>> Query(const std::string& query_string);
  /// Executes and composes results into serialized XML.
  Result<std::string> QueryToXml(const std::string& query_string);
  /// Executes, composes, and transforms through an XSLT stylesheet.
  Result<std::string> QueryAndTransform(const std::string& query_string,
                                        std::string_view stylesheet_text);

  // --- Documents ---

  Result<std::string> GetDocumentXml(int64_t doc_id) const;
  Status DeleteDocument(int64_t doc_id);
  Result<std::vector<xmlstore::DocRecord>> ListDocuments() const;

  // --- Federation (databanks) ---

  /// Registers this instance's store as a federated source.
  Status RegisterSelfAsSource(const std::string& source_name);
  /// Registers any source (content-only servers, remote instances...).
  Status RegisterSource(std::shared_ptr<federation::Source> source);
  /// Declares a databank — the paper's one-line integration step.
  Status DefineDatabank(const std::string& name,
                        std::vector<std::string> source_names);
  /// Queries a databank through the thin router.
  Result<std::vector<federation::FederatedHit>> QueryDatabank(
      const std::string& databank, const std::string& query_string);
  /// Queries a databank, returning hits plus the per-source outcome report
  /// and per-query stats (partial-result semantics).
  Result<federation::FederatedResult> QueryDatabankFederated(
      const std::string& databank, const std::string& query_string);

  // --- Services ---

  /// Starts the HTTP endpoint (port 0 = ephemeral; see server_port()).
  Status StartServer(uint16_t port = 0);
  void StopServer();
  uint16_t server_port() const;
  /// Registers a named stylesheet for `xslt=` query parameters.
  Status RegisterStylesheet(const std::string& name, std::string_view text);

  /// Starts the drop-folder ingestion daemon with default options.
  Status StartDaemon(const std::filesystem::path& drop_dir);
  /// Starts the daemon with full control over polling, worker threads and
  /// drop-stability behaviour (opts.drop_dir must be set).
  Status StartDaemon(server::DaemonOptions opts);
  void StopDaemon();
  /// Synchronous single sweep (deterministic ingestion without the thread).
  Result<int> ProcessDropFolderOnce();
  /// The running daemon (per-stage counters live here); null until
  /// StartDaemon.
  server::IngestionDaemon* daemon() { return daemon_.get(); }

  // --- Accessors ---

  /// The serving knobs StartServer uses (pool sizing, timeouts).
  const server::HttpServerOptions& http_server_options() const {
    return options_.http_server;
  }
  xmlstore::XmlStore* store() { return store_.get(); }
  const xmlstore::XmlStore* store() const { return store_.get(); }
  federation::Router* router() { return &router_; }
  const convert::ConverterRegistry& converters() const { return converters_; }
  server::NetmarkService* service() { return service_.get(); }
  /// The instance-wide metrics registry (what GET /metrics renders): router,
  /// daemon, executor and HTTP metrics are all re-homed onto it at Open().
  observability::MetricsRegistry* metrics() { return metrics_.get(); }
  /// The retained-trace ring (what GET /traces serves).
  observability::TraceStore* trace_store() { return service_->trace_store(); }

 private:
  explicit Netmark(NetmarkOptions options)
      : options_(std::move(options)), router_(options_.router) {}

  NetmarkOptions options_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  convert::ConverterRegistry converters_ = convert::ConverterRegistry::Default();
  /// Declared before router_ (and the rest): components keep raw handles
  /// into the registry, so it must outlive them all.
  std::unique_ptr<observability::MetricsRegistry> metrics_ =
      std::make_unique<observability::MetricsRegistry>();
  federation::Router router_;
  std::unique_ptr<server::NetmarkService> service_;
  std::unique_ptr<server::HttpServer> http_server_;
  std::unique_ptr<server::IngestionDaemon> daemon_;
};

}  // namespace netmark

#endif  // NETMARK_CORE_NETMARK_H_
