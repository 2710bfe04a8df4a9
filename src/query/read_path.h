// ReadPath: the one way a local store answers an XDB query (paper
// §2.1.3-2.1.4): text-index probe and RowId walk, then the sections
// composed into a new `<results>` document, under one read snapshot. The
// HTTP `/xdb` route, the facade's Query* calls and LocalStoreSource all
// serve through it. It owns the store's result and plan caches and the one
// executor wired to them (docs/query_cache.md).

#ifndef NETMARK_QUERY_READ_PATH_H_
#define NETMARK_QUERY_READ_PATH_H_

#include <vector>

#include "query/compose.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/result_cache.h"

namespace netmark::query {

/// \brief Serves XDB queries over one store. Execute and Compose are
/// thread-safe; BindMetrics and cache configuration must finish before
/// traffic. Caches with `max_entries = 0` make it an uncached read path.
class ReadPath {
 public:
  explicit ReadPath(const xmlstore::XmlStore* store, ResultCacheOptions results = {},
                    QueryPlanCache::Options plans = {});
  ReadPath(const ReadPath&) = delete;
  ReadPath& operator=(const ReadPath&) = delete;

  /// Instruments the executor and both caches on `registry`.
  void BindMetrics(observability::MetricsRegistry* registry);

  QueryResultCache* result_cache() { return &result_cache_; }
  QueryPlanCache* plan_cache() { return &plan_cache_; }

  /// The hits for `query` under a self-acquired snapshot.
  netmark::Result<std::vector<QueryHit>> Execute(
      const XdbQuery& query, QueryExecutor::Stats* stats = nullptr) const;

  /// The `<results>` document for `query`, executed and composed under one
  /// snapshot. Opens an `execute` span (the cache probe nests beneath it)
  /// and a `compose` span under the trace bound to the calling thread.
  netmark::Result<xml::Document> Compose(
      const XdbQuery& query, QueryExecutor::Stats* stats = nullptr) const;

 private:
  const xmlstore::XmlStore* store_;
  QueryResultCache result_cache_;
  QueryPlanCache plan_cache_;
  QueryExecutor executor_;  // wired to both caches above
};

}  // namespace netmark::query

#endif  // NETMARK_QUERY_READ_PATH_H_
