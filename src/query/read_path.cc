#include "query/read_path.h"

#include <string>

#include "observability/thread_trace.h"

namespace netmark::query {

ReadPath::ReadPath(const xmlstore::XmlStore* store, ResultCacheOptions results,
                   QueryPlanCache::Options plans)
    : store_(store), result_cache_(results), plan_cache_(plans), executor_(store) {
  executor_.set_result_cache(&result_cache_);
  executor_.set_plan_cache(&plan_cache_);
}

void ReadPath::BindMetrics(observability::MetricsRegistry* registry) {
  executor_.BindMetrics(registry);
  result_cache_.BindMetrics(registry);
  plan_cache_.BindMetrics(registry);
}

netmark::Result<std::vector<QueryHit>> ReadPath::Execute(
    const XdbQuery& query, QueryExecutor::Stats* stats) const {
  return executor_.Execute(query, stats);
}

netmark::Result<xml::Document> ReadPath::Compose(
    const XdbQuery& query, QueryExecutor::Stats* stats) const {
  observability::Trace* trace = observability::CurrentThreadTrace();
  const int parent = observability::CurrentThreadSpan();
  observability::ScopedSpan exec_span(trace, "execute", parent);
  // The hits and the section bodies composed from them come from the same
  // committed state, even with ingestion running concurrently.
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  netmark::Result<std::vector<QueryHit>> hits = [&] {
    // Rebind under "execute" so the result-cache probe nests beneath it.
    observability::ThreadTraceScope nest(trace, exec_span.id());
    return executor_.Execute(query, snapshot, stats);
  }();
  if (!hits.ok()) {
    exec_span.End(false, hits.status().ToString());
    return hits.status();
  }
  exec_span.Annotate("hits", std::to_string(hits->size()));
  exec_span.End();
  observability::ScopedSpan compose_span(trace, "compose", parent);
  netmark::Result<xml::Document> composed = ComposeResults(*store_, query, *hits);
  if (!composed.ok()) compose_span.End(false, composed.status().ToString());
  return composed;
}

}  // namespace netmark::query
