#include "harness/layers.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "query/compose.h"
#include "query/xdb_query.h"
#include "textindex/tokenizer.h"
#include "xml/serializer.h"
#include "xmlstore/prepared_document.h"

namespace perfbench {

using netmark::query::QueryExecutor;
using netmark::query::QueryHit;
using netmark::query::XdbQuery;

// --- Layers ---------------------------------------------------------------

void Layers::BeginRequest(const std::string& cls) {
  Span span;
  span.name = cls;
  span.start_ns = NowNs();
  spans_.push_back(span);
  request_span_ = static_cast<int>(spans_.size()) - 1;
  request_class_ = cls;
  request_attributed_ns_ = 0;
}

void Layers::EndRequest() {
  if (request_span_ < 0) return;
  Span& root = spans_[request_span_];
  root.end_ns = NowNs();
  root.name = request_class_;
  const double total_us = static_cast<double>(root.end_ns - root.start_ns) / 1000.0;
  const double unattributed_us =
      static_cast<double>(root.end_ns - root.start_ns - request_attributed_ns_) / 1000.0;
  Observe("req:" + request_class_ + ":e2e_us", total_us);
  Observe("req:" + request_class_ + ":unattributed_us", unattributed_us);
  Observe("bench.unattributed_us", unattributed_us);
  // Attribute this request's stage spans to its final class.
  std::vector<std::string>& order = class_stages_[request_class_];
  for (size_t i = static_cast<size_t>(request_span_) + 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != request_span_) continue;
    if (std::find(order.begin(), order.end(), s.name) == order.end()) order.push_back(s.name);
    Observe("req:" + request_class_ + ":" + s.name,
            static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
  }
  request_span_ = -1;
}

void Layers::EndStage(const std::string& name, int64_t start_ns) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  span.parent = request_span_;
  if (request_span_ >= 0) request_attributed_ns_ += span.end_ns - span.start_ns;
  samples_[name].push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
  spans_.push_back(std::move(span));
}

const std::vector<double>& Layers::Values(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

std::vector<std::string> Layers::CoverageReport() const {
  std::vector<std::string> out;
  out.push_back(
      "traced-run coverage, in-process µs per request class: median end_to_end, each stage's "
      "mean, then mean end_to_end = stages + unattributed");
  for (const auto& [cls, stages] : class_stages_) {
    const std::vector<double>& e2e = Values("req:" + cls + ":e2e_us");
    char line[512];
    std::snprintf(line, sizeof(line), "  %-14s n=%-6zu end_to_end=%.2f", cls.c_str(), e2e.size(),
                  Median(e2e));
    std::string text = line;
    double stage_sum = 0;
    for (const std::string& stage : stages) {
      const std::vector<double>& v = Values("req:" + cls + ":" + stage);
      // Mean per request, so the stage column and the remainder add up.
      double mean = 0;
      for (double x : v) mean += x;
      mean = e2e.empty() ? 0 : mean / static_cast<double>(e2e.size());
      stage_sum += mean;
      std::snprintf(line, sizeof(line), " %s=%.2f", stage.c_str(), mean);
      text += line;
    }
    double e2e_mean = 0;
    for (double x : e2e) e2e_mean += x;
    e2e_mean = e2e.empty() ? 0 : e2e_mean / static_cast<double>(e2e.size());
    std::snprintf(line, sizeof(line), " | mean end_to_end=%.2f stages=%.2f unattributed=%.2f",
                  e2e_mean, stage_sum, e2e_mean - stage_sum);
    out.push_back(text + line);
  }
  return out;
}

std::map<std::string, Metric> Layers::Reduce(std::vector<std::string>* report) const {
  std::map<std::string, Metric> out;
  std::vector<std::string> missing;
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const LayerMetricSpec& spec : LayerMetricSpecs()) {
    const std::string name = spec.name;
    // A value set under the metric's own name (a registry readout) is taken
    // as is; otherwise a .p50/.p99/.max suffix reduces the samples of the
    // base name, and anything else is the mean of its samples.
    std::string raw = name;
    std::string agg = "mean";
    for (const char* suffix : {".p50", ".p99", ".max"}) {
      if (Values(name).empty() && ends_with(name, suffix)) {
        raw = name.substr(0, name.size() - 4);
        agg = suffix + 1;
      }
    }
    const std::vector<double>& v = Values(raw);
    if (v.empty()) {
      missing.push_back(name);
      continue;
    }
    double value = 0;
    if (agg == "p50") {
      value = Percentile(v, 50);
    } else if (agg == "p99") {
      value = Percentile(v, 99);
    } else if (agg == "max") {
      value = *std::max_element(v.begin(), v.end());
    } else {
      for (double x : v) value += x;
      value /= static_cast<double>(v.size());
    }
    out[name] = {value, spec.unit};
    if (report != nullptr) {
      report->push_back(Line(name, value, spec.unit,
                             std::string("n=") + std::to_string(v.size()) + "; moves " +
                                 spec.moves + " on " + spec.on + "; flat on " + spec.flat_on));
    }
  }
  if (!missing.empty()) {
    std::string names;
    for (const std::string& m : missing) names += " " + m;
    Die("traced run left per-layer metrics unmeasured:" + names);
  }
  return out;
}

const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const std::vector<LayerMetricSpec> kSpecs = {
      // server
      {"server.handle_us.p50", "us", "query_p50_ms (cache-hit share), query_max_qps", "xdb_read", "ingest"},
      {"server.handle_us.p99", "us", "query_p99_ms, query_max_qps", "xdb_read", "ingest"},
      {"server.http_overhead_us.p50", "us", "query_p50_ms (cache-hit share), query_max_qps", "xdb_read", "ingest"},
      {"server.keepalive_reuse_ratio", "ratio", "query_p50_ms, query_max_qps", "xdb_read", "ingest"},
      {"server.shed_total", "count", "query_max_qps", "xdb_read", "ingest"},
      // query
      {"query.parse_us.p50", "us", "query_p50_ms, query_max_qps", "xdb_read", "ingest"},
      {"query.execute_hit_us.p50", "us", "query_p50_ms, query_max_qps", "xdb_read", "ingest"},
      {"query.execute_miss_us.p50", "us", "query_p50_ms, query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.execute_miss_us.p99", "us", "query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.execute_uncached_us.p50", "us", "query_p50_ms, query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.execute_uncached_us.p99", "us", "query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.compose_us.p50", "us", "query_p50_ms", "xdb_read, edit_churn", "ingest"},
      {"query.result_cache_hit_ratio", "ratio", "query_p50_ms, query_max_qps", "xdb_read, edit_churn", "ingest"},
      {"query.plan_cache_hit_ratio", "ratio", "query_p50_ms", "xdb_read, edit_churn", "ingest"},
      {"query.index_probes_per_query", "count", "query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.nodes_walked_per_query", "count", "query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.sections_built_per_query", "count", "query_p99_ms", "xdb_read (tail), edit_churn", "ingest"},
      {"query.hits_per_query", "count", "query_p50_ms", "xdb_read, edit_churn", "ingest"},
      // textindex
      {"textindex.lookup_us.p50", "us", "query_p99_ms", "xdb_read", "ingest"},
      {"textindex.postings_per_term.p50", "count", "query_p99_ms", "xdb_read", "ingest"},
      // xmlstore, read side
      {"xmlstore.begin_read_us.p99", "us", "query_p50_ms, get_p50_ms", "xdb_read, edit_churn", "ingest"},
      {"xmlstore.get_node_us.p50", "us", "query_p50_ms, get_p50_ms", "xdb_read, edit_churn", "ingest"},
      {"xmlstore.reconstruct_us.p50", "us", "get_p50_ms", "xdb_read, edit_churn", "ingest"},
      {"xmlstore.reconstruct_us.p99", "us", "get_p99_ms", "xdb_read, edit_churn", "ingest"},
      // xmlstore, write side
      {"xmlstore.prepare_us.p50", "us", "ingest_docs_per_s, put_p50_ms", "ingest, edit_churn", "xdb_read"},
      {"xmlstore.insert_us.p50", "us", "ingest_docs_per_s, put_p50_ms", "ingest, edit_churn", "xdb_read"},
      {"xmlstore.insert_us.p99", "us", "put_p99_ms", "ingest, edit_churn", "xdb_read"},
      {"xmlstore.insert_us_growth", "ratio", "ingest_docs_per_s", "ingest", "xdb_read"},
      {"xmlstore.delete_us.p50", "us", "put_p50_ms", "edit_churn", "xdb_read"},
      {"xmlstore.list_documents_us.p50", "us", "put_p50_ms", "edit_churn", "xdb_read"},
      // storage
      {"storage.wal_bytes_per_doc", "bytes", "ingest_docs_per_s, store_bytes_per_input_byte", "ingest, edit_churn", "xdb_read"},
      {"storage.wal_fsyncs_per_doc", "count", "ingest_docs_per_s, put_p99_ms", "ingest, edit_churn", "xdb_read"},
      {"storage.wal_commit_us.p50", "us", "ingest_docs_per_s, put_p50_ms", "ingest, edit_churn", "xdb_read"},
      {"storage.wal_commit_us.p99", "us", "put_p99_ms", "ingest, edit_churn", "xdb_read"},
      {"storage.checkpoint_us.p99", "us", "put_p99_ms, ingest_docs_per_s", "ingest, edit_churn", "xdb_read"},
      {"storage.checkpoints", "count", "put_p99_ms, ingest_docs_per_s", "ingest, edit_churn", "xdb_read"},
      {"storage.mvcc_versions_retained.max", "count", "peak_rss_mb, put_p99_ms", "edit_churn, ingest", "xdb_read"},
      {"storage.mvcc_gc_reclaimed", "count", "peak_rss_mb, put_p99_ms", "edit_churn, ingest", "xdb_read"},
      {"storage.data_dir_bytes", "bytes", "store_bytes_per_input_byte", "ingest, edit_churn", "xdb_read"},
      // convert / xml / xslt
      {"convert.upmark_us.p50", "us", "ingest_docs_per_s", "ingest", "xdb_read"},
      {"xml.serialize_us.p50", "us", "query_p50_ms", "xdb_read", "ingest"},
      {"xml.response_bytes.p50", "bytes", "query_p50_ms", "xdb_read", "ingest"},
      {"xslt.transform_us.p50", "us", "query_p50_ms", "xdb_read", "ingest"},
      // daemon
      {"daemon.prepare_us.p50", "us", "ingest_docs_per_s", "ingest", "xdb_read, edit_churn, federated"},
      {"daemon.insert_us.p50", "us", "ingest_docs_per_s", "ingest", "xdb_read, edit_churn, federated"},
      {"daemon.writer_busy_ratio", "ratio", "ingest_docs_per_s", "ingest", "xdb_read, edit_churn, federated"},
      {"daemon.worker_busy_ratio", "ratio", "ingest_docs_per_s", "ingest", "xdb_read, edit_churn, federated"},
      // federation
      {"federation.query_us.p50", "us", "query_p50_ms", "federated", "xdb_read, ingest"},
      {"federation.query_us.p99", "us", "query_p99_ms", "federated", "xdb_read, ingest"},
      {"federation.source_us.local.p50", "us", "query_p50_ms", "federated", "xdb_read, ingest"},
      {"federation.source_us.local.p99", "us", "query_p99_ms", "federated", "xdb_read, ingest"},
      {"federation.source_us.remote.p50", "us", "query_p50_ms", "federated", "xdb_read, ingest"},
      {"federation.source_us.remote.p99", "us", "query_p99_ms", "federated", "xdb_read, ingest"},
      {"federation.source_us.content_only.p50", "us", "query_p50_ms", "federated", "xdb_read, ingest"},
      {"federation.source_us.content_only.p99", "us", "query_p99_ms", "federated", "xdb_read, ingest"},
      {"federation.remote_get_us.p50", "us", "query_p50_ms", "federated", "xdb_read, ingest"},
      {"federation.augmented_ratio", "ratio", "query_p50_ms", "federated", "xdb_read, ingest"},
      {"federation.retries", "count", "query_p99_ms", "federated", "xdb_read, ingest"},
      {"federation.source_failures", "count", "query_p99_ms", "federated", "xdb_read, ingest"},
      // the benchmark itself
      {"bench.generator_lag_ms.p99", "ms", "validity of every run", "all", "-"},
      {"bench.unattributed_us.p50", "us", "validity of every run", "all", "-"},
      {"bench.tracing_overhead_pct", "%", "validity of every run", "all", "-"},
  };
  return kSpecs;
}

// --- Replays ----------------------------------------------------------------

void ReplayQuery(Layers& layers, const ReplayTarget& target, const std::string& query_string) {
  const netmark::xmlstore::XmlStore& store = *target.nm->store();
  layers.BeginRequest("xdb");
  XdbQuery q = layers.Stage("query.parse_us", [&] {
    return Unwrap(netmark::query::ParseXdbQuery(query_string), "parse " + query_string);
  });
  netmark::xml::Document results;
  QueryExecutor::Stats stats;
  {
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot =
        layers.Stage("xmlstore.begin_read_us", [&] { return store.BeginRead(); });
    const int64_t start = Layers::NowNs();
    std::vector<QueryHit> hits = Unwrap(target.cached->Execute(q, snapshot, &stats), "execute");
    const double exec_us = static_cast<double>(Layers::NowNs() - start) / 1000.0;
    const bool hit = stats.cache_hits > 0;
    layers.Observe(hit ? "query.execute_hit_us" : "query.execute_miss_us", exec_us);
    layers.SetRequestClass(hit ? "xdb_hit" : "xdb_miss");
    layers.EndStage("query.execute_us", start);
    results = layers.Stage("query.compose_us", [&] {
      return Unwrap(netmark::query::ComposeResults(store, q, hits), "compose");
    });
  }
  if (!q.xslt.empty() && target.sheet != nullptr) {
    results = layers.Stage("xslt.transform_us", [&] {
      return Unwrap(netmark::xslt::Transform(*target.sheet, results), "transform");
    });
  }
  std::string body = layers.Stage("xml.serialize_us", [&] { return netmark::xml::Serialize(results); });
  layers.Observe("xml.response_bytes", static_cast<double>(body.size()));
  layers.EndRequest();
  layers.Observe("query.result_cache_hit_ratio", stats.cache_hits > 0 ? 1 : 0);
  layers.Observe("query.plan_cache_hit_ratio", stats.plan_cache_hits > 0 ? 1 : 0);

  // Off the request path: the reference (uncached) evaluation of the same
  // query, its postings probes and the node fetches over its hits.
  netmark::xmlstore::XmlStore::ReadSnapshot snapshot = store.BeginRead();
  QueryExecutor::Stats ref;
  std::vector<QueryHit> hits = layers.Stage("query.execute_uncached_us", [&] {
    return Unwrap(target.uncached->Execute(q, snapshot, &ref), "execute uncached");
  });
  layers.Observe("query.index_probes_per_query", static_cast<double>(ref.index_probes));
  layers.Observe("query.nodes_walked_per_query", static_cast<double>(ref.nodes_walked));
  layers.Observe("query.sections_built_per_query", static_cast<double>(ref.sections_built));
  layers.Observe("query.hits_per_query", static_cast<double>(hits.size()));
  for (const std::string& term : netmark::textindex::TokenizeTerms(q.context + " " + q.content)) {
    std::vector<netmark::storage::RowId> postings =
        layers.Stage("textindex.lookup_us", [&] { return store.TextLookup(term); });
    layers.Observe("textindex.postings_per_term", static_cast<double>(postings.size()));
  }
  size_t fetched = 0;
  for (const QueryHit& hit : hits) {
    if (!hit.context.valid() || ++fetched > 32) continue;
    layers.Stage("xmlstore.get_node_us", [&] { Check(store.GetNode(hit.context).status(), "get node"); });
  }
}

void ReplayGet(Layers& layers, const ReplayTarget& target, int64_t doc_id) {
  const netmark::xmlstore::XmlStore& store = *target.nm->store();
  layers.BeginRequest("get");
  netmark::xml::Document doc;
  {
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot =
        layers.Stage("xmlstore.begin_read_us", [&] { return store.BeginRead(); });
    doc = layers.Stage("xmlstore.reconstruct_us",
                       [&] { return Unwrap(store.Reconstruct(doc_id), "reconstruct"); });
  }
  netmark::xml::SerializeOptions options;
  options.declaration = true;
  layers.Stage("xml.serialize_us", [&] { return netmark::xml::Serialize(doc, options); });
  layers.EndRequest();
}

int64_t ReplayPut(Layers& layers, const ReplayTarget& target, const std::string& file_name,
                  const std::string& content) {
  netmark::xmlstore::XmlStore* store = target.nm->store();
  layers.BeginRequest("put");
  netmark::xml::Document doc = layers.Stage("convert.upmark_us", [&] {
    return Unwrap(target.nm->converters().Convert(file_name, content), "convert " + file_name);
  });
  std::vector<netmark::xmlstore::DocRecord> existing = layers.Stage("xmlstore.list_documents_us", [&] {
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot = store->BeginRead();
    return Unwrap(store->ListDocuments(), "list documents");
  });
  for (const auto& rec : existing) {
    if (rec.file_name != file_name) continue;
    layers.Stage("xmlstore.delete_us", [&] { Check(store->DeleteDocument(rec.doc_id), "delete"); });
  }
  netmark::xmlstore::DocumentInfo info;
  info.file_name = file_name;
  info.file_date = netmark::WallSeconds();
  info.file_size = static_cast<int64_t>(content.size());
  netmark::xmlstore::PreparedDocument prepared = layers.Stage("xmlstore.prepare_us", [&] {
    return netmark::xmlstore::PrepareDocument(doc, info, store->node_types());
  });
  int64_t id = layers.Stage("xmlstore.insert_us",
                            [&] { return Unwrap(store->InsertPrepared(prepared), "insert"); });
  layers.EndRequest();
  return id;
}

void ReplayIngestFile(Layers& layers, const ReplayTarget& target, const std::string& file_name,
                      const std::string& content) {
  netmark::xmlstore::XmlStore* store = target.nm->store();
  layers.BeginRequest("ingest_file");
  netmark::xml::Document doc = layers.Stage("convert.upmark_us", [&] {
    return Unwrap(target.nm->converters().Convert(file_name, content), "convert " + file_name);
  });
  netmark::xmlstore::DocumentInfo info;
  info.file_name = file_name;
  info.file_date = netmark::WallSeconds();
  info.file_size = static_cast<int64_t>(content.size());
  netmark::xmlstore::PreparedDocument prepared = layers.Stage("xmlstore.prepare_us", [&] {
    return netmark::xmlstore::PrepareDocument(doc, info, store->node_types());
  });
  layers.Stage("xmlstore.insert_us", [&] { Check(store->InsertPrepared(prepared).status(), "insert"); });
  layers.EndRequest();
}

void MeasureTracingOverhead(Layers& layers, const ReplayTarget& target,
                            const std::vector<std::string>& queries,
                            const std::vector<int64_t>& doc_ids) {
  const netmark::xmlstore::XmlStore& store = *target.nm->store();
  std::vector<XdbQuery> parsed;
  for (const std::string& qs : queries) {
    parsed.push_back(Unwrap(netmark::query::ParseXdbQuery(qs), "parse"));
  }
  // One pass = every query executed uncached and composed, every document
  // reconstructed; `traced` adds the stage spans the traced run records.
  auto pass = [&](bool traced) {
    Layers scratch;
    const int64_t start = Layers::NowNs();
    for (const XdbQuery& q : parsed) {
      netmark::xmlstore::XmlStore::ReadSnapshot snapshot = store.BeginRead();
      if (traced) {
        auto hits = scratch.Stage("x", [&] { return Unwrap(target.uncached->Execute(q, snapshot), "execute"); });
        scratch.Stage("y", [&] { return Unwrap(netmark::query::ComposeResults(store, q, hits), "compose"); });
      } else {
        auto hits = Unwrap(target.uncached->Execute(q, snapshot), "execute");
        Unwrap(netmark::query::ComposeResults(store, q, hits), "compose");
      }
    }
    for (int64_t id : doc_ids) {
      netmark::xmlstore::XmlStore::ReadSnapshot snapshot = store.BeginRead();
      if (traced) {
        scratch.Stage("z", [&] { return Unwrap(store.Reconstruct(id), "reconstruct"); });
      } else {
        Unwrap(store.Reconstruct(id), "reconstruct");
      }
    }
    return static_cast<double>(Layers::NowNs() - start);
  };
  // Alternate the order over a few rounds so warm-up favours neither side.
  double traced_ns = 0, plain_ns = 0;
  for (int round = 0; round < 4; ++round) {
    if (round % 2 == 0) {
      plain_ns += pass(false);
      traced_ns += pass(true);
    } else {
      traced_ns += pass(true);
      plain_ns += pass(false);
    }
  }
  layers.Set("bench.tracing_overhead_pct", plain_ns > 0 ? (traced_ns - plain_ns) / plain_ns * 100 : 0);
}

void ReplayFederated(Layers& layers, const FederationTarget& target, const std::string& query_string) {
  XdbQuery q = Unwrap(netmark::query::ParseXdbQuery(query_string), "parse " + query_string);
  layers.BeginRequest("federated");
  netmark::federation::FederatedResult result = layers.Stage("federation.query_us", [&] {
    return Unwrap(target.router->QueryFederated(target.databank, q), "federated query");
  });
  layers.EndRequest();
  layers.Observe("federation.augmented_ratio",
                 result.stats.sources_queried == 0
                     ? 0
                     : static_cast<double>(result.stats.augmented) /
                           static_cast<double>(result.stats.sources_queried));
  // Each source on its own, with what the router would push down to it.
  for (const auto& [name, kind] : target.kinds) {
    netmark::federation::Source* source = target.router->GetSource(name);
    if (source == nullptr) Die("no source " + name);
    XdbQuery pushed = q;
    if (kind == "content_only") {
      pushed = XdbQuery{};
      pushed.content = !q.content.empty() ? q.content : q.context;
    }
    layers.Stage("federation.source_us." + kind,
                 [&] { Check(source->Execute(pushed).status(), "source " + name); });
  }
  for (const auto& [name, client] : target.remotes) {
    layers.Stage("federation.remote_get_us", [&] {
      auto resp = client->Get("/xdb?" + q.ToQueryString());
      if (!resp.ok() || resp->status != 200) Die("remote get " + name + " failed");
    });
  }
}

void ReadRegistry(Layers& layers, netmark::Netmark* nm, uint64_t docs_committed) {
  netmark::xmlstore::XmlStore* store = nm->store();
  layers.Observe("storage.mvcc_versions_retained", static_cast<double>(store->mvcc_versions_retained()));
  layers.Stage("storage.checkpoint_us", [&] { Check(store->Checkpoint(), "checkpoint"); });
  netmark::observability::MetricsSnapshot snap = nm->metrics()->Collect();
  auto counter = [&](const std::string& name) {
    double total = 0;
    for (const auto& c : snap.counters) {
      if (c.name == name) total += static_cast<double>(c.value);
    }
    return total;
  };
  auto histogram = [&](const std::string& name) -> const netmark::observability::HistogramSample* {
    for (const auto& h : snap.histograms) {
      if (h.name == name && h.count > 0) return &h;
    }
    return nullptr;
  };
  const double docs = static_cast<double>(std::max<uint64_t>(docs_committed, 1));
  layers.Set("storage.wal_bytes_per_doc", counter("netmark_wal_bytes_appended_total") / docs);
  layers.Set("storage.wal_fsyncs_per_doc", counter("netmark_wal_fsyncs_total") / docs);
  if (const auto* h = histogram("netmark_wal_commit_micros")) {
    layers.Set("storage.wal_commit_us.p50", h->p50);
    layers.Set("storage.wal_commit_us.p99", h->p99);
  }
  layers.Set("storage.checkpoints", counter("netmark_checkpoints_total"));
  layers.Set("storage.mvcc_gc_reclaimed", counter("netmark_mvcc_gc_reclaimed_total"));
  layers.Set("storage.data_dir_bytes", static_cast<double>(DirBytes(store->database()->dir())));
  layers.Set("server.shed_total", counter("netmark_http_shed_total"));
  const auto* prepare = histogram("netmark_ingest_prepare_micros");
  const auto* insert = histogram("netmark_ingest_insert_micros");
  const std::vector<double>& sweeps = layers.Values("daemon.sweep_wall_us");
  double wall = 0;
  for (double w : sweeps) wall += w;
  if (prepare != nullptr && insert != nullptr && wall > 0) {
    layers.Set("daemon.prepare_us.p50", prepare->p50);
    layers.Set("daemon.insert_us.p50", insert->p50);
    layers.Set("daemon.writer_busy_ratio", static_cast<double>(insert->sum) / wall);
    layers.Set("daemon.worker_busy_ratio",
               static_cast<double>(prepare->sum) / (wall * layers.Values("daemon.workers").front()));
  }
  const netmark::federation::Router::Stats fed = nm->router()->stats();
  layers.Set("federation.retries", static_cast<double>(fed.retries));
  layers.Set("federation.source_failures", static_cast<double>(fed.source_failures));
}

// --- TimedServer ----------------------------------------------------------------

TimedServer::TimedServer(netmark::Netmark* nm, size_t max_ops)
    : handle_ns_(new std::atomic<int64_t>[max_ops]), max_ops_(max_ops) {
  for (size_t i = 0; i < max_ops_; ++i) handle_ns_[i].store(0);
  netmark::server::NetmarkService* service = nm->service();
  server_ = std::make_unique<netmark::server::HttpServer>(
      [this, service](const netmark::server::HttpRequest& request) {
        const int64_t start = Layers::NowNs();
        netmark::server::HttpResponse response = service->Handle(request);
        const int64_t elapsed = Layers::NowNs() - start;
        std::string_view id = request.Header(kOpHeader);
        if (!id.empty()) {
          size_t op = std::strtoull(std::string(id).c_str(), nullptr, 10);
          if (op < max_ops_) handle_ns_[op].store(elapsed);
        }
        return response;
      },
      nm->http_server_options());
  server_->BindMetrics(nm->metrics());
  Check(server_->Start(0), "start timed server");
}

TimedServer::~TimedServer() { server_->Stop(); }

void RunTimedHttpPhase(Layers& layers, TimedServer& server,
                       const std::vector<std::vector<ScheduledOp>>& streams, const TimedSendFn& send) {
  std::vector<size_t> offset(streams.size(), 0);
  size_t total = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    offset[s] = total;
    total += streams[s].size();
  }
  std::vector<double> rtt_us(total, 0);
  std::vector<size_t> position(streams.size(), 0);
  std::vector<OpFn> fns;
  for (size_t s = 0; s < streams.size(); ++s) {
    fns.push_back([&, s](const ScheduledOp& op, netmark::server::HttpClient& client) {
      const size_t id = offset[s] + position[s]++;
      netmark::server::HeaderMap headers;
      headers[TimedServer::kOpHeader] = std::to_string(id);
      const int64_t start = Layers::NowNs();
      bool ok = send(op, client, headers);
      rtt_us[id] = static_cast<double>(Layers::NowNs() - start) / 1000.0;
      return ok;
    });
  }
  std::vector<StreamResult> results = RunOpenLoop(server.port(), streams, fns);
  uint64_t opened = 0, reused = 0;
  for (const StreamResult& r : results) {
    opened += r.connections_opened;
    reused += r.connections_reused;
    for (const OpRecord& rec : r.records) {
      if (!rec.ok) Die("traced HTTP phase: a request failed");
      layers.Observe("bench.generator_lag_ms", rec.lag_us / 1000.0);
    }
  }
  for (size_t id = 0; id < total; ++id) {
    const double handle = server.handle_us(id);
    if (handle <= 0) continue;
    layers.Observe("server.handle_us", handle);
    layers.Observe("server.http_overhead_us", rtt_us[id] - handle);
  }
  if (opened + reused > 0) {
    layers.Set("server.keepalive_reuse_ratio",
               static_cast<double>(reused) / static_cast<double>(opened + reused));
  }
}

}  // namespace perfbench
