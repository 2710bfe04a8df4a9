#include "query/executor.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "observability/thread_trace.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "xml/serializer.h"
#include "xslt/xpath.h"

namespace netmark::query {

using storage::RowId;
using textindex::QueryClause;
using textindex::TextQuery;
using xmlstore::GoverningContext;
using xmlstore::NodeHeader;
using xmlstore::NodeRecord;

// Quarantine containment: a read that lands on a checksum-failed page
// returns Status::DataLoss. Query execution skips the affected node or
// document (counting it in Stats::quarantined_skips, so the HTTP layer can
// mark the result partial) instead of failing the whole query; any other
// error still propagates. `on_skip` must exit the enclosing scope
// (continue/break).
#define NETMARK_SKIP_ON_DATALOSS(lhs, expr, stats, on_skip) \
  auto lhs##_or = (expr);                                   \
  if (!lhs##_or.ok()) {                                     \
    if (lhs##_or.status().IsDataLoss()) {                   \
      ++(stats).quarantined_skips;                          \
      on_skip;                                              \
    }                                                       \
    return lhs##_or.status();                               \
  }                                                         \
  auto lhs = std::move(*lhs##_or);

// Text-index candidate verification: postings are writer-latest (docs/
// mvcc.md), so a seed RowId may point at a row that is deleted, not yet
// committed, or simply invisible at this snapshot's epoch — the store
// answers NotFound, and the candidate is silently dropped (it is not data
// loss, just MVCC staleness). DataLoss still counts as a quarantine skip.
#define NETMARK_SKIP_STALE_OR_DATALOSS(lhs, expr, stats, on_skip) \
  auto lhs##_or = (expr);                                         \
  if (!lhs##_or.ok()) {                                           \
    if (lhs##_or.status().IsNotFound()) {                         \
      on_skip;                                                    \
    }                                                             \
    if (lhs##_or.status().IsDataLoss()) {                         \
      ++(stats).quarantined_skips;                                \
      on_skip;                                                    \
    }                                                             \
    return lhs##_or.status();                                     \
  }                                                               \
  auto lhs = std::move(*lhs##_or);

namespace {

/// True once `hits` holds the query's `limit` (0 = unlimited). Every plan
/// produces hits in answer order, so it stops here instead of building hits
/// the answer would drop.
bool Full(const std::vector<QueryHit>& hits, size_t limit) {
  return limit != 0 && hits.size() >= limit;
}

}  // namespace

netmark::Result<QueryExecutor::DocScope> QueryExecutor::ScopeNodes(
    int64_t doc_id, Stats& stats) const {
  DocScope scope;
  auto nodes = store_->DocumentNodes(doc_id);
  if (!nodes.ok()) {
    if (!nodes.status().IsDataLoss()) return nodes.status();
    ++stats.quarantined_skips;
    store_->NoteQuarantinedDoc(doc_id);
    return scope;
  }
  if (nodes->empty()) return scope;  // no such document at this snapshot
  // Rows on pages quarantined before open are missing from the rebuilt
  // index rather than failing; the stored node count exposes the gap (as in
  // XmlStore::Reconstruct), and the doc's answer is marked partial.
  NETMARK_SKIP_ON_DATALOSS(info, store_->GetDocumentInfo(doc_id), stats, {
    store_->NoteQuarantinedDoc(doc_id);
    return scope;
  });
  if (info.node_count > 0 && static_cast<int64_t>(nodes->size()) != info.node_count) {
    ++stats.quarantined_skips;
    store_->NoteQuarantinedDoc(doc_id);
  }
  scope.reserve(nodes->size());
  for (auto& [id, rec] : *nodes) scope.emplace(id.Pack(), std::move(rec));
  return scope;
}

netmark::Status QueryExecutor::ForEachPosting(
    const QueryClause& clause, const DocScope* scope, Stats& stats,
    const std::function<netmark::Status(RowId, const NodeHeader&)>& visit) const {
  ++stats.index_probes;
  std::vector<RowId> nodes;
  if (!options_.use_text_index) {
    TextQuery single;
    single.clauses.push_back(clause);
    NETMARK_ASSIGN_OR_RETURN(nodes, store_->TextScanMatch(single));
  } else {
    std::vector<textindex::DocKey> keys;
    switch (clause.kind) {
      case QueryClause::Kind::kTerm:
        keys = store_->text_index().LookupTerm(clause.words[0]);
        break;
      case QueryClause::Kind::kPhrase:
        keys = store_->text_index().MatchPhrase(clause.words);
        break;
      case QueryClause::Kind::kPrefix:
        keys = store_->text_index().MatchPrefix(clause.words[0]);
        break;
    }
    nodes.reserve(keys.size());
    for (textindex::DocKey key : keys) nodes.push_back(RowId::Unpack(key));
  }
  for (RowId id : nodes) {
    if (scope != nullptr) {
      // Doc scope: the document's rows were read once up front, so a
      // posting elsewhere costs a hash probe instead of a node read.
      auto it = scope->find(id.Pack());
      if (it != scope->end()) NETMARK_RETURN_NOT_OK(visit(id, it->second));
      continue;
    }
    NETMARK_SKIP_STALE_OR_DATALOSS(rec, store_->GetNodeHeader(id), stats, continue);
    NETMARK_RETURN_NOT_OK(visit(id, rec));
  }
  return netmark::Status::OK();
}

netmark::Result<GoverningContext> QueryExecutor::Walk(RowId start,
                                                      const NodeHeader& start_row,
                                                      Stats& stats) const {
  ++stats.nodes_walked;
  if (options_.use_index_joins_for_walks) {
    return xmlstore::FindGoverningContextViaIndex(*store_, start, start_row);
  }
  return xmlstore::FindGoverningContext(*store_, start, start_row);
}

netmark::Result<bool> QueryExecutor::InsideIntense(const NodeHeader& node) const {
  // A text node "is emphasized" when an enclosing element within a few
  // parent hops is INTENSE-typed (<b>term</b> nests at most a couple of
  // levels in practice).
  if (node.node_type == xml::NetmarkNodeType::kIntense) return true;
  RowId parent = node.parent_rowid;
  for (int hop = 0; hop < 3 && parent.valid(); ++hop) {
    NETMARK_ASSIGN_OR_RETURN(NodeHeader rec, store_->GetNodeHeader(parent));
    if (rec.node_type == xml::NetmarkNodeType::kIntense) return true;
    parent = rec.parent_rowid;
  }
  return false;
}

netmark::Result<std::vector<QueryExecutor::RankedDoc>> QueryExecutor::RankDocuments(
    const TextQuery& content, const DocScope* scope, Stats& stats) const {
  // Per clause: matched nodes -> the documents containing them; then AND
  // across clauses at document granularity ("all documents that contain the
  // term", paper §2.1.3). Scores accumulate per matching node, with INTENSE
  // (emphasis) matches counting double.
  std::set<int64_t> docs;
  std::map<int64_t, double> scores;
  // Snippet anchor per document, with its row.
  std::map<int64_t, std::pair<RowId, NodeHeader>> first_match;
  bool first = true;
  for (const QueryClause& clause : content.clauses) {
    std::set<int64_t> clause_docs;
    NETMARK_RETURN_NOT_OK(ForEachPosting(
        clause, scope, stats, [&](RowId id, const NodeHeader& rec) -> netmark::Status {
          clause_docs.insert(rec.doc_id);
          first_match.emplace(rec.doc_id, std::make_pair(id, rec));
          bool intense = false;
          auto intense_or = InsideIntense(rec);
          if (intense_or.ok()) {
            intense = *intense_or;
          } else if (!intense_or.status().IsDataLoss()) {
            return intense_or.status();
          }  // quarantined ancestor: score without the emphasis boost
          scores[rec.doc_id] += intense ? 2.0 : 1.0;
          return netmark::Status::OK();
        }));
    if (first) {
      docs = std::move(clause_docs);
      first = false;
    } else {
      std::set<int64_t> merged;
      std::set_intersection(docs.begin(), docs.end(), clause_docs.begin(),
                            clause_docs.end(), std::inserter(merged, merged.end()));
      docs = std::move(merged);
    }
    if (docs.empty()) break;
  }

  std::vector<RankedDoc> ranked;
  ranked.reserve(docs.size());
  for (int64_t doc_id : docs) {
    const auto& [anchor, anchor_row] = first_match[doc_id];
    ranked.push_back(RankedDoc{doc_id, scores[doc_id], anchor, anchor_row});
  }
  std::sort(ranked.begin(), ranked.end(), [](const RankedDoc& a, const RankedDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  return ranked;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::ContentOnly(
    const TextQuery& content, const DocScope* scope, size_t limit,
    Stats& stats) const {
  NETMARK_ASSIGN_OR_RETURN(std::vector<RankedDoc> ranked,
                           RankDocuments(content, scope, stats));

  // Documents arrive in answer order (score desc, doc_id asc): assemble
  // snippets only for the ones the answer keeps.
  std::vector<QueryHit> hits;
  for (const RankedDoc& doc : ranked) {
    if (Full(hits, limit)) break;
    NETMARK_SKIP_ON_DATALOSS(info, store_->GetDocumentInfo(doc.doc_id), stats, {
      store_->NoteQuarantinedDoc(doc.doc_id);
      continue;
    });
    QueryHit hit;
    hit.doc_id = doc.doc_id;
    hit.file_name = info.file_name;
    hit.score = doc.score;
    // Snippet: the heading of the section the (first) match sits in, plus a
    // truncated slice of the matching node's text — enough for a result
    // list. Assembly is best-effort: a quarantined page costs the snippet,
    // not the hit.
    bool snippet_loss = false;
    auto ctx = Walk(doc.anchor, doc.anchor_row, stats);
    if (!ctx.ok() && !ctx.status().IsDataLoss()) return ctx.status();
    if (ctx.ok() && ctx->id.valid()) {
      auto heading = store_->DescendantText(ctx->head.node_id);
      if (!heading.ok() && !heading.status().IsDataLoss()) {
        return heading.status();
      }
      if (heading.ok()) hit.heading = std::move(*heading);
      snippet_loss |= !heading.ok();
    }
    auto rec = store_->GetNode(doc.anchor);
    if (!rec.ok() && !rec.status().IsDataLoss()) return rec.status();
    if (rec.ok()) {
      constexpr size_t kSnippetChars = 160;
      hit.text = rec->node_data.substr(0, kSnippetChars);
    }
    snippet_loss |= !ctx.ok() || !rec.ok();
    if (snippet_loss) {
      ++stats.quarantined_skips;
      store_->NoteQuarantinedDoc(doc.doc_id);
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::SectionQuery(
    const QueryPlan& plan, const XdbQuery& query, const DocScope* scope,
    Stats& stats) const {
  if (plan.context_query.empty()) return std::vector<QueryHit>{};

  // Candidate contexts: sections whose governing heading we must verify.
  // With a content key, candidates come from content hits; otherwise from
  // hits on the heading text itself. Per clause: postings probe -> RowId
  // walk to the governing CONTEXT -> intersect at section granularity.
  const TextQuery& seed =
      query.has_content() ? plan.content_query : plan.context_query;
  // Packed context RowId -> the heading row its walk stopped at.
  using Contexts = std::unordered_map<uint64_t, NodeHeader>;
  Contexts candidates;
  bool first = true;
  for (const QueryClause& clause : seed.clauses) {
    Contexts clause_contexts;
    NETMARK_RETURN_NOT_OK(ForEachPosting(
        clause, scope, stats, [&](RowId node, const NodeHeader& rec) -> netmark::Status {
          NETMARK_SKIP_ON_DATALOSS(ctx, Walk(node, rec, stats), stats,
                                   return netmark::Status::OK());
          if (ctx.id.valid()) clause_contexts.emplace(ctx.id.Pack(), ctx.head);
          return netmark::Status::OK();
        }));
    if (first) {
      candidates = std::move(clause_contexts);
      first = false;
    } else {
      for (auto it = candidates.begin(); it != candidates.end();) {
        it = clause_contexts.count(it->first) != 0 ? std::next(it) : candidates.erase(it);
      }
    }
    if (candidates.empty()) return std::vector<QueryHit>{};
  }

  // The specialized plan seeds from plain content terms only, so a section
  // that survives the intersection contains every term in its heading or
  // body: the content predicate is proven and only the heading is checked.
  // The generic path re-verifies the content key over heading + body.
  const bool verify_content =
      query.has_content() && !(plan.kind == QueryPlan::Kind::kSectionSpecialized &&
                               options_.use_specialized_section_plan);

  // Answer order is the heading's (doc_id, node_id), which the walks
  // already read: sort, then build sections in answer order until the
  // limit is reached.
  struct Candidate {
    RowId context;
    NodeHeader head;
  };
  std::vector<Candidate> ordered;
  ordered.reserve(candidates.size());
  for (const auto& [packed, head] : candidates) {
    ordered.push_back(Candidate{RowId::Unpack(packed), head});
  }
  std::sort(ordered.begin(), ordered.end(), [](const Candidate& a, const Candidate& b) {
    return std::tie(a.head.doc_id, a.head.node_id) < std::tie(b.head.doc_id, b.head.node_id);
  });

  std::vector<QueryHit> hits;
  for (const Candidate& candidate : ordered) {
    if (Full(hits, query.limit)) break;
    const NodeHeader& head = candidate.head;
    NETMARK_SKIP_ON_DATALOSS(heading, store_->DescendantText(head.node_id), stats,
                             continue);
    if (!textindex::Matches(plan.context_query, heading)) continue;
    NETMARK_SKIP_ON_DATALOSS(body, xmlstore::SectionText(*store_, head), stats, {
      store_->NoteQuarantinedDoc(head.doc_id);
      continue;
    });
    if (verify_content &&
        !textindex::Matches(plan.content_query, heading + " " + body)) {
      continue;
    }
    ++stats.sections_built;
    NETMARK_SKIP_ON_DATALOSS(info, store_->GetDocumentInfo(head.doc_id), stats, {
      store_->NoteQuarantinedDoc(head.doc_id);
      continue;
    });
    QueryHit hit;
    hit.doc_id = head.doc_id;
    hit.file_name = info.file_name;
    hit.context = candidate.context;
    hit.heading = std::move(heading);
    hit.text = std::move(body);
    hits.push_back(std::move(hit));
  }
  return hits;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::XPathQuery(
    const QueryPlan& plan, const XdbQuery& query, const DocScope* scope,
    Stats& stats) const {
  // Candidate documents: content-key pre-selection when given, else the doc
  // scope, else the whole collection (XPath has no index; the content key is
  // how users keep this selective).
  std::vector<int64_t> docs;
  if (query.has_content()) {
    NETMARK_ASSIGN_OR_RETURN(std::vector<RankedDoc> ranked,
                             RankDocuments(plan.content_query, scope, stats));
    for (const RankedDoc& doc : ranked) docs.push_back(doc.doc_id);
    std::sort(docs.begin(), docs.end());
  } else if (query.doc_id != 0) {
    docs.push_back(query.doc_id);
  } else {
    NETMARK_ASSIGN_OR_RETURN(std::vector<xmlstore::DocRecord> all,
                             store_->ListDocuments());
    for (const auto& rec : all) docs.push_back(rec.doc_id);
  }

  std::vector<QueryHit> hits;
  for (int64_t doc_id : docs) {
    if (Full(hits, query.limit)) break;
    auto found = store_->GetDocumentInfo(doc_id);
    // A `doc=` naming no document is an empty answer, as on the other plans.
    if (!found.ok() && found.status().IsNotFound()) continue;
    NETMARK_SKIP_ON_DATALOSS(info, std::move(found), stats, {
      store_->NoteQuarantinedDoc(doc_id);
      continue;
    });
    NETMARK_SKIP_ON_DATALOSS(doc, store_->Reconstruct(doc_id), stats, {
      store_->NoteQuarantinedDoc(doc_id);
      continue;
    });
    for (xml::NodeId node : plan.xpath->SelectNodes(doc, doc.root())) {
      if (Full(hits, query.limit)) break;
      QueryHit hit;
      hit.doc_id = doc_id;
      hit.file_name = info.file_name;
      hit.text = doc.TextContent(node);
      hit.markup = xml::Serialize(doc, node);
      hits.push_back(std::move(hit));
    }
  }
  return hits;
}

void QueryExecutor::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr) {
    handles_ = MetricHandles{};
    return;
  }
  handles_.executes = registry->GetCounter("netmark_xdb_executes_total");
  handles_.index_probes = registry->GetCounter("netmark_xdb_index_probes_total");
  handles_.nodes_walked = registry->GetCounter("netmark_xdb_nodes_walked_total");
  handles_.node_reads = registry->GetCounter("netmark_xdb_node_reads_total");
  handles_.sections_built =
      registry->GetCounter("netmark_xdb_sections_built_total");
  handles_.execute_micros = registry->GetHistogram("netmark_xdb_execute_micros");
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::Execute(
    const XdbQuery& query, Stats* stats) const {
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  return Execute(query, snapshot, stats);
}

netmark::Result<std::shared_ptr<const QueryPlan>> QueryExecutor::GetPlan(
    const XdbQuery& query, Stats& stats) const {
  if (plan_cache_ == nullptr) return BuildQueryPlan(query);
  std::string shape = QueryPlanShapeKey(query);
  if (std::shared_ptr<const QueryPlan> plan = plan_cache_->Lookup(shape)) {
    stats.plan_cache_hits = 1;
    return plan;
  }
  NETMARK_ASSIGN_OR_RETURN(std::shared_ptr<const QueryPlan> plan,
                           BuildQueryPlan(query));
  plan_cache_->Insert(shape, plan);
  return plan;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::RunPlan(
    const QueryPlan& plan, const XdbQuery& query, Stats& stats) const {
  // Doc scope: read the document's rows once and intersect every clause's
  // postings with them. XPath without a content key reconstructs the one
  // document directly and needs no postings filter.
  DocScope scope;
  const DocScope* scoped = nullptr;
  if (query.doc_id != 0 &&
      (plan.kind != QueryPlan::Kind::kXPath || query.has_content())) {
    NETMARK_ASSIGN_OR_RETURN(scope, ScopeNodes(query.doc_id, stats));
    if (scope.empty()) return std::vector<QueryHit>{};
    scoped = &scope;
  }
  switch (plan.kind) {
    case QueryPlan::Kind::kXPath:
      return XPathQuery(plan, query, scoped, stats);
    case QueryPlan::Kind::kSectionSpecialized:
    case QueryPlan::Kind::kSection:
      return SectionQuery(plan, query, scoped, stats);
    case QueryPlan::Kind::kContentOnly:
      break;
  }
  return ContentOnly(plan.content_query, scoped, query.limit, stats);
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::Execute(
    const XdbQuery& query, const xmlstore::XmlStore::ReadSnapshot& snapshot,
    Stats* stats) const {
  // The caller's snapshot pins the view and supplies the commit epoch the
  // result cache keys on.
  const uint64_t epoch = snapshot.epoch();
  Stats local;
  observability::ScopedTimer timer(handles_.execute_micros);
  if (query.empty()) {
    return netmark::Status::InvalidArgument(
        "XDB query needs a Context, Content or XPath key");
  }

  // Result-cache consult: the canonical query string + the snapshot's
  // commit epoch identify the answer exactly (a commit bumps the epoch, so
  // stale entries can never be reached — no invalidation locking).
  std::string cache_key;
  const bool use_cache = result_cache_ != nullptr && result_cache_->enabled();
  if (use_cache) {
    cache_key = query.ToQueryString();
    // The probe rides whatever trace the serving thread bound (inert when
    // untraced) — cache cost shows up as its own span, not folded into
    // "execute".
    observability::ScopedSpan probe(observability::CurrentThreadTrace(),
                                    "cache_probe",
                                    observability::CurrentThreadSpan());
    if (QueryResultCache::HitsPtr cached =
            result_cache_->Lookup(cache_key, epoch)) {
      probe.Annotate("outcome", "hit");
      local.cache_hits = 1;
      if (handles_.executes != nullptr) handles_.executes->Increment();
      if (stats != nullptr) *stats = local;
      return *cached;
    }
    probe.Annotate("outcome", "miss");
  }

  NETMARK_ASSIGN_OR_RETURN(std::shared_ptr<const QueryPlan> plan,
                           GetPlan(query, local));
  const uint64_t reads_before = xmlstore::XmlStore::NodeReadsOnThisThread();
  NETMARK_ASSIGN_OR_RETURN(std::vector<QueryHit> hits,
                           RunPlan(*plan, query, local));
  local.node_reads = xmlstore::XmlStore::NodeReadsOnThisThread() - reads_before;
  if (use_cache) {
    result_cache_->Insert(
        cache_key, epoch,
        std::make_shared<const std::vector<QueryHit>>(hits));
  }
  if (handles_.executes != nullptr) {
    handles_.executes->Increment();
    handles_.index_probes->Increment(local.index_probes);
    handles_.nodes_walked->Increment(local.nodes_walked);
    handles_.node_reads->Increment(local.node_reads);
    handles_.sections_built->Increment(local.sections_built);
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

}  // namespace netmark::query
