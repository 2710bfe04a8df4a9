#include "query/plan.h"

#include <algorithm>

namespace netmark::query {

namespace {

/// The specialized loop proves the content predicate through the inverted
/// index, which answers exact-term membership. Phrase and prefix clauses
/// need the generic verify pass (phrases span positions, prefixes expand),
/// so only all-term content keys specialize.
bool AllTermClauses(const textindex::TextQuery& query) {
  return std::all_of(query.clauses.begin(), query.clauses.end(),
                     [](const textindex::QueryClause& clause) {
                       return clause.kind ==
                              textindex::QueryClause::Kind::kTerm;
                     });
}

}  // namespace

netmark::Result<std::shared_ptr<const QueryPlan>> BuildQueryPlan(
    const XdbQuery& query) {
  if (query.empty()) {
    return netmark::Status::InvalidArgument(
        "XDB query needs a Context, Content or XPath key");
  }
  auto plan = std::make_shared<QueryPlan>();
  if (query.has_xpath()) {
    if (query.has_context()) {
      return netmark::Status::InvalidArgument(
          "XPath and Context keys cannot be combined (use Content to "
          "pre-select documents)");
    }
    // A malformed expression is the caller's error (HTTP 400), like any
    // other bad query key.
    auto path = xslt::XPath::Parse(query.xpath);
    if (!path.ok()) {
      return netmark::Status::InvalidArgument(path.status().message());
    }
    plan->kind = QueryPlan::Kind::kXPath;
    plan->xpath = std::make_shared<const xslt::XPath>(std::move(*path));
    plan->content_query = textindex::ParseTextQuery(query.content);
    return std::shared_ptr<const QueryPlan>(std::move(plan));
  }
  plan->context_query = textindex::ParseTextQuery(query.context);
  plan->content_query = textindex::ParseTextQuery(query.content);
  if (query.has_context()) {
    plan->kind = (!plan->content_query.empty() &&
                  AllTermClauses(plan->content_query))
                     ? QueryPlan::Kind::kSectionSpecialized
                     : QueryPlan::Kind::kSection;
  } else {
    plan->kind = QueryPlan::Kind::kContentOnly;
  }
  return std::shared_ptr<const QueryPlan>(std::move(plan));
}

std::string QueryPlanShapeKey(const XdbQuery& query) {
  std::string key;
  key.reserve(query.context.size() + query.content.size() +
              query.xpath.size() + 3);
  key += query.context;
  key += '\x1f';
  key += query.content;
  key += '\x1f';
  key += query.xpath;
  return key;
}

std::shared_ptr<const QueryPlan> QueryPlanCache::Lookup(
    const std::string& shape_key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_entries == 0) return nullptr;
  auto it = index_.find(shape_key);
  if (it == index_.end()) {
    ++miss_count_;
    if (handles_.misses != nullptr) handles_.misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hit_count_;
  if (handles_.hits != nullptr) handles_.hits->Increment();
  return it->second->plan;
}

void QueryPlanCache::Insert(const std::string& shape_key,
                            std::shared_ptr<const QueryPlan> plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_entries == 0) return;
  if (index_.find(shape_key) != index_.end()) return;  // racing build, keep
  lru_.push_front(Entry{shape_key, std::move(plan)});
  index_.emplace(lru_.front().key, lru_.begin());
  while (lru_.size() > options_.max_entries) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evict_count_;
  }
  if (handles_.entries != nullptr) {
    handles_.entries->Set(static_cast<int64_t>(lru_.size()));
  }
}

QueryPlanCache::Snapshot QueryPlanCache::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.hits = hit_count_;
  snap.misses = miss_count_;
  snap.evictions = evict_count_;
  snap.entries = lru_.size();
  return snap;
}

void QueryPlanCache::BindMetrics(observability::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    handles_ = MetricHandles{};
    return;
  }
  handles_.hits = registry->GetCounter("netmark_query_plan_cache_hits_total");
  handles_.misses =
      registry->GetCounter("netmark_query_plan_cache_misses_total");
  handles_.entries = registry->GetGauge("netmark_query_plan_cache_entries");
  handles_.entries->Set(static_cast<int64_t>(lru_.size()));
}

}  // namespace netmark::query
