#include "query/result_cache.h"

namespace netmark::query {

std::string QueryResultCache::MakeKey(std::string_view canonical_query,
                                      uint64_t epoch) {
  std::string key;
  key.reserve(canonical_query.size() + 24);
  key.append(canonical_query);
  key += '\x1f';  // cannot appear in a URL-encoded query string
  key += std::to_string(epoch);
  return key;
}

size_t QueryResultCache::EntryBytes(const Entry& entry) {
  size_t bytes = sizeof(Entry) + entry.key.size();
  if (entry.hits != nullptr) {
    bytes += sizeof(std::vector<QueryHit>);
    for (const QueryHit& hit : *entry.hits) bytes += hit.ApproxBytes();
  }
  return bytes;
}

void QueryResultCache::Configure(ResultCacheOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  enabled_.store(options.max_entries > 0 && options.max_bytes > 0,
                 std::memory_order_relaxed);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  PublishGaugesLocked();
}

QueryResultCache::HitsPtr QueryResultCache::Lookup(
    std::string_view canonical_query, uint64_t epoch) {
  if (!enabled()) return nullptr;
  std::string key = MakeKey(canonical_query, epoch);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++miss_count_;
    if (handles_.misses != nullptr) handles_.misses->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hit_count_;
  if (handles_.hits != nullptr) handles_.hits->Increment();
  return it->second->hits;
}

void QueryResultCache::Insert(std::string_view canonical_query, uint64_t epoch,
                              HitsPtr hits) {
  if (!enabled() || hits == nullptr) return;
  Entry entry;
  entry.key = MakeKey(canonical_query, epoch);
  entry.hits = std::move(hits);
  entry.bytes = EntryBytes(entry);
  std::lock_guard<std::mutex> lock(mu_);
  if (entry.bytes > options_.max_bytes) return;  // would evict everything
  auto existing = index_.find(entry.key);
  if (existing != index_.end()) {
    // Concurrent executors raced on the same (query, epoch); both computed
    // the same result under snapshot isolation, keep the incumbent.
    return;
  }
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().key, lru_.begin());
  ++insert_count_;
  EvictLocked();
  PublishGaugesLocked();
}

void QueryResultCache::EvictLocked() {
  while (!lru_.empty() &&
         (lru_.size() > options_.max_entries || bytes_ > options_.max_bytes)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evict_count_;
    if (handles_.evictions != nullptr) handles_.evictions->Increment();
  }
}

void QueryResultCache::PublishGaugesLocked() {
  if (handles_.entries != nullptr) {
    handles_.entries->Set(static_cast<int64_t>(lru_.size()));
  }
  if (handles_.bytes != nullptr) {
    handles_.bytes->Set(static_cast<int64_t>(bytes_));
  }
}

QueryResultCache::Snapshot QueryResultCache::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.hits = hit_count_;
  snap.misses = miss_count_;
  snap.insertions = insert_count_;
  snap.evictions = evict_count_;
  snap.entries = lru_.size();
  snap.bytes = bytes_;
  uint64_t lookups = hit_count_ + miss_count_;
  snap.hit_ratio =
      lookups == 0 ? 0.0 : static_cast<double>(hit_count_) / lookups;
  return snap;
}

void QueryResultCache::BindMetrics(observability::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    handles_ = MetricHandles{};
    return;
  }
  handles_.hits = registry->GetCounter("netmark_query_cache_hits_total");
  handles_.misses = registry->GetCounter("netmark_query_cache_misses_total");
  handles_.evictions =
      registry->GetCounter("netmark_query_cache_evictions_total");
  handles_.entries = registry->GetGauge("netmark_query_cache_entries");
  handles_.bytes = registry->GetGauge("netmark_query_cache_bytes");
  PublishGaugesLocked();
}

}  // namespace netmark::query
