// Epoch-invalidated XDB result cache.
//
// Production NETMARK traffic is read-heavy and repetitive: the same
// `Context=X&Content=Y` URLs arrive over and over. This cache memoizes
// executed hit lists keyed by (canonical query string, store commit epoch).
// The epoch is part of the key, so invalidation needs no locking at all: a
// committed mutation bumps the store's commit epoch, every subsequent
// lookup carries the new epoch, and the stale entries simply become
// unreachable until LRU pressure reclaims them.
//
// One cache serves exactly one store — the epoch sequence is the store's.
// Sharing a cache across stores would alias (query, epoch) keys between
// unrelated data sets and serve wrong results.
//
// Thread safety: all methods are safe for concurrent use (one mutex; the
// critical sections are map lookups and list splices, no query execution
// happens under the lock).

#ifndef NETMARK_QUERY_RESULT_CACHE_H_
#define NETMARK_QUERY_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "observability/metrics.h"
#include "query/query_hit.h"

namespace netmark::query {

/// Result-cache sizing knobs (the `[query]` INI section). Either bound at 0
/// disables the cache.
struct ResultCacheOptions {
  /// Maximum cached result lists (`cache_entries`).
  size_t max_entries = 1024;
  /// Maximum bytes across cached hits + keys (`cache_bytes`).
  size_t max_bytes = 8 * 1024 * 1024;
};

/// \brief LRU, byte-bounded cache of executed XDB results.
class QueryResultCache {
 public:
  using HitsPtr = std::shared_ptr<const std::vector<QueryHit>>;

  explicit QueryResultCache(ResultCacheOptions options = ResultCacheOptions()) {
    Configure(options);
  }

  /// Replaces the sizing options and clears the cache. Call before traffic
  /// (or accept a cold cache mid-flight — correctness is unaffected).
  void Configure(ResultCacheOptions options);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The cached hits for `canonical_query` executed at `epoch`, or null.
  /// Counts one hit or one miss.
  HitsPtr Lookup(std::string_view canonical_query, uint64_t epoch);

  /// Caches `hits` for (`canonical_query`, `epoch`). Entries larger than
  /// the byte bound are not cached; otherwise LRU entries are evicted until
  /// the entry and byte bounds hold.
  void Insert(std::string_view canonical_query, uint64_t epoch, HitsPtr hits);

  /// Point-in-time statistics (counters are cumulative since construction).
  struct Snapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    /// hits / (hits + misses), 0 when no lookups yet.
    double hit_ratio = 0;
  };
  Snapshot snapshot() const;

  /// Publishes netmark_query_cache_{hits,misses,evictions}_total counters
  /// and netmark_query_cache_{entries,bytes} gauges on `registry`. Call
  /// before traffic; handles are read-only afterwards.
  void BindMetrics(observability::MetricsRegistry* registry);

 private:
  struct Entry {
    std::string key;  // canonical query + '\x1f' + epoch digits
    HitsPtr hits;
    size_t bytes = 0;
  };

  static std::string MakeKey(std::string_view canonical_query, uint64_t epoch);
  static size_t EntryBytes(const Entry& entry);
  /// mu_ held: pops LRU entries until the bounds hold.
  void EvictLocked();
  /// mu_ held: pushes entry/byte gauges after a mutation.
  void PublishGaugesLocked();

  mutable std::mutex mu_;
  ResultCacheOptions options_;
  /// Whether both bounds are non-zero, mirrored so the executor's fast-path
  /// check takes no lock.
  std::atomic<bool> enabled_{false};
  /// Most-recently-used first.
  std::list<Entry> lru_;
  std::map<std::string, std::list<Entry>::iterator, std::less<>> index_;
  size_t bytes_ = 0;
  uint64_t hit_count_ = 0;
  uint64_t miss_count_ = 0;
  uint64_t insert_count_ = 0;
  uint64_t evict_count_ = 0;

  struct MetricHandles {
    observability::Counter* hits = nullptr;
    observability::Counter* misses = nullptr;
    observability::Counter* evictions = nullptr;
    observability::Gauge* entries = nullptr;
    observability::Gauge* bytes = nullptr;
  } handles_;
};

}  // namespace netmark::query

#endif  // NETMARK_QUERY_RESULT_CACHE_H_
