// QueryResultCache: LRU + byte-bound mechanics in isolation, then the
// executor-integrated contract — epoch-keyed entries go stale the moment a
// mutation commits, with no invalidation call anywhere.

#include "query/result_cache.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "query/executor.h"
#include "query/plan.h"
#include "xml/parser.h"

namespace netmark::query {
namespace {

QueryResultCache::HitsPtr MakeHits(size_t count, size_t padding = 0) {
  auto hits = std::make_shared<std::vector<QueryHit>>();
  for (size_t i = 0; i < count; ++i) {
    QueryHit hit;
    hit.doc_id = static_cast<int64_t>(i + 1);
    hit.heading = "H";
    hit.text = std::string(padding, 'x');
    hits->push_back(std::move(hit));
  }
  return hits;
}

TEST(ResultCacheTest, LookupReturnsInsertedEntryForSameEpoch) {
  QueryResultCache cache;
  EXPECT_EQ(cache.Lookup("context=a", 1), nullptr);
  cache.Insert("context=a", 1, MakeHits(2));
  QueryResultCache::HitsPtr got = cache.Lookup("context=a", 1);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 2u);

  QueryResultCache::Snapshot snap = cache.snapshot();
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.insertions, 1u);
  EXPECT_EQ(snap.entries, 1u);
  EXPECT_GT(snap.bytes, 0u);
  EXPECT_DOUBLE_EQ(snap.hit_ratio, 0.5);
}

TEST(ResultCacheTest, EpochIsPartOfTheKey) {
  QueryResultCache cache;
  cache.Insert("context=a", 1, MakeHits(1));
  // Same query at a later epoch: the old entry is unreachable (stale), and
  // both epochs' results can coexist.
  EXPECT_EQ(cache.Lookup("context=a", 2), nullptr);
  cache.Insert("context=a", 2, MakeHits(3));
  ASSERT_NE(cache.Lookup("context=a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("context=a", 1)->size(), 1u);
  EXPECT_EQ(cache.Lookup("context=a", 2)->size(), 3u);
}

TEST(ResultCacheTest, EntryBoundEvictsLeastRecentlyUsed) {
  ResultCacheOptions options;
  options.max_entries = 2;
  QueryResultCache cache(options);
  cache.Insert("q1", 1, MakeHits(1));
  cache.Insert("q2", 1, MakeHits(1));
  ASSERT_NE(cache.Lookup("q1", 1), nullptr);  // q1 now most recent
  cache.Insert("q3", 1, MakeHits(1));         // evicts q2 (LRU tail)
  EXPECT_NE(cache.Lookup("q1", 1), nullptr);
  EXPECT_EQ(cache.Lookup("q2", 1), nullptr);
  EXPECT_NE(cache.Lookup("q3", 1), nullptr);
  EXPECT_EQ(cache.snapshot().evictions, 1u);
  EXPECT_EQ(cache.snapshot().entries, 2u);
}

TEST(ResultCacheTest, ByteBoundEvictsAndRefusesOversizedEntries) {
  ResultCacheOptions options;
  options.max_bytes = 4096;
  QueryResultCache cache(options);
  cache.Insert("q1", 1, MakeHits(1, 1500));
  cache.Insert("q2", 1, MakeHits(1, 1500));
  EXPECT_EQ(cache.snapshot().entries, 2u);
  // Third 1500-byte entry pushes past 4096: the oldest goes.
  cache.Insert("q3", 1, MakeHits(1, 1500));
  EXPECT_EQ(cache.Lookup("q1", 1), nullptr);
  EXPECT_LE(cache.snapshot().bytes, 4096u);

  // An entry bigger than the whole budget is never admitted (it would just
  // flush the cache for one unsharable result).
  cache.Insert("huge", 1, MakeHits(4, 2048));
  EXPECT_EQ(cache.Lookup("huge", 1), nullptr);
}

TEST(ResultCacheTest, ConfigureClearsAndCanDisable) {
  QueryResultCache cache;
  cache.Insert("q", 1, MakeHits(1));
  ResultCacheOptions off;
  off.max_entries = 0;
  cache.Configure(off);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.snapshot().entries, 0u);

  ResultCacheOptions disabled;
  disabled.max_bytes = 0;
  cache.Configure(disabled);
  EXPECT_FALSE(cache.enabled());
}

TEST(ResultCacheTest, MetricsMirrorCounters) {
  observability::MetricsRegistry registry;
  QueryResultCache cache;
  cache.BindMetrics(&registry);
  cache.Insert("q", 1, MakeHits(1));
  (void)cache.Lookup("q", 1);
  (void)cache.Lookup("other", 1);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("netmark_query_cache_hits_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("netmark_query_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(text.find("netmark_query_cache_entries 1"), std::string::npos);
}

// --- Executor integration: the invalidation contract end to end ---

class CachedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("result_cache");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    executor_ = std::make_unique<QueryExecutor>(store_.get());
    executor_->set_result_cache(&cache_);
    executor_->set_plan_cache(&plans_);
    Insert("a.xml", "<doc><h1>Budget</h1><p>engine costs</p></doc>");
  }

  void Insert(const std::string& name, const char* markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  std::vector<QueryHit> Run(const std::string& qs, QueryExecutor::Stats* stats) {
    auto q = ParseXdbQuery(qs);
    EXPECT_TRUE(q.ok());
    auto hits = executor_->Execute(*q, stats);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    return hits.ok() ? *hits : std::vector<QueryHit>{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  QueryResultCache cache_;
  QueryPlanCache plans_;
  std::unique_ptr<QueryExecutor> executor_;
};

TEST_F(CachedExecutorTest, RepeatQueryHitsTheCache) {
  QueryExecutor::Stats first, second;
  auto hits1 = Run("context=Budget", &first);
  auto hits2 = Run("context=Budget", &second);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(second.cache_hits, 1u);
  // Cached calls do no execution work.
  EXPECT_EQ(second.index_probes, 0u);
  EXPECT_EQ(second.sections_built, 0u);
  ASSERT_EQ(hits1.size(), hits2.size());
  EXPECT_EQ(hits1[0].heading, hits2[0].heading);
}

TEST_F(CachedExecutorTest, EquivalentSpellingsShareOneEntry) {
  QueryExecutor::Stats a, b;
  (void)Run("Context=Budget&Content=engine", &a);
  (void)Run("content=engine&CONTEXT=Budget", &b);
  EXPECT_EQ(a.cache_hits, 0u);
  EXPECT_EQ(b.cache_hits, 1u) << "key order / case must canonicalize";
}

TEST_F(CachedExecutorTest, CommitInvalidatesWithoutAnyExplicitCall) {
  QueryExecutor::Stats stats;
  auto before = Run("context=Budget", &stats);
  ASSERT_EQ(before.size(), 1u);
  (void)Run("context=Budget", &stats);
  ASSERT_EQ(stats.cache_hits, 1u);

  // A committed mutation bumps the epoch; the very next query must see the
  // new document — never the cached pre-commit list.
  Insert("b.xml", "<doc><h1>Budget</h1><p>second budget section</p></doc>");
  QueryExecutor::Stats after_commit;
  auto after = Run("context=Budget", &after_commit);
  EXPECT_EQ(after_commit.cache_hits, 0u) << "stale hit served after commit";
  ASSERT_EQ(after.size(), 2u);

  // And the post-commit result is itself cacheable at the new epoch.
  QueryExecutor::Stats warm;
  EXPECT_EQ(Run("context=Budget", &warm).size(), 2u);
  EXPECT_EQ(warm.cache_hits, 1u);
}

TEST_F(CachedExecutorTest, DeleteAlsoInvalidates) {
  QueryExecutor::Stats stats;
  ASSERT_EQ(Run("context=Budget", &stats).size(), 1u);
  ASSERT_TRUE(store_->DeleteDocument(1).ok());
  QueryExecutor::Stats after;
  EXPECT_TRUE(Run("context=Budget", &after).empty());
  EXPECT_EQ(after.cache_hits, 0u);
}

TEST_F(CachedExecutorTest, DisabledCacheNeverHits) {
  ResultCacheOptions off;
  off.max_entries = 0;
  cache_.Configure(off);
  QueryExecutor::Stats a, b;
  (void)Run("context=Budget", &a);
  (void)Run("context=Budget", &b);
  EXPECT_EQ(b.cache_hits, 0u);
  EXPECT_EQ(cache_.snapshot().insertions, 0u);
}

TEST_F(CachedExecutorTest, DocScopeAndLimitAreDistinctEntries) {
  QueryExecutor::Stats stats;
  (void)Run("context=Budget", &stats);
  QueryExecutor::Stats scoped;
  (void)Run("context=Budget&doc=1", &scoped);
  EXPECT_EQ(scoped.cache_hits, 0u) << "doc scope must not alias the unscoped entry";
  QueryExecutor::Stats limited;
  (void)Run("context=Budget&limit=1", &limited);
  EXPECT_EQ(limited.cache_hits, 0u);
}

}  // namespace
}  // namespace netmark::query
