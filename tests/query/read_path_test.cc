// query::ReadPath: the one execute + compose path over a local store. The
// concurrent case (suite name carries "QueryCache", so the TSan matrix runs
// it) composes beside a committing writer and checks every document against
// an uncached re-execution at the epoch the compose saw.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "observability/thread_trace.h"
#include "query/read_path.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::query {
namespace {

class ReadPathTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("read_path");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    Insert("seed.xml",
           "<doc><h1>Budget</h1><p>baseline engine <b>costs</b></p>"
           "<h1>Overview</h1><p>steady state corpus</p></doc>");
  }

  void Insert(const std::string& name, const std::string& markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  /// The reference answer: an uncached executor and ComposeResults under
  /// `snapshot`.
  std::string Uncached(const XdbQuery& q,
                       const xmlstore::XmlStore::ReadSnapshot& snapshot) {
    QueryExecutor uncached(store_.get());
    auto hits = uncached.Execute(q, snapshot);
    if (!hits.ok()) return "error: " + hits.status().ToString();
    auto composed = ComposeResults(*store_, q, *hits);
    if (!composed.ok()) return "error: " + composed.status().ToString();
    return xml::Serialize(*composed);
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
};

using ReadPathTest = ReadPathTestBase;

TEST_F(ReadPathTest, ComposeMatchesUncachedAndCachesTheHits) {
  ReadPath path(store_.get());
  auto q = ParseXdbQuery("context=Budget&content=engine");
  ASSERT_TRUE(q.ok());
  QueryExecutor::Stats cold, warm;
  auto first = path.Compose(*q, &cold);
  auto second = path.Compose(*q, &warm);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(warm.cache_hits, 1u);
  auto snapshot = store_->BeginRead();
  const std::string expected = Uncached(*q, snapshot);
  EXPECT_EQ(xml::Serialize(*first), expected);
  EXPECT_EQ(xml::Serialize(*second), expected);
  EXPECT_NE(expected.find("<b>costs</b>"), std::string::npos);
}

TEST_F(ReadPathTest, ZeroEntryCachesRunUncached) {
  ResultCacheOptions results;
  results.max_entries = 0;
  QueryPlanCache::Options plans;
  plans.max_entries = 0;
  ReadPath path(store_.get(), results, plans);
  auto q = ParseXdbQuery("context=Budget");
  ASSERT_TRUE(q.ok());
  QueryExecutor::Stats stats;
  ASSERT_TRUE(path.Compose(*q, &stats).ok());
  ASSERT_TRUE(path.Compose(*q, &stats).ok());
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(path.result_cache()->snapshot().insertions, 0u);
  EXPECT_EQ(path.plan_cache()->snapshot().entries, 0u);
}

TEST_F(ReadPathTest, ComposeOpensSpansUnderTheBoundTrace) {
  ReadPath path(store_.get());
  auto q = ParseXdbQuery("context=Overview");
  ASSERT_TRUE(q.ok());
  observability::Trace trace;
  const int root = trace.StartSpan("xdb");
  {
    observability::ThreadTraceScope bind(&trace, root);
    ASSERT_TRUE(path.Compose(*q).ok());
  }
  trace.EndSpan(root);
  std::vector<observability::SpanData> spans = trace.Snapshot();
  auto find = [&](const std::string& name) -> const observability::SpanData* {
    for (const auto& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const observability::SpanData* execute = find("execute");
  const observability::SpanData* probe = find("cache_probe");
  const observability::SpanData* compose = find("compose");
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(probe, nullptr);
  ASSERT_NE(compose, nullptr);
  EXPECT_EQ(execute->parent, root);
  EXPECT_EQ(probe->parent, execute->id);
  EXPECT_EQ(compose->parent, root);
  EXPECT_TRUE(execute->finished() && compose->finished());
}

TEST_F(ReadPathTest, InvalidQueryFailsWithInvalidArgument) {
  ReadPath path(store_.get());
  XdbQuery empty;
  auto composed = path.Compose(empty);
  ASSERT_FALSE(composed.ok());
  EXPECT_TRUE(composed.status().IsInvalidArgument());
}

using ReadPathQueryCacheTest = ReadPathTestBase;

TEST_F(ReadPathQueryCacheTest, ConcurrentComposeMatchesPinnedEpoch) {
  ReadPath path(store_.get());
  constexpr int kReaders = 4;
  constexpr int kCommits = 30;
  std::atomic<bool> writing{true};
  std::atomic<int> verified{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int i = 0; i < kCommits; ++i) {
      std::string markup = "<doc><h1>Budget</h1><p>engine line ";
      markup += std::to_string(i);
      markup += "</p></doc>";
      auto doc = xml::ParseXml(markup);
      xmlstore::DocumentInfo info;
      info.file_name = std::to_string(i) + ".xml";
      if (!doc.ok() || !store_->InsertDocument(*doc, info).ok()) ++failures;
    }
    writing.store(false);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const char* mix[] = {"context=Budget", "context=Budget&content=engine",
                           "content=engine", "context=Overview&limit=1"};
      for (int i = 0; writing.load() || i < 40; ++i) {
        auto q = ParseXdbQuery(mix[(r + i) % 4]);
        if (!q.ok()) { ++failures; continue; }
        std::string got;
        std::string expected;
        if (i % 2 == 0) {
          // Pinned by the caller: Compose's own snapshot nests in this one.
          auto outer = store_->BeginRead();
          auto composed = path.Compose(*q);
          if (!composed.ok()) { ++failures; continue; }
          got = xml::Serialize(*composed);
          expected = Uncached(*q, outer);
        } else {
          // Compose pins on its own; when no commit lands around it, a
          // snapshot taken afterwards sees the same epoch.
          const uint64_t before = store_->commit_epoch();
          auto composed = path.Compose(*q);
          if (!composed.ok()) { ++failures; continue; }
          auto after = store_->BeginRead();
          if (after.epoch() != before) continue;
          got = xml::Serialize(*composed);
          expected = Uncached(*q, after);
        }
        ++verified;
        if (got != expected) ++mismatches;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(verified.load(), 0);
  EXPECT_GT(path.result_cache()->snapshot().hits, 0u);
}

}  // namespace
}  // namespace netmark::query
