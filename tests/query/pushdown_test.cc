// Limit and doc-scope pushdown: every plan builds hits in answer order and
// stops at the query's limit, so Execute(limit=k) must equal the first k
// hits of the unlimited answer, on every query shape and every evaluator.

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "core/netmark.h"
#include "query/executor.h"
#include "query/plan.h"
#include "storage/page.h"
#include "workload/corpus.h"
#include "workload/query_workload.h"
#include "xml/parser.h"

namespace netmark::query {
namespace {

constexpr size_t kLimits[] = {1, 3, 20};

void ExpectSameHit(const QueryHit& limited, const QueryHit& full,
                   const std::string& where) {
  EXPECT_EQ(limited.doc_id, full.doc_id) << where;
  EXPECT_EQ(limited.file_name, full.file_name) << where;
  EXPECT_EQ(limited.context, full.context) << where;
  EXPECT_EQ(limited.heading, full.heading) << where;
  EXPECT_EQ(limited.text, full.text) << where;
  EXPECT_EQ(limited.markup, full.markup) << where;
  EXPECT_EQ(limited.score, full.score) << where;
}

class PushdownTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto dir = netmark::TempDir::Make("pushdown");
    ASSERT_TRUE(dir.ok());
    dir_ = new netmark::TempDir(std::move(*dir));
    NetmarkOptions options;
    options.data_dir = dir_->Sub("data").string();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok()) << nm.status().ToString();
    nm_ = nm->release();
    workload::CorpusGenerator corpus(7);
    for (const workload::GeneratedDoc& doc : corpus.MixedCorpus(200)) {
      ASSERT_TRUE(nm_->IngestContent(doc.file_name, doc.content).ok())
          << doc.file_name;
    }
  }

  static void TearDownTestSuite() {
    delete nm_;
    nm_ = nullptr;
    delete dir_;
    dir_ = nullptr;
  }

  /// Context, content, combined, phrase/prefix and XPath queries.
  static std::vector<XdbQuery> Queries() {
    std::vector<XdbQuery> out;
    workload::QueryWorkload mix(11);
    for (int i = 0; i < 4; ++i) out.push_back(mix.Next(1.0, 0.0));  // context
    for (int i = 0; i < 4; ++i) out.push_back(mix.Next(0.0, 1.0));  // content
    for (int i = 0; i < 4; ++i) out.push_back(mix.Next(0.0, 0.0));  // combined
    for (const char* qs :
         {"context=%22Budget+Summary%22", "context=Technical+Approach&content=eng*",
          "content=%22flight+test%22", "content=prop*+shuttle",
          "xpath=//context&content=telemetry", "xpath=//p&content=anomaly+valve",
          "xpath=//context"}) {
      auto q = ParseXdbQuery(qs);
      EXPECT_TRUE(q.ok()) << qs;
      if (q.ok()) out.push_back(*q);
    }
    return out;
  }

  std::vector<QueryHit> Run(const QueryExecutor& executor, const XdbQuery& q,
                            QueryExecutor::Stats* stats = nullptr) {
    auto hits = executor.Execute(q, stats);
    EXPECT_TRUE(hits.ok()) << q.ToQueryString() << ": " << hits.status().ToString();
    return hits.ok() ? *hits : std::vector<QueryHit>{};
  }

  /// For each query, unscoped and scoped to a document holding one of its
  /// hits: Execute(limit=k) is the first k hits of Execute(limit=0).
  void CheckPrefixes(ExecuteOptions options, const std::string& label) {
    QueryExecutor executor(nm_->store(), options);
    size_t nonempty = 0;
    for (XdbQuery q : Queries()) {
      const bool xpath_scan = q.has_xpath() && !q.has_content();
      q.doc_id = 0;
      q.limit = 0;
      std::vector<QueryHit> unscoped = Run(executor, q);
      std::vector<int64_t> scopes = {0};
      if (!unscoped.empty()) scopes.push_back(unscoped[unscoped.size() / 2].doc_id);
      // A whole-collection XPath reconstructs every document; one
      // unscoped pass is enough.
      if (xpath_scan) scopes = {scopes.back()};
      for (int64_t doc : scopes) {
        q.doc_id = doc;
        q.limit = 0;
        std::vector<QueryHit> full = doc == 0 ? unscoped : Run(executor, q);
        if (!full.empty()) ++nonempty;
        for (const QueryHit& hit : full) {
          if (doc != 0) {
            EXPECT_EQ(hit.doc_id, doc) << q.ToQueryString();
          }
        }
        for (size_t limit : kLimits) {
          q.limit = limit;
          const std::string where = label + " " + q.ToQueryString();
          QueryExecutor::Stats stats;
          std::vector<QueryHit> limited = Run(executor, q, &stats);
          ASSERT_EQ(limited.size(), std::min(limit, full.size())) << where;
          for (size_t i = 0; i < limited.size(); ++i) {
            ExpectSameHit(limited[i], full[i], where + " hit " + std::to_string(i));
          }
          // Sections are built only for the hits the answer keeps.
          EXPECT_LE(stats.sections_built, limit) << where;
          EXPECT_EQ(stats.quarantined_skips, 0u) << where;
        }
      }
    }
    // The corpus answers most shapes: the comparison is not vacuous.
    EXPECT_GE(nonempty, 20u) << label;
  }

  static netmark::TempDir* dir_;
  static Netmark* nm_;
};

netmark::TempDir* PushdownTest::dir_ = nullptr;
Netmark* PushdownTest::nm_ = nullptr;

TEST_F(PushdownTest, LimitedAnswerIsPrefixOfFullAnswer) {
  CheckPrefixes(ExecuteOptions{}, "default");
}

TEST_F(PushdownTest, GenericSectionPlanAgrees) {
  ExecuteOptions options;
  options.use_specialized_section_plan = false;
  CheckPrefixes(options, "generic");
}

TEST_F(PushdownTest, ScanFallbackAgrees) {
  ExecuteOptions options;
  options.use_text_index = false;
  CheckPrefixes(options, "scan");
}

TEST_F(PushdownTest, IndexJoinWalksAgree) {
  ExecuteOptions options;
  options.use_index_joins_for_walks = true;
  CheckPrefixes(options, "index-joins");
}

TEST_F(PushdownTest, DocScopeMatchesFilteredUnscopedAnswer) {
  // Scoping intersects postings with the document's rows before any node
  // is read; the answer must be the unscoped answer's hits in that doc.
  QueryExecutor executor(nm_->store());
  for (XdbQuery q : Queries()) {
    if (q.has_xpath()) continue;
    q.limit = 0;
    std::vector<QueryHit> unscoped = Run(executor, q);
    if (unscoped.empty()) continue;
    q.doc_id = unscoped.back().doc_id;
    std::vector<QueryHit> scoped = Run(executor, q);
    std::vector<QueryHit> expected;
    for (const QueryHit& hit : unscoped) {
      if (hit.doc_id == q.doc_id) expected.push_back(hit);
    }
    ASSERT_EQ(scoped.size(), expected.size()) << q.ToQueryString();
    for (size_t i = 0; i < scoped.size(); ++i) {
      ExpectSameHit(scoped[i], expected[i], q.ToQueryString());
    }
  }
  XdbQuery missing;
  missing.context = "Budget";
  missing.doc_id = 999999;
  EXPECT_TRUE(Run(executor, missing).empty());
}

// --- Quarantine accounting under the limit ---------------------------------

TEST(PushdownQuarantineTest, OnlyCandidatesWithinTheLimitCount) {
  auto dir = netmark::TempDir::Make("pushdown_quarantine");
  ASSERT_TRUE(dir.ok());
  const std::string data = dir->Sub("data").string();
  {
    auto store = xmlstore::XmlStore::Open(data);
    ASSERT_TRUE(store.ok());
    auto insert = [&](const std::string& name, const std::string& markup) {
      auto doc = xml::ParseXml(markup);
      ASSERT_TRUE(doc.ok());
      xmlstore::DocumentInfo info;
      info.file_name = name;
      ASSERT_TRUE((*store)->InsertDocument(*doc, info).ok());
    };
    insert("first.xml", "<doc><h1>Alpha</h1><p>short body</p></doc>");
    // A section whose body spans several heap pages: its last page holds
    // body rows only, never the heading or its text.
    std::string body;
    for (int i = 0; i < 60; ++i) {
      body += "<p>" + std::string(300, static_cast<char>('k' + i % 8)) + "</p>";
    }
    insert("second.xml", "<doc><h1>Alpha</h1>" + body + "</doc>");
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Flip one byte of the XML heap's last page (a checkpointed page: no log
  // record can repair it at reopen).
  const std::string heap = data + "/XML.heap";
  {
    std::fstream f(heap, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GE(size, static_cast<std::streamoff>(3 * storage::kPageSize));
    const std::streamoff at = size - static_cast<std::streamoff>(storage::kPageSize) + 200;
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(at);
    f.write(&byte, 1);
  }
  auto store = xmlstore::XmlStore::Open(data);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  QueryExecutor executor(store->get());

  // second.xml's section ranks second: with limit=1 it is never built, so
  // its quarantined page is never read and the answer is complete.
  QueryExecutor::Stats within_limit;
  auto first = executor.Execute(*ParseXdbQuery("context=Alpha&limit=1"), &within_limit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ((*first)[0].file_name, "first.xml");
  EXPECT_EQ(within_limit.quarantined_skips, 0u);

  // With room for it, the lost section is a candidate the answer could
  // hold: it is skipped and counted, so the answer is marked partial.
  QueryExecutor::Stats past_page;
  auto both = executor.Execute(*ParseXdbQuery("context=Alpha&limit=2"), &past_page);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  ASSERT_EQ(both->size(), 1u);
  EXPECT_EQ((*both)[0].file_name, "first.xml");
  EXPECT_GE(past_page.quarantined_skips, 1u);
  EXPECT_GE((*store)->quarantined_pages(), 1u);
}

}  // namespace
}  // namespace netmark::query
