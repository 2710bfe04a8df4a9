// Every local XDB entry point answers through one query::ReadPath, so they
// must agree byte for byte: the HTTP /xdb body, Netmark::QueryToXml /
// QueryAndTransform, an uncached executor + ComposeResults, and the cached
// answer. A store registered in a router both as a LocalStoreSource and as a
// RemoteSource over loopback HTTP must give identical federated hits.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "core/netmark.h"
#include "federation/local_source.h"
#include "federation/remote_source.h"
#include "server/http_client.h"
#include "workload/corpus.h"
#include "workload/query_workload.h"
#include "xml/serializer.h"

namespace netmark {
namespace {

constexpr const char* kSheet =
    "<xsl:stylesheet><xsl:template match=\"/\">"
    "<report><xsl:for-each select=\"results/result\">"
    "<item doc=\"{@doc}\"><xsl:value-of select=\"context\"/></item>"
    "</xsl:for-each></report>"
    "</xsl:template></xsl:stylesheet>";

class ReadPathEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("readpath_eq");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    NetmarkOptions options;
    options.data_dir = dir_->str();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    nm_ = std::move(*nm);
  }

  void TearDown() override {
    if (nm_ != nullptr) nm_->StopServer();
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Netmark> nm_;
};

TEST_F(ReadPathEquivalenceTest, EveryEntryPointGivesTheSameBytes) {
  std::vector<int64_t> ids;
  for (const workload::GeneratedDoc& d : workload::CorpusGenerator(7).MixedCorpus(200)) {
    auto id = nm_->IngestContent(d.file_name, d.content);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(nm_->RegisterStylesheet("report", kSheet).ok());
  ASSERT_TRUE(nm_->StartServer().ok());
  server::HttpClient client("127.0.0.1", nm_->server_port());
  query::QueryExecutor uncached(nm_->store());
  query::ReadPath* path = nm_->service()->read_path();

  workload::QueryWorkload workload(7);
  size_t compared = 0;
  size_t nonempty = 0;
  for (int i = 0; i < 50; ++i) {
    const query::XdbQuery base = workload.Next();
    for (int variant = 0; variant < 3; ++variant) {
      query::XdbQuery q = base;
      if (variant == 1) q.doc_id = ids[(static_cast<size_t>(i) * 37) % ids.size()];
      if (variant == 2) q.xslt = "report";
      const std::string qs = q.ToQueryString();
      SCOPED_TRACE(qs);

      // The reference: an uncached executor and ComposeResults.
      std::string expected;
      {
        auto snapshot = nm_->store()->BeginRead();
        auto hits = uncached.Execute(q, snapshot);
        ASSERT_TRUE(hits.ok()) << hits.status().ToString();
        if (!hits->empty()) ++nonempty;
        auto composed = query::ComposeResults(*nm_->store(), q, *hits);
        ASSERT_TRUE(composed.ok());
        expected = xml::Serialize(*composed);
      }
      auto to_xml = nm_->QueryToXml(qs);
      ASSERT_TRUE(to_xml.ok()) << to_xml.status().ToString();
      EXPECT_EQ(*to_xml, expected);

      // The cached answer: the facade call above filled the cache.
      query::QueryExecutor::Stats stats;
      auto cached = path->Compose(q, &stats);
      ASSERT_TRUE(cached.ok());
      EXPECT_EQ(stats.cache_hits, 1u);
      EXPECT_EQ(xml::Serialize(*cached), expected);

      // The HTTP body renders the stylesheet when the query names one.
      std::string expected_body = expected;
      if (!q.xslt.empty()) {
        auto transformed = nm_->QueryAndTransform(qs, kSheet);
        ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
        expected_body = *transformed;
      }
      auto resp = client.Get("/xdb?" + qs);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp->status, 200) << resp->body;
      EXPECT_EQ(resp->body, expected_body);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 150u);
  EXPECT_GT(nonempty, 50u);
}

/// Every field a federated hit carries, minus the source name.
std::vector<std::string> Fields(const std::vector<federation::FederatedHit>& hits) {
  std::vector<std::string> out;
  for (const federation::FederatedHit& h : hits) {
    out.push_back(std::to_string(h.doc_id) + "|" + h.file_name + "|" + h.heading +
                  "|" + h.text + "|" + h.markup);
  }
  return out;
}

TEST_F(ReadPathEquivalenceTest, LocalAndRemoteSourcesGiveIdenticalHits) {
  ASSERT_TRUE(nm_->IngestContent("d.xml",
                                 "<d><h1>Budget</h1><p>amount <b>100</b></p></d>")
                  .ok());
  for (const workload::GeneratedDoc& d : workload::CorpusGenerator(11).MixedCorpus(20)) {
    ASSERT_TRUE(nm_->IngestContent(d.file_name, d.content).ok());
  }
  ASSERT_TRUE(nm_->StartServer().ok());

  // One store, registered twice: in process and over loopback HTTP.
  federation::Router router;
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<federation::LocalStoreSource>(
                      "local", nm_->store()))
                  .ok());
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<federation::RemoteSource>(
                      "remote", std::make_unique<server::SocketTransport>(
                                    "127.0.0.1", nm_->server_port())))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("local", {"local"}).ok());
  ASSERT_TRUE(router.DefineDatabank("remote", {"remote"}).ok());

  std::vector<std::string> queries = {"context=Budget", "content=amount",
                                      "xpath=//p"};
  workload::QueryWorkload workload(11);
  for (int i = 0; i < 10; ++i) queries.push_back(workload.Next().ToQueryString());

  for (const std::string& qs : queries) {
    SCOPED_TRACE(qs);
    auto q = query::ParseXdbQuery(qs);
    ASSERT_TRUE(q.ok());
    auto local = router.Query("local", *q);
    auto remote = router.Query("remote", *q);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(Fields(*local), Fields(*remote));
    const federation::FederatedHit* d_xml = nullptr;
    for (const federation::FederatedHit& h : *local) {
      if (h.file_name == "d.xml") d_xml = &h;
    }
    if (qs == "context=Budget") {
      // The section body, as /xdb composes it — not the heading element.
      ASSERT_NE(d_xml, nullptr);
      EXPECT_EQ(d_xml->markup, "<p>amount <b>100</b></p>");
      EXPECT_EQ(d_xml->text, "amount 100");
    }
    if (qs == "content=amount") {
      // A document-level hit carries its snippet's text slice.
      ASSERT_NE(d_xml, nullptr);
      EXPECT_TRUE(d_xml->heading.empty());
      EXPECT_NE(d_xml->text.find("amount"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace netmark
