// Live socket round trips: client <-> server over loopback, plus the full
// NETMARK service routes.

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/netmark_service.h"

namespace netmark::server {
namespace {

TEST(HttpServerTest, EchoRoundTrip) {
  HttpServer server([](const HttpRequest& req) {
    return HttpResponse::Ok("echo:" + req.method + ":" + req.path + ":" + req.body);
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  auto resp = client.Put("/anywhere", "payload");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "echo:PUT:/anywhere:payload");
  EXPECT_EQ(server.requests_served(), 1u);
  server.Stop();
}

TEST(HttpServerTest, SequentialRequests) {
  HttpServer server([](const HttpRequest& req) {
    return HttpResponse::Ok(std::string(req.query));
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    auto resp = client.Get("/q?n=" + std::to_string(i));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->body, "n=" + std::to_string(i));
  }
  EXPECT_EQ(server.requests_served(), 20u);
}

TEST(HttpServerTest, LargeBodyTransfers) {
  HttpServer server([](const HttpRequest& req) {
    return HttpResponse::Ok(std::to_string(req.body.size()));
  });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  std::string big(512 * 1024, 'x');
  auto resp = client.Put("/big", big);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body, std::to_string(big.size()));
}

TEST(HttpClientTest, ConnectionRefusedIsUnavailable) {
  HttpClient client("127.0.0.1", 1);  // nothing listens on port 1
  EXPECT_TRUE(client.Get("/x").status().IsUnavailable());
}

class ServiceRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("service");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    service_ = std::make_unique<NetmarkService>(store_.get());
    server_ = std::make_unique<HttpServer>(
        [this](const HttpRequest& req) { return service_->Handle(req); });
    ASSERT_TRUE(server_->Start().ok());
    client_ = std::make_unique<HttpClient>("127.0.0.1", server_->port());
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  std::unique_ptr<NetmarkService> service_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<HttpClient> client_;
};

TEST_F(ServiceRoundTripTest, PutQueryGetDeleteLifecycle) {
  // PUT a text document (drag-and-drop over WebDAV in the paper).
  auto put = client_->Put("/docs/report.txt",
                          "OVERVIEW\nThe shuttle engine passed review.\n\n"
                          "BUDGET\nCosts total 100 thousand.\n");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put->status, 201);
  EXPECT_EQ(put->headers["Location"], "/docs/1");

  // Query it through the XDB endpoint.
  auto query = client_->Get("/xdb?context=Budget");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->status, 200);
  EXPECT_NE(query->body.find("<context>BUDGET</context>"), std::string::npos);
  EXPECT_NE(query->body.find("100 thousand"), std::string::npos);

  // Fetch the reconstructed document.
  auto get = client_->Get("/docs/1");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get->status, 200);
  EXPECT_NE(get->body.find("shuttle engine"), std::string::npos);

  // Delete, then the document is gone.
  auto del = client_->Delete("/docs/1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->status, 204);
  EXPECT_EQ(client_->Get("/docs/1")->status, 404);
}

TEST_F(ServiceRoundTripTest, ListingAndWebdavPropfind) {
  ASSERT_EQ(client_->Put("/docs/a.txt", "SECTION ONE\nalpha")->status, 201);
  ASSERT_EQ(client_->Put("/docs/b.txt", "SECTION TWO\nbeta")->status, 201);

  auto list = client_->Get("/docs");
  ASSERT_TRUE(list.ok());
  EXPECT_NE(list->body.find("name=\"a.txt\""), std::string::npos);
  EXPECT_NE(list->body.find("name=\"b.txt\""), std::string::npos);

  auto propfind = client_->Propfind("/docs");
  ASSERT_TRUE(propfind.ok());
  EXPECT_EQ(propfind->status, 207);
  EXPECT_NE(propfind->body.find("<D:multistatus"), std::string::npos);
  EXPECT_NE(propfind->body.find("<D:href>/docs/2</D:href>"), std::string::npos);
}

TEST_F(ServiceRoundTripTest, XsltComposedResponse) {
  ASSERT_TRUE(service_
                  ->RegisterStylesheet(
                      "headings",
                      "<xsl:stylesheet><xsl:template match=\"/\">"
                      "<report><xsl:for-each select=\"results/result\">"
                      "<h><xsl:value-of select=\"context\"/></h>"
                      "</xsl:for-each></report></xsl:template></xsl:stylesheet>")
                  .ok());
  ASSERT_EQ(client_->Put("/docs/r.txt", "BUDGET\nnumbers here")->status, 201);
  auto resp = client_->Get("/xdb?context=Budget&xslt=headings");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body, "<report><h>BUDGET</h></report>");
  // Unknown stylesheet name is a server-side error.
  EXPECT_EQ(client_->Get("/xdb?context=Budget&xslt=ghost")->status, 500);
}

TEST_F(ServiceRoundTripTest, ErrorRoutes) {
  EXPECT_EQ(client_->Get("/nope")->status, 404);
  EXPECT_EQ(client_->Get("/xdb?")->status, 400);            // empty query
  EXPECT_EQ(client_->Get("/xdb?limit=abc")->status, 400);   // bad param
  EXPECT_EQ(client_->Get("/docs/notanumber")->status, 400);
  EXPECT_EQ(client_->Delete("/docs/99")->status, 404);
  EXPECT_EQ(client_->Put("/docs/", "x")->status, 400);
  // Databank query without a router configured.
  EXPECT_EQ(client_->Get("/xdb?content=x&databank=d")->status, 400);
}

TEST_F(ServiceRoundTripTest, PutToSameNameReplacesDocument) {
  ASSERT_EQ(client_->Put("/docs/live.txt", "VERSION ONE\noriginal words")->status,
            201);
  auto replace = client_->Put("/docs/live.txt", "VERSION TWO\nrevised words");
  ASSERT_TRUE(replace.ok());
  EXPECT_EQ(replace->status, 204);  // replaced, not created
  // Exactly one document remains, with the new content.
  auto list = client_->Get("/docs");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->body.find("live.txt"), list->body.rfind("live.txt"));
  auto hits = client_->Get("/xdb?content=revised");
  ASSERT_TRUE(hits.ok());
  EXPECT_NE(hits->body.find("live.txt"), std::string::npos);
  auto stale = client_->Get("/xdb?content=original");
  ASSERT_TRUE(stale.ok());
  EXPECT_NE(stale->body.find("count=\"0\""), std::string::npos);
}

TEST_F(ServiceRoundTripTest, XPathQueriesOverHttp) {
  ASSERT_EQ(client_
                ->Put("/docs/sheet.csv",
                      "task,amount\nalpha,100\nbeta,250\n", "text/csv")
                ->status,
            201);
  // //cell[@name='amount'] percent-encoded.
  auto resp = client_->Get("/xdb?xpath=//cell%5B%40name%3D%27amount%27%5D");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("<cell name=\"amount\">100</cell>"), std::string::npos);
  EXPECT_NE(resp->body.find("<cell name=\"amount\">250</cell>"), std::string::npos);
  // Bad XPath is the client's error.
  EXPECT_EQ(client_->Get("/xdb?xpath=%5B%5B")->status, 400);
}

TEST_F(ServiceRoundTripTest, StatusEndpoint) {
  ASSERT_EQ(client_->Put("/docs/s.txt", "HEADING\nsome words here")->status, 201);
  auto resp = client_->Get("/status");
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp->body.find("<documents>1</documents>"), std::string::npos);
}

}  // namespace
}  // namespace netmark::server
