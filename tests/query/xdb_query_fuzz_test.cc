// Fuzz-style robustness for the XDB query-string boundary: random bytes and
// mutated workload queries (truncations, stray `%`/`&`/`=`, doubled keys,
// huge `limit=`/`doc=`, NULs). ParseXdbQuery must never crash; an accepted
// query's ToQueryString (the result-cache key) must be a fixpoint under
// re-parsing; and running it through the read path must succeed or fail
// with InvalidArgument — never a storage-class error.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/temp_dir.h"
#include "query/read_path.h"
#include "workload/query_workload.h"
#include "xml/parser.h"

namespace netmark::query {
namespace {

/// Well-formed starting points: the workload's query mix plus the keys it
/// never emits (xpath, doc, limit, xslt, timeout).
std::vector<std::string> SeedQueries(uint64_t seed) {
  std::vector<std::string> out = {
      "xpath=//h1",
      "content=engine&xpath=/doc/p[1]",
      "xpath=//p[@id='x']&doc=1",
      "context=Budget&doc=1&limit=2&xslt=report&timeout=50",
  };
  workload::QueryWorkload workload(seed);
  for (int i = 0; i < 24; ++i) out.push_back(workload.Next().ToQueryString());
  return out;
}

std::string RandomBytes(netmark::Rng* rng, size_t len) {
  std::string out;
  for (size_t i = 0; i < len; ++i) out += static_cast<char>(rng->Uniform(256));
  return out;
}

std::string Mutate(netmark::Rng* rng, std::string s) {
  static const std::vector<std::string> kInserts = {
      "%", "&", "=", "%0", "%zz", "%00", std::string(1, '\0'), "+", "&&", "==",
      "limit=99999999999999999999", "limit=18446744073709551615",
      "limit=-1", "doc=9223372036854775807", "doc=-9223372036854775808",
      "doc=99999999999999999999", "timeout=-5", "xpath=", "xpath=/",
      "xpath=//*[", "context=", "CONTENT=%20%20", "docid=0"};
  const int rounds = 1 + static_cast<int>(rng->Uniform(4));
  for (int r = 0; r < rounds; ++r) {
    const size_t pos = s.empty() ? 0 : rng->Uniform(s.size() + 1);
    switch (rng->Uniform(5)) {
      case 0:  // truncate
        s.resize(pos);
        break;
      case 1:  // stray token inside the string
        s.insert(pos, rng->Pick(kInserts));
        break;
      case 2:  // extra key=value pair (doubled keys included)
        s += '&';
        s += rng->Pick(kInserts);
        break;
      case 3: {  // double an existing pair
        const std::string first = s.substr(0, s.find('&'));
        s += '&';
        s += first;
        break;
      }
      default:  // flip one byte
        if (!s.empty()) s[rng->Uniform(s.size())] = static_cast<char>(rng->Uniform(256));
        break;
    }
  }
  return s;
}

class XdbQueryFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("xdb_fuzz");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    auto doc = xml::ParseXml(
        "<doc><h1>Budget</h1><p id=\"x\">engine <b>costs</b></p>"
        "<h1>Overview</h1><p>steady state</p></doc>");
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = "seed.xml";
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
    path_ = std::make_unique<ReadPath>(store_.get());
  }

  /// Checks one input; returns true when the parser accepted it.
  bool Check(const std::string& input) {
    auto q = ParseXdbQuery(input);
    if (!q.ok()) return false;
    const std::string canonical = q->ToQueryString();
    auto again = ParseXdbQuery(canonical);
    EXPECT_TRUE(again.ok()) << "canonical form must reparse: " << canonical;
    if (again.ok()) {
      EXPECT_EQ(again->ToQueryString(), canonical) << "input: " << input;
    }
    auto hits = path_->Execute(*q);
    EXPECT_TRUE(hits.ok() || hits.status().IsInvalidArgument())
        << "query " << canonical << ": " << hits.status().ToString();
    return true;
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  std::unique_ptr<ReadPath> path_;
};

TEST_P(XdbQueryFuzzTest, RandomBytesNeverCrash) {
  netmark::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    (void)Check(RandomBytes(&rng, rng.Uniform(120)));
  }
}

TEST_P(XdbQueryFuzzTest, MutatedWorkloadQueriesCanonicalizeAndExecute) {
  netmark::Rng rng(GetParam() * 13 + 1);
  const std::vector<std::string> seeds = SeedQueries(GetParam());
  size_t accepted = 0;
  for (int trial = 0; trial < 600; ++trial) {
    if (Check(Mutate(&rng, rng.Pick(seeds)))) ++accepted;
  }
  // The mutations must leave enough inputs parseable to exercise the
  // canonical-form and execution checks.
  EXPECT_GT(accepted, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XdbQueryFuzzTest, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace netmark::query
