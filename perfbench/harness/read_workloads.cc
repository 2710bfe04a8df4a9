// xdb_read and edit_churn: one 2,000-document store served over loopback
// HTTP, driven open loop by nproc streams.
//
// xdb_read is read-only: vocabulary queries (result cache warm, as on a
// long-running server), long-tail point queries that miss it, XSLT-composed
// results and document reconstruction, plus a rate ladder for capacity.
// edit_churn puts concurrent editors on a hot set beside the same readers,
// so every commit moves the epoch: MVCC version chains and GC, result-cache
// invalidation, deferred index removals and the PUT handler's replace scan
// all run.

#include <functional>
#include <set>

#include "common/clock.h"
#include "common/rng.h"
#include "federation/remote_source.h"
#include "harness/layers.h"
#include "harness/loadgen.h"
#include "harness/probes.h"
#include "harness/workload.h"
#include "query/xdb_query.h"
#include "xml/serializer.h"

namespace perfbench {

namespace {

using netmark::server::HeaderMap;
using netmark::server::HttpClient;
using netmark::workload::GeneratedDoc;

constexpr size_t kStoreDocs = 2000;
constexpr int kStreams = 4;  // = nproc: one thread and connection each
constexpr size_t kCheckSample = 64;
constexpr size_t kHotDocs = 50;

/// One pre-generated request.
struct Item {
  enum Check { kVocab, kXslt, kPointToken, kPointSection, kGetDoc, kPut, kGetHot };
  int cls = kQuery;
  Check check = kVocab;
  std::string target;  ///< request target (kPut / kGetHot: resolved at send)
  int64_t doc = 0;     ///< expected document (point queries, GET)
  size_t hot = 0;      ///< hot-set rank (edit_churn)
  std::string marker;  ///< revision marker (kPut)
  int stream = -1;     ///< connection it must go on (-1: by position)
  std::string label;   ///< latency class it is reported under
};

/// (doc id, heading) of every hit, in response order — what the answer
/// checks compare.
using Answer = std::vector<std::pair<int64_t, std::string>>;

/// A vocabulary query (optionally XSLT-composed) as a request item.
Item VocabularyItem(VocabularyMix& mix, bool xslt, const std::string& prefix) {
  netmark::query::XdbQuery q = mix.Next();
  Item it;
  it.check = xslt ? Item::kXslt : Item::kVocab;
  it.label = xslt ? "xslt" : prefix + QueryShape(q);
  if (xslt) q.xslt = "report";
  it.target = "/xdb?" + q.ToQueryString();
  return it;
}

bool ParseAnswer(const std::string& body, Answer* answer,
                 std::vector<netmark::federation::FederatedHit>* hits = nullptr) {
  auto parsed = netmark::federation::ParseResultsDocument(body);
  if (!parsed.ok()) return false;
  for (const auto& h : *parsed) answer->emplace_back(h.doc_id, h.heading);
  if (hits != nullptr) *hits = std::move(*parsed);
  return true;
}

netmark::Result<netmark::server::HttpResponse> Send(HttpClient& client, const std::string& method,
                                                    const std::string& target, std::string body,
                                                    const HeaderMap& headers) {
  netmark::server::HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = std::move(body);
  req.headers = headers;
  return client.Send(req);
}

/// The served store both workloads share, and the request engine: every
/// item is sent, and its answer checked against what the generator knows.
class ServedStore : public Workload {
 public:
  explicit ServedStore(const Args& args)
      : args_(args), corpus_(netmark::workload::CorpusGenerator(args.seed).MixedCorpus(kStoreDocs)) {}

  void Setup(const fs::path& dir) override {
    dir_ = dir;
    nm_ = OpenNetmark(dir / "data");
    LoadDocs(nm_.get(), corpus_);
    Check(nm_->RegisterStylesheet("report", kReportSheet), "register stylesheet");
    // The traced run serves through its own timed handler instead.
    if (!args_.trace) Check(nm_->StartServer(0), "start server");
  }

  void Teardown() override {
    nm_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 protected:
  /// Latest acknowledged version of one hot document.
  struct Version {
    int64_t id = 0;
    std::string marker;
  };

  /// The connection item `i` goes on: its pinned stream, else i % kStreams.
  int StreamOf(size_t i) const {
    return items_[i].stream >= 0 ? items_[i].stream : static_cast<int>(i % kStreams);
  }

  /// Splits items [first, first+count) at `rate` over the streams: op i is
  /// due at i/rate and goes on StreamOf(item).
  std::vector<std::vector<ScheduledOp>> Streams(size_t first, size_t count, double rate) const {
    std::vector<std::vector<ScheduledOp>> streams(kStreams);
    for (size_t i = 0; i < count && first + i < items_.size(); ++i) {
      const size_t item = first + i;
      streams[StreamOf(item)].push_back({DueMicros(i, rate), items_[item].cls, item});
    }
    return streams;
  }

  /// Sends one item on `client` and checks the answer.
  bool Execute(const Item& it, HttpClient& client, int stream, const HeaderMap& headers) {
    if (it.check == Item::kPut) {
      const GeneratedDoc& d = corpus_[hot_[it.hot]];
      auto resp = Send(client, "PUT", "/docs/" + d.file_name, WithMarker(d, it.marker), headers);
      if (!resp.ok() || (resp->status != 201 && resp->status != 204)) return false;
      const std::string location(resp->Header("Location"));
      if (location.rfind("/docs/", 0) != 0) return false;
      latest_[stream][it.hot] = {std::atoll(location.c_str() + 6), it.marker};
      return true;
    }
    std::string target = it.target;
    const Version* version = nullptr;
    if (it.check == Item::kGetHot) {
      version = &latest_[stream][it.hot];
      target = "/docs/" + std::to_string(version->id != 0 ? version->id : ids_.at(corpus_[hot_[it.hot]].file_name));
    }
    auto resp = Send(client, "GET", target, "", headers);
    if (!resp.ok() || resp->status != 200) return false;
    Answer answer;
    std::vector<netmark::federation::FederatedHit> hits;
    switch (it.check) {
      case Item::kVocab:
        if (!ParseAnswer(resp->body, &answer)) return false;
        seen_[stream].emplace(it.target.substr(5), std::move(answer));
        return true;
      case Item::kXslt:
        return resp->body.find("<report") != std::string::npos;
      case Item::kPointToken:
        return ParseAnswer(resp->body, &answer, &hits) && hits.size() == 1 && hits[0].doc_id == it.doc;
      case Item::kPointSection:
        if (!ParseAnswer(resp->body, &answer, &hits) || hits.empty()) return false;
        for (const auto& h : hits) {
          if (h.doc_id != it.doc) return false;
        }
        return true;
      case Item::kGetDoc:
        bodies_[stream].emplace(it.doc, std::hash<std::string>{}(resp->body));
        return !resp->body.empty();
      case Item::kGetHot:
        // This stream is the only writer of the document: a GET after an
        // acknowledged PUT must return exactly that version.
        return version->id == 0 || resp->body.find(version->marker) != std::string::npos;
      default:
        return false;
    }
  }

  /// Runs one open-loop phase against the served instance.
  std::vector<StreamResult> Drive(const std::vector<std::vector<ScheduledOp>>& streams, RunResult* out) {
    std::vector<OpFn> fns;
    for (int s = 0; s < kStreams; ++s) {
      fns.push_back([this, s](const ScheduledOp& op, HttpClient& client) {
        return Execute(items_[op.item], client, s, HeaderMap{});
      });
    }
    std::vector<StreamResult> results = RunOpenLoop(nm_->server_port(), streams, fns);
    for (const StreamResult& r : results) {
      for (const OpRecord& rec : r.records) {
        ++out->attempted;
        if (!rec.ok) ++out->failed;
      }
    }
    return results;
  }

  /// The traced run's HTTP phase: the same items through a TimedServer.
  void DriveTimed(Layers& layers, TimedServer& server, size_t count, double rate) {
    RunTimedHttpPhase(layers, server, Streams(0, count, rate),
                      [this](const ScheduledOp& op, HttpClient& client, const HeaderMap& headers) {
                        return Execute(items_[op.item], client, StreamOf(op.item), headers);
                      });
  }

  Answer ReferenceAnswer(const netmark::query::QueryExecutor& uncached, const std::string& query_string) {
    netmark::query::XdbQuery q = Unwrap(netmark::query::ParseXdbQuery(query_string), "parse");
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot = nm_->store()->BeginRead();
    Answer out;
    for (const auto& h : Unwrap(uncached.Execute(q, snapshot), "reference execute")) {
      // Document-level hits carry their heading only as a snippet, which
      // the response renders outside <context>.
      out.emplace_back(h.doc_id, h.context.valid() ? h.heading : std::string());
    }
    return out;
  }

  /// Compares a sample of vocabulary answers with the uncached evaluator on
  /// the quiescent store. `refetch`: ask the server again first (answers
  /// seen during churn belong to older epochs). Returns mismatches.
  uint64_t CheckVocabulary(bool refetch, std::vector<std::string>* report) {
    std::map<std::string, Answer> seen;
    for (const auto& m : seen_) seen.insert(m.begin(), m.end());
    netmark::query::QueryExecutor uncached(nm_->store());
    HttpClient client("127.0.0.1", nm_->server_port());
    uint64_t wrong = 0;
    size_t checked = 0;
    for (auto& [qs, answer] : seen) {
      if (checked >= kCheckSample) break;
      ++checked;
      if (refetch) {
        answer.clear();
        auto resp = client.Get("/xdb?" + qs);
        if (!resp.ok() || resp->status != 200 || !ParseAnswer(resp->body, &answer)) {
          ++wrong;
          continue;
        }
      }
      if (ReferenceAnswer(uncached, qs) != answer) {
        ++wrong;
        report->push_back("  WRONG vocabulary answer for " + qs);
      }
    }
    report->push_back("  checked " + std::to_string(checked) +
                      " vocabulary answers against the uncached evaluator: " + std::to_string(wrong) +
                      " wrong");
    return wrong;
  }

  /// Fills the result cache with every vocabulary query the schedule will
  /// send, in-process on nproc threads: a long-running server has its
  /// popular answers cached, so timing starts from that state, not cold.
  void WarmResultCache() {
    std::vector<std::string> queries;
    for (const Item& it : items_) {
      if (it.check == Item::kVocab || it.check == Item::kXslt) queries.push_back(it.target.substr(5));
    }
    netmark::query::QueryExecutor cached(nm_->store());
    cached.set_result_cache(nm_->service()->result_cache());
    cached.set_plan_cache(nm_->service()->plan_cache());
    ForEachDistinctParallel(queries, kStreams, [&](const std::string& qs) {
      netmark::query::XdbQuery q = Unwrap(netmark::query::ParseXdbQuery(qs), "parse");
      Check(cached.Execute(q).status(), "warm " + qs);
    });
  }

  /// Data-dir bytes after a checkpoint per byte of live source documents.
  double StoreBytesPerInputByte() {
    uint64_t input = 0;
    for (size_t i = 0; i < corpus_.size(); ++i) input += corpus_[i].content.size();
    for (size_t rank = 0; rank < hot_.size(); ++rank) {
      for (const auto& streams : latest_) {
        auto it = streams.find(rank);
        if (it == streams.end() || it->second.id == 0) continue;
        const GeneratedDoc& d = corpus_[hot_[rank]];
        input += WithMarker(d, it->second.marker).size() - d.content.size();
      }
    }
    Check(nm_->store()->Checkpoint(), "checkpoint");
    return static_cast<double>(DirBytes(dir_ / "data")) / static_cast<double>(input);
  }

  /// The replay half of a traced run: items after the HTTP phase, through
  /// the modules in-process, for `budget_s`.
  void ReplayItems(Layers& layers, size_t first, double budget_s) {
    netmark::query::QueryExecutor uncached(nm_->store());
    netmark::query::QueryExecutor cached(nm_->store());
    cached.set_result_cache(nm_->service()->result_cache());
    cached.set_plan_cache(nm_->service()->plan_cache());
    netmark::xslt::Stylesheet sheet = Unwrap(netmark::xslt::Stylesheet::Parse(kReportSheet), "sheet");
    ReplayTarget target{nm_.get(), &uncached, &cached, &sheet};
    netmark::Stopwatch watch;
    for (size_t i = first; i < items_.size() && watch.ElapsedSeconds() < budget_s; ++i) {
      const Item& it = items_[i];
      Version& version = latest_[StreamOf(i)][it.hot];
      switch (it.check) {
        case Item::kPut: {
          const GeneratedDoc& d = corpus_[hot_[it.hot]];
          version = {ReplayPut(layers, target, d.file_name, WithMarker(d, it.marker)), it.marker};
          ++replayed_puts_;
          break;
        }
        case Item::kGetHot:
          ReplayGet(layers, target, version.id != 0 ? version.id : ids_.at(corpus_[hot_[it.hot]].file_name));
          break;
        case Item::kGetDoc:
          ReplayGet(layers, target, it.doc);
          break;
        default:
          ReplayQuery(layers, target, it.target.substr(5));
      }
      if (i % 16 == 0) {
        layers.Observe("storage.mvcc_versions_retained",
                       static_cast<double>(nm_->store()->mvcc_versions_retained()));
      }
    }
  }

  /// Probes, registry readout and overhead: the tail every traced run of
  /// this store shares.
  RunResult FinishTrace(Layers& layers, uint16_t port, uint64_t docs_committed) {
    std::vector<std::string> queries;
    std::vector<int64_t> doc_ids;
    for (const Item& it : items_) {
      if (it.check == Item::kVocab && queries.size() < 24) queries.push_back(it.target.substr(5));
    }
    for (const auto& [name, id] : DocIds(nm_.get())) {
      if (doc_ids.size() < 24 && id % 83 == 0) doc_ids.push_back(id);
    }
    netmark::query::QueryExecutor uncached(nm_->store());
    netmark::query::QueryExecutor cached(nm_->store());
    cached.set_result_cache(nm_->service()->result_cache());
    cached.set_plan_cache(nm_->service()->plan_cache());
    netmark::xslt::Stylesheet sheet = Unwrap(netmark::xslt::Stylesheet::Parse(kReportSheet), "sheet");
    // XSLT composition, which edit_churn's own requests do not use; each
    // asked twice, so the second hits the result cache (no writer runs now).
    for (size_t i = 0; i < 8 && i < queries.size(); ++i) {
      ReplayQuery(layers, ReplayTarget{nm_.get(), &uncached, &cached, &sheet}, queries[i % 4] + "&xslt=report");
    }
    MeasureTracingOverhead(layers, ReplayTarget{nm_.get(), &uncached, nullptr, nullptr}, queries, doc_ids);
    ProbeWrites(layers, nm_.get(), dir_, corpus_, args_.seed);
    ProbeFederation(layers, nm_.get(), port, args_.seed, queries);
    ReadRegistry(layers, nm_.get(), docs_committed + kProbeCommits);
    RunResult out;
    out.report = layers.CoverageReport();
    out.metrics = layers.Reduce(&out.report);
    out.attempted = layers.spans().size();
    return out;
  }

  Args args_;
  std::vector<GeneratedDoc> corpus_;
  fs::path dir_;
  std::unique_ptr<netmark::Netmark> nm_;
  std::map<std::string, int64_t> ids_;  ///< file name -> id after load
  std::vector<Item> items_;
  /// Hot set (edit_churn): corpus indices by popularity rank.
  std::vector<size_t> hot_;
  /// Per stream: answers and bodies seen, latest version per hot rank.
  std::vector<std::map<std::string, Answer>> seen_ = std::vector<std::map<std::string, Answer>>(kStreams);
  std::vector<std::map<int64_t, size_t>> bodies_ = std::vector<std::map<int64_t, size_t>>(kStreams);
  std::vector<std::map<size_t, Version>> latest_ = std::vector<std::map<size_t, Version>>(kStreams);
  uint64_t replayed_puts_ = 0;
};

// --- xdb_read -------------------------------------------------------------------

class XdbRead : public ServedStore {
 public:
  using ServedStore::ServedStore;

  /// Open-loop rate of the measured phase, inside capacity so percentiles
  /// describe service rather than queueing collapse.
  static constexpr double kRate = 100;

  RunResult Run() override {
    BuildItems();
    WarmResultCache();
    ResetPeakRss();
    RunResult out;
    const double main_s = args_.seconds * 0.8;
    const size_t n = static_cast<size_t>(kRate * main_s);
    const double cpu = CpuSeconds();
    std::vector<StreamResult> main = Drive(Streams(0, n, kRate), &out);
    AddCpuMetric(CpuSeconds() - cpu, n, &out);
    const double max_qps = Ladder(n, args_.seconds - main_s, &out);

    out.failed += CheckVocabulary(/*refetch=*/false, &out.report) + CheckGets(&out.report);
    const LatencySummary all = Summarize(main, -1), q = Summarize(main, kQuery), g = Summarize(main, kGet);
    const double bytes_ratio = StoreBytesPerInputByte();
    out.report.push_back("xdb_read: " + std::to_string(kStoreDocs) + " docs, open loop " +
                         FormatNumber(kRate) + " req/s on " + std::to_string(kStreams) +
                         " keep-alive connections");
    AddLatencyMetrics(LatencyByClass(main, [this](const OpRecord& rec) { return items_[rec.item].label; }), &out);
    out.metrics["store_bytes_per_input_byte"] = {bytes_ratio, "ratio"};
    out.report.push_back(Line("query_p50_ms", q.p50_ms, "ms", "n=" + std::to_string(q.count)));
    out.report.push_back(Line("query_p99_ms", q.p99_ms, "ms"));
    out.report.push_back(Line("query_max_qps", max_qps, "req/s",
                              "ladder, p99 limit " + FormatNumber(args_.p99_limit_ms) + " ms"));
    out.report.push_back(Line("get_p50_ms", g.p50_ms, "ms", "n=" + std::to_string(g.count)));
    out.report.push_back(Line("get_p99_ms", g.p99_ms, "ms"));
    out.report.push_back(Line("store_bytes_per_input_byte", bytes_ratio, "ratio"));
    out.report.push_back(Line("generator_lag_p99_ms", all.lag_p99_ms, "ms"));
    return out;
  }

  RunResult Trace() override {
    BuildItems();
    WarmResultCache();
    Layers layers;
    const size_t http_n = static_cast<size_t>(kRate * args_.seconds * 0.4);
    TimedServer server(nm_.get(), http_n);
    DriveTimed(layers, server, http_n, kRate);
    ReplayItems(layers, http_n, args_.seconds * 0.3);
    return FinishTrace(layers, server.port(), kStoreDocs);
  }

 private:
  void BuildItems() {
    ids_ = DocIds(nm_.get());
    items_.clear();
    netmark::Rng rng(args_.seed * 7919 + 11);
    VocabularyMix qw(args_.seed * 104729 + 3);
    // Enough for the measured phase and the ladder's highest step. Kinds
    // come in exact proportions per block of 100, shuffled, so the mix does
    // not drift with the seed: 20 GET, 17 + 18 point queries by token and
    // by section, 37 vocabulary, 8 vocabulary with XSLT (10% of /xdb).
    std::vector<size_t> token_docs, section_docs;
    for (size_t d = 0; d < corpus_.size(); ++d) {
      if (!UniqueToken(corpus_[d]).empty()) token_docs.push_back(d);
      if (!FormatHeading(corpus_[d]).empty()) section_docs.push_back(d);
    }
    enum Kind { kGetKind, kTokenKind, kSectionKind, kVocabKind, kXsltKind };
    const size_t n = static_cast<size_t>(kRate * args_.seconds * 3) + 1000;
    std::vector<int> block;
    for (size_t i = 0; i < n; ++i) {
      if (block.empty()) {
        for (auto [kind, count] : {std::pair{kGetKind, 20}, {kTokenKind, 17}, {kSectionKind, 18},
                                   {kVocabKind, 37}, {kXsltKind, 8}}) {
          block.insert(block.end(), count, kind);
        }
        Shuffle(block, rng);
      }
      const int kind = block.back();
      block.pop_back();
      Item it;
      if (kind == kGetKind) {
        // Reconstruction of a uniformly chosen document.
        it.cls = kGet;
        it.check = Item::kGetDoc;
        it.label = "get";
        it.doc = ids_.at(corpus_[rng.Uniform(corpus_.size())].file_name);
        it.target = "/docs/" + std::to_string(it.doc);
      } else if (kind == kTokenKind || kind == kSectionKind) {
        // Long tail: a query naming one document, so it misses the cache.
        netmark::query::XdbQuery q;
        if (kind == kTokenKind) {
          const GeneratedDoc& d = corpus_[token_docs[rng.Uniform(token_docs.size())]];
          it.doc = ids_.at(d.file_name);
          q.content = UniqueToken(d);
          it.check = Item::kPointToken;
          it.label = "point_token";
        } else {
          const GeneratedDoc& d = corpus_[section_docs[rng.Uniform(section_docs.size())]];
          it.doc = ids_.at(d.file_name);
          q.doc_id = it.doc;
          q.context = FormatHeading(d);
          it.check = Item::kPointSection;
          it.label = "point_section";
        }
        it.target = "/xdb?" + q.ToQueryString();
      } else {
        it = VocabularyItem(qw, kind == kXsltKind, "vocabulary_");
      }
      items_.push_back(std::move(it));
    }
  }

  /// Capacity ladder over /xdb items after `first`: rising rates, half a
  /// second each; the highest step whose p99 stays under the limit and
  /// that keeps pace (no growing backlog) is query_max_qps.
  double Ladder(size_t first, double budget_s, RunResult* out) {
    std::vector<size_t> queries;
    for (size_t i = first; i < items_.size(); ++i) {
      if (items_[i].cls == kQuery) queries.push_back(i);
    }
    double max_qps = 0;
    size_t cursor = 0;
    const double step_s = 0.5;
    for (int k = 0; k < static_cast<int>(budget_s / step_s); ++k) {
      const double rate = kRate * (1.0 + 0.5 * k);
      std::vector<std::vector<ScheduledOp>> streams(kStreams);
      const size_t count = static_cast<size_t>(rate * step_s);
      for (size_t i = 0; i < count; ++i) {
        streams[i % kStreams].push_back({DueMicros(i, rate), kQuery, queries[cursor++ % queries.size()]});
      }
      const int64_t start = netmark::MonotonicMicros();
      const LatencySummary s = Summarize(Drive(streams, out), kQuery);
      const bool pass = s.failed == 0 && s.p99_ms <= args_.p99_limit_ms &&
                        KeptPace(DueMicros(count, rate), netmark::MonotonicMicros() - start);
      char line[160];
      std::snprintf(line, sizeof(line), "  ladder %6.0f req/s: p99 %8.3f ms  %s", rate, s.p99_ms,
                    pass ? "ok" : "over the limit or behind");
      out->report.push_back(line);
      if (!pass) break;
      max_qps = rate;
    }
    return max_qps;
  }

  /// Reconstructed bodies served during the run must equal a fresh
  /// in-process reconstruction.
  uint64_t CheckGets(std::vector<std::string>* report) {
    std::map<int64_t, size_t> bodies;
    for (const auto& m : bodies_) bodies.insert(m.begin(), m.end());
    netmark::xml::SerializeOptions options;
    options.declaration = true;
    uint64_t wrong = 0;
    size_t checked = 0;
    for (const auto& [id, hash] : bodies) {
      if (checked >= kCheckSample) break;
      ++checked;
      const std::string body =
          netmark::xml::Serialize(Unwrap(nm_->store()->Reconstruct(id), "reconstruct"), options);
      if (std::hash<std::string>{}(body) != hash) ++wrong;
    }
    report->push_back("  checked " + std::to_string(checked) +
                      " reconstructed documents against the store: " + std::to_string(wrong) + " wrong");
    return wrong;
  }
};

// --- edit_churn -------------------------------------------------------------------

class EditChurn : public ServedStore {
 public:
  using ServedStore::ServedStore;

  /// Open-loop rates: editors, readers of the vocabulary, readers of the
  /// hot documents.
  static constexpr double kPutRate = 15, kQueryRate = 15, kGetRate = 15;
  static constexpr double kRate = kPutRate + kQueryRate + kGetRate;
  /// Connections: readers send the vocabulary queries, editors PUT their
  /// own hot documents and GET them back, so a reader's slow uncached
  /// query never delays an editor's request behind it.
  static constexpr int kReaders = 2, kEditors = kStreams - kReaders;

  RunResult Run() override {
    BuildItems();
    ResetPeakRss();
    RunResult out;
    const size_t n = static_cast<size_t>(kRate * args_.seconds);
    const double cpu = CpuSeconds();
    std::vector<StreamResult> results = Drive(Streams(0, n, kRate), &out);
    AddCpuMetric(CpuSeconds() - cpu, n, &out);
    out.failed += CheckVocabulary(/*refetch=*/true, &out.report) + CheckFinalVersions(&out.report);

    const LatencySummary all = Summarize(results, -1), q = Summarize(results, kQuery),
                         g = Summarize(results, kGet), p = Summarize(results, kPut);
    const double bytes_ratio = StoreBytesPerInputByte();
    out.metrics["store_bytes_per_input_byte"] = {bytes_ratio, "ratio"};
    out.report.push_back("edit_churn: " + std::to_string(kStoreDocs) + " docs, " +
                         std::to_string(kHotDocs) + " hot; open loop PUT " + FormatNumber(kPutRate) +
                         " + query " + FormatNumber(kQueryRate) + " + GET " + FormatNumber(kGetRate) +
                         " req/s on " + std::to_string(kStreams) + " keep-alive connections");
    AddLatencyMetrics(LatencyByClass(results, [this](const OpRecord& rec) { return items_[rec.item].label; }), &out);
    out.report.push_back(Line("query_p50_ms", q.p50_ms, "ms", "n=" + std::to_string(q.count)));
    out.report.push_back(Line("query_p99_ms", q.p99_ms, "ms"));
    out.report.push_back(Line("get_p50_ms", g.p50_ms, "ms", "n=" + std::to_string(g.count)));
    out.report.push_back(Line("get_p99_ms", g.p99_ms, "ms"));
    out.report.push_back(Line("put_p50_ms", p.p50_ms, "ms", "n=" + std::to_string(p.count)));
    out.report.push_back(Line("put_p99_ms", p.p99_ms, "ms"));
    out.report.push_back(Line("store_bytes_per_input_byte", bytes_ratio, "ratio"));
    out.report.push_back(Line("generator_lag_p99_ms", all.lag_p99_ms, "ms"));
    return out;
  }

  RunResult Trace() override {
    BuildItems();
    Layers layers;
    const size_t http_n = static_cast<size_t>(kRate * args_.seconds * 0.4);
    TimedServer server(nm_.get(), http_n);
    DriveTimed(layers, server, http_n, kRate);
    uint64_t http_puts = 0;
    for (size_t i = 0; i < http_n; ++i) http_puts += items_[i].check == Item::kPut;
    ReplayItems(layers, http_n, args_.seconds * 0.3);
    SetInsertGrowth(layers, 10, 10);
    return FinishTrace(layers, server.port(), kStoreDocs + http_puts + replayed_puts_);
  }

 private:
  void BuildItems() {
    ids_ = DocIds(nm_.get());
    items_.clear();
    netmark::Rng rng(args_.seed * 6151 + 5);
    VocabularyMix qw(args_.seed * 104729 + 3);
    std::set<size_t> chosen;
    hot_.clear();
    while (hot_.size() < kHotDocs) {
      const size_t d = rng.Uniform(corpus_.size());
      if (chosen.insert(d).second) hot_.push_back(d);
    }
    // Exact proportions per block of kRate requests, shuffled.
    const size_t n = static_cast<size_t>(kRate * args_.seconds) + 1;
    std::vector<int> block;
    for (size_t i = 0; i < n; ++i) {
      if (block.empty()) {
        block.assign(static_cast<size_t>(kQueryRate), kQuery);
        block.insert(block.end(), static_cast<size_t>(kPutRate), kPut);
        block.insert(block.end(), static_cast<size_t>(kGetRate), kGet);
        Shuffle(block, rng);
      }
      const int cls = block.back();
      block.pop_back();
      Item it;
      if (cls == kQuery) {
        it = VocabularyItem(qw, false, "query_");
        it.stream = static_cast<int>(i % kReaders);
      } else {
        // Editor connection e owns the hot ranks r with r % kEditors == e,
        // so each document has one writer and a GET after its PUT is exact.
        const size_t editor = i % kEditors;
        const size_t owned = (kHotDocs - editor + kEditors - 1) / kEditors;
        it.hot = editor + kEditors * rng.Zipf(owned, 0.99);
        it.stream = static_cast<int>(kReaders + editor);
        if (cls == kPut) {
          it.cls = kPut;
          it.check = Item::kPut;
          it.label = "put";
          it.marker = "rev" + std::to_string(args_.seed) + "x" + std::to_string(i);
        } else {
          it.cls = kGet;
          it.check = Item::kGetHot;
          it.label = "get";
        }
      }
      items_.push_back(std::move(it));
    }
  }

  /// After the run every hot document must read back as its last
  /// acknowledged version.
  uint64_t CheckFinalVersions(std::vector<std::string>* report) {
    uint64_t wrong = 0, checked = 0;
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot = nm_->store()->BeginRead();
    for (const auto& stream : latest_) {
      for (const auto& [rank, version] : stream) {
        if (version.id == 0) continue;
        ++checked;
        auto doc = nm_->store()->Reconstruct(version.id);
        if (!doc.ok() || netmark::xml::Serialize(*doc).find(version.marker) == std::string::npos) ++wrong;
      }
    }
    report->push_back("  checked " + std::to_string(checked) +
                      " hot documents for their last acknowledged version: " + std::to_string(wrong) +
                      " wrong");
    return wrong;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeXdbRead(const Args& args) { return std::make_unique<XdbRead>(args); }
std::unique_ptr<Workload> MakeEditChurn(const Args& args) { return std::make_unique<EditChurn>(args); }

}  // namespace perfbench
