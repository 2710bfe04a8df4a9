// federated: databank queries at a mediator (paper Fig 8). The databank
// spans four sources: the mediator's own store, two remote NETMARK
// instances over loopback HTTP, and a content-only source that forces the
// router to augment context clauses itself. Each holds 500 documents.
// Without this workload the federation module (router fan-out, HTTP client
// pooling, remote result parsing, augmentation) goes unmeasured.


#include "federation/content_only_source.h"
#include "federation/remote_source.h"
#include "harness/layers.h"
#include "harness/loadgen.h"
#include "harness/probes.h"
#include "harness/workload.h"
#include "query/xdb_query.h"
#include "server/http_client.h"
#include "xml/parser.h"

namespace perfbench {

namespace {

using netmark::server::HeaderMap;
using netmark::server::HttpClient;
using netmark::workload::GeneratedDoc;

constexpr size_t kDocsEach = 500;
constexpr int kStreams = 4;  // nproc
constexpr size_t kCheckSample = 32;
const char* const kRemotes[] = {"remote_a", "remote_b"};

/// What one databank response said: its count, completeness, and the hits
/// each source reported.
struct Outcome {
  size_t count = 0;
  bool complete = false;
  std::map<std::string, size_t> source_hits;
};

bool ParseOutcome(const std::string& body, Outcome* out) {
  auto doc = netmark::xml::ParseXml(body);
  if (!doc.ok()) return false;
  const netmark::xml::NodeId results = doc->DocumentElement();
  if (results == netmark::xml::kInvalidNode || doc->name(results) != "results") return false;
  out->count = std::strtoull(std::string(doc->GetAttribute(results, "count")).c_str(), nullptr, 10);
  out->complete = doc->GetAttribute(results, "complete") == "true";
  size_t listed = 0;
  for (netmark::xml::NodeId child : doc->ChildElements(results)) {
    if (doc->name(child) == "result") ++listed;
    if (doc->name(child) != "sources") continue;
    for (netmark::xml::NodeId src : doc->ChildElements(child)) {
      out->source_hits[std::string(doc->GetAttribute(src, "name"))] =
          std::strtoull(std::string(doc->GetAttribute(src, "hits")).c_str(), nullptr, 10);
    }
  }
  return listed == out->count;
}

class Federated : public Workload {
 public:
  /// Open-loop databank query rate at the mediator.
  static constexpr double kRate = 40;
  /// Untimed load at kRate before the measured phase. Under sustained load
  /// the mediator's p50 steps up by about a quarter some nine seconds in and
  /// then holds; timing after the step measures the state a long-running
  /// mediator is in, not a mix of both whose share varies from run to run.
  static constexpr double kWarmLoadSeconds = 12;

  explicit Federated(const Args& args) : args_(args) {
    for (uint64_t i = 0; i < 3; ++i) {
      corpora_.push_back(netmark::workload::CorpusGenerator(args.seed * 31 + i).MixedCorpus(kDocsEach));
    }
    netmark::workload::CorpusGenerator lessons(args.seed * 31 + 7);
    for (size_t i = 0; i < kDocsEach; ++i) lessons_.push_back(lessons.LessonLearned(static_cast<int>(i)));
  }

  void Setup(const fs::path& dir) override {
    dir_ = dir;
    for (size_t i = 0; i < 3; ++i) {
      instances_.push_back(OpenNetmark(dir / ("store" + std::to_string(i))));
      LoadDocs(instances_.back().get(), corpora_[i]);
    }
    for (size_t r = 1; r < 3; ++r) Check(instances_[r]->StartServer(0), "start remote");
    netmark::Netmark* mediator = instances_[0].get();
    Check(mediator->RegisterSelfAsSource("own"), "register own");
    for (size_t r = 1; r < 3; ++r) {
      Check(mediator->RegisterSource(std::make_shared<netmark::federation::RemoteSource>(
                kRemotes[r - 1], std::make_unique<netmark::server::SocketTransport>(
                                     "127.0.0.1", instances_[r]->server_port()))),
            "register remote");
    }
    lessons_source_ = std::make_shared<netmark::federation::ContentOnlySource>("lessons");
    for (const GeneratedDoc& d : lessons_) {
      lessons_source_->AddDocument(d.file_name, Unwrap(netmark::xml::ParseXml(d.content), "parse lesson"));
    }
    Check(mediator->RegisterSource(lessons_source_), "register lessons");
    Check(mediator->DefineDatabank("bank", {"own", kRemotes[0], kRemotes[1], "lessons"}), "databank");
    if (!args_.trace) Check(mediator->StartServer(0), "start mediator");
  }

  void Teardown() override {
    instances_.clear();
    lessons_source_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  RunResult Run() override {
    BuildQueries();
    WarmCaches();
    RunResult out;
    const size_t warm_n = static_cast<size_t>(kRate * kWarmLoadSeconds);
    const size_t n = static_cast<size_t>(kRate * args_.seconds);
    std::vector<std::map<std::string, Outcome>> seen(kStreams);
    std::vector<OpFn> fns;
    for (int s = 0; s < kStreams; ++s) {
      fns.push_back([this, s, &seen](const ScheduledOp& op, HttpClient& client) {
        Outcome o;
        if (!Query(client, queries_[op.item], HeaderMap{}, &o)) return false;
        seen[s].emplace(queries_[op.item], o);
        return true;
      });
    }
    // The warm-up load's answers are checked like the measured ones.
    std::vector<StreamResult> warm = RunOpenLoop(instances_[0]->server_port(), Schedule(0, warm_n), fns);
    ResetPeakRss();
    const double cpu = CpuSeconds();
    std::vector<StreamResult> results = RunOpenLoop(instances_[0]->server_port(), Schedule(warm_n, n), fns);
    AddCpuMetric(CpuSeconds() - cpu, n, &out);
    for (const auto* phase : {&warm, &results}) {
      for (const StreamResult& r : *phase) {
        for (const OpRecord& rec : r.records) {
          ++out.attempted;
          if (!rec.ok) ++out.failed;
        }
      }
    }
    std::map<std::string, Outcome> all;
    for (const auto& m : seen) all.insert(m.begin(), m.end());
    out.failed += CheckSources(all, &out.report);

    const LatencySummary q = Summarize(results, kQuery);
    Check(instances_[0]->store()->Checkpoint(), "checkpoint");
    uint64_t input = 0;
    for (const GeneratedDoc& d : corpora_[0]) input += d.content.size();
    const double bytes_ratio =
        static_cast<double>(DirBytes(dir_ / "store0")) / static_cast<double>(input);
    out.report.push_back("federated: databank of 4 sources x " + std::to_string(kDocsEach) +
                         " docs, open loop " + FormatNumber(kRate) + " req/s on " +
                         std::to_string(kStreams) + " keep-alive connections, timed after " +
                         FormatNumber(kWarmLoadSeconds) + " s of untimed load");
    AddLatencyMetrics(LatencyByClass(results, [this](const OpRecord& rec) { return shapes_[rec.item]; }), &out);
    out.metrics["store_bytes_per_input_byte"] = {bytes_ratio, "ratio"};
    out.report.push_back(Line("query_p50_ms", q.p50_ms, "ms"));
    out.report.push_back(Line("query_p99_ms", q.p99_ms, "ms"));
    out.report.push_back(Line("store_bytes_per_input_byte", bytes_ratio, "ratio", "mediator's own store"));
    out.report.push_back(Line("generator_lag_p99_ms", q.lag_p99_ms, "ms"));
    return out;
  }

  RunResult Trace() override {
    BuildQueries();
    WarmCaches();
    Layers layers;
    netmark::Netmark* mediator = instances_[0].get();
    const size_t http_n = static_cast<size_t>(kRate * args_.seconds * 0.4);
    TimedServer server(mediator, http_n);
    RunTimedHttpPhase(layers, server, Schedule(0, http_n),
                      [this](const ScheduledOp& op, HttpClient& client, const HeaderMap& headers) {
                        Outcome o;
                        return Query(client, queries_[op.item], headers, &o);
                      });
    // Replay the continuation at the mediator: the router, each source on
    // its own, and the raw remote round trips.
    std::vector<std::unique_ptr<HttpClient>> clients;
    FederationTarget target;
    target.router = mediator->router();
    target.databank = "bank";
    target.kinds = {{"own", "local"}, {kRemotes[0], "remote"}, {kRemotes[1], "remote"}, {"lessons", "content_only"}};
    for (size_t r = 1; r < 3; ++r) {
      clients.push_back(std::make_unique<HttpClient>("127.0.0.1", instances_[r]->server_port()));
      target.remotes[kRemotes[r - 1]] = clients.back().get();
    }
    netmark::Stopwatch watch;
    for (size_t i = http_n; i < queries_.size() && watch.ElapsedSeconds() < args_.seconds * 0.3; ++i) {
      ReplayFederated(layers, target, queries_[i]);
    }
    // The read layers beneath the local source, and the write probe.
    netmark::query::QueryExecutor uncached(mediator->store());
    netmark::query::QueryExecutor cached(mediator->store());
    cached.set_result_cache(mediator->service()->result_cache());
    cached.set_plan_cache(mediator->service()->plan_cache());
    Check(mediator->RegisterStylesheet("report", kReportSheet), "register stylesheet");
    netmark::xslt::Stylesheet sheet = Unwrap(netmark::xslt::Stylesheet::Parse(kReportSheet), "sheet");
    ReplayTarget reads{mediator, &uncached, &cached, &sheet};
    std::vector<std::string> plain;
    std::vector<int64_t> doc_ids;
    std::map<std::string, int64_t> ids = DocIds(mediator);
    for (size_t i = 0; i < 24; ++i) {
      netmark::query::XdbQuery q = Unwrap(netmark::query::ParseXdbQuery(queries_[i]), "parse");
      plain.push_back(q.ToQueryString());
      doc_ids.push_back(ids.at(corpora_[0][(i * 37) % kDocsEach].file_name));
      q.xslt = i % 6 == 0 ? "report" : "";
      ReplayQuery(layers, reads, q.ToQueryString());
      ReplayGet(layers, reads, doc_ids.back());
    }
    MeasureTracingOverhead(layers, reads, plain, doc_ids);
    ProbeWrites(layers, mediator, dir_, corpora_[0], args_.seed);
    ReadRegistry(layers, mediator, kDocsEach + kProbeCommits);
    RunResult out;
    out.report = layers.CoverageReport();
    out.metrics = layers.Reduce(&out.report);
    out.attempted = layers.spans().size();
    return out;
  }

 private:
  /// Vocabulary queries with limit=20 (the router pushes the limit down to
  /// the full-capability sources and truncates the merged answer to it).
  void BuildQueries() {
    queries_.clear();
    shapes_.clear();
    VocabularyMix qw(args_.seed * 104729 + 5);
    const size_t n = static_cast<size_t>(kRate * (kWarmLoadSeconds + args_.seconds)) + 64;
    for (size_t i = 0; i < n; ++i) {
      netmark::query::XdbQuery q = qw.Next();
      queries_.push_back(q.ToQueryString());
      shapes_.push_back("databank_" + QueryShape(q));
    }
  }

  /// Runs every distinct query of the schedule once through the mediator's
  /// router, on nproc threads, before timing: the stores' result caches
  /// (the mediator's own and both remotes') then hold the vocabulary, as
  /// on long-running servers. Without it a run's first seconds are
  /// dominated by first-time misses and its p50 follows how many there are.
  void WarmCaches() {
    ForEachDistinctParallel(queries_, kStreams, [this](const std::string& qs) {
      Check(instances_[0]->QueryDatabankFederated("bank", qs).status(), "warm " + qs);
    });
  }

  std::vector<std::vector<ScheduledOp>> Schedule(size_t first, size_t count) const {
    std::vector<std::vector<ScheduledOp>> streams(kStreams);
    for (size_t i = 0; i < count; ++i) {
      streams[i % kStreams].push_back({DueMicros(i, kRate), kQuery, first + i});
    }
    return streams;
  }

  /// One databank query: complete, and its count the sum of the sources'
  /// answers, capped at the query's limit.
  static bool Query(HttpClient& client, const std::string& query, const HeaderMap& headers, Outcome* o) {
    netmark::server::HttpRequest req;
    req.method = "GET";
    req.target = "/xdb?databank=bank&" + query;
    req.headers = headers;
    auto resp = client.Send(req);
    if (!resp.ok() || resp->status != 200 || !ParseOutcome(resp->body, o) || !o->complete) return false;
    size_t sum = 0;
    for (const auto& [name, hits] : o->source_hits) sum += hits;
    const size_t limit = Unwrap(netmark::query::ParseXdbQuery(query), "parse").limit;
    return o->source_hits.size() == 4 && o->count == (limit != 0 ? std::min(sum, limit) : sum);
  }

  /// Each source's reported hits must match that source answering alone:
  /// the stores through the uncached evaluator, the content-only source
  /// through a router of its own. Returns mismatching queries.
  uint64_t CheckSources(const std::map<std::string, Outcome>& seen, std::vector<std::string>* report) {
    netmark::federation::Router only;
    Check(only.RegisterSource(lessons_source_), "register lessons");
    Check(only.DefineDatabank("only", {"lessons"}), "databank");
    const char* names[] = {"own", kRemotes[0], kRemotes[1]};
    uint64_t wrong = 0;
    size_t checked = 0;
    for (const auto& [qs, outcome] : seen) {
      if (checked >= kCheckSample) break;
      ++checked;
      netmark::query::XdbQuery q = Unwrap(netmark::query::ParseXdbQuery(qs), "parse");
      bool ok = true;
      for (size_t i = 0; i < 3; ++i) {
        netmark::query::QueryExecutor uncached(instances_[i]->store());
        const size_t expected = Unwrap(uncached.Execute(q), "reference execute").size();
        ok &= outcome.source_hits.at(names[i]) == expected;
      }
      ok &= outcome.source_hits.at("lessons") ==
            Unwrap(only.QueryFederated("only", q), "lessons").sources.at(0).hits;
      if (!ok) {
        ++wrong;
        report->push_back("  WRONG per-source answer for " + qs);
      }
    }
    report->push_back("  checked " + std::to_string(checked) +
                      " databank answers source by source: " + std::to_string(wrong) + " wrong");
    return wrong;
  }

  Args args_;
  std::vector<std::vector<GeneratedDoc>> corpora_;
  std::vector<GeneratedDoc> lessons_;
  fs::path dir_;
  /// [0] is the mediator; [1], [2] the remotes.
  std::vector<std::unique_ptr<netmark::Netmark>> instances_;
  std::shared_ptr<netmark::federation::ContentOnlySource> lessons_source_;
  std::vector<std::string> queries_;
  std::vector<std::string> shapes_;  ///< latency class of each query
};

}  // namespace

std::unique_ptr<Workload> MakeFederated(const Args& args) { return std::make_unique<Federated>(args); }

}  // namespace perfbench
