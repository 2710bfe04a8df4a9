// ingest: write-only batch ingestion through the drop folder (paper Fig 3:
// convert → prepare → single writer → WAL fsync → version publish → index
// merge). Seeded mixed-format files arrive in batches of 1,000; each batch
// is committed by one IngestionDaemon::ProcessOnce sweep with nproc
// workers. The first batch is the set-up (loaded like the other workloads'
// stores); the measured sweeps grow the store from 1,000 to 8,000
// documents, so commit cost is seen as the store grows. No reads run.

#include <atomic>
#include <thread>

#include "common/clock.h"
#include "harness/layers.h"
#include "harness/probes.h"
#include "harness/workload.h"
#include "server/daemon.h"

namespace perfbench {

namespace {

using netmark::workload::GeneratedDoc;

constexpr size_t kBatches = 8;
constexpr size_t kBatchDocs = 1000;
constexpr int kWorkers = 4;  // nproc

class Ingest : public Workload {
 public:
  explicit Ingest(const Args& args)
      : args_(args),
        docs_(netmark::workload::CorpusGenerator(args.seed).MixedCorpus(kBatches * kBatchDocs)) {}

  /// Set-up: the store with the first batch loaded.
  void Setup(const fs::path& dir) override {
    dir_ = dir;
    nm_ = OpenNetmark(dir / "data");
    LoadDocs(nm_.get(), Batch(0));
  }

  void Teardown() override {
    nm_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  RunResult Run() override {
    WriteInputs();
    ResetPeakRss();
    RunResult out;
    netmark::server::DaemonOptions options;
    options.drop_dir = dir_ / "drop";
    options.worker_threads = kWorkers;
    options.stable_age = std::chrono::milliseconds(0);
    auto daemon = std::make_unique<netmark::server::IngestionDaemon>(nm_->store(), &nm_->converters(), options);
    daemon->BindMetrics(nm_->metrics());

    // Per file: the time from its batch's drop to its durable commit. The
    // daemon commits in filename order, one WAL fsync each; a sampler
    // thread watches the committed count.
    std::vector<double> latency_ms;
    double sweep_s = 0;
    std::vector<double> batch_rate;
    uint64_t ingested = 0;
    const double cpu = CpuSeconds();
    for (size_t b = 1; b < kBatches; ++b) {
      Drop(b);
      std::atomic<bool> done{false};
      const int64_t start = netmark::MonotonicMicros();
      std::thread sampler([&] {
        uint64_t seen = daemon->files_ingested();
        const uint64_t base = seen;
        while (true) {
          const bool finished = done.load();
          const uint64_t now_count = daemon->files_ingested();
          const double elapsed_ms = static_cast<double>(netmark::MonotonicMicros() - start) / 1000.0;
          for (; seen < now_count; ++seen) latency_ms.push_back(elapsed_ms);
          if (finished || seen - base >= kBatchDocs) break;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
      const int swept = Unwrap(daemon->ProcessOnce(), "daemon sweep");
      const int64_t wall = netmark::MonotonicMicros() - start;
      done = true;
      sampler.join();
      ingested += static_cast<uint64_t>(swept);
      sweep_s += static_cast<double>(wall) / 1e6;
      batch_rate.push_back(static_cast<double>(swept) * 1e6 / static_cast<double>(wall));
    }
    AddCpuMetric(CpuSeconds() - cpu, ingested, &out);
    const uint64_t failed_files = daemon->files_failed();
    daemon.reset();
    out.attempted = (kBatches - 1) * kBatchDocs;
    out.failed = failed_files + (out.attempted - std::min(out.attempted, ingested));

    uint64_t input_bytes = 0;
    for (const GeneratedDoc& d : docs_) input_bytes += d.content.size();
    Check(nm_->store()->Checkpoint(), "checkpoint");
    const double bytes_ratio =
        static_cast<double>(DirBytes(dir_ / "data")) / static_cast<double>(input_bytes);
    out.failed += VerifyAfterReopen(&out.report);

    out.report.push_back("ingest: " + std::to_string(kBatches - 1) + " measured batches of " +
                         std::to_string(kBatchDocs) + " files onto a " + std::to_string(kBatchDocs) +
                         "-document store, " + std::to_string(kWorkers) +
                         " workers, one sweep per batch; latency = a file's drop to its durable commit");
    std::string rates = "  docs/s per batch:";
    for (double r : batch_rate) rates += " " + std::to_string(static_cast<int>(r));
    out.report.push_back(rates);
    AddLatencyMetrics({{"file", latency_ms}}, &out);
    out.metrics["store_bytes_per_input_byte"] = {bytes_ratio, "ratio"};
    out.report.push_back(Line("ingest_docs_per_s", static_cast<double>(ingested) / sweep_s, "docs/s",
                              "over " + FormatNumber(sweep_s) + " s of sweeps"));
    out.report.push_back(Line("store_bytes_per_input_byte", bytes_ratio, "ratio"));
    return out;
  }

  RunResult Trace() override {
    WriteInputs();
    Layers layers;
    netmark::query::QueryExecutor uncached(nm_->store());
    ReplayTarget target{nm_.get(), &uncached, &uncached, nullptr};
    // Per batch: the first files one by one through convert → prepare →
    // insert, the rest through the daemon.
    constexpr size_t kReplayed = 100;
    for (size_t b = 1; b < kBatches; ++b) {
      std::vector<GeneratedDoc> batch = Batch(b);
      for (size_t i = 0; i < kReplayed; ++i) {
        ReplayIngestFile(layers, target, batch[i].file_name, batch[i].content);
        fs::remove(Staging(b) / batch[i].file_name);
      }
      Drop(b);
      DaemonSweep(layers, nm_.get(), dir_ / "drop");
      layers.Observe("storage.mvcc_versions_retained",
                     static_cast<double>(nm_->store()->mvcc_versions_retained()));
    }
    SetInsertGrowth(layers, kReplayed, kReplayed);

    // Read layers on the grown store, idle during ingest: a small probe
    // (uncached queries over 8,000 documents are slow), replayed first so
    // its executions miss the cache, then sent over HTTP where they hit.
    Check(nm_->RegisterStylesheet("report", kReportSheet), "register stylesheet");
    netmark::query::QueryExecutor cached(nm_->store());
    cached.set_result_cache(nm_->service()->result_cache());
    cached.set_plan_cache(nm_->service()->plan_cache());
    netmark::xslt::Stylesheet sheet = Unwrap(netmark::xslt::Stylesheet::Parse(kReportSheet), "sheet");
    ReplayTarget reads{nm_.get(), &uncached, &cached, &sheet};
    std::map<std::string, int64_t> ids = DocIds(nm_.get());
    std::vector<std::string> queries;
    std::vector<int64_t> doc_ids;
    VocabularyMix qw(args_.seed * 104729 + 3);
    for (int i = 0; i < 12; ++i) {
      netmark::query::XdbQuery q = qw.Next();
      if (i % 6 == 0) q.xslt = "report";
      queries.push_back(q.ToQueryString());
      doc_ids.push_back(ids.at(docs_[(static_cast<size_t>(i) * 613) % docs_.size()].file_name));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      ReplayQuery(layers, reads, queries[i]);
      ReplayGet(layers, reads, doc_ids[i]);
    }
    // Asked again, they hit the result cache.
    for (size_t i = 0; i < 4; ++i) ReplayQuery(layers, reads, queries[i]);
    TimedServer server(nm_.get(), queries.size());
    std::vector<std::vector<ScheduledOp>> streams(kWorkers);
    for (size_t i = 0; i < queries.size(); ++i) {
      streams[i % kWorkers].push_back({DueMicros(i, 50), kQuery, i});
    }
    RunTimedHttpPhase(layers, server, streams,
                      [&](const ScheduledOp& op, netmark::server::HttpClient& client,
                          const netmark::server::HeaderMap& headers) {
                        netmark::server::HttpRequest req;
                        req.method = "GET";
                        req.target = "/xdb?" + queries[op.item];
                        req.headers = headers;
                        auto resp = client.Send(req);
                        return resp.ok() && resp->status == 200;
                      });
    std::vector<std::string> plain;
    for (const std::string& q : queries) {
      if (q.find("xslt=") == std::string::npos && plain.size() < 4) plain.push_back(q);
    }
    MeasureTracingOverhead(layers, reads, plain, doc_ids);
    ProbeWrites(layers, nm_.get(), dir_, docs_, args_.seed);
    ProbeFederation(layers, nm_.get(), server.port(), args_.seed, plain);
    ReadRegistry(layers, nm_.get(), kBatches * kBatchDocs + kProbeCommits);
    RunResult out;
    out.report = layers.CoverageReport();
    out.metrics = layers.Reduce(&out.report);
    out.attempted = layers.spans().size();
    return out;
  }

 private:
  fs::path Staging(size_t batch) const { return dir_ / "staging" / std::to_string(batch); }

  /// Writes batches 1.. as files into their own staging folders (the
  /// generator's work, not timed), so a drop is only a rename.
  void WriteInputs() {
    for (size_t b = 1; b < kBatches; ++b) {
      fs::create_directories(Staging(b));
      DropFiles(Staging(b), Batch(b));
    }
    fs::create_directories(dir_ / "drop");
  }

  std::vector<GeneratedDoc> Batch(size_t b) const {
    return std::vector<GeneratedDoc>(docs_.begin() + static_cast<std::ptrdiff_t>(b * kBatchDocs),
                                     docs_.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatchDocs));
  }

  /// Moves batch `b` from staging into the drop folder.
  void Drop(size_t b) {
    for (const auto& entry : fs::directory_iterator(Staging(b))) {
      fs::rename(entry.path(), dir_ / "drop" / entry.path().filename());
    }
  }

  /// Closes the store, reopens it (recovery + index load) and checks that
  /// every dropped file is present. Returns the number missing.
  uint64_t VerifyAfterReopen(std::vector<std::string>* report) {
    nm_.reset();
    nm_ = OpenNetmark(dir_ / "data");
    std::map<std::string, int64_t> ids = DocIds(nm_.get());
    uint64_t missing = 0;
    for (const GeneratedDoc& d : docs_) missing += ids.count(d.file_name) == 0;
    report->push_back("  reopened the store: " + std::to_string(ids.size()) + " documents, " +
                      std::to_string(missing) + " dropped files missing");
    return missing;
  }

  Args args_;
  std::vector<GeneratedDoc> docs_;
  fs::path dir_;
  std::unique_ptr<netmark::Netmark> nm_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest(const Args& args) { return std::make_unique<Ingest>(args); }

}  // namespace perfbench
