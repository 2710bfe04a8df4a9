#include "harness/probes.h"


#include "common/clock.h"
#include "common/temp_dir.h"
#include "federation/content_only_source.h"
#include "federation/remote_source.h"
#include "server/daemon.h"
#include "server/http_client.h"
#include "xml/parser.h"

namespace perfbench {

using netmark::workload::GeneratedDoc;

namespace {
constexpr int kWorkers = 4;  // nproc
}  // namespace

void DropFiles(const fs::path& drop_dir, const std::vector<GeneratedDoc>& docs) {
  for (const GeneratedDoc& d : docs) {
    Check(netmark::WriteFile(drop_dir / d.file_name, d.content), "write drop file");
  }
}

int DaemonSweep(Layers& layers, netmark::Netmark* nm, const fs::path& drop_dir) {
  netmark::server::DaemonOptions options;
  options.drop_dir = drop_dir;
  options.worker_threads = kWorkers;
  options.stable_age = std::chrono::milliseconds(0);
  netmark::server::IngestionDaemon daemon(nm->store(), &nm->converters(), options);
  daemon.BindMetrics(nm->metrics());
  netmark::Stopwatch watch;
  int ingested = Unwrap(daemon.ProcessOnce(), "daemon sweep");
  layers.Observe("daemon.sweep_wall_us", static_cast<double>(watch.ElapsedMicros()));
  layers.Set("daemon.workers", kWorkers);
  if (daemon.files_failed() != 0) Die("daemon sweep failed files");
  return ingested;
}

void SetInsertGrowth(Layers& layers, size_t first_n, size_t last_n) {
  const std::vector<double>& v = layers.Values("xmlstore.insert_us");
  if (v.size() < first_n + last_n || first_n == 0 || last_n == 0) return;
  std::vector<double> first(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(first_n));
  std::vector<double> last(v.end() - static_cast<std::ptrdiff_t>(last_n), v.end());
  layers.Set("xmlstore.insert_us_growth", Median(last) / Median(first));
}

void ProbeWrites(Layers& layers, netmark::Netmark* nm, const fs::path& dir,
                 const std::vector<GeneratedDoc>& corpus, uint64_t seed) {
  netmark::query::QueryExecutor unused(nm->store());
  ReplayTarget target{nm, &unused, &unused, nullptr};
  const size_t before = layers.Values("xmlstore.insert_us").size();
  for (size_t i = 0; i < 20; ++i) {
    const GeneratedDoc& d = corpus[(i * 97) % corpus.size()];
    ReplayPut(layers, target, d.file_name, WithMarker(d, "probe" + std::to_string(i)));
  }
  if (before == 0) SetInsertGrowth(layers, 10, 10);
  std::vector<GeneratedDoc> batch = netmark::workload::CorpusGenerator(seed + 99).MixedCorpus(50);
  for (GeneratedDoc& d : batch) d.file_name.insert(0, "probe_");
  const fs::path drop = dir / "probe_drop";
  fs::create_directories(drop);
  DropFiles(drop, batch);
  if (DaemonSweep(layers, nm, drop) != static_cast<int>(batch.size())) Die("probe sweep missed files");
}

void ProbeFederation(Layers& layers, netmark::Netmark* nm, uint16_t port, uint64_t seed,
                     const std::vector<std::string>& queries) {
  Check(nm->RegisterSelfAsSource("probe_self"), "register self source");
  Check(nm->RegisterSource(std::make_shared<netmark::federation::RemoteSource>(
            "probe_remote", std::make_unique<netmark::server::SocketTransport>("127.0.0.1", port))),
        "register remote source");
  auto lessons = std::make_shared<netmark::federation::ContentOnlySource>("probe_lessons");
  netmark::workload::CorpusGenerator gen(seed + 77);
  for (int i = 0; i < 50; ++i) {
    GeneratedDoc d = gen.LessonLearned(i);
    lessons->AddDocument(d.file_name, Unwrap(netmark::xml::ParseXml(d.content), "parse lesson"));
  }
  Check(nm->RegisterSource(lessons), "register content-only source");
  Check(nm->DefineDatabank("probe", {"probe_self", "probe_remote", "probe_lessons"}), "databank");
  netmark::server::HttpClient client("127.0.0.1", port);
  FederationTarget target;
  target.router = nm->router();
  target.databank = "probe";
  target.kinds = {{"probe_self", "local"}, {"probe_remote", "remote"}, {"probe_lessons", "content_only"}};
  target.remotes = {{"probe_remote", &client}};
  for (const std::string& q : queries) ReplayFederated(layers, target, q);
}

}  // namespace perfbench
