// netmark — the command-line front end.
//
//   netmark ingest  --data DIR FILE...              ingest documents
//   netmark ls      --data DIR                      list stored documents
//   netmark get     --data DIR DOCID                print reconstructed XML
//   netmark rm      --data DIR DOCID                delete a document
//   netmark query   --data DIR QUERY [--xslt FILE]  run an XDB query
//   netmark serve   --data DIR [--port N] [--drop DIR] [--databanks FILE]
//                                                   run the HTTP server
//   netmark remote  --host H --port P QUERY         query a running server
//   netmark traces  --host H --port P [--id ID]     list / render retained traces
//
// QUERY is an XDB query string, e.g. "context=Budget&content=engine".

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/temp_dir.h"
#include "core/netmark.h"
#include "storage/page.h"
#include "federation/databank_config.h"
#include "server/http_client.h"
#include "server/source_factory.h"
#include "workload/corpus.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace {

using namespace netmark;

int Fail(const std::string& message) {
  std::fprintf(stderr, "netmark: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  netmark ingest --data DIR FILE...\n"
               "  netmark ls     --data DIR\n"
               "  netmark get    --data DIR DOCID\n"
               "  netmark rm     --data DIR DOCID\n"
               "  netmark query  --data DIR QUERY [--xslt FILE]\n"
               "  netmark serve  --data DIR [--port N] [--drop DIR] "
               "[--databanks FILE] [--config FILE]\n"
               "  netmark remote --host H --port P QUERY\n"
               "  netmark traces --host H --port P [--id ID]\n"
               "                 list retained traces; --id renders one span\n"
               "                 tree as an indented flame view\n"
               "  netmark torture-gen    --drop DIR --count N [--seed S]\n"
               "  netmark torture-ingest --data DIR --drop DIR [--workers N]\n"
               "  netmark torture-verify --data DIR --drop DIR "
               "[--allow-quarantine 1]\n"
               "  netmark scrub   --data DIR              CRC-verify every heap page\n"
               "  netmark corrupt --data DIR [--table XML|DOC] [--page N]\n"
               "                  [--offset K]            flip one on-disk byte\n"
               "\n"
               "storage flags (any command taking --data; also the [storage]\n"
               "INI section via --config): --wal on|off, --fsync\n"
               "commit|batch|none, --checkpoint-bytes N; INI-only:\n"
               "page_checksums on|off, scrub_pages_per_sec N,\n"
               "on_fsync_error degrade|abort (docs/durability.md),\n"
               "mvcc_gc_interval_ms N, mvcc_max_retained_versions N\n"
               "(docs/mvcc.md)\n"
               "NETMARK_DISK_FAULT=kind:nth injects a deterministic disk fault\n"
               "(read_eio|write_eio|write_enospc|write_short|write_torn|"
               "fsync_fail)\n"
               "query cache knobs ([query] INI section via --config):\n"
               "cache_enabled on|off, cache_entries N, cache_bytes N,\n"
               "plan_entries N (docs/query_cache.md)\n"
               "tracing knobs ([observability] INI section via --config):\n"
               "trace_sample_rate 0..1, trace_store_capacity N,\n"
               "trace_slow_keep_ms N (docs/observability.md)\n"
               "serving knobs ([server] INI section via --config):\n"
               "worker_threads N, accept_queue_capacity N,\n"
               "max_requests_per_connection N,\n"
               "idle_timeout_ms N, read_timeout_ms N (docs/serving.md)\n");
  return 2;
}

// Minimal flag parsing: --key value pairs plus positional arguments.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
};

Args ParseArgs(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.flags[arg.substr(2)] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

// Durability knobs, lowest to highest precedence: defaults, the [storage]
// INI section of --config, then direct --wal/--fsync/--checkpoint-bytes
// flags. Resolved BEFORE Netmark::Open — recovery and the fsync policy are
// fixed at open time.
Status ApplyStorageFlags(const Args& args, storage::StorageOptions* storage) {
  auto config_flag = args.flags.find("config");
  if (config_flag != args.flags.end()) {
    NETMARK_ASSIGN_OR_RETURN(Config config, Config::Load(config_flag->second));
    auto wal = config.Get("storage", "wal_enabled");
    if (wal.ok()) storage->wal_enabled = (*wal != "off" && *wal != "false" && *wal != "0");
    auto fsync = config.Get("storage", "wal_fsync");
    if (fsync.ok()) {
      NETMARK_ASSIGN_OR_RETURN(storage->wal_fsync,
                               storage::ParseWalFsyncPolicy(*fsync));
    }
    storage->checkpoint_bytes = static_cast<uint64_t>(config.GetIntOr(
        "storage", "checkpoint_bytes",
        static_cast<int64_t>(storage->checkpoint_bytes)));
    auto checksums = config.Get("storage", "page_checksums");
    if (checksums.ok()) {
      storage->page_checksums =
          (*checksums != "off" && *checksums != "false" && *checksums != "0");
    }
    storage->scrub_pages_per_sec = static_cast<int>(config.GetIntOr(
        "storage", "scrub_pages_per_sec", storage->scrub_pages_per_sec));
    // MVCC version lifecycle (docs/mvcc.md): GC cadence and the per-page
    // retention bound (0 = unlimited; capped readers get SnapshotTooOld).
    storage->mvcc_gc_interval_ms = static_cast<int>(config.GetIntOr(
        "storage", "mvcc_gc_interval_ms", storage->mvcc_gc_interval_ms));
    storage->mvcc_max_retained_versions = static_cast<int>(config.GetIntOr(
        "storage", "mvcc_max_retained_versions",
        storage->mvcc_max_retained_versions));
    auto on_fsync = config.Get("storage", "on_fsync_error");
    if (on_fsync.ok()) {
      if (*on_fsync == "abort") {
        storage->abort_on_fsync_error = true;
      } else if (*on_fsync == "degrade") {
        storage->abort_on_fsync_error = false;
      } else {
        return Status::InvalidArgument(
            "bad [storage] on_fsync_error (want degrade|abort): " + *on_fsync);
      }
    }
  }
  auto wal_flag = args.flags.find("wal");
  if (wal_flag != args.flags.end()) {
    storage->wal_enabled = (wal_flag->second != "off" && wal_flag->second != "false");
  }
  auto fsync_flag = args.flags.find("fsync");
  if (fsync_flag != args.flags.end()) {
    NETMARK_ASSIGN_OR_RETURN(storage->wal_fsync,
                             storage::ParseWalFsyncPolicy(fsync_flag->second));
  }
  auto ckpt_flag = args.flags.find("checkpoint-bytes");
  if (ckpt_flag != args.flags.end()) {
    NETMARK_ASSIGN_OR_RETURN(int64_t bytes, ParseInt64(ckpt_flag->second));
    storage->checkpoint_bytes = static_cast<uint64_t>(bytes);
  }
  return Status::OK();
}

// Read-path cache knobs ([query] INI section via --config): cache_enabled
// on|off, cache_entries / cache_bytes for the result cache, plan_entries for
// the compiled-plan cache. Resolved before Open — the caches are configured
// once, before any traffic (docs/query_cache.md).
Status ApplyQueryFlags(const Args& args, NetmarkOptions* options) {
  auto config_flag = args.flags.find("config");
  if (config_flag == args.flags.end()) return Status::OK();
  NETMARK_ASSIGN_OR_RETURN(Config config, Config::Load(config_flag->second));
  auto enabled = config.Get("query", "cache_enabled");
  if (enabled.ok()) {
    options->query_cache.enabled =
        (*enabled != "off" && *enabled != "false" && *enabled != "0");
  }
  options->query_cache.max_entries = static_cast<size_t>(config.GetIntOr(
      "query", "cache_entries",
      static_cast<int64_t>(options->query_cache.max_entries)));
  options->query_cache.max_bytes = static_cast<size_t>(config.GetIntOr(
      "query", "cache_bytes",
      static_cast<int64_t>(options->query_cache.max_bytes)));
  options->plan_cache.max_entries = static_cast<size_t>(config.GetIntOr(
      "query", "plan_entries",
      static_cast<int64_t>(options->plan_cache.max_entries)));
  options->plan_cache.enabled = options->query_cache.enabled;
  return Status::OK();
}

// Trace sampling / retention knobs ([observability] INI section via
// --config): trace_sample_rate 0..1, trace_store_capacity N,
// trace_slow_keep_ms N. Resolved before Open (docs/observability.md).
Status ApplyObservabilityFlags(const Args& args, NetmarkOptions* options) {
  auto config_flag = args.flags.find("config");
  if (config_flag == args.flags.end()) return Status::OK();
  NETMARK_ASSIGN_OR_RETURN(Config config, Config::Load(config_flag->second));
  auto rate = config.Get("observability", "trace_sample_rate");
  if (rate.ok()) {
    char* end = nullptr;
    double parsed = std::strtod(rate->c_str(), &end);
    if (end == rate->c_str() || *end != '\0' || parsed < 0.0 || parsed > 1.0) {
      return Status::InvalidArgument(
          "bad [observability] trace_sample_rate (want 0..1): " + *rate);
    }
    options->trace_store.sample_rate = parsed;
  }
  options->trace_store.capacity = static_cast<size_t>(config.GetIntOr(
      "observability", "trace_store_capacity",
      static_cast<int64_t>(options->trace_store.capacity)));
  options->trace_store.slow_keep_ms = config.GetIntOr(
      "observability", "trace_slow_keep_ms", options->trace_store.slow_keep_ms);
  return Status::OK();
}

// Serving knobs ([server] INI section via --config): the pool/queue/timeout
// sizing of the epoll server. Resolved before Open so StartServer (serve
// command, tests through the CLI) picks them up without extra plumbing
// (docs/serving.md).
Status ApplyServerFlags(const Args& args, NetmarkOptions* options) {
  auto config_flag = args.flags.find("config");
  if (config_flag == args.flags.end()) return Status::OK();
  NETMARK_ASSIGN_OR_RETURN(Config config, Config::Load(config_flag->second));
  server::HttpServerOptions& http = options->http_server;
  http.worker_threads = static_cast<int>(
      config.GetIntOr("server", "worker_threads", http.worker_threads));
  http.accept_queue_capacity = static_cast<size_t>(
      config.GetIntOr("server", "accept_queue_capacity",
                      static_cast<int64_t>(http.accept_queue_capacity)));
  http.max_requests_per_connection = static_cast<int>(
      config.GetIntOr("server", "max_requests_per_connection",
                      http.max_requests_per_connection));
  http.idle_timeout_ms = static_cast<int>(
      config.GetIntOr("server", "idle_timeout_ms", http.idle_timeout_ms));
  http.read_timeout_ms = static_cast<int>(
      config.GetIntOr("server", "read_timeout_ms", http.read_timeout_ms));
  return Status::OK();
}

Result<std::unique_ptr<Netmark>> OpenFromArgs(const Args& args) {
  auto it = args.flags.find("data");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("--data DIR is required");
  }
  NetmarkOptions options;
  options.data_dir = it->second;
  NETMARK_RETURN_NOT_OK(ApplyStorageFlags(args, &options.storage));
  NETMARK_RETURN_NOT_OK(ApplyQueryFlags(args, &options));
  NETMARK_RETURN_NOT_OK(ApplyObservabilityFlags(args, &options));
  NETMARK_RETURN_NOT_OK(ApplyServerFlags(args, &options));
  // NETMARK_DISK_FAULT=kind:nth wraps every storage file in a deterministic
  // fault injector (tools/disk_torture.sh drives this). The Env must outlive
  // the store, so it lives for the remainder of the process.
  static std::unique_ptr<Env> fault_env = MaybeFaultInjectingEnvFromEnvironment();
  if (fault_env != nullptr) options.storage.env = fault_env.get();
  return Netmark::Open(options);
}

int CmdIngest(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  if (args.positional.empty()) return Fail("no files given");
  for (const std::string& file : args.positional) {
    auto id = (*nm)->IngestFile(file);
    if (!id.ok()) return Fail(file + ": " + id.status().ToString());
    std::printf("%s -> doc %lld\n", file.c_str(), static_cast<long long>(*id));
  }
  Status st = (*nm)->store()->Flush();
  if (!st.ok()) return Fail(st.ToString());
  return 0;
}

int CmdLs(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  auto docs = (*nm)->ListDocuments();
  if (!docs.ok()) return Fail(docs.status().ToString());
  std::printf("%6s %10s %s\n", "id", "bytes", "name");
  for (const auto& doc : *docs) {
    std::printf("%6lld %10lld %s\n", static_cast<long long>(doc.doc_id),
                static_cast<long long>(doc.file_size), doc.file_name.c_str());
  }
  return 0;
}

int CmdGet(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  if (args.positional.size() != 1) return Fail("expected one DOCID");
  auto id = ParseInt64(args.positional[0]);
  if (!id.ok()) return Fail("bad document id: " + args.positional[0]);
  auto xml = (*nm)->GetDocumentXml(*id);
  if (!xml.ok()) return Fail(xml.status().ToString());
  std::printf("%s\n", xml->c_str());
  return 0;
}

int CmdRm(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  if (args.positional.size() != 1) return Fail("expected one DOCID");
  auto id = ParseInt64(args.positional[0]);
  if (!id.ok()) return Fail("bad document id: " + args.positional[0]);
  Status st = (*nm)->DeleteDocument(*id);
  if (!st.ok()) return Fail(st.ToString());
  st = (*nm)->store()->Flush();
  if (!st.ok()) return Fail(st.ToString());
  std::printf("deleted doc %lld\n", static_cast<long long>(*id));
  return 0;
}

int CmdQuery(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  if (args.positional.size() != 1) return Fail("expected one QUERY string");
  auto xslt_flag = args.flags.find("xslt");
  if (xslt_flag != args.flags.end()) {
    auto sheet = ReadFile(xslt_flag->second);
    if (!sheet.ok()) return Fail(sheet.status().ToString());
    auto out = (*nm)->QueryAndTransform(args.positional[0], *sheet);
    if (!out.ok()) return Fail(out.status().ToString());
    std::printf("%s\n", out->c_str());
    return 0;
  }
  auto out = (*nm)->QueryToXml(args.positional[0]);
  if (!out.ok()) return Fail(out.status().ToString());
  std::printf("%s\n", out->c_str());
  return 0;
}

int CmdServe(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());

  // Server INI: [server] log_level / slow_query_ms. Matching env vars
  // (NETMARK_LOG_LEVEL, NETMARK_SLOW_QUERY_MS) always win over the file.
  auto config_flag = args.flags.find("config");
  if (config_flag != args.flags.end()) {
    auto config = Config::Load(config_flag->second);
    if (!config.ok()) return Fail(config.status().ToString());
    auto level = config->Get("server", "log_level");
    if (level.ok() && std::getenv("NETMARK_LOG_LEVEL") == nullptr) {
      Logger::Instance().SetLevel(
          ParseLogLevel(level->c_str(), Logger::Instance().level()));
    }
    int64_t slow_ms = config->GetIntOr("server", "slow_query_ms",
                                       (*nm)->service()->slow_query_ms());
    (*nm)->service()->set_slow_query_ms(slow_ms);
    std::printf("loaded server config from %s (slow_query_ms=%lld)\n",
                config_flag->second.c_str(),
                static_cast<long long>((*nm)->service()->slow_query_ms()));
  }

  auto banks = args.flags.find("databanks");
  if (banks != args.flags.end()) {
    auto text = ReadFile(banks->second);
    if (!text.ok()) return Fail(text.status().ToString());
    auto config = federation::ParseDatabankConfig(*text);
    if (!config.ok()) return Fail(config.status().ToString());
    Status st = federation::ApplyDatabankConfig(
        *config, server::DefaultSourceFactory(), (*nm)->router());
    if (!st.ok()) return Fail(st.ToString());
    std::printf("loaded %zu sources, %zu databanks from %s\n",
                config->sources.size(), config->databanks.size(),
                banks->second.c_str());
  }

  auto drop = args.flags.find("drop");
  if (drop != args.flags.end()) {
    Status st = (*nm)->StartDaemon(drop->second);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("watching drop folder %s\n", drop->second.c_str());
  }

  uint16_t port = 0;
  auto port_flag = args.flags.find("port");
  if (port_flag != args.flags.end()) {
    auto parsed = ParseInt64(port_flag->second);
    if (!parsed.ok() || *parsed < 0 || *parsed > 65535) {
      return Fail("bad --port value");
    }
    port = static_cast<uint16_t>(*parsed);
  }
  Status st = (*nm)->StartServer(port);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("NETMARK serving on http://127.0.0.1:%u  (Ctrl-C to stop)\n",
              (*nm)->server_port());

  static volatile std::sig_atomic_t stop_requested = 0;
  std::signal(SIGINT, [](int) { stop_requested = 1; });
  std::signal(SIGTERM, [](int) { stop_requested = 1; });
  while (stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("\nshutting down\n");
  (*nm)->StopServer();
  (*nm)->StopDaemon();
  return 0;
}

// --- Crash-torture harness (tools/crash_torture.sh drives these) ---

// Deterministically fills a drop folder with a seeded mixed-format corpus.
int CmdTortureGen(const Args& args) {
  auto drop_it = args.flags.find("drop");
  if (drop_it == args.flags.end()) return Fail("--drop DIR is required");
  auto count_it = args.flags.find("count");
  if (count_it == args.flags.end()) return Fail("--count N is required");
  auto count = ParseInt64(count_it->second);
  if (!count.ok() || *count <= 0) return Fail("bad --count value");
  uint64_t seed = 42;
  auto seed_it = args.flags.find("seed");
  if (seed_it != args.flags.end()) {
    auto parsed = ParseInt64(seed_it->second);
    if (!parsed.ok()) return Fail("bad --seed value");
    seed = static_cast<uint64_t>(*parsed);
  }
  std::error_code ec;
  std::filesystem::create_directories(drop_it->second, ec);
  if (ec) return Fail("cannot create drop dir: " + ec.message());
  workload::CorpusGenerator gen(seed);
  for (const workload::GeneratedDoc& doc :
       gen.MixedCorpus(static_cast<size_t>(*count))) {
    // Two-step write: the daemon's stability filter is off during torture
    // (stable_age=0), so a plain write suffices — files land before sweeps.
    Status st = WriteFileAtomic(
        (std::filesystem::path(drop_it->second) / doc.file_name).string(),
        doc.content);
    if (!st.ok()) return Fail(st.ToString());
  }
  std::printf("generated %lld files (seed %llu) into %s\n",
              static_cast<long long>(*count),
              static_cast<unsigned long long>(seed), drop_it->second.c_str());
  return 0;
}

// Sweeps the drop folder until drained. Run under NETMARK_CRASH_POINT /
// NETMARK_CRASH_AFTER this process SIGKILLs itself mid-commit — that is the
// point.
int CmdTortureIngest(const Args& args) {
  auto drop_it = args.flags.find("drop");
  if (drop_it == args.flags.end()) return Fail("--drop DIR is required");
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  server::DaemonOptions dopts;
  dopts.drop_dir = drop_it->second;
  dopts.stable_age = std::chrono::milliseconds(0);  // take files as-is
  dopts.keep_processed = true;  // processed/ is the ack ledger verify reads
  auto workers_it = args.flags.find("workers");
  if (workers_it != args.flags.end()) {
    auto parsed = ParseInt64(workers_it->second);
    if (!parsed.ok() || *parsed < 0) return Fail("bad --workers value");
    dopts.worker_threads = static_cast<int>(*parsed);
  }
  // Direct daemon, no polling thread: ProcessOnce is synchronous, so kill
  // points fire at deterministic pipeline stages.
  server::IngestionDaemon daemon((*nm)->store(), &(*nm)->converters(), dopts);
  int total = 0;
  for (;;) {
    auto swept = daemon.ProcessOnce();
    if (!swept.ok()) return Fail(swept.status().ToString());
    total += *swept;
    if ((*nm)->store()->degraded()) {
      // An injected write/fsync fault latched the store read-only. Stop
      // sweeping — the daemon defers the remaining files, so the drained
      // check below would spin forever — and report; exit 3 tells
      // disk_torture.sh this was the fail-stop path, not a harness error.
      std::string reason = (*nm)->store()->degraded_reason();
      std::string escaped;
      for (char c : reason) {
        if (static_cast<unsigned char>(c) < 0x20) { escaped += ' '; continue; }
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      std::printf(
          "{\"ingested\":%d,\"failed\":%llu,\"degraded\":true,"
          "\"degraded_reason\":\"%s\"}\n",
          total, static_cast<unsigned long long>(daemon.files_failed()),
          escaped.c_str());
      return 3;
    }
    bool drained = true;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(drop_it->second, ec)) {
      if (entry.is_regular_file() &&
          entry.path().filename().string()[0] != '.') {
        drained = false;
        break;
      }
    }
    if (drained) break;
  }
  std::printf("{\"ingested\":%d,\"failed\":%llu}\n", total,
              static_cast<unsigned long long>(daemon.files_failed()));
  return 0;
}

// Post-crash referee: reopening the store ran recovery; now every stored
// document must reconstruct, and every acked file (drop/processed) must
// reconstruct byte-identical to a fresh conversion of its source bytes.
int CmdTortureVerify(const Args& args) {
  auto drop_it = args.flags.find("drop");
  if (drop_it == args.flags.end()) return Fail("--drop DIR is required");
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());

  auto docs = (*nm)->ListDocuments();
  if (!docs.ok()) return Fail(docs.status().ToString());

  // With --allow-quarantine 1 (the checksum-corruption phase of
  // disk_torture.sh) documents lost to a DETECTED bad-CRC page count as
  // quarantined, not torn: detection and containment is exactly the contract
  // under test. Silent mismatches stay fatal in every mode.
  bool allow_quarantine = false;
  auto aq = args.flags.find("allow-quarantine");
  if (aq != args.flags.end()) {
    allow_quarantine = (aq->second != "0" && aq->second != "off");
  }

  uint64_t torn = 0, mismatches = 0, missing = 0, verified = 0, rejected = 0;
  uint64_t quarantined = 0;

  // Every row-complete document must rebuild into a DOM: a torn (partially
  // committed) insert would surface here as a reconstruction failure.
  std::map<std::string, std::vector<std::string>> stored_by_name;
  for (const auto& doc : *docs) {
    auto xml = (*nm)->GetDocumentXml(doc.doc_id);
    if (!xml.ok()) {
      if (allow_quarantine && xml.status().IsDataLoss()) {
        ++quarantined;
        continue;
      }
      std::fprintf(stderr, "torn doc %lld (%s): %s\n",
                   static_cast<long long>(doc.doc_id), doc.file_name.c_str(),
                   xml.status().ToString().c_str());
      ++torn;
      continue;
    }
    stored_by_name[doc.file_name].push_back(std::move(*xml));
  }

  // Acked = moved to processed/. At-least-once: a crash after commit but
  // before the move re-ingests the file (duplicate doc rows are fine), but
  // an acked file must never be absent or differ from its source.
  std::error_code ec;
  std::filesystem::path processed =
      std::filesystem::path(drop_it->second) / "processed";
  if (std::filesystem::exists(processed, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(processed, ec)) {
      if (!entry.is_regular_file()) continue;
      std::string name = entry.path().filename().string();
      auto content = ReadFile(entry.path());
      if (!content.ok()) return Fail(content.status().ToString());
      auto doc = (*nm)->converters().Convert(name, *content);
      if (!doc.ok()) return Fail(name + ": " + doc.status().ToString());
      std::string expect = xml::Serialize(*doc);
      auto it = stored_by_name.find(name);
      if (it == stored_by_name.end()) {
        if (allow_quarantine && (*nm)->store()->quarantined_pages() > 0) {
          // The acked copy exists but reconstructs through a quarantined
          // page — detected loss, reported below, not a silent hole.
          ++quarantined;
          continue;
        }
        std::fprintf(stderr, "acked file %s has no stored document\n", name.c_str());
        ++missing;
        continue;
      }
      bool matched = false;
      for (const std::string& got : it->second) {
        if (got == expect) { matched = true; break; }
      }
      if (matched) {
        ++verified;
      } else {
        std::fprintf(stderr, "acked file %s reconstructs differently\n", name.c_str());
        ++mismatches;
      }
    }
  }

  // The torture corpus always converts; anything in failed/ is a harness bug.
  std::filesystem::path failed_dir =
      std::filesystem::path(drop_it->second) / "failed";
  if (std::filesystem::exists(failed_dir, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(failed_dir, ec)) {
      if (entry.is_regular_file()) ++rejected;
    }
  }

  const storage::RecoveryStats& rec =
      (*nm)->store()->database()->recovery_stats();
  std::printf(
      "{\"docs\":%zu,\"acked_verified\":%llu,\"torn\":%llu,"
      "\"mismatches\":%llu,\"missing\":%llu,\"rejected\":%llu,"
      "\"quarantined\":%llu,\"quarantined_pages\":%llu,"
      "\"recovery\":{\"performed\":%s,\"committed_txns\":%llu,"
      "\"pages_applied\":%llu,\"torn_tail\":%s,\"micros\":%lld}}\n",
      docs->size(), static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(torn),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(missing),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(quarantined),
      static_cast<unsigned long long>((*nm)->store()->quarantined_pages()),
      rec.performed ? "true" : "false",
      static_cast<unsigned long long>(rec.committed_txns),
      static_cast<unsigned long long>(rec.pages_applied),
      rec.torn_tail ? "true" : "false", static_cast<long long>(rec.micros));
  return (torn + mismatches + missing + rejected) == 0 ? 0 : 1;
}

// On-demand full scrub: CRC-verify every heap page of both tables against
// the bytes on disk (the paced background scrubber runs the same pass in
// slices). Bad pages are quarantined in-process; the JSON carries the
// verdict. Note: pages already quarantined while opening the store count in
// quarantined_pages, not errors_found — disk_torture.sh accepts either.
int CmdScrub(const Args& args) {
  auto nm = OpenFromArgs(args);
  if (!nm.ok()) return Fail(nm.status().ToString());
  const xmlstore::XmlStore* store = (*nm)->store();
  xmlstore::XmlStore::ScrubStats stats = store->ScrubAll();
  std::printf(
      "{\"pages_scanned\":%llu,\"errors_found\":%llu,"
      "\"quarantined_pages\":%llu,\"quarantined_docs\":%llu}\n",
      static_cast<unsigned long long>(stats.pages_scanned),
      static_cast<unsigned long long>(stats.errors_found),
      static_cast<unsigned long long>(store->quarantined_pages()),
      static_cast<unsigned long long>(store->quarantined_doc_count()));
  return 0;
}

// Flips one byte of one on-disk heap page, bypassing the store entirely —
// the simulated bit-rot that `netmark scrub` must then catch. Offset 64
// lands in record payload by default (past the 12-byte header, before the
// CRC trailer).
int CmdCorrupt(const Args& args) {
  auto data_it = args.flags.find("data");
  if (data_it == args.flags.end()) return Fail("--data DIR is required");
  std::string table = "XML";
  auto table_it = args.flags.find("table");
  if (table_it != args.flags.end()) table = table_it->second;
  if (table != "XML" && table != "DOC") return Fail("--table must be XML or DOC");
  int64_t page = 0, offset = 64;
  auto page_it = args.flags.find("page");
  if (page_it != args.flags.end()) {
    auto parsed = ParseInt64(page_it->second);
    if (!parsed.ok() || *parsed < 0) return Fail("bad --page value");
    page = *parsed;
  }
  auto offset_it = args.flags.find("offset");
  if (offset_it != args.flags.end()) {
    auto parsed = ParseInt64(offset_it->second);
    if (!parsed.ok() || *parsed < 0 ||
        *parsed >= static_cast<int64_t>(storage::kPageSize)) {
      return Fail("bad --offset value");
    }
    offset = *parsed;
  }
  std::string path =
      (std::filesystem::path(data_it->second) / (table + ".heap")).string();
  auto content = ReadFile(path);
  if (!content.ok()) return Fail(content.status().ToString());
  size_t at = static_cast<size_t>(page) * storage::kPageSize +
              static_cast<size_t>(offset);
  if (at >= content->size()) {
    return Fail("page " + std::to_string(page) + " is past EOF of " + path);
  }
  (*content)[at] ^= 0x5A;
  Status st = WriteFileAtomic(path, *content);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("flipped byte %lld of page %lld in %s\n",
              static_cast<long long>(offset), static_cast<long long>(page),
              path.c_str());
  return 0;
}

int CmdRemote(const Args& args) {
  auto host = args.flags.count("host") ? args.flags.at("host") : "127.0.0.1";
  if (args.flags.count("port") == 0) return Fail("--port is required");
  auto port = ParseInt64(args.flags.at("port"));
  if (!port.ok() || *port <= 0 || *port > 65535) return Fail("bad --port value");
  if (args.positional.size() != 1) return Fail("expected one QUERY string");
  server::HttpClient client(host, static_cast<uint16_t>(*port));
  auto resp = client.Get("/xdb?" + args.positional[0]);
  if (!resp.ok()) return Fail(resp.status().ToString());
  if (resp->status != 200) {
    return Fail("HTTP " + std::to_string(resp->status) + ": " + resp->body);
  }
  std::printf("%s\n", resp->body.c_str());
  return 0;
}

/// Renders the <span> children of `el` as an indented flame view: children
/// nested under parents, durations in a fixed column so the eye can scan
/// for the wide frame.
void PrintSpanTree(const xml::Document& doc, xml::NodeId el, int depth) {
  for (xml::NodeId child = doc.first_child(el); child != xml::kInvalidNode;
       child = doc.next_sibling(child)) {
    if (doc.kind(child) != xml::NodeKind::kElement || doc.name(child) != "span") {
      continue;
    }
    std::string label(static_cast<size_t>(2 * depth), ' ');
    label += std::string(doc.GetAttribute(child, "name"));
    std::string tags;
    if (doc.GetAttribute(child, "ok") == "false") tags += "  FAILED";
    if (doc.GetAttribute(child, "unfinished") == "true") tags += "  unfinished";
    if (doc.GetAttribute(child, "remote") == "true") tags += "  [remote]";
    std::string note(doc.GetAttribute(child, "note"));
    if (!note.empty()) tags += "  (" + note + ")";
    std::printf("%-44s %10s us%s\n", label.c_str(),
                std::string(doc.GetAttribute(child, "us")).c_str(), tags.c_str());
    PrintSpanTree(doc, child, depth + 1);
  }
}

int CmdTraces(const Args& args) {
  auto host = args.flags.count("host") ? args.flags.at("host") : "127.0.0.1";
  if (args.flags.count("port") == 0) return Fail("--port is required");
  auto port = ParseInt64(args.flags.at("port"));
  if (!port.ok() || *port <= 0 || *port > 65535) return Fail("bad --port value");
  server::HttpClient client(host, static_cast<uint16_t>(*port));
  auto id_flag = args.flags.find("id");
  if (id_flag == args.flags.end()) {
    auto resp = client.Get("/traces");
    if (!resp.ok()) return Fail(resp.status().ToString());
    if (resp->status != 200) {
      return Fail("HTTP " + std::to_string(resp->status) + ": " + resp->body);
    }
    std::printf("%s\n", resp->body.c_str());
    return 0;
  }
  auto resp = client.Get("/traces?id=" + id_flag->second + "&format=xml");
  if (!resp.ok()) return Fail(resp.status().ToString());
  if (resp->status != 200) {
    return Fail("HTTP " + std::to_string(resp->status) + ": " + resp->body);
  }
  auto doc = xml::ParseXml(resp->body);
  if (!doc.ok()) return Fail(doc.status().ToString());
  xml::NodeId root = doc->DocumentElement();
  xml::NodeId trace_el = root != xml::kInvalidNode
                             ? doc->FirstChildElement(root, "trace")
                             : xml::kInvalidNode;
  if (trace_el == xml::kInvalidNode) {
    return Fail("response carried no <trace> block");
  }
  std::printf("trace %s  total %s us\n",
              std::string(doc->GetAttribute(root, "id")).c_str(),
              std::string(doc->GetAttribute(trace_el, "total_us")).c_str());
  PrintSpanTree(*doc, trace_el, 1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Args args = ParseArgs(argc, argv, 2);
  if (command == "ingest") return CmdIngest(args);
  if (command == "ls") return CmdLs(args);
  if (command == "get") return CmdGet(args);
  if (command == "rm") return CmdRm(args);
  if (command == "query") return CmdQuery(args);
  if (command == "serve") return CmdServe(args);
  if (command == "remote") return CmdRemote(args);
  if (command == "traces") return CmdTraces(args);
  if (command == "torture-gen") return CmdTortureGen(args);
  if (command == "torture-ingest") return CmdTortureIngest(args);
  if (command == "torture-verify") return CmdTortureVerify(args);
  if (command == "scrub") return CmdScrub(args);
  if (command == "corrupt") return CmdCorrupt(args);
  return Usage();
}
