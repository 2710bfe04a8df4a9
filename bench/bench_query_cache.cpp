// Result-cache benchmark: a Zipf-skewed repetitive XDB query mix through the
// executor, cache off vs cache on at a steady epoch, then cache on under
// epoch churn from a concurrent ingestion writer.
//
// The headline figure is the steady-epoch p50 speedup (the acceptance bar is
// >= 2x); the churn phase shows what invalidation-by-epoch costs when
// commits keep moving the key. Latencies are observed into
// netmark_query_cache_{off,on,churn}_micros histograms on the instance
// registry, so the regression gate can watch
// `--metric netmark_query_cache_on_micros`.
//
// Knobs: NETMARK_BENCH_QUERY_CACHE_SECONDS (per phase, default 1).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/result_cache.h"

namespace netmark {
namespace {

constexpr size_t kCorpusSize = 150;
constexpr size_t kQueryMixSize = 64;

/// Zipf-ranked query strings over the corpus's known headings and topic
/// vocabulary — the repetitive production traffic shape the cache targets.
std::vector<std::string> MakeQueryMix(uint64_t seed) {
  workload::CorpusGenerator gen(seed);
  const auto& headings = workload::CorpusGenerator::StandardHeadings();
  std::vector<std::string> mix;
  mix.reserve(kQueryMixSize);
  for (size_t i = 0; i < kQueryMixSize; ++i) {
    const std::string& heading = headings[i % headings.size()];
    std::string context;
    for (char c : heading) context += (c == ' ') ? '+' : c;
    switch (i % 3) {
      case 0:
        mix.push_back("context=" + context);
        break;
      case 1:
        mix.push_back("context=" + context + "&content=" + gen.RandomTopicTerm());
        break;
      default:
        mix.push_back("content=" + gen.RandomTopicTerm() + "&limit=10");
        break;
    }
  }
  return mix;
}

struct PhaseResult {
  uint64_t ops = 0;
  uint64_t failures = 0;
  double ops_per_sec = 0;
};

/// Closed loop on one thread: draw a Zipf rank, execute, observe latency.
PhaseResult RunPhase(const query::QueryExecutor& executor,
                     const std::vector<query::XdbQuery>& mix,
                     observability::Histogram* micros, double seconds,
                     uint64_t seed) {
  Rng rng(seed);
  PhaseResult result;
  int64_t t0 = MonotonicMicros();
  int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e6);
  while (MonotonicMicros() < deadline) {
    const query::XdbQuery& q = mix[rng.Zipf(mix.size())];
    int64_t start = MonotonicMicros();
    auto hits = executor.Execute(q);
    micros->Observe(MonotonicMicros() - start);
    if (hits.ok()) {
      ++result.ops;
    } else {
      ++result.failures;
    }
  }
  double elapsed = static_cast<double>(MonotonicMicros() - t0) / 1e6;
  result.ops_per_sec =
      elapsed > 0 ? static_cast<double>(result.ops) / elapsed : 0;
  return result;
}

}  // namespace
}  // namespace netmark

int main() {
  using namespace netmark;

  double seconds = 1.0;
  if (const char* env = std::getenv("NETMARK_BENCH_QUERY_CACHE_SECONDS")) {
    double parsed = std::atof(env);
    if (parsed > 0) seconds = parsed;
  }

  bench::LoadedInstance inst = bench::MakeLoadedInstance(kCorpusSize);
  observability::MetricsRegistry* registry = inst.nm->metrics();
  observability::Histogram* off_micros =
      registry->GetHistogram("netmark_query_cache_off_micros");
  observability::Histogram* on_micros =
      registry->GetHistogram("netmark_query_cache_on_micros");
  observability::Histogram* churn_micros =
      registry->GetHistogram("netmark_query_cache_churn_micros");

  std::vector<query::XdbQuery> mix;
  for (const std::string& qs : MakeQueryMix(11)) {
    mix.push_back(bench::Unwrap(query::ParseXdbQuery(qs), "parse query"));
  }

  // The service-owned caches, driven directly through an executor (no HTTP
  // in the way — this measures the read path itself).
  query::QueryExecutor executor(inst.nm->store());
  query::QueryResultCache* cache = inst.nm->service()->result_cache();
  query::QueryPlanCache* plans = inst.nm->service()->plan_cache();
  executor.set_result_cache(cache);
  executor.set_plan_cache(plans);

  bench::ReportHeader("XDB result cache (epoch-keyed)",
                      "repetitive query URLs answer from cache; commits "
                      "invalidate by epoch, not by locking");
  bench::JsonLines jsonl("query_cache");
  char config[160];
  std::snprintf(config, sizeof(config),
                "corpus=%zu,mix=%zu,zipf=1.0,seconds=%g", kCorpusSize,
                kQueryMixSize, seconds);
  jsonl.EmitConfig(config);

  std::printf("%-18s %10s %12s %10s %8s\n", "phase", "ops", "ops/s",
              "hit_ratio", "errors");
  auto report = [&](const char* phase, const PhaseResult& r, double hit_ratio) {
    std::printf("%-18s %10llu %12.0f %9.1f%% %8llu\n", phase,
                static_cast<unsigned long long>(r.ops), r.ops_per_sec,
                hit_ratio * 100.0, static_cast<unsigned long long>(r.failures));
    jsonl.Emit(phase, hit_ratio, r.ops > 0 ? 1e9 / r.ops_per_sec : 0,
               r.ops_per_sec, "queries/s");
  };

  // Phase 1: cache off (the pre-cache read path), steady epoch.
  {
    query::ResultCacheOptions off;
    off.max_entries = 0;
    cache->Configure(off);
    PhaseResult r = RunPhase(executor, mix, off_micros, seconds, 1);
    report("cache_off", r, 0.0);
  }

  // Phase 2: cache on, steady epoch — the headline speedup.
  {
    cache->Configure(query::ResultCacheOptions{});
    PhaseResult r = RunPhase(executor, mix, on_micros, seconds, 2);
    report("cache_on", r, cache->snapshot().hit_ratio);
  }

  // Phase 3: cache on under epoch churn — a writer commits ~50 docs/s, each
  // commit moving every key to a new epoch.
  {
    cache->Configure(query::ResultCacheOptions{});
    std::atomic<bool> stop_writer{false};
    std::thread writer([&] {
      workload::CorpusGenerator gen(7);
      size_t i = 0;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        auto doc = gen.MixedCorpus(1);
        bench::Check(inst.nm
                         ->IngestContent("bench-churn-" + std::to_string(i++) +
                                             ".txt",
                                         doc[0].content)
                         .status(),
                     "writer ingest");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    uint64_t hits_before = cache->snapshot().hits;
    uint64_t lookups_before =
        cache->snapshot().hits + cache->snapshot().misses;
    PhaseResult r = RunPhase(executor, mix, churn_micros, seconds, 3);
    stop_writer.store(true);
    writer.join();
    query::QueryResultCache::Snapshot snap = cache->snapshot();
    uint64_t lookups = snap.hits + snap.misses - lookups_before;
    double churn_ratio =
        lookups > 0
            ? static_cast<double>(snap.hits - hits_before) /
                  static_cast<double>(lookups)
            : 0;
    report("cache_on_churn", r, churn_ratio);
  }

  jsonl.EmitMetrics(*registry);

  observability::MetricsSnapshot snap = registry->Collect();
  double off_p50 = 0, on_p50 = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "netmark_query_cache_off_micros") off_p50 = h.p50;
    if (h.name == "netmark_query_cache_on_micros") on_p50 = h.p50;
  }
  double speedup = on_p50 > 0 ? off_p50 / on_p50 : 0;
  std::printf("steady-epoch p50: off=%.0fus on=%.0fus speedup=%.1fx "
              "(acceptance bar: >=2x)\n",
              off_p50, on_p50, speedup);
  std::printf("results: %s\n", jsonl.path().c_str());
  return 0;
}
