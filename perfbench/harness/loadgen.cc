#include "harness/loadgen.h"

#include <chrono>
#include <thread>

#include "harness/stats.h"

namespace perfbench {

namespace {

constexpr int64_t kSpinNs = 300000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<StreamResult> RunOpenLoop(uint16_t port,
                                      const std::vector<std::vector<ScheduledOp>>& streams,
                                      const std::vector<OpFn>& fns) {
  std::vector<StreamResult> results(streams.size());
  // Common start a little ahead, so thread start-up is not charged as lag.
  // Nanosecond clock: a microsecond one would read a zero lag exactly.
  const int64_t start = NowNs() + 20000000;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < streams.size(); ++s) {
    threads.emplace_back([&, s] {
      netmark::server::HttpClientOptions options;
      options.max_idle_connections = 1;
      netmark::server::HttpClient client("127.0.0.1", port, options);
      StreamResult& out = results[s];
      out.records.reserve(streams[s].size());
      for (const ScheduledOp& op : streams[s]) {
        const int64_t due = start + op.due_us * 1000;
        // Sleep to just short of the due time, then spin: a timer wake-up
        // can be late by a sizeable share of a sub-millisecond request, and
        // that lateness would be charged to the request.
        const int64_t now = NowNs();
        if (due - now > kSpinNs) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
        while (NowNs() < due) {
        }
        OpRecord rec;
        rec.cls = op.cls;
        rec.item = op.item;
        rec.due_us = op.due_us;
        rec.lag_us = static_cast<double>(LagMicros(due, NowNs())) / 1000.0;
        rec.ok = fns[s](op, client);
        rec.latency_us = static_cast<double>(NowNs() - due) / 1000.0;
        out.records.push_back(rec);
      }
      out.connections_opened = client.connections_opened();
      out.connections_reused = client.connections_reused();
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

std::map<std::string, std::vector<double>> LatencyByClass(
    const std::vector<StreamResult>& results, const std::function<std::string(const OpRecord&)>& label) {
  std::map<std::string, std::vector<double>> out;
  for (const StreamResult& r : results) {
    for (const OpRecord& rec : r.records) {
      out[label(rec)].push_back(rec.latency_us / 1000.0);
    }
  }
  return out;
}

LatencySummary Summarize(const std::vector<StreamResult>& results, int cls) {
  std::vector<double> latency, lag;
  LatencySummary out;
  for (const StreamResult& r : results) {
    for (const OpRecord& rec : r.records) {
      if (cls >= 0 && rec.cls != cls) continue;
      latency.push_back(rec.latency_us / 1000.0);
      lag.push_back(rec.lag_us / 1000.0);
      if (!rec.ok) ++out.failed;
    }
  }
  out.count = latency.size();
  out.p50_ms = Percentile(latency, 50);
  out.p99_ms = Percentile(latency, 99);
  out.lag_p99_ms = Percentile(lag, 99);
  return out;
}

}  // namespace perfbench
