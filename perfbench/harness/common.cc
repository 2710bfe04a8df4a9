#include "harness/common.h"

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

namespace perfbench {

using netmark::workload::GeneratedDoc;

void AddLatencyMetrics(const std::map<std::string, std::vector<double>>& by_class, RunResult* out) {
  const double p50 = ClassGeomean(by_class, 50);
  out->metrics["op_p50_ms"] = {p50, "ms"};
  for (const auto& [name, v] : by_class) {
    char line[200];
    std::snprintf(line, sizeof(line), "  class %-22s n=%-6zu p50 %9.3f  p75 %9.3f  p90 %9.3f  p99 %9.3f ms",
                  name.c_str(), v.size(), Percentile(v, 50), Percentile(v, 75), Percentile(v, 90),
                  Percentile(v, 99));
    out->report.push_back(line);
  }
  out->report.push_back(Line("op_p50_ms", p50, "ms", "geometric mean of the class p50s"));
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Check(const netmark::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

std::unique_ptr<netmark::Netmark> OpenNetmark(const fs::path& data_dir) {
  netmark::NetmarkOptions options;
  options.data_dir = data_dir.string();
  return Unwrap(netmark::Netmark::Open(options), "open " + data_dir.string());
}

void LoadDocs(netmark::Netmark* nm, const std::vector<GeneratedDoc>& docs) {
  for (const GeneratedDoc& doc : docs) {
    Check(nm->IngestContent(doc.file_name, doc.content).status(),
          "ingest " + doc.file_name);
  }
  // The load leaves page versions behind; reclaim them now, so that GC
  // work does not land in whatever is timed next.
  nm->store()->RunVersionGc();
}

std::map<std::string, int64_t> DocIds(netmark::Netmark* nm) {
  std::map<std::string, int64_t> ids;
  for (const auto& rec : Unwrap(nm->ListDocuments(), "list documents")) {
    ids[rec.file_name] = rec.doc_id;
  }
  return ids;
}

netmark::query::XdbQuery VocabularyMix::Next() {
  if (block_.empty()) {
    block_ = {0, 0, 0, 0, 1, 1, 1, 2, 2, 2};
    Shuffle(block_, rng_);
  }
  const int shape = block_.back();
  block_.pop_back();
  while (pending_[shape].empty()) {
    netmark::query::XdbQuery q = qw_.Next();
    const std::string shape = QueryShape(q);
    const int got = shape == "context" ? 0 : shape == "content" ? 1 : 2;
    q.limit = 20;
    pending_[got].push_back(std::move(q));
  }
  netmark::query::XdbQuery q = std::move(pending_[shape].front());
  pending_[shape].pop_front();
  return q;
}

std::string QueryShape(const netmark::query::XdbQuery& q) {
  if (q.content.empty()) return "context";
  return q.context.empty() ? "content" : "combined";
}

void ForEachDistinctParallel(const std::vector<std::string>& items, int threads,
                             const std::function<void(const std::string&)>& fn) {
  const std::set<std::string> distinct(items.begin(), items.end());
  const std::vector<std::string> todo(distinct.begin(), distinct.end());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < todo.size(); i = next++) fn(todo[i]);
    });
  }
  for (std::thread& t : pool) t.join();
}

const char kReportSheet[] =
    "<xsl:stylesheet>"
    "<xsl:template match=\"/\">"
    "<report count=\"{results/@count}\">"
    "<xsl:for-each select=\"results/result\"><xsl:sort select=\"@doc\"/>"
    "<section doc=\"{@doc}\"><h><xsl:value-of select=\"context\"/></h>"
    "<body><xsl:value-of select=\"content\"/></body></section>"
    "</xsl:for-each></report>"
    "</xsl:template>"
    "</xsl:stylesheet>";

namespace {

std::string Extension(const GeneratedDoc& doc) {
  return fs::path(doc.file_name).extension().string();
}

// The index the corpus generator stamped into the file name ("proposal_12.doc").
int NameIndex(const GeneratedDoc& doc) {
  std::string stem = fs::path(doc.file_name).stem().string();
  return std::atoi(stem.substr(stem.rfind('_') + 1).c_str());
}

}  // namespace

std::string UniqueToken(const GeneratedDoc& doc) {
  const std::string ext = Extension(doc);
  if (ext == ".doc") return "investigator" + std::to_string(NameIndex(doc));
  if (ext == ".csv") return "task" + std::to_string(NameIndex(doc) * 100);
  return "";
}

std::string FormatHeading(const GeneratedDoc& doc) {
  const std::string ext = Extension(doc);
  if (ext == ".doc") return "Technical Approach";
  if (ext == ".txt") return "Schedule";
  if (ext == ".html") return "Disposition";
  if (ext == ".xml") return "Recommendations";
  if (ext == ".md") return "Mitigation";
  return "";
}

std::string WithMarker(const GeneratedDoc& doc, const std::string& marker) {
  const std::string ext = Extension(doc);
  std::string out = doc.content;
  auto insert_before = [&](const std::string& closing, const std::string& text) {
    size_t at = out.rfind(closing);
    if (at == std::string::npos) at = out.size();
    out.insert(at, text);
  };
  if (ext == ".html") {
    insert_before("</BODY>", "<P>Revision " + marker + ".");
  } else if (ext == ".xml") {
    insert_before("</document>",
                  "<context>Revision</context><content>" + marker + "</content>");
  } else if (ext == ".csv") {
    out += marker + ",Safety,100,200\n";
  } else if (ext == ".doc") {
    out += "\n.font 11\nRevision " + marker + ".\n";
  } else {
    out += "\nRevision " + marker + ".\n";
  }
  return out;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void AddCpuMetric(double cpu_seconds, uint64_t ops, RunResult* out) {
  const double ms = ops == 0 ? 0 : cpu_seconds * 1000.0 / static_cast<double>(ops);
  out->metrics["cpu_ms_per_op"] = {ms, "ms"};
  out->report.push_back(Line("cpu_ms_per_op", ms, "ms", "process CPU per operation"));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  // "5" resets VmHWM to the current RSS (proc(5), clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::string Line(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-34s %14.4f %-8s %s", name.c_str(), value,
                unit.c_str(), note.c_str());
  return buf;
}

}  // namespace perfbench
