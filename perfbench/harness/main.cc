// netmark_perfbench: one workload, one run.
//
//   netmark_perfbench --workload xdb_read --seed 7 --seconds 10 --trace 0
//                     --workdir .bench_build/work
//
// Prints a human-readable report, then as its last stdout line the result
// JSON: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/clock.h"
#include "harness/workload.h"

namespace {

using namespace perfbench;

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--p99-limit-ms") {
      args.p99_limit_ms = std::strtod(value.c_str(), nullptr);
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.workdir.empty()) Die("--workdir is required");
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> Make(const Args& args) {
  if (args.workload == "xdb_read") return MakeXdbRead(args);
  if (args.workload == "edit_churn") return MakeEditChurn(args);
  if (args.workload == "ingest") return MakeIngest(args);
  if (args.workload == "federated") return MakeFederated(args);
  Die("unknown workload '" + args.workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = Make(args);

  // Several complete set-ups, each from an empty directory; the last one is
  // kept for the run. setup_s is their median.
  const int reps = args.trace ? 1 : 5;
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) workload->Teardown();
    const fs::path dir = args.workdir / ("setup" + std::to_string(rep));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    netmark::Stopwatch watch;
    workload->Setup(dir);
    setup_seconds.push_back(watch.ElapsedSeconds());
  }

  RunResult result = args.trace ? workload->Trace() : workload->Run();
  workload->Teardown();

  if (!args.trace) {
    result.metrics["setup_s"] = {Median(setup_seconds), "s"};
    result.metrics["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  if (!args.trace) {
    std::printf("%s\n", Line("setup_s", result.metrics["setup_s"].value, "s",
                             "median of " + std::to_string(reps) + " set-ups")
                            .c_str());
    std::printf("%s\n", Line("peak_rss_mb", result.metrics["peak_rss_mb"].value, "MiB").c_str());
  }
  std::printf("%s\n", Line("failed_ratio",
                           result.attempted == 0
                               ? 1.0
                               : static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted),
                           "ratio", std::to_string(result.failed) + " of " +
                                        std::to_string(result.attempted))
                          .c_str());
  std::printf("verdict: %s\n", correct ? "correct" : "INCORRECT");
  std::printf("%s\n", ResultJson(correct, result.attempted, result.failed, result.metrics).c_str());
  std::fflush(stdout);
  return 0;
}
