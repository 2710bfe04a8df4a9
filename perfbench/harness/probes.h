// Fixed probes the traced run adds to every workload, so each per-layer
// metric is measured on every workload: on the workloads a layer serves it
// should move, on the others the same probe shows it staying flat.

#ifndef PERFBENCH_HARNESS_PROBES_H_
#define PERFBENCH_HARNESS_PROBES_H_

#include <string>
#include <vector>

#include "harness/layers.h"
#include "workload/corpus.h"

namespace perfbench {

/// Documents ProbeWrites inserts (20 replaces + a 50-file drop batch).
constexpr uint64_t kProbeCommits = 70;

/// Write path on `nm`: 20 WebDAV-style replaces of corpus documents, then
/// one 50-file drop-folder sweep through IngestionDaemon::ProcessOnce.
void ProbeWrites(Layers& layers, netmark::Netmark* nm, const fs::path& dir,
                 const std::vector<netmark::workload::GeneratedDoc>& corpus, uint64_t seed);

/// Writes `docs` into `drop_dir` as files.
void DropFiles(const fs::path& drop_dir, const std::vector<netmark::workload::GeneratedDoc>& docs);

/// One sweep of `drop_dir` through IngestionDaemon::ProcessOnce with nproc
/// workers; records its wall time for the daemon busy ratios and returns
/// the files ingested.
int DaemonSweep(Layers& layers, netmark::Netmark* nm, const fs::path& drop_dir);

/// Federation path on `nm`'s router: a databank over the store itself, the
/// instance's own HTTP endpoint as a remote, and a 50-document content-only
/// source; `queries` replayed through it.
void ProbeFederation(Layers& layers, netmark::Netmark* nm, uint16_t port, uint64_t seed,
                     const std::vector<std::string>& queries);

/// Insert growth: p50 of the last `n` insert samples over the first `n`.
void SetInsertGrowth(Layers& layers, size_t first_n, size_t last_n);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBES_H_
