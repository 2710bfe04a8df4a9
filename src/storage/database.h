// Database: a directory of tables plus the catalog.
//
// The database also counts DDL statements (CREATE TABLE / CREATE INDEX): the
// paper's economic argument is that NETMARK needs a *constant* amount of DDL
// regardless of what documents arrive, while schema-centric stores pay DDL
// per document type. Benchmarks read this counter.
//
// Durability (docs/durability.md): with the write-ahead log enabled
// (default), mutations bracketed by Begin/CommitTransaction become crash
// atomic — commit stages every dirty page image on the log before any heap
// write, Checkpoint() flushes + fsyncs the heap files and truncates the log,
// and Open() replays committed log records automatically after a crash.
//
// Visibility (docs/mvcc.md): CommitTransaction publishes the transaction's
// pages under the next commit epoch, WAL or not; until then readers see the
// previous commit. Superseded page versions are reclaimed by the commit
// itself unless a caller that pins snapshot epochs takes over version GC.

#ifndef NETMARK_STORAGE_DATABASE_H_
#define NETMARK_STORAGE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "storage/catalog.h"
#include "storage/recovery.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace netmark::storage {

/// Durability knobs (the `[storage]` INI section maps onto this).
struct StorageOptions {
  /// Write-ahead logging + crash recovery. Off = the pre-WAL behavior:
  /// pages persist only on Flush/close, a crash can tear the tables.
  bool wal_enabled = true;
  /// When the log is fsynced (commit | batch | none).
  WalFsyncPolicy wal_fsync = WalFsyncPolicy::kCommit;
  /// Log size that triggers an automatic checkpoint (bytes).
  uint64_t checkpoint_bytes = 64ull << 20;
  /// File I/O environment for every storage file (heap, log, catalog);
  /// nullptr means Env::Default(). Tests and the disk-fault torture harness
  /// pass a FaultInjectingEnv.
  netmark::Env* env = nullptr;
  /// Verify each heap page's CRC32C trailer on read miss; mismatches
  /// quarantine the page (Status::DataLoss). Stamping on flush always
  /// happens, so this knob can be toggled freely across restarts.
  bool page_checksums = true;
  /// Background CRC scrub rate (pages/second; 0 disables the scrubber).
  /// Enforced by the XML store, which owns the scrubber thread.
  int scrub_pages_per_sec = 0;
  /// `[storage] on_fsync_error = abort`: _exit the process on the first
  /// failed WAL/heap fsync instead of degrading to read-only (fail-stop for
  /// operators who prefer a supervisor restart over a limping store).
  bool abort_on_fsync_error = false;
  /// `[storage] mvcc_gc_interval_ms`: background version-GC cadence.
  /// Enforced by the XML store, which owns the GC thread.
  int mvcc_gc_interval_ms = 50;
  /// `[storage] mvcc_max_retained_versions`: bound on published versions
  /// kept per page (0 = unlimited). Readers pinned before the surviving
  /// window get Status::SnapshotTooOld.
  int mvcc_max_retained_versions = 0;
};

/// \brief A set of tables persisted under one directory.
///
/// Not thread-safe; callers serialize mutations (the XML store holds a write
/// mutex across transaction scopes and checkpoints).
class Database {
 public:
  /// Opens (creating if needed) the database at `dir`. Existing tables are
  /// loaded and their indexes rebuilt. A non-empty write-ahead log from a
  /// crashed predecessor is recovered first (see recovery_stats()).
  static netmark::Result<std::unique_ptr<Database>> Open(
      const std::string& dir, const StorageOptions& options = {});

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// CREATE TABLE. Fails if the table exists.
  netmark::Result<Table*> CreateTable(TableSchema schema);
  /// Table handle, or NotFound.
  netmark::Result<Table*> GetTable(std::string_view name);
  bool HasTable(std::string_view name) const { return tables_.count(std::string(name)) != 0; }
  /// CREATE INDEX on an existing table.
  netmark::Status CreateIndex(std::string_view table, const std::string& index_name,
                              const std::vector<std::string>& columns);
  /// DROP TABLE (removes the heap file).
  netmark::Status DropTable(std::string_view name);

  std::vector<std::string> TableNames() const;

  // --- Transactions ------------------------------------------------------

  /// Opens a commit scope. Mutations until CommitTransaction() become
  /// visible — and, with the WAL on, durable — atomically. Fails if a
  /// transaction is already open. Readers never see a mutation made
  /// outside a transaction until a later commit (or, with the WAL on, a
  /// checkpoint) publishes it.
  netmark::Status BeginTransaction();
  /// With the WAL on, stages every page dirtied during the transaction on
  /// the log, appends a commit record, and fsyncs per the configured policy.
  /// Then publishes the transaction's pages under the next commit epoch
  /// (nothing is published when the log write fails).
  netmark::Status CommitTransaction();
  /// Abandons the open transaction: nothing reaches the log or is
  /// published. In-memory mutations are NOT rolled back (redo-only log); the
  /// abandoned rows are unreferenced and will be logged and published with
  /// the next committed transaction.
  void AbandonTransaction();
  bool in_transaction() const { return in_txn_; }

  /// True when the log has grown past StorageOptions::checkpoint_bytes.
  bool ShouldCheckpoint() const;
  /// Flushes + fsyncs all heap files and the catalog, then truncates the
  /// log. Refused while a transaction is open.
  netmark::Status Checkpoint();
  /// Group commit: fsyncs the log if the policy is kBatch (the ingestion
  /// daemon calls this once per sweep).
  netmark::Status SyncWal();

  // --- MVCC ---------------------------------------------------------------

  /// Epoch of the latest published commit (0 = the state at Open, WAL
  /// recovery included). Lock-free; safe from any thread. seq_cst on
  /// purpose: the reader pin protocol's claim-recheck and the GC's cap rely
  /// on epoch stores, pin writes, and pin scans sharing one total order
  /// (docs/mvcc.md).
  Epoch commit_epoch() const {
    return commit_epoch_.load(std::memory_order_seq_cst);
  }

  /// Hands version GC to the caller: from now on commits keep superseded
  /// page versions and sealed index removals until ReclaimVersions drops
  /// them. The XML store calls this at open, because its readers pin
  /// snapshot epochs. Without it, every commit reclaims everything it
  /// superseded — a plain Database has no pinned readers to keep it for.
  void TakeOverVersionGc() { reclaim_on_commit_ = false; }

  /// Version GC: drops page versions and applies sealed index removals that
  /// no pin in `pins` (sorted ascending, non-empty — it always contains the
  /// epoch that was current when the GC pass began) can see. `cap` is that
  /// pass-start epoch, bounding what the pager may drop (Pager::
  /// ReclaimVersions); the oldest pin (pins.front()) is the watermark for
  /// index removals. Returns the number of page versions reclaimed.
  uint64_t ReclaimVersions(const std::vector<Epoch>& pins, Epoch cap);

  /// Published page versions currently retained across all tables (gauge).
  uint64_t retained_versions() const;
  /// Total page versions dropped by GC or the retention cap (counter).
  uint64_t versions_reclaimed() const;

  // --- Degraded (read-only) mode -----------------------------------------
  //
  // After a failed WAL append/fsync or a failed checkpoint write, the store
  // stops accepting mutations: Begin/CommitTransaction and Checkpoint return
  // the degradation status (CapacityExceeded when the cause was a full disk,
  // Unavailable otherwise) while reads keep serving the last good state. No
  // acknowledgement is ever emitted after a failed fsync.

  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  /// Human-readable cause of the degradation (empty when healthy).
  std::string degraded_reason() const;
  /// The status mutations are rejected with while degraded.
  netmark::Status DegradedError() const;

  /// The log (null when disabled) — metrics and tests read its counters.
  const Wal* wal() const { return wal_.get(); }
  /// What recovery did at Open() (all zeros when the log was empty).
  const RecoveryStats& recovery_stats() const { return recovery_; }
  /// LSN the log had been truncated at during the last checkpoint.
  uint64_t last_checkpoint_lsn() const { return last_checkpoint_lsn_; }
  uint64_t checkpoints() const { return checkpoints_; }
  const StorageOptions& options() const { return options_; }

  /// Number of DDL statements executed over this database's lifetime
  /// (persisted in the catalog directory; see Fig 5 benchmark).
  uint64_t ddl_statements() const { return ddl_statements_; }

  /// Flushes all tables and the catalog. With the WAL enabled this is a full
  /// Checkpoint() so close never strands log-only data.
  netmark::Status Flush();

  const std::string& dir() const { return dir_; }

 private:
  explicit Database(std::string dir, StorageOptions options)
      : dir_(std::move(dir)), options_(options) {}
  std::string TableFilePath(std::string_view table) const;
  std::string CatalogPath() const;
  std::string DdlCounterPath() const;
  std::string WalPath() const;
  PagerOptions MakePagerOptions() const {
    PagerOptions po;
    po.env = options_.env;
    po.verify_checksums = options_.page_checksums;
    po.mvcc_max_retained_versions =
        options_.mvcc_max_retained_versions > 0
            ? static_cast<size_t>(options_.mvcc_max_retained_versions)
            : 0;
    return po;
  }
  /// Records the first failure that forces read-only mode (or aborts, per
  /// the on_fsync_error policy).
  void MarkDegraded(const netmark::Status& cause);
  /// Commit publication: atomically publishes every table's dirty working
  /// pages under the next epoch, seals queued index removals with it, and —
  /// unless a caller took over version GC — reclaims what it superseded.
  /// Writer thread only. Returns the new epoch.
  Epoch PublishVersions();
  /// WAL staging (and publication) of all pending dirty-since-mark images,
  /// run at the start of a checkpoint.
  netmark::Status StagePending();

  std::string dir_;
  StorageOptions options_;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
  uint64_t ddl_statements_ = 0;

  std::unique_ptr<Wal> wal_;  // null when wal_enabled is false
  RecoveryStats recovery_;
  uint64_t next_txn_id_ = 1;
  bool in_txn_ = false;
  uint64_t last_checkpoint_lsn_ = 0;
  uint64_t checkpoints_ = 0;
  bool reclaim_on_commit_ = true;
  std::atomic<Epoch> commit_epoch_{0};

  std::atomic<bool> degraded_{false};
  mutable std::mutex degraded_mu_;
  std::string degraded_reason_;       // guarded by degraded_mu_
  bool degraded_capacity_ = false;    // guarded by degraded_mu_
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_DATABASE_H_
