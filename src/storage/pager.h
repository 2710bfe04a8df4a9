// File-backed page manager.
//
// Pages are cached in memory once touched and written back on Flush/close.
// This favors the NETMARK workload (bulk document ingest, read-mostly
// querying) over strict memory bounds; an eviction policy could be added
// behind the same interface.
//
// Durability (docs/durability.md): the pager additionally tracks which pages
// were dirtied since the last TakeDirtySinceMark() call so the database's
// commit path can stage their images on the write-ahead log *before* any
// heap write. Flush never marks a page clean unless its bytes reached the
// file, and SyncToDisk() makes a completed flush durable.
//
// Disk faults (docs/durability.md): all file I/O goes through a
// netmark::Env, every page is CRC-stamped on flush and verified on read
// miss, and a page whose checksum does not match is *quarantined* — the read
// returns Status::DataLoss, the page is never cached or served, and the
// scrubber/healthz report it. Read errors (EIO) do not quarantine: the
// fault may be transient and the on-disk bytes may still be good.
//
// MVCC (docs/mvcc.md): the pager keeps, per page, a list of immutable
// *published* versions tagged with the commit epoch that produced them, plus
// at most one private *working* copy the single writer mutates. Fetch()
// hands the writer the working copy, lazily cloned from the latest published
// version (copy-on-write), while FetchAt(id, epoch) serves readers an
// immutable version without blocking on the writer. Publish(epoch) moves
// every dirty working copy into the published list under one short critical
// section; Flush() writes only published bytes, so WAL-before-heap ordering
// holds and an uncommitted write never reaches the file.
// ReclaimVersions() garbage-collects versions no pinned reader can see.

#ifndef NETMARK_STORAGE_PAGER_H_
#define NETMARK_STORAGE_PAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "storage/page.h"
#include "storage/row_id.h"

namespace netmark::storage {

/// Commit epoch tag on a published page version. Epoch 0 is the state a
/// page had on disk when the pager opened (including anything WAL recovery
/// replayed into the file); each commit publishes under the next epoch.
using Epoch = uint64_t;

/// Pseudo-epoch: "latest published state". An unpinned reader resolves to
/// the newest version of each page it touches (per-page atomic, not a
/// cross-page snapshot — pin a real epoch for that).
inline constexpr Epoch kLatestEpoch = ~static_cast<Epoch>(0);

/// Pseudo-epoch: the writer's own view — the private working copy when one
/// exists, else the latest published version. Only the (single) mutating
/// thread may read at this epoch; it is how a transaction sees its own
/// uncommitted writes.
inline constexpr Epoch kWriterEpoch = kLatestEpoch - 1;

struct PagerOptions {
  /// File I/O environment; nullptr means Env::Default().
  netmark::Env* env = nullptr;
  /// Verify the CRC32C trailer on every read miss. Stamping on flush is
  /// unconditional so the knob can be toggled freely.
  bool verify_checksums = true;
  /// Bound on published versions kept per page (0 = unlimited). When
  /// the cap forces a drop, readers pinned before the surviving window get
  /// Status::SnapshotTooOld.
  size_t mvcc_max_retained_versions = 0;
};

/// \brief Shared, read-only handle to one immutable page version.
///
/// Holds a reference on the underlying buffer, so the bytes stay valid even
/// if version GC retires the version concurrently.
class PageRef {
 public:
  PageRef() = default;
  explicit PageRef(std::shared_ptr<uint8_t[]> buf) : buf_(std::move(buf)) {}

  /// Page view over the buffer. Callers must treat it as read-only.
  Page page() const { return Page(buf_.get()); }
  const uint8_t* raw() const { return buf_.get(); }
  explicit operator bool() const { return buf_ != nullptr; }

 private:
  std::shared_ptr<uint8_t[]> buf_;
};

/// \brief Owns the page file: allocation, fetch, write-back.
///
/// Thread safety: Fetch()/FetchAt() may be called concurrently from many
/// reader threads (the concurrent serving path); the internal mutex guards
/// the version map and dirty bookkeeping. Returned buffers stay valid
/// without the lock (entries are never evicted and PageRefs are shared_ptr
/// references). Mutators (Allocate / Fetch / MarkDirty / Flush /
/// Publish / TakeDirtySinceMark) are additionally serialized by the
/// store-level writer lock, so they never race each other — but they do
/// share the map with readers, hence the mutex.
class Pager {
 public:
  /// Opens (creating if absent) the page file at `path`.
  static netmark::Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                                      PagerOptions options = {});

  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Number of pages in the file.
  PageId page_count() const { return page_count_.load(std::memory_order_acquire); }

  /// Allocates a fresh, zero-initialized page and returns its id. The page
  /// starts as an unpublished working copy: readers see NotFound for it
  /// (semantically an empty page) until the allocating transaction
  /// publishes.
  netmark::Result<PageId> Allocate();

  /// Fetches a page for *writing* (the single mutator thread): the private
  /// working copy, lazily cloned from the latest published version —
  /// readers never observe the returned bytes until Publish(). Returns
  /// Status::DataLoss for a quarantined page.
  netmark::Result<Page> Fetch(PageId id);

  /// Fetches an immutable version of a page for *reading*: the newest
  /// version tagged <= `epoch` (see kLatestEpoch / kWriterEpoch). Returns
  /// NotFound when the page was born after `epoch` (callers scan-skip),
  /// SnapshotTooOld when the version was dropped by the retention cap, and
  /// DataLoss for quarantined pages.
  netmark::Result<PageRef> FetchAt(PageId id, Epoch epoch);

  /// Marks a page dirty so the commit path stages it and Flush persists it.
  void MarkDirty(PageId id);

  /// Commit point: stamps every dirty working copy's checksum and publishes
  /// it as the `epoch` version of its page, atomically with respect to
  /// FetchAt. Clean working copies (fetched but never MarkDirty'd) are
  /// discarded.
  void Publish(Epoch epoch);

  /// Drops published versions no longer visible to any pin in `pins`
  /// (sorted ascending; must include the current commit epoch). A version
  /// is kept while some pin falls between its epoch and its successor's,
  /// and whenever its successor was published after `cap` (the commit epoch
  /// observed *before* the caller scanned for pins — this makes a pin that
  /// raced the scan safe; see docs/mvcc.md). The newest version of each
  /// page is always kept. Returns the number of versions reclaimed.
  uint64_t ReclaimVersions(const std::vector<Epoch>& pins, Epoch cap);

  /// Writes all dirty pages to disk, stamping each page's CRC trailer
  /// first. Only *published* bytes are written (working copies are
  /// invisible to Flush), preserving WAL-before-heap ordering. Every
  /// page is attempted even after a failure; a page whose write fails stays
  /// dirty for the next Flush, and the first error is returned.
  netmark::Status Flush();

  /// fdatasyncs the page file (call after a successful Flush to make a
  /// checkpoint durable).
  netmark::Status SyncToDisk();

  /// Pages dirtied since the previous call (sorted; cleared by the call).
  /// The commit path uses this to stage write-ahead-log images.
  std::vector<PageId> TakeDirtySinceMark();

  /// Re-reads one page from disk and checks its CRC (the scrubber's probe).
  /// Returns false — and quarantines the page — when a fresh corruption was
  /// found; true when the page verified, was dirty (the on-disk copy is
  /// legitimately stale) or was already quarantined.
  /// Read errors propagate as a Status without quarantining.
  netmark::Result<bool> VerifyOnDisk(PageId id);

  bool IsQuarantined(PageId id) const;
  /// Sorted ids of all quarantined pages.
  std::vector<PageId> QuarantinedPages() const;
  uint64_t quarantined_count() const;

  /// Count of pages read from disk (cache misses), for benchmarks.
  uint64_t pages_read() const { return pages_read_.load(std::memory_order_relaxed); }
  uint64_t pages_written() const {
    return pages_written_.load(std::memory_order_relaxed);
  }

  /// Published page versions currently held in memory (gauge).
  uint64_t retained_versions() const {
    return retained_versions_.load(std::memory_order_relaxed);
  }
  /// Total versions dropped by GC or the retention cap (counter).
  uint64_t versions_reclaimed() const {
    return versions_reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  /// One page's in-memory state: `versions` holds the immutable published
  /// history (ascending epoch tags; the back is current) and `working` the
  /// writer's private copy, if any.
  struct Entry {
    std::shared_ptr<uint8_t[]> working;
    std::vector<std::pair<Epoch, std::shared_ptr<uint8_t[]>>> versions;
    /// Working copy was actually mutated (MarkDirty) — Publish keeps it.
    bool working_dirty = false;
    /// Persistent image is newer than the file — Flush must write it.
    bool disk_dirty = false;
    /// Epoch tag of the first version this page ever had; a reader below it
    /// gets NotFound ("born later"), a reader at/above it whose version is
    /// gone gets SnapshotTooOld (retention cap).
    Epoch first_tag = 0;
  };

  Pager(std::unique_ptr<netmark::File> file, PageId page_count,
        const PagerOptions& options)
      : file_(std::move(file)),
        verify_checksums_(options.verify_checksums),
        max_retained_versions_(options.mvcc_max_retained_versions),
        page_count_(page_count) {}

  /// Loads (or finds) the Entry for `id`, reading and verifying from disk
  /// on a miss. Requires mu_ held.
  netmark::Result<Entry*> LoadEntryLocked(PageId id);
  /// Drops one published version (bookkeeping helper). Requires mu_ held.
  void DropVersionLocked(Entry& entry, size_t index);

  std::unique_ptr<netmark::File> file_;
  bool verify_checksums_;
  const size_t max_retained_versions_;  // 0 = unlimited
  std::atomic<PageId> page_count_{0};
  /// Guards entries_/dirty_since_mark_/quarantined_ against concurrent
  /// readers.
  mutable std::mutex mu_;
  std::unordered_map<PageId, Entry> entries_;
  std::set<PageId> dirty_since_mark_;
  std::set<PageId> quarantined_;
  std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> pages_written_{0};
  std::atomic<uint64_t> retained_versions_{0};
  std::atomic<uint64_t> versions_reclaimed_{0};
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_PAGER_H_
