// Table: schema-checked rows over a heap file, with secondary B+Tree indexes.
//
// MVCC (docs/mvcc.md): the B+Trees are in-memory and writer-latest — entries
// appear at Insert time, before the commit publishes. The table therefore (a) *defers* index-entry removal: Delete/key-changed-Update queue
// the removal, the commit seals it with its epoch, and the GC applies it only
// once no pinned reader is older (so snapshot readers keep finding old rows
// through the index); and (b) *verifies* every index lookup against the heap
// at the reader's epoch — a candidate whose row is gone, not yet visible, or
// no longer matches the key at that epoch is silently dropped. Readers take
// index_mu_ shared per lookup; only mutators and the GC take it exclusive
// (both are short, bounded operations).

#ifndef NETMARK_STORAGE_TABLE_H_
#define NETMARK_STORAGE_TABLE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/btree.h"
#include "storage/heap_file.h"
#include "storage/pager.h"
#include "storage/schema.h"

namespace netmark::storage {

/// Definition of a secondary index.
struct IndexDef {
  std::string name;
  std::vector<std::string> columns;
};

/// \brief One relational table: typed rows addressed by RowId.
class Table {
 public:
  /// Opens (or creates) the table's heap file at `file_path`. Indexes in
  /// `indexes` are (re)built from a full scan. `pager_options` carries the
  /// I/O environment, the checksum-verification knob, and the per-page
  /// version retention cap.
  static netmark::Result<std::unique_ptr<Table>> Open(
      TableSchema schema, const std::string& file_path,
      const std::vector<IndexDef>& indexes = {}, PagerOptions pager_options = {});

  const TableSchema& schema() const { return schema_; }
  uint64_t row_count() const { return heap_->live_records(); }

  /// Validates against the schema and stores the row.
  netmark::Result<RowId> Insert(const Row& row);
  netmark::Result<Row> Get(RowId id, Epoch epoch = kLatestEpoch) const;
  netmark::Status Update(RowId id, const Row& row);
  netmark::Status Delete(RowId id);

  /// Visits every row live as of `epoch`. Stops on non-OK from `fn`.
  netmark::Status Scan(
      const std::function<netmark::Status(RowId, const Row&)>& fn,
      Epoch epoch = kLatestEpoch) const;

  /// Adds an index over `columns` and builds it from current rows.
  netmark::Status CreateIndex(const std::string& name,
                              const std::vector<std::string>& columns);
  bool HasIndex(const std::string& name) const { return indexes_.count(name) != 0; }
  std::vector<IndexDef> IndexDefs() const;

  /// Exact-match lookup on an index. Every candidate is verified
  /// against the heap at `epoch` (see the file comment).
  netmark::Result<std::vector<RowId>> IndexLookup(const std::string& index,
                                                  const IndexKey& key,
                                                  Epoch epoch = kLatestEpoch) const;
  /// Inclusive range lookup on an index.
  netmark::Result<std::vector<RowId>> IndexRange(const std::string& index,
                                                 const IndexKey& lo,
                                                 const IndexKey& hi,
                                                 Epoch epoch = kLatestEpoch) const;
  /// Prefix lookup (first k components equal) on an index.
  netmark::Result<std::vector<RowId>> IndexPrefix(const std::string& index,
                                                  const IndexKey& prefix,
                                                  Epoch epoch = kLatestEpoch) const;

  /// MVCC commit hook: stamps every queued index removal with the commit's
  /// epoch, making it eligible for ApplyPendingRemovals once no reader pins
  /// an older epoch. Called with the same epoch the pager publishes under.
  void SealPendingRemovals(Epoch epoch);

  /// MVCC GC hook: applies sealed removals whose epoch <= `watermark` (the
  /// oldest pinned epoch, or the current epoch when nothing is pinned).
  /// Returns the number applied.
  uint64_t ApplyPendingRemovals(Epoch watermark);

  /// Queued index removals not yet applied (tests/metrics).
  uint64_t pending_removals() const;

  /// Direct access to the underlying B+Tree (tests/benchmarks). Not
  /// synchronized against concurrent mutation.
  const BTree* GetIndex(const std::string& name) const;

  netmark::Status Flush() { return pager_->Flush(); }
  const Pager& pager() const { return *pager_; }
  /// Mutable pager access (the database's commit/checkpoint paths capture
  /// dirty pages for the write-ahead log and fsync the heap file).
  Pager* mutable_pager() { return pager_.get(); }

 private:
  struct Index {
    std::vector<size_t> column_indexes;
    BTree tree;
  };

  /// One deferred index-entry removal. Unsealed until the commit
  /// that made the removal visible publishes.
  struct PendingRemoval {
    std::string index;
    IndexKey key;
    RowId id;
    Epoch sealed_epoch = 0;
    bool sealed = false;
  };

  Table(TableSchema schema, std::unique_ptr<Pager> pager,
        std::unique_ptr<HeapFile> heap)
      : schema_(std::move(schema)), pager_(std::move(pager)), heap_(std::move(heap)) {}

  IndexKey ExtractKey(const Index& index, const Row& row) const;
  netmark::Status IndexInsert(const Row& row, RowId id);
  /// Queues removal of (key, id) from `name` (applied by the GC).
  void DeferRemoval(const std::string& name, IndexKey key, RowId id);
  /// Re-reads each candidate at `epoch` and keeps those whose extracted key
  /// satisfies `matches`. NotFound candidates are dropped; other errors
  /// propagate.
  netmark::Result<std::vector<RowId>> VerifyCandidates(
      const Index& index, std::vector<RowId> candidates, Epoch epoch,
      const std::function<bool(const IndexKey&)>& matches) const;

  TableSchema schema_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<HeapFile> heap_;
  /// Guards the B+Tree contents and pending_removals_ (the indexes_ map
  /// structure itself only changes in CreateIndex, at open time).
  mutable std::shared_mutex index_mu_;
  std::map<std::string, Index> indexes_;
  std::vector<PendingRemoval> pending_removals_;
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_TABLE_H_
