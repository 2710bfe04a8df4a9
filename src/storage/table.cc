#include "storage/table.h"

#include <algorithm>
#include <mutex>

namespace netmark::storage {

netmark::Result<std::unique_ptr<Table>> Table::Open(
    TableSchema schema, const std::string& file_path,
    const std::vector<IndexDef>& indexes, PagerOptions pager_options) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                           Pager::Open(file_path, pager_options));
  NETMARK_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Open(pager.get()));
  std::unique_ptr<Table> table(new Table(std::move(schema), std::move(pager),
                                         std::make_unique<HeapFile>(std::move(heap))));
  for (const IndexDef& def : indexes) {
    NETMARK_RETURN_NOT_OK(table->CreateIndex(def.name, def.columns));
  }
  return table;
}

IndexKey Table::ExtractKey(const Index& index, const Row& row) const {
  IndexKey key;
  key.reserve(index.column_indexes.size());
  for (size_t ci : index.column_indexes) key.push_back(row[ci]);
  return key;
}

netmark::Status Table::IndexInsert(const Row& row, RowId id) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    index.tree.Insert(ExtractKey(index, row), id);
  }
  return netmark::Status::OK();
}

void Table::DeferRemoval(const std::string& name, IndexKey key, RowId id) {
  PendingRemoval removal;
  removal.index = name;
  removal.key = std::move(key);
  removal.id = id;
  pending_removals_.push_back(std::move(removal));
}

netmark::Result<RowId> Table::Insert(const Row& row) {
  NETMARK_RETURN_NOT_OK(schema_.Validate(row));
  NETMARK_ASSIGN_OR_RETURN(RowId id, heap_->Insert(EncodeRow(row)));
  NETMARK_RETURN_NOT_OK(IndexInsert(row, id));
  return id;
}

netmark::Result<Row> Table::Get(RowId id, Epoch epoch) const {
  NETMARK_ASSIGN_OR_RETURN(std::string bytes, heap_->Get(id, epoch));
  return DecodeRow(bytes);
}

netmark::Status Table::Update(RowId id, const Row& row) {
  NETMARK_RETURN_NOT_OK(schema_.Validate(row));
  NETMARK_ASSIGN_OR_RETURN(Row old_row, Get(id, kWriterEpoch));
  NETMARK_RETURN_NOT_OK(heap_->Update(id, EncodeRow(row)));
  // Only touch B-trees whose key actually changed — updates to unindexed
  // columns (e.g. the XML store's sibling-link patches) skip all index work.
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    IndexKey old_key = ExtractKey(index, old_row);
    IndexKey new_key = ExtractKey(index, row);
    if (old_key == new_key) continue;
    // Snapshot readers may still resolve the row through its old key; the
    // removal applies after the commit epoch passes the GC watermark.
    DeferRemoval(name, std::move(old_key), id);
    index.tree.Insert(std::move(new_key), id);
  }
  return netmark::Status::OK();
}

netmark::Status Table::Delete(RowId id) {
  NETMARK_ASSIGN_OR_RETURN(Row old_row, Get(id, kWriterEpoch));
  NETMARK_RETURN_NOT_OK(heap_->Delete(id));
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [name, index] : indexes_) {
    DeferRemoval(name, ExtractKey(index, old_row), id);
  }
  return netmark::Status::OK();
}

netmark::Status Table::Scan(
    const std::function<netmark::Status(RowId, const Row&)>& fn,
    Epoch epoch) const {
  return heap_->Scan(
      [&](RowId id, std::string_view bytes) -> netmark::Status {
        NETMARK_ASSIGN_OR_RETURN(Row row, DecodeRow(bytes));
        return fn(id, row);
      },
      epoch);
}

netmark::Status Table::CreateIndex(const std::string& name,
                                   const std::vector<std::string>& columns) {
  if (indexes_.count(name) != 0) {
    return netmark::Status::AlreadyExists("index " + name + " already exists on " +
                                          schema_.name());
  }
  Index index;
  for (const std::string& col : columns) {
    NETMARK_ASSIGN_OR_RETURN(size_t ci, schema_.ColumnIndex(col));
    index.column_indexes.push_back(ci);
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  auto [it, inserted] = indexes_.emplace(name, std::move(index));
  Index& ix = it->second;
  // Build from existing rows — the writer's view, so rows of an in-flight
  // transaction are indexed like committed ones.
  netmark::Status st = Scan(
      [&](RowId id, const Row& row) -> netmark::Status {
        ix.tree.Insert(ExtractKey(ix, row), id);
        return netmark::Status::OK();
      },
      kWriterEpoch);
  if (!st.ok()) {
    indexes_.erase(it);
    return st;
  }
  return netmark::Status::OK();
}

std::vector<IndexDef> Table::IndexDefs() const {
  std::vector<IndexDef> out;
  for (const auto& [name, index] : indexes_) {
    IndexDef def;
    def.name = name;
    for (size_t ci : index.column_indexes) {
      def.columns.push_back(schema_.columns()[ci].name);
    }
    out.push_back(std::move(def));
  }
  return out;
}

netmark::Result<std::vector<RowId>> Table::VerifyCandidates(
    const Index& index, std::vector<RowId> candidates, Epoch epoch,
    const std::function<bool(const IndexKey&)>& matches) const {
  std::vector<RowId> out;
  out.reserve(candidates.size());
  for (RowId id : candidates) {
    auto row_or = Get(id, epoch);
    if (!row_or.ok()) {
      // Row invisible at this epoch: deleted, or inserted after it. Stale
      // tree entries (deferred removals, writer-latest inserts) fall out
      // here. Real faults (DataLoss etc.) still propagate.
      if (row_or.status().IsNotFound()) continue;
      return row_or.status();
    }
    if (matches(ExtractKey(index, *row_or))) out.push_back(id);
  }
  return out;
}

netmark::Result<std::vector<RowId>> Table::IndexLookup(const std::string& index,
                                                       const IndexKey& key,
                                                       Epoch epoch) const {
  auto it = indexes_.find(index);
  if (it == indexes_.end()) {
    return netmark::Status::NotFound("no index " + index + " on " + schema_.name());
  }
  std::vector<RowId> candidates;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    candidates = it->second.tree.Lookup(key);
  }
  return VerifyCandidates(it->second, std::move(candidates), epoch,
                          [&](const IndexKey& k) {
                            return CompareKeys(k, key) == 0;
                          });
}

netmark::Result<std::vector<RowId>> Table::IndexRange(const std::string& index,
                                                      const IndexKey& lo,
                                                      const IndexKey& hi,
                                                      Epoch epoch) const {
  auto it = indexes_.find(index);
  if (it == indexes_.end()) {
    return netmark::Status::NotFound("no index " + index + " on " + schema_.name());
  }
  std::vector<RowId> candidates;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    candidates = it->second.tree.Range(lo, hi);
  }
  return VerifyCandidates(it->second, std::move(candidates), epoch,
                          [&](const IndexKey& k) {
                            return CompareKeys(lo, k) <= 0 &&
                                   CompareKeys(k, hi) <= 0;
                          });
}

netmark::Result<std::vector<RowId>> Table::IndexPrefix(const std::string& index,
                                                       const IndexKey& prefix,
                                                       Epoch epoch) const {
  auto it = indexes_.find(index);
  if (it == indexes_.end()) {
    return netmark::Status::NotFound("no index " + index + " on " + schema_.name());
  }
  std::vector<RowId> candidates;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    candidates = it->second.tree.PrefixLookup(prefix);
  }
  return VerifyCandidates(it->second, std::move(candidates), epoch,
                          [&](const IndexKey& k) {
                            if (k.size() < prefix.size()) return false;
                            IndexKey head(k.begin(),
                                          k.begin() + static_cast<std::ptrdiff_t>(
                                                          prefix.size()));
                            return CompareKeys(head, prefix) == 0;
                          });
}

void Table::SealPendingRemovals(Epoch epoch) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (PendingRemoval& removal : pending_removals_) {
    if (!removal.sealed) {
      removal.sealed = true;
      removal.sealed_epoch = epoch;
    }
  }
}

uint64_t Table::ApplyPendingRemovals(Epoch watermark) {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  uint64_t applied = 0;
  auto keep = pending_removals_.begin();
  for (auto it = pending_removals_.begin(); it != pending_removals_.end(); ++it) {
    if (it->sealed && it->sealed_epoch <= watermark) {
      auto ix = indexes_.find(it->index);
      if (ix != indexes_.end()) ix->second.tree.Remove(it->key, it->id);
      ++applied;
      continue;
    }
    if (keep != it) *keep = std::move(*it);
    ++keep;
  }
  pending_removals_.erase(keep, pending_removals_.end());
  return applied;
}

uint64_t Table::pending_removals() const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return pending_removals_.size();
}

const BTree* Table::GetIndex(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : &it->second.tree;
}

}  // namespace netmark::storage
