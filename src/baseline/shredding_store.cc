#include "baseline/shredding_store.h"

#include <algorithm>

#include "common/string_util.h"

namespace netmark::baseline {

using storage::ColumnSchema;
using storage::IndexKey;
using storage::Row;
using storage::RowId;
using storage::TableSchema;
using storage::Value;
using storage::ValueType;

namespace {

// Shredded element/text row columns (same layout in every per-tag table).
enum ShredColumn : size_t {
  kDocId = 0,
  kElemId = 1,
  kParentId = 2,
  kTag = 3,
  kAttrs = 4,
  kText = 5,
};

TableSchema ShredSchema(const std::string& table_name) {
  return TableSchema(table_name,
                     {
                         ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                         ColumnSchema{"ELEM_ID", ValueType::kInt64, false},
                         ColumnSchema{"PARENT_ID", ValueType::kInt64, false},
                         ColumnSchema{"TAG", ValueType::kString, false},
                         ColumnSchema{"ATTRS", ValueType::kString, true},
                         ColumnSchema{"TEXT", ValueType::kString, true},
                     });
}

constexpr const char* kDocsTable = "shred_docs";

}  // namespace

std::string SanitizeTag(std::string_view tag) {
  std::string out;
  out.reserve(tag.size());
  for (char c : tag) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += '_';
    }
  }
  if (out.empty()) out = "tag";
  return out;
}

std::string ShreddingStore::TableNameFor(const std::string& type,
                                         const std::string& tag) {
  return "S_" + SanitizeTag(type) + "__" + SanitizeTag(tag);
}

netmark::Result<std::unique_ptr<ShreddingStore>> ShreddingStore::Open(
    const std::string& dir) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<storage::Database> db,
                           storage::Database::Open(dir));
  std::unique_ptr<ShreddingStore> store(new ShreddingStore(std::move(db)));
  NETMARK_RETURN_NOT_OK(store->EnsureCatalogTables());
  // Recover known tags and the doc-id counter.
  for (const std::string& table : store->db_->TableNames()) {
    if (!netmark::StartsWith(table, "S_")) continue;
    size_t sep = table.find("__");
    if (sep == std::string::npos) continue;
    store->known_tags_[table.substr(2, sep - 2)].insert(table.substr(sep + 2));
  }
  NETMARK_RETURN_NOT_OK(store->docs_table_->Scan(
      [&](RowId, const Row& row) -> netmark::Status {
        store->next_doc_id_ = std::max(store->next_doc_id_, row[0].AsInt() + 1);
        return netmark::Status::OK();
      }));
  return store;
}

netmark::Status ShreddingStore::EnsureCatalogTables() {
  if (!db_->HasTable(kDocsTable)) {
    NETMARK_RETURN_NOT_OK(
        db_->CreateTable(
               TableSchema(kDocsTable,
                           {
                               ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                               ColumnSchema{"TYPE", ValueType::kString, false},
                               ColumnSchema{"FILE_NAME", ValueType::kString, false},
                           }))
            .status());
    NETMARK_RETURN_NOT_OK(db_->CreateIndex(kDocsTable, "shred_docs_by_id", {"DOC_ID"}));
  }
  NETMARK_ASSIGN_OR_RETURN(docs_table_, db_->GetTable(kDocsTable));
  return netmark::Status::OK();
}

netmark::Result<storage::Table*> ShreddingStore::EnsureTagTable(
    const std::string& type, const std::string& tag) {
  std::string table_name = TableNameFor(type, tag);
  if (!db_->HasTable(table_name)) {
    // The DDL the schema-centric design pays per element type.
    NETMARK_RETURN_NOT_OK(db_->CreateTable(ShredSchema(table_name)).status());
    NETMARK_RETURN_NOT_OK(
        db_->CreateIndex(table_name, table_name + "_by_doc", {"DOC_ID", "ELEM_ID"}));
    known_tags_[SanitizeTag(type)].insert(SanitizeTag(tag));
  }
  return db_->GetTable(table_name);
}

netmark::Result<int64_t> ShreddingStore::InsertDocument(
    const xml::Document& doc, const xmlstore::DocumentInfo& info) {
  NETMARK_RETURN_NOT_OK(db_->BeginTransaction());
  netmark::Result<int64_t> doc_id = ShredDocument(doc, info);
  if (!doc_id.ok()) {
    db_->AbandonTransaction();
    return doc_id;
  }
  NETMARK_RETURN_NOT_OK(db_->CommitTransaction());
  return doc_id;
}

netmark::Result<int64_t> ShreddingStore::ShredDocument(
    const xml::Document& doc, const xmlstore::DocumentInfo& info) {
  xml::NodeId root = doc.DocumentElement();
  if (root == xml::kInvalidNode) {
    return netmark::Status::InvalidArgument("document has no root element");
  }
  std::string type = doc.name(root);
  int64_t doc_id = next_doc_id_++;
  NETMARK_RETURN_NOT_OK(docs_table_
                            ->Insert({Value::Int(doc_id), Value::Str(type),
                                      Value::Str(info.file_name)})
                            .status());

  // Shred: pre-order walk; elements go to their tag table, text/cdata rows
  // to the per-type "#text" table.
  struct Frame {
    xml::NodeId node;
    int64_t parent_elem;
  };
  std::vector<Frame> stack;
  std::vector<xml::NodeId> top = doc.Children(doc.root());
  for (auto it = top.rbegin(); it != top.rend(); ++it) stack.push_back({*it, 0});
  int64_t next_elem = 1;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    xml::NodeKind kind = doc.kind(f.node);
    if (kind != xml::NodeKind::kElement && kind != xml::NodeKind::kText &&
        kind != xml::NodeKind::kCData) {
      continue;  // baseline drops comments/PIs (it is a caricature, but a fair one)
    }
    int64_t elem_id = next_elem++;
    std::string tag =
        kind == xml::NodeKind::kElement ? doc.name(f.node) : "#text";
    NETMARK_ASSIGN_OR_RETURN(storage::Table * table, EnsureTagTable(type, tag));
    Row row;
    row.push_back(Value::Int(doc_id));
    row.push_back(Value::Int(elem_id));
    row.push_back(Value::Int(f.parent_elem));
    row.push_back(Value::Str(tag));
    if (kind == xml::NodeKind::kElement) {
      std::string attrs = xmlstore::EncodeAttributes(doc.attributes(f.node));
      row.push_back(attrs.empty() ? Value::Null() : Value::Str(attrs));
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Null());
      row.push_back(Value::Str(doc.data(f.node)));
    }
    NETMARK_RETURN_NOT_OK(table->Insert(row).status());
    if (kind == xml::NodeKind::kElement) {
      std::vector<xml::NodeId> kids = doc.Children(f.node);
      for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
        stack.push_back({*it, elem_id});
      }
    }
  }
  return doc_id;
}

netmark::Result<xml::Document> ShreddingStore::Reconstruct(int64_t doc_id) {
  // Find the type.
  NETMARK_ASSIGN_OR_RETURN(
      std::vector<RowId> doc_rows,
      docs_table_->IndexLookup("shred_docs_by_id", IndexKey{Value::Int(doc_id)}));
  if (doc_rows.empty()) {
    return netmark::Status::NotFound("no shredded document " + std::to_string(doc_id));
  }
  NETMARK_ASSIGN_OR_RETURN(Row doc_row, docs_table_->Get(doc_rows[0]));
  std::string type = SanitizeTag(doc_row[1].AsStr());

  // Gather rows from every table of this type — the reassembly join the
  // shredding design pays at read time.
  struct Shred {
    int64_t elem_id;
    int64_t parent;
    std::string tag;
    std::string attrs;
    std::string text;
    bool is_text;
  };
  std::vector<Shred> shreds;
  auto it = known_tags_.find(type);
  if (it == known_tags_.end()) {
    return netmark::Status::Corruption("no tables for type " + type);
  }
  for (const std::string& tag : it->second) {
    std::string table_name = "S_" + type + "__" + tag;
    NETMARK_ASSIGN_OR_RETURN(storage::Table * table, db_->GetTable(table_name));
    NETMARK_ASSIGN_OR_RETURN(
        std::vector<RowId> rows,
        table->IndexPrefix(table_name + "_by_doc", IndexKey{Value::Int(doc_id)}));
    for (RowId rid : rows) {
      NETMARK_ASSIGN_OR_RETURN(Row row, table->Get(rid));
      Shred s;
      s.elem_id = row[kElemId].AsInt();
      s.parent = row[kParentId].AsInt();
      s.tag = row[kTag].AsStr();
      s.is_text = s.tag == "#text";
      if (!row[kAttrs].is_null()) s.attrs = row[kAttrs].AsStr();
      if (!row[kText].is_null()) s.text = row[kText].AsStr();
      shreds.push_back(std::move(s));
    }
  }
  std::sort(shreds.begin(), shreds.end(),
            [](const Shred& a, const Shred& b) { return a.elem_id < b.elem_id; });

  xml::Document out;
  std::map<int64_t, xml::NodeId> by_elem;
  for (const Shred& s : shreds) {
    xml::NodeId parent = s.parent == 0 ? out.root() : by_elem.at(s.parent);
    xml::NodeId node;
    if (s.is_text) {
      node = out.CreateText(s.text);
    } else {
      node = out.CreateElement(s.tag);
      auto attrs = xmlstore::DecodeAttributes(s.attrs);
      if (attrs.ok()) {
        for (xml::Attribute& a : *attrs) {
          out.AddAttribute(node, std::move(a.name), std::move(a.value));
        }
      }
    }
    out.AppendChild(parent, node);
    by_elem[s.elem_id] = node;
  }
  return out;
}

uint64_t ShreddingStore::document_count() const { return docs_table_->row_count(); }

size_t ShreddingStore::table_count() const {
  size_t count = 0;
  for (const std::string& table : db_->TableNames()) {
    if (netmark::StartsWith(table, "S_")) ++count;
  }
  return count;
}

}  // namespace netmark::baseline
