#include "xmlstore/node_record.h"

#include <limits>

#include "common/string_util.h"

namespace netmark::xmlstore {

using storage::ColumnSchema;
using storage::Row;
using storage::RowId;
using storage::TableSchema;
using storage::Value;
using storage::ValueType;

namespace {

constexpr size_t kNodeColumns = 9;

bool IsStringColumn(size_t col) {
  return col == NodeRecord::kNodeName || col == NodeRecord::kNodeData;
}

netmark::Status WrongColumnType(size_t col) {
  return netmark::Status::Corruption(
      netmark::StringPrintf("XML row column %zu has the wrong type", col));
}

/// NODETYPE is range-checked on its full 64-bit value.
netmark::Result<xml::NetmarkNodeType> NodeTypeFromColumn(int64_t v) {
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    return netmark::Status::Corruption(netmark::StringPrintf(
        "bad NODETYPE value %lld", static_cast<long long>(v)));
  }
  return xml::NetmarkNodeTypeFromInt(static_cast<int32_t>(v));
}

/// Fills the header fields from the seven int columns (indexed by Column).
netmark::Status SetHeader(const int64_t (&ints)[kNodeColumns], NodeHeader* h) {
  h->node_id = ints[NodeRecord::kNodeId];
  h->doc_id = ints[NodeRecord::kDocId];
  h->parent_rowid = RowId::Unpack(static_cast<uint64_t>(ints[NodeRecord::kParentRowId]));
  h->parent_node_id = ints[NodeRecord::kParentNodeId];
  NETMARK_ASSIGN_OR_RETURN(h->node_type, NodeTypeFromColumn(ints[NodeRecord::kNodeType]));
  h->sibling_rowid = RowId::Unpack(static_cast<uint64_t>(ints[NodeRecord::kSiblingId]));
  h->prev_rowid = RowId::Unpack(static_cast<uint64_t>(ints[NodeRecord::kPrevRowId]));
  return netmark::Status::OK();
}

/// The one pass behind both decoders: fills `h`, and NODENAME/NODEDATA
/// into `name`/`data` unless they are null (the structural decode).
netmark::Status DecodeNodeRow(std::string_view bytes, NodeHeader* h, std::string* name,
                              std::string* data) {
  storage::RowReader in(bytes);
  uint64_t arity = 0;
  NETMARK_RETURN_NOT_OK(in.ReadCount(&arity));
  if (arity != kNodeColumns) {
    return netmark::Status::Corruption("XML row has wrong arity");
  }
  int64_t ints[kNodeColumns] = {};
  for (size_t col = 0; col < kNodeColumns; ++col) {
    ValueType tag = ValueType::kNull;
    NETMARK_RETURN_NOT_OK(in.ReadTag(&tag));
    if (IsStringColumn(col)) {
      std::string* out = col == NodeRecord::kNodeName ? name : data;
      if (tag == ValueType::kNull) {
        if (out != nullptr) out->clear();
        continue;
      }
      if (tag != ValueType::kString) return WrongColumnType(col);
      std::string_view text;
      NETMARK_RETURN_NOT_OK(in.ReadString(&text));
      if (out != nullptr) out->assign(text);
      continue;
    }
    if (tag != ValueType::kInt64) return WrongColumnType(col);
    NETMARK_RETURN_NOT_OK(in.ReadInt(&ints[col]));
  }
  NETMARK_RETURN_NOT_OK(in.Finish());
  return SetHeader(ints, h);
}

}  // namespace

netmark::Result<NodeHeader> NodeHeader::Decode(std::string_view bytes) {
  NodeHeader h;
  NETMARK_RETURN_NOT_OK(DecodeNodeRow(bytes, &h, nullptr, nullptr));
  return h;
}

netmark::Result<NodeRecord> NodeRecord::Decode(std::string_view bytes) {
  NodeRecord r;
  NETMARK_RETURN_NOT_OK(DecodeNodeRow(bytes, &r, &r.node_name, &r.node_data));
  return r;
}

TableSchema NodeRecord::Schema() {
  return TableSchema(
      "XML", {
                 ColumnSchema{"NODEID", ValueType::kInt64, false},
                 ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                 ColumnSchema{"PARENTROWID", ValueType::kInt64, false},
                 ColumnSchema{"PARENTNODEID", ValueType::kInt64, false},
                 ColumnSchema{"NODETYPE", ValueType::kInt64, false},
                 ColumnSchema{"NODENAME", ValueType::kString, true},
                 ColumnSchema{"NODEDATA", ValueType::kString, true},
                 ColumnSchema{"SIBLINGID", ValueType::kInt64, false},
                 ColumnSchema{"PREVROWID", ValueType::kInt64, false},
             });
}

Row NodeRecord::ToRow() const {
  Row row;
  row.reserve(9);
  row.push_back(Value::Int(node_id));
  row.push_back(Value::Int(doc_id));
  row.push_back(Value::Int(static_cast<int64_t>(
      parent_rowid.valid() ? parent_rowid.Pack() : RowId::kInvalidPacked)));
  row.push_back(Value::Int(parent_node_id));
  row.push_back(Value::Int(static_cast<int64_t>(node_type)));
  row.push_back(node_name.empty() ? Value::Null() : Value::Str(node_name));
  row.push_back(node_data.empty() ? Value::Null() : Value::Str(node_data));
  row.push_back(Value::Int(static_cast<int64_t>(
      sibling_rowid.valid() ? sibling_rowid.Pack() : RowId::kInvalidPacked)));
  row.push_back(Value::Int(static_cast<int64_t>(
      prev_rowid.valid() ? prev_rowid.Pack() : RowId::kInvalidPacked)));
  return row;
}

netmark::Result<NodeRecord> NodeRecord::FromRow(const Row& row) {
  if (row.size() != kNodeColumns) {
    return netmark::Status::Corruption("XML row has wrong arity");
  }
  NodeRecord r;
  int64_t ints[kNodeColumns] = {};
  for (size_t col = 0; col < kNodeColumns; ++col) {
    const Value& v = row[col];
    if (IsStringColumn(col)) {
      if (v.is_null()) continue;
      if (v.type() != ValueType::kString) return WrongColumnType(col);
      (col == kNodeName ? r.node_name : r.node_data) = v.AsStr();
      continue;
    }
    if (v.type() != ValueType::kInt64) return WrongColumnType(col);
    ints[col] = v.AsInt();
  }
  NETMARK_RETURN_NOT_OK(SetHeader(ints, &r));
  return r;
}

TableSchema DocRecord::Schema() {
  return TableSchema("DOC", {
                                ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                                ColumnSchema{"FILE_NAME", ValueType::kString, false},
                                ColumnSchema{"FILE_DATE", ValueType::kInt64, false},
                                ColumnSchema{"FILE_SIZE", ValueType::kInt64, false},
                                ColumnSchema{"NODE_COUNT", ValueType::kInt64, false},
                            });
}

Row DocRecord::ToRow() const {
  Row row;
  row.reserve(5);
  row.push_back(Value::Int(doc_id));
  row.push_back(Value::Str(file_name));
  row.push_back(Value::Int(file_date));
  row.push_back(Value::Int(file_size));
  row.push_back(Value::Int(node_count));
  return row;
}

netmark::Result<DocRecord> DocRecord::FromRow(const Row& row) {
  // 4-column rows predate NODE_COUNT; 0 means "unknown" and disables the
  // reconstruction completeness check for that document.
  if (row.size() != 4 && row.size() != 5) {
    return netmark::Status::Corruption("DOC row has wrong arity");
  }
  DocRecord r;
  r.doc_id = row[kDocId].AsInt();
  r.file_name = row[kFileName].AsStr();
  r.file_date = row[kFileDate].AsInt();
  r.file_size = row[kFileSize].AsInt();
  if (row.size() > kNodeCount) r.node_count = row[kNodeCount].AsInt();
  return r;
}

}  // namespace netmark::xmlstore
