// Table schemas and row encoding.

#ifndef NETMARK_STORAGE_SCHEMA_H_
#define NETMARK_STORAGE_SCHEMA_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace netmark::storage {

/// One column definition.
struct ColumnSchema {
  std::string name;
  ValueType type = ValueType::kString;
  bool nullable = true;
};

/// A row is simply a vector of cell values, positionally matching a schema.
using Row = std::vector<Value>;

/// \brief Ordered column list for a table.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string table_name, std::vector<ColumnSchema> columns)
      : name_(std::move(table_name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnSchema>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of a column by name, or NotFound.
  netmark::Result<size_t> ColumnIndex(std::string_view column) const;

  /// Checks a row against the schema (arity, types, nullability).
  netmark::Status Validate(const Row& row) const;

  /// One-line textual form for the catalog file:
  ///   name(col:TYPE[?],col:TYPE[?],...)   ('?' marks nullable)
  std::string Encode() const;
  static netmark::Result<TableSchema> Decode(std::string_view text);

 private:
  std::string name_;
  std::vector<ColumnSchema> columns_;
};

/// \brief Serializes a row to bytes (self-delimiting; independent of schema).
///
/// Layout: varint column count, then per value a ValueType tag byte and its
/// payload — zigzag varint (int), 8 raw bytes (double), varint length plus
/// bytes (string), nothing (null).
std::string EncodeRow(const Row& row);
/// \brief Decodes a row previously produced by EncodeRow.
netmark::Result<Row> DecodeRow(std::string_view bytes);

/// \brief Cursor over EncodeRow bytes. DecodeRow is built on it; decoders
/// that need only some columns, or want strings as views, read the bytes in
/// place with it instead of materializing a Row. Every read is bounds-checked
/// and fails with Corruption on malformed input.
class RowReader {
 public:
  explicit RowReader(std::string_view bytes) : bytes_(bytes) {}

  /// The leading column count.
  netmark::Status ReadCount(uint64_t* count) { return ReadVarint(count); }

  /// The next value's type tag (Corruption for an unknown tag).
  netmark::Status ReadTag(ValueType* type) {
    if (pos_ >= bytes_.size()) return Truncated("value");
    auto tag = static_cast<uint8_t>(bytes_[pos_]);
    if (tag > static_cast<uint8_t>(ValueType::kString)) return Malformed("unknown value tag");
    ++pos_;
    *type = static_cast<ValueType>(tag);
    return netmark::Status::OK();
  }

  /// The payload of a kInt64 value, after its tag.
  netmark::Status ReadInt(int64_t* value) {
    uint64_t raw = 0;
    NETMARK_RETURN_NOT_OK(ReadVarint(&raw));
    *value = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));  // zigzag
    return netmark::Status::OK();
  }

  /// The payload of a kDouble value, after its tag.
  netmark::Status ReadDouble(double* value);

  /// The payload of a kString value, after its tag, as a view into the bytes.
  netmark::Status ReadString(std::string_view* value) {
    uint64_t len = 0;
    NETMARK_RETURN_NOT_OK(ReadVarint(&len));
    if (len > remaining()) return Truncated("string");
    *value = bytes_.substr(pos_, len);
    pos_ += len;
    return netmark::Status::OK();
  }

  /// Corruption unless every byte has been read.
  netmark::Status Finish() const {
    if (pos_ != bytes_.size()) return Malformed("trailing bytes");
    return netmark::Status::OK();
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  netmark::Status ReadVarint(uint64_t* value) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= bytes_.size()) return Truncated("varint");
      auto b = static_cast<uint8_t>(bytes_[pos_++]);
      // The tenth byte holds bit 63 only; anything more overflows.
      if (shift == 63 && b > 1) break;
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *value = v;
        return netmark::Status::OK();
      }
    }
    return Malformed("varint overflows 64 bits");
  }

  // Out of line: only malformed rows build an error message.
  static netmark::Status Truncated(const char* what);
  static netmark::Status Malformed(const char* what);

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_SCHEMA_H_
