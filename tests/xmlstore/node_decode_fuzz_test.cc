// Fuzz-style robustness for the in-place XML-row decoders. Encoded node rows
// are mutated (truncations, wrong column tags, oversized varints, string
// lengths past the end, bad NODETYPE values, stray bytes); DecodeRow +
// NodeRecord::FromRow is the reference. On every row the reference accepts,
// NodeRecord::Decode and NodeHeader::Decode must agree with it field for
// field; on every row it rejects, both must return Corruption — and never
// read outside the row's bytes (each row is decoded from an exactly sized
// heap buffer, so ASan flags any overread).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "storage/schema.h"
#include "xmlstore/node_record.h"

namespace netmark::xmlstore {
namespace {

using storage::Row;
using storage::RowId;
using storage::Value;

std::string RandomText(netmark::Rng* rng) {
  static const std::string kChars = "abcXYZ019 <>&=\"'\n\t\xC3\xA9";
  std::string out;
  size_t len = rng->Uniform(4) == 0 ? 0 : rng->Uniform(300);
  for (size_t i = 0; i < len; ++i) out += kChars[rng->Uniform(kChars.size())];
  return out;
}

RowId RandomRowId(netmark::Rng* rng) {
  if (rng->Chance(0.3)) return storage::kInvalidRowId;
  return RowId(static_cast<storage::PageId>(rng->Uniform(1u << 20)),
               static_cast<uint16_t>(rng->Uniform(600)));
}

int64_t RandomId(netmark::Rng* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      return rng->UniformInt(0, 200);
    case 1:
      return rng->UniformInt(-5, 5);
    default:
      return static_cast<int64_t>(rng->Next());
  }
}

NodeRecord RandomNode(netmark::Rng* rng) {
  NodeRecord r;
  r.node_id = RandomId(rng);
  r.doc_id = RandomId(rng);
  r.parent_rowid = RandomRowId(rng);
  r.parent_node_id = RandomId(rng);
  r.node_type = static_cast<xml::NetmarkNodeType>(rng->UniformInt(1, 5));
  r.node_name = RandomText(rng);
  r.node_data = RandomText(rng);
  r.sibling_rowid = RandomRowId(rng);
  r.prev_rowid = RandomRowId(rng);
  return r;
}

/// A value of a different type than `v` (NULL, int, double or string).
Value OtherTypedValue(const Value& v, netmark::Rng* rng) {
  for (;;) {
    Value out;
    switch (rng->Uniform(4)) {
      case 0:
        out = Value::Null();
        break;
      case 1:
        out = Value::Int(RandomId(rng));
        break;
      case 2:
        out = Value::Real(0.5);
        break;
      default:
        out = Value::Str("x");
        break;
    }
    if (out.type() != v.type()) return out;
  }
}

/// Byte offset of column `col`'s tag in EncodeRow(row): the encoding of the
/// first `col` values (the count varint is one byte either way).
size_t ColumnOffset(const Row& row, size_t col) {
  return storage::EncodeRow(Row(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(col))).size();
}

/// One mutated (or, now and then, untouched) encoding of `rec`.
std::string MutatedRow(const NodeRecord& rec, netmark::Rng* rng) {
  Row row = rec.ToRow();
  switch (rng->Uniform(9)) {
    case 0:  // untouched
      return storage::EncodeRow(row);
    case 1: {  // one column re-typed (NULL/double/string in an int column...)
      size_t col = rng->Uniform(row.size());
      row[col] = OtherTypedValue(row[col], rng);
      return storage::EncodeRow(row);
    }
    case 2: {  // NODETYPE out of range, including past 32 bits
      static const int64_t kBad[] = {0, 6, -1, 255, (int64_t{1} << 32) + 1,
                                     std::numeric_limits<int64_t>::min()};
      row[NodeRecord::kNodeType] = Value::Int(kBad[rng->Uniform(6)]);
      return storage::EncodeRow(row);
    }
    case 3: {  // wrong arity
      if (rng->Chance(0.5)) {
        row.pop_back();
      } else {
        row.push_back(Value::Int(1));
      }
      return storage::EncodeRow(row);
    }
    case 4: {  // truncated anywhere
      std::string bytes = storage::EncodeRow(row);
      bytes.resize(rng->Uniform(bytes.size()));
      return bytes;
    }
    case 5: {  // tag byte flipped to any value
      size_t col = rng->Uniform(row.size());
      std::string bytes = storage::EncodeRow(row);
      bytes[ColumnOffset(row, col)] = static_cast<char>(rng->Uniform(256));
      return bytes;
    }
    case 6: {  // oversized varint (10+ bytes) as an int payload or the count
      std::string bytes = storage::EncodeRow(row);
      size_t at = 0;
      if (rng->Chance(0.7)) {
        size_t col = rng->Uniform(row.size());
        at = ColumnOffset(row, col) + 1;
      }
      std::string varint(9 + rng->Uniform(4), '\xFF');
      varint += static_cast<char>(rng->UniformInt(0x02, 0x7F));
      bytes.insert(at, varint);
      return bytes;
    }
    case 7: {  // a string length past the end
      size_t col = rng->Chance(0.5) ? NodeRecord::kNodeName : NodeRecord::kNodeData;
      row[col] = Value::Str("abc");
      std::string bytes = storage::EncodeRow(row);
      size_t len_at = ColumnOffset(row, col) + 1;
      static const char* const kLengths[] = {
          "\x7F", "\xFF\x7F", "\xFF\xFF\xFF\xFF\x0F",
          "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01"};
      bytes.replace(len_at, 1, kLengths[rng->Uniform(4)]);
      return bytes;
    }
    default: {  // random byte flips and stray trailing bytes
      std::string bytes = storage::EncodeRow(row);
      for (int i = 0, n = 1 + static_cast<int>(rng->Uniform(3)); i < n; ++i) {
        if (rng->Chance(0.3)) {
          bytes += static_cast<char>(rng->Uniform(256));
        } else if (!bytes.empty()) {
          bytes[rng->Uniform(bytes.size())] = static_cast<char>(rng->Uniform(256));
        }
      }
      return bytes;
    }
  }
}

void ExpectSameHeader(const NodeHeader& got, const NodeRecord& want) {
  EXPECT_EQ(got.node_id, want.node_id);
  EXPECT_EQ(got.doc_id, want.doc_id);
  EXPECT_EQ(got.parent_rowid, want.parent_rowid);
  EXPECT_EQ(got.parent_node_id, want.parent_node_id);
  EXPECT_EQ(got.node_type, want.node_type);
  EXPECT_EQ(got.sibling_rowid, want.sibling_rowid);
  EXPECT_EQ(got.prev_rowid, want.prev_rowid);
}

class NodeDecodeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NodeDecodeFuzzTest, InPlaceDecodersMatchRowDecodeOrReportCorruption) {
  netmark::Rng rng(GetParam());
  size_t valid = 0;
  size_t invalid = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = MutatedRow(RandomNode(&rng), &rng);
    // Exactly sized, so a read past the row's last byte leaves the block.
    std::unique_ptr<char[]> buffer(new char[mutated.size()]);
    std::memcpy(buffer.get(), mutated.data(), mutated.size());
    std::string_view bytes(buffer.get(), mutated.size());

    auto full = NodeRecord::Decode(bytes);
    auto header = NodeHeader::Decode(bytes);
    auto row = storage::DecodeRow(bytes);
    netmark::Result<NodeRecord> want =
        row.ok() ? NodeRecord::FromRow(*row) : netmark::Result<NodeRecord>(row.status());
    if (want.ok()) {
      ++valid;
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ASSERT_TRUE(header.ok()) << header.status().ToString();
      ExpectSameHeader(*full, *want);
      ExpectSameHeader(*header, *want);
      EXPECT_EQ(full->node_name, want->node_name);
      EXPECT_EQ(full->node_data, want->node_data);
    } else {
      ++invalid;
      ASSERT_TRUE(want.status().IsCorruption()) << want.status().ToString();
      ASSERT_FALSE(full.ok());
      ASSERT_FALSE(header.ok());
      EXPECT_TRUE(full.status().IsCorruption()) << full.status().ToString();
      EXPECT_TRUE(header.status().IsCorruption()) << header.status().ToString();
    }
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(valid, 150u);
  EXPECT_GT(invalid, 1000u);
}

TEST(NodeDecodeTest, NullInIntColumnIsCorruptionNotACrash) {
  Row row = NodeRecord{}.ToRow();
  row[NodeRecord::kDocId] = Value::Null();
  std::string bytes = storage::EncodeRow(row);
  EXPECT_TRUE(NodeRecord::Decode(bytes).status().IsCorruption());
  EXPECT_TRUE(NodeHeader::Decode(bytes).status().IsCorruption());
  EXPECT_TRUE(NodeRecord::FromRow(row).status().IsCorruption());
}

TEST(NodeDecodeTest, OversizedVarintsAndHugeCountsAreRejected) {
  // A count claiming 2^63 values must fail before sizing anything.
  std::string huge_count = "\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x7F";
  EXPECT_TRUE(storage::DecodeRow(huge_count).status().IsCorruption());
  // Ten varint bytes whose last carries more than bit 63.
  std::string overflow = "\x01\x01\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x02";
  EXPECT_TRUE(storage::DecodeRow(overflow).status().IsCorruption());
  // A string length near 2^64 must not wrap the bounds check.
  std::string wrap = "\x01\x03\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01" "abc";
  EXPECT_TRUE(storage::DecodeRow(wrap).status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeDecodeFuzzTest, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace netmark::xmlstore
