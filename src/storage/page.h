// Slotted page layout.
//
// A page is a fixed 8 KiB block:
//
//   [ header (8 bytes) | slot directory (4 bytes/slot, grows up) ...
//                  ... record data (grows down) | CRC32C trailer (4 bytes) ]
//
// Slots are never reused for a *different* record while the page lives, so a
// (page, slot) pair — a RowId — is a stable physical address. Deleted slots
// become tombstones.
//
// Format. Header byte 4 (byte 2 on overflow pages, whose bytes 4-7 hold the
// next-page pointer) is the format version, always v1: the last 4 bytes of
// every page hold CRC32C over bytes [0, kPageSize-4). There is no unverified
// format — a page whose header or trailer reads back as zeros fails its
// checksum like any other corruption.

#ifndef NETMARK_STORAGE_PAGE_H_
#define NETMARK_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/crc32.h"

namespace netmark::storage {

inline constexpr size_t kPageSize = 8192;

/// Bytes reserved at the end of every page for the CRC32C trailer.
inline constexpr size_t kPageTrailerSize = 4;

/// Current page format version.
inline constexpr uint8_t kPageFormatV1 = 1;

/// Offset value marking a deleted slot.
inline constexpr uint16_t kTombstoneOffset = 0xFFFF;

/// First-two-bytes marker distinguishing overflow pages from slotted pages
/// (a slotted page's slot_count can never reach 0xFFFF).
inline constexpr uint16_t kOverflowMarker = 0xFFFF;

/// \brief View/manipulator over one 8 KiB page buffer.
///
/// The Page does not own the buffer; the Pager does.
class Page {
 public:
  explicit Page(uint8_t* data) : data_(data) {}

  /// Initializes the header of a fresh page. The trailer is reserved
  /// unconditionally — whether it is *verified* is the pager's knob.
  void Init() {
    set_slot_count(0);
    set_free_end(static_cast<uint16_t>(kPageSize - kPageTrailerSize));
    data_[4] = kPageFormatV1;
    data_[5] = data_[6] = data_[7] = 0;
  }

  uint16_t slot_count() const { return Read16(0); }
  /// Offset of the lowest used data byte (records occupy [free_end, kPageSize)).
  uint16_t free_end() const { return Read16(2); }

  /// Bytes available for one more record (including its 4-byte slot).
  size_t FreeSpace() const {
    size_t dir_end = kHeaderSize + static_cast<size_t>(slot_count()) * kSlotSize;
    size_t fe = free_end();
    return fe > dir_end ? fe - dir_end : 0;
  }

  /// Can a record of `len` bytes be appended (new slot required)?
  bool CanInsert(size_t len) const { return FreeSpace() >= len + kSlotSize; }

  /// Appends a record, returning its slot index. Caller must CanInsert first.
  uint16_t Insert(std::string_view record) {
    uint16_t slot = slot_count();
    uint16_t new_end = static_cast<uint16_t>(free_end() - record.size());
    std::memcpy(data_ + new_end, record.data(), record.size());
    SetSlot(slot, new_end, static_cast<uint16_t>(record.size()));
    set_free_end(new_end);
    set_slot_count(static_cast<uint16_t>(slot + 1));
    return slot;
  }

  /// Record bytes at a slot; empty view for tombstones/bad slots.
  std::string_view Get(uint16_t slot) const {
    if (slot >= slot_count()) return {};
    auto [off, len] = GetSlot(slot);
    if (off == kTombstoneOffset) return {};
    return std::string_view(reinterpret_cast<const char*>(data_ + off), len);
  }

  bool IsLive(uint16_t slot) const {
    if (slot >= slot_count()) return false;
    return GetSlot(slot).first != kTombstoneOffset;
  }

  /// Tombstones a slot. Space is not reclaimed (no compaction), which keeps
  /// all other slots' offsets — and thus RowIds — stable.
  void Delete(uint16_t slot) { SetSlot(slot, kTombstoneOffset, 0); }

  /// Overwrites a record in place; only legal when the new record is no
  /// longer than the old one (caller checks).
  void UpdateInPlace(uint16_t slot, std::string_view record) {
    auto [off, len] = GetSlot(slot);
    std::memcpy(data_ + off, record.data(), record.size());
    SetSlot(slot, off, static_cast<uint16_t>(record.size()));
  }

  /// Length of the record stored at a slot (0 for tombstones).
  uint16_t RecordLength(uint16_t slot) const { return GetSlot(slot).second; }

  uint8_t* raw() { return data_; }
  const uint8_t* raw() const { return data_; }

  static constexpr size_t kHeaderSize = 8;
  static constexpr size_t kSlotSize = 4;
  /// Largest record that fits in an empty page.
  static constexpr size_t kMaxInlineRecord =
      kPageSize - kHeaderSize - kSlotSize - kPageTrailerSize;

 private:
  uint16_t Read16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, data_ + off, 2);
    return v;
  }
  void Write16(size_t off, uint16_t v) { std::memcpy(data_ + off, &v, 2); }

  void set_slot_count(uint16_t v) { Write16(0, v); }
  void set_free_end(uint16_t v) { Write16(2, v); }

  std::pair<uint16_t, uint16_t> GetSlot(uint16_t slot) const {
    size_t base = kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
    return {Read16(base), Read16(base + 2)};
  }
  void SetSlot(uint16_t slot, uint16_t off, uint16_t len) {
    size_t base = kHeaderSize + static_cast<size_t>(slot) * kSlotSize;
    Write16(base, off);
    Write16(base + 2, len);
  }

  uint8_t* data_;
};

/// True when the buffer holds an overflow page (kOverflowMarker at bytes 0-1).
inline bool PageIsOverflow(const uint8_t* data) {
  uint16_t marker;
  std::memcpy(&marker, data, 2);
  return marker == kOverflowMarker;
}

/// Format version of a page of either layout.
inline uint8_t PageVersion(const uint8_t* data) {
  return PageIsOverflow(data) ? data[2] : data[4];
}

/// CRC32C over everything but the trailer.
inline uint32_t PageComputeCrc(const uint8_t* data) {
  return Crc32c(data, kPageSize - kPageTrailerSize);
}

/// Writes the CRC32C trailer.
inline void PageStampChecksum(uint8_t* data) {
  uint32_t crc = PageComputeCrc(data);
  std::memcpy(data + kPageSize - kPageTrailerSize, &crc, kPageTrailerSize);
}

/// True when the trailer matches the page contents.
inline bool PageVerifyChecksum(const uint8_t* data) {
  uint32_t stored;
  std::memcpy(&stored, data + kPageSize - kPageTrailerSize, kPageTrailerSize);
  return stored == PageComputeCrc(data);
}

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_PAGE_H_
