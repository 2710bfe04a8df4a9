#include "storage/heap_file.h"

#include <cstring>

#include "common/string_util.h"

namespace netmark::storage {

namespace {

// Overflow page layout:
//   bytes 0..1  : kOverflowMarker (distinguishes from slotted data pages)
//   byte  2     : format version (the slotted version byte 4 holds the next
//                 pointer here)
//   byte  3     : unused
//   bytes 4..7  : next overflow page id (kInvalidPage terminates)
//   bytes 8..11 : chunk length
//   bytes 12..  : chunk data
constexpr size_t kOverflowHeader = 12;
// Chunks stop short of the CRC trailer.
constexpr size_t kOverflowChunk = kPageSize - kOverflowHeader - kPageTrailerSize;

uint16_t ReadMarker(const uint8_t* raw) {
  uint16_t v;
  std::memcpy(&v, raw, 2);
  return v;
}

}  // namespace

netmark::Result<HeapFile> HeapFile::Open(Pager* pager) {
  HeapFile hf(pager);
  // Recover the append page (highest data page) and the live-record count.
  // Quarantined (bad-checksum) pages are skipped so the store still opens:
  // their records surface as DataLoss on access, not as a failure to start.
  uint64_t live = 0;
  for (PageId id = 0; id < pager->page_count(); ++id) {
    auto fetched = pager->FetchAt(id, kLatestEpoch);
    if (!fetched.ok()) {
      if (fetched.status().IsDataLoss()) continue;
      return fetched.status();
    }
    Page page = fetched->page();
    if (ReadMarker(page.raw()) == kOverflowMarker) continue;
    hf.tail_ = id;
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      std::string_view rec = page.Get(s);
      if (rec.empty()) continue;
      uint8_t flags = static_cast<uint8_t>(rec[0]);
      if ((flags & (kForwardFlag | kRelocatedFlag)) == 0) ++live;
    }
  }
  hf.live_records_.store(live, std::memory_order_relaxed);
  return hf;
}

netmark::Result<RowId> HeapFile::AppendSlot(std::string_view payload) {
  if (payload.size() > Page::kMaxInlineRecord) {
    return netmark::Status::Internal("payload exceeds page capacity");
  }
  if (tail_ != kInvalidPage) {
    NETMARK_ASSIGN_OR_RETURN(Page page, pager_->Fetch(tail_));
    if (page.CanInsert(payload.size())) {
      uint16_t slot = page.Insert(payload);
      pager_->MarkDirty(tail_);
      return RowId(tail_, slot);
    }
  }
  NETMARK_ASSIGN_OR_RETURN(PageId fresh, pager_->Allocate());
  tail_ = fresh;
  NETMARK_ASSIGN_OR_RETURN(Page page, pager_->Fetch(fresh));
  uint16_t slot = page.Insert(payload);
  pager_->MarkDirty(fresh);
  return RowId(fresh, slot);
}

netmark::Result<std::string> HeapFile::WriteOverflowPayload(std::string_view record) {
  // Write chunks; build the chain back-to-front so each page knows its next.
  size_t n_chunks = (record.size() + kOverflowChunk - 1) / kOverflowChunk;
  if (n_chunks == 0) n_chunks = 1;
  PageId next = kInvalidPage;
  for (size_t i = n_chunks; i-- > 0;) {
    size_t start = i * kOverflowChunk;
    size_t len = std::min(kOverflowChunk, record.size() - start);
    NETMARK_ASSIGN_OR_RETURN(PageId pid, pager_->Allocate());
    NETMARK_ASSIGN_OR_RETURN(Page page, pager_->Fetch(pid));
    uint8_t* raw = page.raw();
    uint16_t marker = kOverflowMarker;
    std::memcpy(raw, &marker, 2);
    // Allocate() initialized the buffer as a slotted v1 page; rewriting the
    // header as an overflow page moves the version byte to offset 2.
    raw[2] = kPageFormatV1;
    raw[3] = 0;
    std::memcpy(raw + 4, &next, 4);
    auto len32 = static_cast<uint32_t>(len);
    std::memcpy(raw + 8, &len32, 4);
    std::memcpy(raw + kOverflowHeader, record.data() + start, len);
    pager_->MarkDirty(pid);
    next = pid;
  }
  // Slot payload after the tag byte: first page id (4B) + total length (8B).
  std::string payload;
  payload.resize(12);
  std::memcpy(payload.data(), &next, 4);
  uint64_t total = record.size();
  std::memcpy(payload.data() + 4, &total, 8);
  return payload;
}

netmark::Result<std::string> HeapFile::ReadOverflow(std::string_view payload,
                                                    Epoch epoch) const {
  if (payload.size() != 12) {
    return netmark::Status::Corruption("bad overflow descriptor size");
  }
  PageId pid;
  uint64_t total;
  std::memcpy(&pid, payload.data(), 4);
  std::memcpy(&total, payload.data() + 4, 8);
  std::string out;
  out.reserve(total);
  while (pid != kInvalidPage) {
    // Overflow pages are born with their record and never rewritten (space
    // is not reused), so they are visible at every epoch the record is.
    NETMARK_ASSIGN_OR_RETURN(PageRef ref, pager_->FetchAt(pid, epoch));
    const uint8_t* raw = ref.raw();
    if (ReadMarker(raw) != kOverflowMarker) {
      return netmark::Status::Corruption("overflow chain reached a data page");
    }
    uint32_t len;
    std::memcpy(&len, raw + 8, 4);
    // A longer chunk would read the CRC trailer as data (and, with checksum
    // verification off, nothing else would notice).
    if (len > kOverflowChunk) {
      return netmark::Status::Corruption("bad overflow chunk");
    }
    out.append(reinterpret_cast<const char*>(raw + kOverflowHeader), len);
    std::memcpy(&pid, raw + 4, 4);
  }
  if (out.size() != total) {
    return netmark::Status::Corruption(
        netmark::StringPrintf("overflow chain length %zu != expected %llu", out.size(),
                              static_cast<unsigned long long>(total)));
  }
  return out;
}

netmark::Result<RowId> HeapFile::InsertTagged(std::string_view record,
                                              uint8_t extra_flags) {
  std::string payload;
  if (record.size() + 1 > Page::kMaxInlineRecord) {
    NETMARK_ASSIGN_OR_RETURN(std::string desc, WriteOverflowPayload(record));
    payload.reserve(desc.size() + 1);
    payload += static_cast<char>(kOverflowFlag | extra_flags);
    payload += desc;
  } else {
    payload.reserve(record.size() + 1);
    payload += static_cast<char>(extra_flags);
    payload.append(record.data(), record.size());
  }
  return AppendSlot(payload);
}

netmark::Result<RowId> HeapFile::Insert(std::string_view record) {
  NETMARK_ASSIGN_OR_RETURN(RowId id, InsertTagged(record, 0));
  live_records_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

netmark::Result<RowId> HeapFile::Resolve(RowId id, Epoch epoch) const {
  RowId cur = id;
  for (int hops = 0; hops < 64; ++hops) {
    NETMARK_ASSIGN_OR_RETURN(PageRef ref, pager_->FetchAt(cur.page, epoch));
    Page page = ref.page();
    std::string_view rec = page.Get(cur.slot);
    if (rec.empty()) {
      return netmark::Status::NotFound("no record at " + id.ToString());
    }
    uint8_t flags = static_cast<uint8_t>(rec[0]);
    if ((flags & kForwardFlag) == 0) return cur;
    if (rec.size() != 9) return netmark::Status::Corruption("bad forward record");
    uint64_t packed;
    std::memcpy(&packed, rec.data() + 1, 8);
    cur = RowId::Unpack(packed);
  }
  return netmark::Status::Corruption("forward chain too long at " + id.ToString());
}

netmark::Result<std::string> HeapFile::Get(RowId id, Epoch epoch) const {
  NETMARK_ASSIGN_OR_RETURN(RowId loc, Resolve(id, epoch));
  NETMARK_ASSIGN_OR_RETURN(PageRef ref, pager_->FetchAt(loc.page, epoch));
  Page page = ref.page();
  std::string_view rec = page.Get(loc.slot);
  uint8_t flags = static_cast<uint8_t>(rec[0]);
  if (flags & kOverflowFlag) return ReadOverflow(rec.substr(1), epoch);
  return std::string(rec.substr(1));
}

bool HeapFile::Exists(RowId id, Epoch epoch) const {
  auto loc = Resolve(id, epoch);
  return loc.ok();
}

netmark::Status HeapFile::Update(RowId id, std::string_view record) {
  NETMARK_ASSIGN_OR_RETURN(RowId loc, Resolve(id, kWriterEpoch));
  NETMARK_ASSIGN_OR_RETURN(Page page, pager_->Fetch(loc.page));
  std::string_view old = page.Get(loc.slot);
  uint8_t old_flags = static_cast<uint8_t>(old[0]);
  // In-place when the new inline payload fits in the old footprint and the
  // old record was inline (overwriting an overflow descriptor would leak the
  // chain *and* lose the data layout).
  if ((old_flags & kOverflowFlag) == 0 && record.size() + 1 <= old.size()) {
    std::string payload;
    payload.reserve(record.size() + 1);
    payload += static_cast<char>(old_flags);
    payload.append(record.data(), record.size());
    page.UpdateInPlace(loc.slot, payload);
    pager_->MarkDirty(loc.page);
    return netmark::Status::OK();
  }
  // Relocate: write the new bytes elsewhere, then point the *original* slot
  // at them (collapsing any existing chain).
  NETMARK_ASSIGN_OR_RETURN(RowId fresh, InsertTagged(record, kRelocatedFlag));
  if (loc != id) {
    // Tombstone the old relocation target.
    NETMARK_ASSIGN_OR_RETURN(Page old_page, pager_->Fetch(loc.page));
    old_page.Delete(loc.slot);
    pager_->MarkDirty(loc.page);
  }
  NETMARK_ASSIGN_OR_RETURN(Page origin, pager_->Fetch(id.page));
  std::string_view origin_rec = origin.Get(id.slot);
  std::string fwd;
  fwd.resize(9);
  fwd[0] = static_cast<char>(kForwardFlag |
                             (static_cast<uint8_t>(origin_rec[0]) & kRelocatedFlag));
  uint64_t packed = fresh.Pack();
  std::memcpy(fwd.data() + 1, &packed, 8);
  if (fwd.size() <= origin_rec.size()) {
    origin.UpdateInPlace(id.slot, fwd);
  } else {
    // The original record was shorter than a forward pointer (tiny record).
    // Tombstone + fresh slot is not an option (RowId must stay); instead we
    // rely on pages never being compacted: grow into the slot's recorded
    // length is impossible, so fall back to rewriting the slot via delete +
    // insert at the same slot index — not supported by the page layout.
    // In practice EncodeRow always produces >= 9 bytes for NETMARK rows; guard
    // explicitly so the invariant is visible.
    return netmark::Status::Internal(
        "record too small to hold a forward pointer (min 8-byte rows required)");
  }
  pager_->MarkDirty(id.page);
  return netmark::Status::OK();
}

netmark::Status HeapFile::Delete(RowId id) {
  NETMARK_ASSIGN_OR_RETURN(RowId loc, Resolve(id, kWriterEpoch));
  NETMARK_ASSIGN_OR_RETURN(Page page, pager_->Fetch(loc.page));
  page.Delete(loc.slot);
  pager_->MarkDirty(loc.page);
  if (loc != id) {
    NETMARK_ASSIGN_OR_RETURN(Page origin, pager_->Fetch(id.page));
    origin.Delete(id.slot);
    pager_->MarkDirty(id.page);
  }
  live_records_.fetch_sub(1, std::memory_order_relaxed);
  return netmark::Status::OK();
}

netmark::Status HeapFile::Scan(
    const std::function<netmark::Status(RowId, std::string_view)>& fn,
    Epoch epoch) const {
  for (PageId pid = 0; pid < pager_->page_count(); ++pid) {
    // Quarantined pages are invisible to scans; their documents are reported
    // as DataLoss on direct access instead. Pages born after the snapshot's
    // epoch hold only records it cannot see — skip them like empty pages.
    auto fetched = pager_->FetchAt(pid, epoch);
    if (!fetched.ok()) {
      if (fetched.status().IsDataLoss() || fetched.status().IsNotFound()) {
        continue;
      }
      return fetched.status();
    }
    Page page = fetched->page();
    if (ReadMarker(page.raw()) == kOverflowMarker) continue;
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      std::string_view rec = page.Get(s);
      if (rec.empty()) continue;
      uint8_t flags = static_cast<uint8_t>(rec[0]);
      if (flags & kRelocatedFlag) continue;  // reached via its origin slot
      RowId rid(pid, s);
      if (flags & kForwardFlag) {
        NETMARK_ASSIGN_OR_RETURN(std::string data, Get(rid, epoch));
        NETMARK_RETURN_NOT_OK(fn(rid, data));
      } else if (flags & kOverflowFlag) {
        NETMARK_ASSIGN_OR_RETURN(std::string data,
                                 ReadOverflow(rec.substr(1), epoch));
        NETMARK_RETURN_NOT_OK(fn(rid, data));
      } else {
        NETMARK_RETURN_NOT_OK(fn(rid, rec.substr(1)));
      }
    }
  }
  return netmark::Status::OK();
}

}  // namespace netmark::storage
