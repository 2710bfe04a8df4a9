#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>

#include "common/rng.h"
#include "common/temp_dir.h"

namespace netmark::storage {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("heaptest");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    Reopen();
  }

  void Reopen() {
    heap_.reset();
    pager_.reset();
    auto pager = Pager::Open((dir_->path() / "t.heap").string());
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(*pager);
    auto heap = HeapFile::Open(pager_.get());
    ASSERT_TRUE(heap.ok());
    heap_ = std::make_unique<HeapFile>(std::move(*heap));
  }

  // Publishes the writer's pages: reads below serve published versions.
  void Commit() { pager_->Publish(++epoch_); }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<HeapFile> heap_;
  Epoch epoch_ = 0;
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  auto id = heap_->Insert("record one");
  ASSERT_TRUE(id.ok());
  Commit();
  auto got = heap_->Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "record one");
  EXPECT_EQ(heap_->live_records(), 1u);
}

TEST_F(HeapFileTest, GetMissingIsNotFound) {
  EXPECT_TRUE(heap_->Get(RowId(0, 3)).status().IsNotFound() ||
              !heap_->Get(RowId(0, 3)).ok());
  auto id = heap_->Insert("x");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(heap_->Delete(*id).ok());
  EXPECT_FALSE(heap_->Get(*id).ok());
  EXPECT_FALSE(heap_->Exists(*id));
}

TEST_F(HeapFileTest, SpillsAcrossPages) {
  std::vector<RowId> ids;
  const std::string record(1000, 'z');
  for (int i = 0; i < 50; ++i) {  // > 8KiB total, must span pages
    auto id = heap_->Insert(record + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  Commit();
  EXPECT_GT(pager_->page_count(), 1u);
  for (int i = 0; i < 50; ++i) {
    auto got = heap_->Get(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, record + std::to_string(i));
  }
}

TEST_F(HeapFileTest, OverflowRecordRoundTrip) {
  // 100 KiB record: must chain multiple overflow pages.
  std::string big;
  big.reserve(100 * 1024);
  for (int i = 0; i < 100 * 1024; ++i) big += static_cast<char>('a' + (i % 26));
  auto id = heap_->Insert(big);
  ASSERT_TRUE(id.ok());
  Commit();
  auto got = heap_->Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
  // Normal records continue to work around it.
  auto small = heap_->Insert("small");
  ASSERT_TRUE(small.ok());
  Commit();
  EXPECT_EQ(*heap_->Get(*small), "small");
}

TEST_F(HeapFileTest, UpdateInPlaceAndGrowing) {
  auto id = heap_->Insert("initial record content");
  ASSERT_TRUE(id.ok());
  // Shrink: in place.
  ASSERT_TRUE(heap_->Update(*id, "tiny but 9+ bytes").ok());
  Commit();
  EXPECT_EQ(*heap_->Get(*id), "tiny but 9+ bytes");
  // Grow: relocates, RowId stays valid.
  std::string grown(5000, 'g');
  ASSERT_TRUE(heap_->Update(*id, grown).ok());
  Commit();
  EXPECT_EQ(*heap_->Get(*id), grown);
  // Grow to overflow size through the same RowId.
  std::string huge(50000, 'h');
  ASSERT_TRUE(heap_->Update(*id, huge).ok());
  Commit();
  EXPECT_EQ(*heap_->Get(*id), huge);
  EXPECT_EQ(heap_->live_records(), 1u);
}

TEST_F(HeapFileTest, RepeatedGrowingUpdatesCollapseChains) {
  auto id = heap_->Insert("start record!");
  ASSERT_TRUE(id.ok());
  for (int i = 1; i <= 20; ++i) {
    std::string content(static_cast<size_t>(100 * i), 'u');
    ASSERT_TRUE(heap_->Update(*id, content).ok()) << i;
    Commit();
    EXPECT_EQ(heap_->Get(*id)->size(), content.size());
  }
  EXPECT_EQ(heap_->live_records(), 1u);
}

TEST_F(HeapFileTest, ScanVisitsEachLogicalRecordOnce) {
  auto a = heap_->Insert("aaaaaaaaaaaa");
  auto b = heap_->Insert("bbbbbbbbbbbb");
  auto c = heap_->Insert("cccccccccccc");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Relocate b so a forward pointer exists.
  ASSERT_TRUE(heap_->Update(*b, std::string(6000, 'B')).ok());
  // Delete c.
  ASSERT_TRUE(heap_->Delete(*c).ok());
  Commit();

  std::map<uint64_t, std::string> seen;
  ASSERT_TRUE(heap_
                  ->Scan([&](RowId id, std::string_view rec) {
                    EXPECT_EQ(seen.count(id.Pack()), 0u) << "duplicate visit";
                    seen[id.Pack()] = std::string(rec);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[a->Pack()], "aaaaaaaaaaaa");
  EXPECT_EQ(seen[b->Pack()], std::string(6000, 'B'));
}

TEST_F(HeapFileTest, PersistsAcrossReopen) {
  auto a = heap_->Insert("persist me");
  std::string big(30000, 'P');
  auto b = heap_->Insert(big);
  ASSERT_TRUE(a.ok() && b.ok());
  RowId ra = *a;
  RowId rb = *b;
  Commit();
  ASSERT_TRUE(pager_->Flush().ok());
  Reopen();
  EXPECT_EQ(heap_->live_records(), 2u);
  EXPECT_EQ(*heap_->Get(ra), "persist me");
  EXPECT_EQ(*heap_->Get(rb), big);
  // Appending after reopen lands in a valid position.
  auto c = heap_->Insert("after reopen");
  ASSERT_TRUE(c.ok());
  Commit();
  EXPECT_EQ(*heap_->Get(*c), "after reopen");
}

TEST_F(HeapFileTest, OverflowChunkRunningIntoTrailerIsCorruption) {
  // Overflow page layout: marker (2) + version + pad + next (4) + length
  // (4), then the chunk, which must stop short of the CRC trailer.
  constexpr size_t kHeader = 12;
  constexpr size_t kChunk = kPageSize - kHeader - kPageTrailerSize;
  const std::string record(kChunk + 100, 'o');  // two chunks: kChunk + 100
  auto id = heap_->Insert(record);
  ASSERT_TRUE(id.ok());
  Commit();
  ASSERT_TRUE(pager_->Flush().ok());
  heap_.reset();
  pager_.reset();

  // Shift 4 bytes of data into the first chunk's trailer and out of the
  // second chunk, so the chain's total length still matches.
  const std::string path = (dir_->path() / "t.heap").string();
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  int patched = 0;
  for (PageId pid = 0;; ++pid) {
    uint8_t head[kHeader];
    f.seekg(static_cast<std::streamoff>(pid) * kPageSize);
    if (!f.read(reinterpret_cast<char*>(head), kHeader)) break;
    uint16_t marker;
    std::memcpy(&marker, head, 2);
    if (marker != kOverflowMarker) continue;
    uint32_t len;
    std::memcpy(&len, head + 8, 4);
    len = len == kChunk ? len + kPageTrailerSize : len - kPageTrailerSize;
    f.seekp(static_cast<std::streamoff>(pid) * kPageSize + 8);
    f.write(reinterpret_cast<const char*>(&len), 4);
    ++patched;
  }
  f.close();
  ASSERT_EQ(patched, 2);

  // With verification off only the chunk bound stands between the reader
  // and the trailer bytes.
  PagerOptions options;
  options.verify_checksums = false;
  auto pager = Pager::Open(path, options);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Open(pager->get());
  ASSERT_TRUE(heap.ok());
  auto got = heap->Get(*id);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST_F(HeapFileTest, RandomizedWorkloadMatchesReferenceMap) {
  netmark::Rng rng(2025);
  std::map<uint64_t, std::string> reference;
  std::vector<RowId> live;
  for (int step = 0; step < 2000; ++step) {
    double dice = rng.UniformDouble();
    if (dice < 0.55 || live.empty()) {
      size_t len = 9 + rng.Uniform(300);
      std::string rec;
      for (size_t i = 0; i < len; ++i) {
        rec += static_cast<char>('a' + rng.Uniform(26));
      }
      auto id = heap_->Insert(rec);
      ASSERT_TRUE(id.ok());
      reference[id->Pack()] = rec;
      live.push_back(*id);
    } else if (dice < 0.8) {
      size_t pick = rng.Uniform(live.size());
      size_t len = 9 + rng.Uniform(600);
      std::string rec(len, static_cast<char>('A' + rng.Uniform(26)));
      ASSERT_TRUE(heap_->Update(live[pick], rec).ok());
      reference[live[pick].Pack()] = rec;
    } else {
      size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(heap_->Delete(live[pick]).ok());
      reference.erase(live[pick].Pack());
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  Commit();
  EXPECT_EQ(heap_->live_records(), reference.size());
  for (const auto& [packed, expected] : reference) {
    auto got = heap_->Get(RowId::Unpack(packed));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected);
  }
  size_t scanned = 0;
  ASSERT_TRUE(heap_
                  ->Scan([&](RowId id, std::string_view rec) {
                    ++scanned;
                    EXPECT_EQ(reference.at(id.Pack()), std::string(rec));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(scanned, reference.size());
}

}  // namespace
}  // namespace netmark::storage
