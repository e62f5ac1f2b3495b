// ValueArena: a page-based pool of fixed-stride value slots for one slab
// class — the in-cache home of real payload bytes — and PagePool, the
// per-ValueStore shelf of emptied pages that every class draws on.
//
// Each slot is one slab-class chunk: a 24-byte SlotHeader (cas, size,
// flags, store time) followed by the value payload. The stride equals the
// class's chunk size, so `live_slots() * chunk_size` is the class's true
// resident footprint — the same quantity the paper's per-class accounting
// charges. Slot ids are `page * slots_per_page + offset`.
//
// Held memory follows what is resident. Every page keeps its own live
// count and its own free list, and Allocate takes a slot from the
// lowest-numbered page with room (a bitset scan), so live data packs into
// low pages and high pages drain. When Free empties a kPageSize page, the
// page leaves the class for the PagePool; the next page any class of the
// same store opens comes from the pool before the heap, and fills the
// class's lowest hole before its page vector grows. That is what lets the
// climber's transfers move real memory, not just accounting. Classes whose
// chunk exceeds kPageSize hold one slot per page and keep their pages.
//
// Span contract. Free never returns memory to the heap or the OS: an
// emptied page waits in the pool, payload untouched, until some class of
// the store calls Allocate — and only store verbs allocate. A borrowed
// span into a freed slot therefore stays byte-stable until the owning
// shard's next store (core/sharded_server.h), whether or not its page
// changed hands.
//
// Free-list and pool links are threaded through SlotHeaders — deliberately
// NOT through the payload bytes — so a lifetime bug reads stale data
// instead of corrupting heap structure. Put never allocates (Free runs
// inside GET-path evictions), and steady-state churn touches the heap zero
// times.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/slab_geometry.h"

namespace cliffhanger {

// Emptied kPageSize pages, shared by the arenas of one ValueStore (one per
// app per shard, so always used under that shard's lock). An intrusive
// LIFO list: the link lives in the first 8 bytes of each pooled page,
// which are slot 0's header, never payload.
class PagePool {
 public:
  PagePool() = default;
  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;
  ~PagePool() {
    while (char* page = Take()) delete[] page;
  }

  // A pooled page (contents stale), or nullptr when the pool is empty.
  char* Take() {
    char* page = head_;
    if (page != nullptr) {
      std::memcpy(&head_, page, sizeof(head_));
      --pages_;
    }
    return page;
  }
  // Parks a page allocated with new char[kPageSize]; never allocates.
  void Put(char* page) {
    std::memcpy(page, &head_, sizeof(head_));
    head_ = page;
    ++pages_;
  }

  [[nodiscard]] size_t pages() const { return pages_; }
  [[nodiscard]] uint64_t bytes() const { return pages_ * kPageSize; }

 private:
  char* head_ = nullptr;
  size_t pages_ = 0;
};

class ValueArena {
 public:
  static constexpr uint32_t kNullSlot = UINT32_MAX;

  struct SlotHeader {
    uint64_t cas = 0;
    uint32_t value_size = 0;
    uint32_t flags = 0;
    uint32_t stored_s = 0;
    uint32_t free_next = kNullSlot;  // free-list link; kNullSlot when live
  };
  static constexpr size_t kHeaderBytes = sizeof(SlotHeader);
  static_assert(sizeof(SlotHeader) == 24, "slot layout is part of the API");

  // `pool` receives the pages this arena empties and supplies the pages it
  // opens; it is ignored for chunks larger than kPageSize.
  ValueArena(uint32_t chunk_size, PagePool* pool)
      : stride_(chunk_size),
        slots_per_page_(std::max<uint64_t>(1, kPageSize / chunk_size)),
        pool_(chunk_size <= kPageSize ? pool : nullptr) {
    assert(chunk_size > kHeaderBytes);
    assert(pool_ == nullptr || slots_per_page_ * stride_ == kPageSize);
  }
  ValueArena(const ValueArena&) = delete;
  ValueArena& operator=(const ValueArena&) = delete;

  // Bytes of payload a slot can hold. Every admitted item fits: the slab
  // geometry guarantees key_size + value_size + kItemOverhead(32) <= chunk,
  // and the header (24) is smaller than key_size + kItemOverhead.
  [[nodiscard]] uint32_t payload_capacity() const {
    return stride_ - static_cast<uint32_t>(kHeaderBytes);
  }
  [[nodiscard]] uint32_t chunk_size() const { return stride_; }

  // Returns a slot to (re)initialize from the lowest page with room —
  // recycled LIFO from that page's free list, else carved from its
  // untouched end — opening a page when every held page is full. Headers
  // are caller-initialized; payload bytes of a recycled slot keep their
  // previous contents until overwritten.
  uint32_t Allocate() {
    size_t p = room_.Lowest();
    if (p == PageBits::kNone) p = OpenPage();
    Page& page = pages_[p];
    uint32_t slot;
    if (page.free_head != kNullSlot) {
      slot = page.free_head;
      page.free_head = header(slot)->free_next;
      header(slot)->free_next = kNullSlot;
    } else {
      slot = static_cast<uint32_t>(p * slots_per_page_ + page.carved++);
      *header(slot) = SlotHeader{};
    }
    if (++page.live == slots_per_page_) room_.Clear(p);
    ++live_slots_;
    return slot;
  }

  void Free(uint32_t slot) {
    const size_t p = slot / slots_per_page_;
    assert(p < pages_.size() && pages_[p].base != nullptr);
    Page& page = pages_[p];
    SlotHeader* h = header(slot);
    assert(h->free_next == kNullSlot);
    assert(page.live > 0 && live_slots_ > 0);
    --live_slots_;
    if (--page.live == 0 && pool_ != nullptr) {
      ReleasePage(p);
      return;
    }
    h->free_next = page.free_head;
    page.free_head = slot;
    room_.Set(p);
  }

  [[nodiscard]] SlotHeader* header(uint32_t slot) {
    return reinterpret_cast<SlotHeader*>(SlotBase(slot));
  }
  [[nodiscard]] const SlotHeader* header(uint32_t slot) const {
    return reinterpret_cast<const SlotHeader*>(SlotBase(slot));
  }
  [[nodiscard]] char* payload(uint32_t slot) {
    return SlotBase(slot) + kHeaderBytes;
  }
  [[nodiscard]] const char* payload(uint32_t slot) const {
    return SlotBase(slot) + kHeaderBytes;
  }

  // True iff `slot` names an allocated, not-freed slot of a held page.
  [[nodiscard]] bool IsLive(uint32_t slot) const {
    const size_t p = slot / slots_per_page_;
    return p < pages_.size() && pages_[p].base != nullptr &&
           slot % slots_per_page_ < pages_[p].carved &&
           header(slot)->free_next == kNullSlot;
  }

  [[nodiscard]] uint64_t live_slots() const { return live_slots_; }
  // Pages held by this class (pooled pages belong to the PagePool).
  [[nodiscard]] size_t held_pages() const { return held_pages_; }
  [[nodiscard]] uint64_t free_slots() const {
    return held_pages_ * slots_per_page_ - live_slots_;
  }
  [[nodiscard]] uint64_t resident_bytes() const {
    return held_pages_ * slots_per_page_ * stride_;
  }

  // Page and free-list integrity: every free-list link stays inside its
  // own page's carved range, no slot repeats (no double free), each
  // page's chain length is carved - live, the room/hole bitsets match the
  // pages, and the live counts add up.
  [[nodiscard]] bool CheckFreeList() const {
    uint64_t live = 0;
    size_t held = 0;
    std::vector<bool> seen(slots_per_page_);
    for (size_t p = 0; p < pages_.size(); ++p) {
      const Page& page = pages_[p];
      if (room_.Test(p) !=
          (page.base != nullptr && page.live < slots_per_page_)) {
        return false;
      }
      if (holes_.Test(p) != (page.base == nullptr)) return false;
      if (page.base == nullptr) continue;
      if (page.live > page.carved || page.carved > slots_per_page_ ||
          (page.live == 0 && pool_ != nullptr)) {
        return false;
      }
      std::fill(seen.begin(), seen.end(), false);
      const uint64_t first = p * slots_per_page_;
      uint64_t n = 0;
      for (uint32_t s = page.free_head; s != kNullSlot;
           s = header(s)->free_next) {
        if (s < first || s >= first + page.carved || seen[s - first]) {
          return false;
        }
        seen[s - first] = true;
        ++n;
      }
      if (n != page.carved - page.live) return false;
      live += page.live;
      ++held;
    }
    return live == live_slots_ && held == held_pages_;
  }

 private:
  struct Page {
    std::unique_ptr<char[]> base;  // null: a hole, its page in the pool
    uint32_t live = 0;
    uint32_t carved = 0;  // slots handed out since the page was opened
    uint32_t free_head = kNullSlot;
  };

  // One bit per page with a cursor below which every word is zero, so the
  // lowest-set scan skips the full low pages it has already passed.
  struct PageBits {
    static constexpr size_t kNone = SIZE_MAX;
    std::vector<uint64_t> words;
    size_t floor = 0;

    void Set(size_t p) {
      words[p / 64] |= uint64_t{1} << (p % 64);
      floor = std::min(floor, p / 64);
    }
    void Clear(size_t p) { words[p / 64] &= ~(uint64_t{1} << (p % 64)); }
    [[nodiscard]] bool Test(size_t p) const {
      return (words[p / 64] >> (p % 64)) & 1;
    }
    size_t Lowest() {
      for (; floor < words.size(); ++floor) {
        if (words[floor] != 0) {
          return floor * 64 + static_cast<size_t>(__builtin_ctzll(words[floor]));
        }
      }
      return kNone;
    }
  };

  // Opens the lowest hole, or appends a page; the memory comes from the
  // pool when it has any, else from the heap.
  size_t OpenPage() {
    size_t p = holes_.Lowest();
    if (p == PageBits::kNone) {
      p = pages_.size();
      assert((p + 1) * slots_per_page_ <= kNullSlot);
      pages_.emplace_back();
      if (p % 64 == 0) {
        room_.words.push_back(0);
        holes_.words.push_back(0);
      }
    } else {
      holes_.Clear(p);
    }
    char* pooled = pool_ != nullptr ? pool_->Take() : nullptr;
    Page& page = pages_[p];
    page.base.reset(pooled != nullptr
                        ? pooled
                        : new char[slots_per_page_ * stride_]);
    page.live = 0;
    page.carved = 0;
    page.free_head = kNullSlot;
    room_.Set(p);
    ++held_pages_;
    return p;
  }

  void ReleasePage(size_t p) {
    Page& page = pages_[p];
    pool_->Put(page.base.release());
    page.carved = 0;
    page.free_head = kNullSlot;
    room_.Clear(p);
    holes_.Set(p);
    --held_pages_;
  }

  [[nodiscard]] char* SlotBase(uint32_t slot) {
    assert(slot / slots_per_page_ < pages_.size());
    return pages_[slot / slots_per_page_].base.get() +
           (slot % slots_per_page_) * stride_;
  }
  [[nodiscard]] const char* SlotBase(uint32_t slot) const {
    assert(slot / slots_per_page_ < pages_.size());
    return pages_[slot / slots_per_page_].base.get() +
           (slot % slots_per_page_) * stride_;
  }

  uint64_t stride_;
  uint64_t slots_per_page_;
  PagePool* pool_;
  std::vector<Page> pages_;
  PageBits room_;   // held pages with a free or uncarved slot
  PageBits holes_;  // page numbers whose page went to the pool
  size_t held_pages_ = 0;
  uint64_t live_slots_ = 0;
};

}  // namespace cliffhanger
