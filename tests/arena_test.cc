// Arena-layer tests: NodeArena free-list recycling, FlatIndex hash-table
// semantics under churn, a randomized differential test driving the
// arena-backed SegmentedLru against a simple list+map reference model
// through ~100k mixed Insert/MoveToFront/Erase/SetCapacity ops — the
// refactor's contract is that the eviction/demotion order is bit-identical
// to the former std::list implementation, which the model reproduces —
// and the ValueArena page lifecycle: per-page free lists, lowest-page-first
// allocation, emptied pages recycled through the store's PagePool, and the
// span contract that recycling must keep.
//
// The global operator new is overridden in this translation unit (this test
// gets its own binary) with a windowed counter, so the pool-reuse test can
// prove that opening a pooled page touches the heap zero times.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <list>
#include <new>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/segmented_lru.h"
#include "cache/value_store.h"
#include "util/flat_index.h"
#include "util/node_arena.h"
#include "util/rng.h"
#include "util/value_arena.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace cliffhanger {
namespace {

// --- NodeArena ---

struct TestNode {
  uint64_t payload = 0;
  uint32_t prev = kNullNode;
  uint32_t next = kNullNode;
};

TEST(NodeArena, AllocateGrowsAndFreeRecyclesLifo) {
  NodeArena<TestNode> arena;
  const uint32_t a = arena.Allocate();
  const uint32_t b = arena.Allocate();
  EXPECT_EQ(arena.pool_size(), 2u);
  EXPECT_EQ(arena.live_count(), 2u);
  arena.Free(a);
  arena.Free(b);
  EXPECT_EQ(arena.free_count(), 2u);
  EXPECT_TRUE(arena.CheckFreeList());
  // LIFO recycling: the most recently freed node comes back first, and the
  // pool does not grow.
  EXPECT_EQ(arena.Allocate(), b);
  EXPECT_EQ(arena.Allocate(), a);
  EXPECT_EQ(arena.pool_size(), 2u);
  EXPECT_EQ(arena.free_count(), 0u);
  EXPECT_TRUE(arena.CheckFreeList());
}

TEST(NodeArena, SteadyStateChurnNeverGrowsPool) {
  NodeArena<TestNode> arena;
  std::vector<uint32_t> live;
  for (int i = 0; i < 64; ++i) live.push_back(arena.Allocate());
  const size_t pool = arena.pool_size();
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const size_t victim = rng.NextBounded(static_cast<uint32_t>(live.size()));
    arena.Free(live[victim]);
    live[victim] = arena.Allocate();  // must come from the free-list
  }
  EXPECT_EQ(arena.pool_size(), pool);
  EXPECT_EQ(arena.live_count(), live.size());
  EXPECT_TRUE(arena.CheckFreeList());
}

TEST(NodeArena, ChainPushRemoveInsertAfter) {
  NodeArena<TestNode> arena;
  IntrusiveChain<TestNode> chain;
  const uint32_t a = arena.Allocate();
  const uint32_t b = arena.Allocate();
  const uint32_t c = arena.Allocate();
  chain.PushFront(arena, a);
  chain.PushFront(arena, b);              // b, a
  chain.InsertAfter(arena, b, c);         // b, c, a
  EXPECT_EQ(chain.head, b);
  EXPECT_EQ(arena[b].next, c);
  EXPECT_EQ(arena[c].next, a);
  EXPECT_EQ(chain.tail, a);
  EXPECT_EQ(chain.count, 3u);
  chain.Remove(arena, c);                 // b, a
  EXPECT_EQ(arena[b].next, a);
  EXPECT_EQ(arena[a].prev, b);
  chain.Remove(arena, b);                 // a
  EXPECT_EQ(chain.head, a);
  EXPECT_EQ(chain.tail, a);
  chain.Remove(arena, a);
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.head, kNullNode);
  EXPECT_EQ(chain.tail, kNullNode);
}

// --- FlatIndex ---

TEST(FlatIndex, InsertFindErase) {
  FlatIndex index;
  EXPECT_EQ(index.Find(42), FlatIndex::kNotFound);
  index.Insert(42, 7);
  index.Insert(0, 9);  // key 0 must be representable (no key sentinel)
  EXPECT_EQ(index.Find(42), 7u);
  EXPECT_EQ(index.Find(0), 9u);
  EXPECT_TRUE(index.Erase(42));
  EXPECT_FALSE(index.Erase(42));
  EXPECT_EQ(index.Find(42), FlatIndex::kNotFound);
  EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndex, MatchesUnorderedMapUnderChurn) {
  FlatIndex index;
  std::unordered_map<uint64_t, uint32_t> model;
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t key = rng.NextBounded(2000);  // heavy collisions/reuse
    switch (rng.NextBounded(3)) {
      case 0: {
        if (model.find(key) == model.end()) {
          const uint32_t value = static_cast<uint32_t>(i);
          index.Insert(key, value);
          model[key] = value;
        }
        break;
      }
      case 1:
        EXPECT_EQ(index.Erase(key), model.erase(key) > 0);
        break;
      default: {
        const auto it = model.find(key);
        EXPECT_EQ(index.Find(key),
                  it == model.end() ? FlatIndex::kNotFound : it->second);
        break;
      }
    }
  }
  EXPECT_EQ(index.size(), model.size());
  size_t visited = 0;
  index.ForEach([&](uint64_t key, uint32_t value) {
    ++visited;
    const auto it = model.find(key);
    ASSERT_NE(it, model.end());
    EXPECT_EQ(it->second, value);
  });
  EXPECT_EQ(visited, model.size());
}

TEST(FlatIndex, ReservePreventsMidStreamRehash) {
  FlatIndex index;
  index.Reserve(10000);
  const size_t slots = index.slot_count();
  for (uint64_t k = 0; k < 10000; ++k) index.Insert(k, static_cast<uint32_t>(k));
  EXPECT_EQ(index.slot_count(), slots);
  for (uint64_t k = 0; k < 10000; ++k) EXPECT_EQ(index.Find(k), k);
}

// --- Differential test: SegmentedLru vs a list+map reference model ---

// The reference model mirrors the seed implementation verbatim:
// std::list-per-segment with front-insertion, back-eviction, cascade
// demotion, and byte/item loads.
class ReferenceSegmentedLru {
 public:
  using Entry = SegmentedLru::Entry;
  using SegmentConfig = SegmentedLru::SegmentConfig;
  using Unit = SegmentedLru::Unit;

  explicit ReferenceSegmentedLru(std::vector<SegmentConfig> segments) {
    segments_.resize(segments.size());
    for (size_t i = 0; i < segments.size(); ++i) {
      segments_[i].config = segments[i];
    }
  }

  int Find(uint64_t key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? -1 : static_cast<int>(it->second.seg);
  }

  void Erase(uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    Detach(it->second);
    index_.erase(it);
  }

  bool MoveToFront(uint64_t key, size_t target_seg) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    const Entry entry = *it->second.it;
    Detach(it->second);
    AttachFront(target_seg, entry);
    Cascade(target_seg);
    return true;
  }

  void Insert(const Entry& entry, size_t target_seg) {
    AttachFront(target_seg, entry);
    Cascade(target_seg);
  }

  void SetCapacity(size_t seg, uint64_t capacity) {
    segments_[seg].config.capacity = capacity;
    Cascade(seg);
  }

  size_t total_items() const { return index_.size(); }
  uint64_t segment_bytes(size_t seg) const { return segments_[seg].bytes; }
  size_t segment_items(size_t seg) const {
    return segments_[seg].entries.size();
  }
  // Keys of one segment in LRU order (front first).
  std::vector<uint64_t> SegmentKeys(size_t seg) const {
    std::vector<uint64_t> keys;
    for (const Entry& e : segments_[seg].entries) keys.push_back(e.key);
    return keys;
  }

 private:
  struct Segment {
    SegmentConfig config;
    std::list<Entry> entries;
    uint64_t bytes = 0;
  };
  struct Locator {
    size_t seg = 0;
    std::list<Entry>::iterator it;
  };

  static uint64_t Charge(const Segment& s, const Entry& e) {
    return s.config.keys_only ? e.key_bytes : e.full_bytes;
  }
  static uint64_t Load(const Segment& s) {
    return s.config.unit == Unit::kItems ? s.entries.size() : s.bytes;
  }
  void Detach(const Locator& loc) {
    Segment& s = segments_[loc.seg];
    s.bytes -= Charge(s, *loc.it);
    s.entries.erase(loc.it);
  }
  void AttachFront(size_t seg, const Entry& entry) {
    Segment& s = segments_[seg];
    s.entries.push_front(entry);
    s.bytes += Charge(s, entry);
    index_[entry.key] = Locator{seg, s.entries.begin()};
  }
  void Cascade(size_t seg) {
    for (size_t i = seg; i < segments_.size(); ++i) {
      Segment& s = segments_[i];
      while (!s.entries.empty() && Load(s) > s.config.capacity) {
        const Entry victim = s.entries.back();
        s.bytes -= Charge(s, victim);
        s.entries.pop_back();
        if (i + 1 < segments_.size()) {
          Segment& next = segments_[i + 1];
          next.entries.push_front(victim);
          next.bytes += Charge(next, victim);
          index_[victim.key] = Locator{i + 1, next.entries.begin()};
        } else {
          index_.erase(victim.key);
        }
      }
    }
  }

  std::vector<Segment> segments_;
  std::unordered_map<uint64_t, Locator> index_;
};

// Full-order comparison: every segment's key sequence must match exactly,
// not just membership — this is what "bit-identical eviction/demotion
// order" means.
void ExpectSameState(const SegmentedLru& lru,
                     const ReferenceSegmentedLru& ref, size_t num_segments) {
  ASSERT_EQ(lru.total_items(), ref.total_items());
  for (size_t s = 0; s < num_segments; ++s) {
    ASSERT_EQ(lru.segment_items(s), ref.segment_items(s)) << "segment " << s;
    ASSERT_EQ(lru.segment_bytes(s), ref.segment_bytes(s)) << "segment " << s;
    for (const uint64_t key : ref.SegmentKeys(s)) {
      ASSERT_EQ(lru.Find(key), static_cast<int>(s)) << "key " << key;
    }
  }
}

TEST(SegmentedLruDifferential, HundredThousandMixedOpsBitIdentical) {
  using Unit = SegmentedLru::Unit;
  const std::vector<SegmentedLru::SegmentConfig> segments = {
      {40, Unit::kItems, false},
      {1500, Unit::kBytes, false},
      {16, Unit::kItems, true},
      {800, Unit::kBytes, true},
  };
  SegmentedLru lru(segments);
  ReferenceSegmentedLru ref(segments);

  Rng rng(0xD1FF);
  std::unordered_set<uint64_t> inserted;  // keys ever offered to Insert
  for (int op = 0; op < 100000; ++op) {
    const uint64_t key = rng.NextBounded(600);
    const uint32_t full = 32 + rng.NextBounded(96);
    const uint32_t kb = 8 + rng.NextBounded(24);
    const size_t seg = rng.NextBounded(2);  // head or mid insertion target
    switch (rng.NextBounded(16)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Insert a currently-absent key
        if (lru.Find(key) < 0) {
          SegmentedLru::Entry e;
          e.key = key;
          e.full_bytes = full;
          e.key_bytes = kb;
          lru.Insert(e, seg);
          ref.Insert(e, seg);
          inserted.insert(key);
        }
        break;
      }
      case 4:
      case 5: {  // Erase
        lru.Erase(key);
        ref.Erase(key);
        break;
      }
      case 6: {  // Resize a random segment (cascades)
        const size_t target = rng.NextBounded(
            static_cast<uint32_t>(segments.size()));
        const uint64_t cap =
            segments[target].unit == Unit::kItems
                ? rng.NextBounded(60)
                : rng.NextBounded(2000);
        lru.SetCapacity(target, cap);
        ref.SetCapacity(target, cap);
        ASSERT_TRUE(lru.CheckInvariants()) << "after resize, op " << op;
        ExpectSameState(lru, ref, segments.size());
        break;
      }
      default: {  // MoveToFront (LRU promotion) — the hot path
        ASSERT_EQ(lru.MoveToFront(key, seg), ref.MoveToFront(key, seg));
        break;
      }
    }
    if (op % 4096 == 0) {
      ASSERT_TRUE(lru.CheckInvariants()) << "op " << op;
      ExpectSameState(lru, ref, segments.size());
    }
  }
  EXPECT_GT(inserted.size(), 0u);
  ASSERT_TRUE(lru.CheckInvariants());
  ExpectSameState(lru, ref, segments.size());
}

// Shrinking to zero and re-growing exercises free-list reuse of the entire
// pool; the invariant check validates no leak and no double-free.
TEST(SegmentedLruDifferential, DrainAndRefillRecyclesWholePool) {
  using Unit = SegmentedLru::Unit;
  SegmentedLru lru({{64, Unit::kItems, false}, {64, Unit::kItems, true}});
  for (uint64_t k = 0; k < 128; ++k) {
    lru.Insert({k, 64, 16}, 0);
  }
  ASSERT_EQ(lru.total_items(), 128u);
  lru.SetCapacity(0, 0);
  lru.SetCapacity(1, 0);
  EXPECT_EQ(lru.total_items(), 0u);
  ASSERT_TRUE(lru.CheckInvariants());
  lru.SetCapacity(0, 64);
  lru.SetCapacity(1, 64);
  for (uint64_t k = 1000; k < 1128; ++k) {
    lru.Insert({k, 64, 16}, 0);
  }
  EXPECT_EQ(lru.total_items(), 128u);
  ASSERT_TRUE(lru.CheckInvariants());
}

TEST(SegmentedLruDifferential, ReserveItemsDoesNotChangeBehavior) {
  using Unit = SegmentedLru::Unit;
  SegmentedLru hinted({{8, Unit::kItems, false}, {8, Unit::kItems, true}});
  SegmentedLru plain({{8, Unit::kItems, false}, {8, Unit::kItems, true}});
  hinted.ReserveItems(4096);
  for (uint64_t k = 0; k < 64; ++k) {
    hinted.Insert({k, 64, 16}, 0);
    plain.Insert({k, 64, 16}, 0);
    if (k % 3 == 0) {
      hinted.MoveToFront(k / 2, 0);
      plain.MoveToFront(k / 2, 0);
    }
  }
  ASSERT_TRUE(hinted.CheckInvariants());
  ASSERT_TRUE(plain.CheckInvariants());
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(hinted.Find(k), plain.Find(k)) << "key " << k;
  }
}

// --- ValueArena + PagePool ---

constexpr uint32_t kChunk = 1024;  // 64 slots per kPageSize page
constexpr uint32_t kPerPage = kPageSize / kChunk;

std::vector<uint32_t> AllocateN(ValueArena* arena, uint32_t n) {
  std::vector<uint32_t> slots;
  for (uint32_t i = 0; i < n; ++i) slots.push_back(arena->Allocate());
  return slots;
}

TEST(ValueArena, FreeingAPagesLastSlotPoolsThePage) {
  PagePool pool;
  ValueArena arena(kChunk, &pool);
  const std::vector<uint32_t> slots = AllocateN(&arena, kPerPage + 1);
  EXPECT_EQ(arena.held_pages(), 2u);
  EXPECT_EQ(arena.resident_bytes(), 2 * kPageSize);
  EXPECT_EQ(slots.back() / kPerPage, 1u);

  arena.Free(slots.back());
  EXPECT_EQ(pool.pages(), 1u);
  EXPECT_EQ(pool.bytes(), kPageSize);
  EXPECT_EQ(arena.held_pages(), 1u);
  EXPECT_EQ(arena.resident_bytes(), kPageSize);
  EXPECT_EQ(arena.live_slots(), kPerPage);
  EXPECT_TRUE(arena.CheckFreeList());

  // A page that still holds a live slot stays with the class.
  arena.Free(slots[0]);
  EXPECT_EQ(pool.pages(), 1u);
  EXPECT_EQ(arena.held_pages(), 1u);
  EXPECT_EQ(arena.free_slots(), 1u);
  EXPECT_TRUE(arena.CheckFreeList());
}

TEST(ValueArena, AllocatesFromTheLowestPageWithRoom) {
  PagePool pool;
  ValueArena arena(kChunk, &pool);
  const std::vector<uint32_t> slots = AllocateN(&arena, 3 * kPerPage);
  const uint32_t high = slots[2 * kPerPage + 5];
  const uint32_t low = slots[7];
  arena.Free(high);  // freed first: LIFO across pages would pick `low` last
  arena.Free(low);
  arena.Free(slots[kPerPage + 3]);
  EXPECT_EQ(arena.Allocate(), low);
  EXPECT_EQ(arena.Allocate(), slots[kPerPage + 3]);
  EXPECT_EQ(arena.Allocate(), high);
  EXPECT_EQ(arena.held_pages(), 3u);
  EXPECT_TRUE(arena.CheckFreeList());
}

TEST(ValueArena, RefillsTheLowestHoleBeforeGrowing) {
  PagePool pool;
  ValueArena arena(kChunk, &pool);
  const std::vector<uint32_t> slots = AllocateN(&arena, 3 * kPerPage);
  for (uint32_t i = 0; i < 2 * kPerPage; ++i) arena.Free(slots[i]);
  EXPECT_EQ(pool.pages(), 2u);
  EXPECT_EQ(arena.held_pages(), 1u);
  EXPECT_TRUE(arena.CheckFreeList());

  // Pages 0 and 1 are holes: the next two pages refill them in order,
  // from the pool, and only a third opening grows the page vector.
  for (uint32_t i = 0; i < kPerPage; ++i) {
    EXPECT_EQ(arena.Allocate() / kPerPage, 0u);
  }
  EXPECT_EQ(pool.pages(), 1u);
  for (uint32_t i = 0; i < kPerPage; ++i) {
    EXPECT_EQ(arena.Allocate() / kPerPage, 1u);
  }
  EXPECT_EQ(pool.pages(), 0u);
  EXPECT_EQ(arena.Allocate() / kPerPage, 3u);
  EXPECT_EQ(arena.held_pages(), 4u);
  EXPECT_TRUE(arena.CheckFreeList());
}

TEST(ValueArena, SecondArenaReusesAPooledPageWithoutHeapAllocation) {
  PagePool pool;
  ValueArena a(kChunk, &pool);
  ValueArena b(2 * kChunk, &pool);
  // Give b a hole so its next page needs no page-vector growth, then park
  // one of a's pages on top of the pool.
  const uint32_t slot = a.Allocate();
  const char* a_page = a.payload(slot) - ValueArena::kHeaderBytes;
  b.Free(b.Allocate());
  a.Free(slot);
  ASSERT_EQ(pool.pages(), 2u);

  g_allocations = 0;
  g_counting = true;
  const uint32_t reused = b.Allocate();
  g_counting = false;
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(reused, 0u);
  EXPECT_EQ(b.payload(reused) - ValueArena::kHeaderBytes, a_page);
  EXPECT_EQ(pool.pages(), 1u);
  EXPECT_TRUE(a.CheckFreeList());
  EXPECT_TRUE(b.CheckFreeList());
}

TEST(ValueArena, PagesOfChunksAbovePageSizeNeverEnterThePool) {
  PagePool pool;
  ValueArena arena(2 * kPageSize, &pool);
  const uint32_t s0 = arena.Allocate();
  const uint32_t s1 = arena.Allocate();
  arena.Free(s1);
  arena.Free(s0);
  EXPECT_EQ(pool.pages(), 0u);
  EXPECT_EQ(arena.held_pages(), 2u);  // one slot per page
  EXPECT_EQ(arena.resident_bytes(), 4 * kPageSize);
  EXPECT_TRUE(arena.CheckFreeList());
  EXPECT_EQ(arena.Allocate(), s0);  // recycled in place, lowest first
  EXPECT_EQ(arena.held_pages(), 2u);
}

TEST(ValueArena, CheckFreeListRejectsCrossPageLinksAndDoubleFrees) {
  PagePool pool;
  ValueArena arena(kChunk, &pool);
  const std::vector<uint32_t> slots = AllocateN(&arena, 2 * kPerPage);
  arena.Free(slots[1]);
  arena.Free(slots[kPerPage + 1]);
  ASSERT_TRUE(arena.CheckFreeList());

  // A page-0 free slot linking into page 1.
  arena.header(slots[1])->free_next = slots[kPerPage + 2];
  EXPECT_FALSE(arena.CheckFreeList());
  arena.header(slots[1])->free_next = ValueArena::kNullSlot;
  ASSERT_TRUE(arena.CheckFreeList());

  // What freeing the page-1 free-list head again leaves behind (the
  // Debug-build assert is off in Release): the slot links to itself.
  arena.header(slots[kPerPage + 1])->free_next = slots[kPerPage + 1];
  EXPECT_FALSE(arena.CheckFreeList());
}

// The span contract at the ValueStore level: a view into a slot whose page
// empties into the pool keeps its bytes through further frees and reads,
// and only the next store — which may open that very page — changes them.
TEST(ValueStoreSpan, ViewOfAPooledPageHoldsUntilTheNextStore) {
  ValueStore store;
  const int view_class = SlabClassFor(1000);  // alone on its page
  const int other_class = SlabClassFor(100);
  const std::string payload(900, 'v');
  store.StorePhysical(1, view_class, payload.data(), 900, 0, 1, 0);
  store.StorePhysical(2, other_class, "aaaa", 4, 0, 2, 0);
  store.StorePhysical(3, other_class, "bbbb", 4, 0, 3, 0);

  ValueView view;
  store.FillView(store.Find(1), &view);
  ASSERT_EQ(view.size, 900u);
  store.OnKeyGone(1);
  EXPECT_EQ(store.pooled_bytes(), kPageSize);
  EXPECT_EQ(std::memcmp(view.data, payload.data(), 900), 0);

  store.OnKeyGone(2);  // a free on another class's still-held page
  ValueView other;
  store.FillView(store.Find(3), &other);  // a read
  EXPECT_EQ(std::string(other.data, other.size), "bbbb");
  store.OnValueDrop(3);  // the other page empties too, on top of the pool
  EXPECT_EQ(store.pooled_bytes(), 2 * kPageSize);
  EXPECT_EQ(std::memcmp(view.data, payload.data(), 900), 0);
  EXPECT_TRUE(store.CheckInvariants());

  // Stores reopen pooled pages, last pooled first: the second one lands
  // on the viewed page and overwrites it.
  const std::string fresh(900, 'w');
  store.StorePhysical(4, view_class, fresh.data(), 900, 0, 4, 0);
  store.StorePhysical(5, view_class + 1, fresh.data(), 900, 0, 5, 0);
  EXPECT_EQ(store.pooled_bytes(), 0u);
  EXPECT_NE(std::memcmp(view.data, payload.data(), 900), 0);
  EXPECT_TRUE(store.CheckInvariants());
}

}  // namespace
}  // namespace cliffhanger
