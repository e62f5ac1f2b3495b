// ValueStore: the in-arena payload owner for one AppCache — key id ->
// (slab class, value slot), with the slot bytes living in per-class
// ValueArenas (util/value_arena.h).
//
// This replaces the network adapter's heap side-table of std::strings: the
// bytes clients store now live inside slab-class-sized slots, so
// `value_bytes()` / `Occupancy()` report real resident memory and the
// paper's reservation accounting finally governs the payload bytes too.
//
// Residency invariant: a key has a slot iff it is physically resident in
// its class queue. The store keeps itself truthful by being the queue's
// SegmentedLru::Listener —
//  - OnValueDrop (physical -> shadow demotion) frees the slot eagerly but
//    keeps the index entry as shadow-only (class remembered, no payload),
//    so later lookups keep probing the correct slab class;
//  - OnKeyGone (final eviction / delete / lazy-expiry erase) frees the
//    slot and forgets the key entirely.
// Eager reclamation is what closes the old adapter's documented window
// where add/replace consulted a stale liveness guess between an eviction
// and the next GET.
//
// Memory: the store owns one PagePool that all its class arenas share. A
// page a class empties (eviction, delete, climber shrink) parks there and
// is the next page any class of this app opens, so the bytes held follow
// what is resident rather than every class's high-water mark. The index
// carries no capacity hint: it grows geometrically with the keys tracked.
//
// Index packing: 4-bit slab class | 28-bit slot id in one uint32 FlatIndex
// value. kNoSlot (all-28-bits-set) marks shadow-only entries; the packed
// value is always < FlatIndex::kNotFound, so it never aliases "absent".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/segmented_lru.h"
#include "util/flat_index.h"
#include "util/slab_geometry.h"
#include "util/value_arena.h"

namespace cliffhanger {

// A borrowed, zero-copy window onto one stored value. `data` points into
// the slot's arena page; see core/sharded_server.h for the lifetime rule
// (stable until the next mutation of the owning shard).
struct ValueView {
  const char* data = nullptr;
  uint32_t size = 0;
  uint32_t flags = 0;
  uint64_t cas = 0;
  uint32_t stored_s = 0;  // store second, compared against the flush point
  uint32_t expiry_s = 0;  // absolute expiry (from the queue node); 0 = never
};

class ValueStore final : public SegmentedLru::Listener {
 public:
  static constexpr uint32_t kNoSlot = (1u << 28) - 1;  // shadow-only marker

  struct Ref {
    bool found = false;
    int slab_class = -1;
    uint32_t slot = kNoSlot;
    [[nodiscard]] bool has_slot() const { return found && slot != kNoSlot; }
  };

  ValueStore() = default;
  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  [[nodiscard]] Ref Find(uint64_t key) const;

  // Copy `size` bytes (and the header attributes) into a fresh slot of
  // `slab_class`'s arena and register the key as physically resident,
  // superseding any previous registration (whose slot, if any, is freed).
  void StorePhysical(uint64_t key, int slab_class, const void* data,
                     uint32_t size, uint32_t flags, uint64_t cas,
                     uint32_t stored_s);
  // Register the key as shadow-only in `slab_class`: the class survives so
  // later probes stay in the right queue, but no payload is held.
  void RegisterShadow(uint64_t key, int slab_class);
  // Overwrite an existing slot's payload and header in place (same class;
  // `size` must fit the class's chunk). Flags are preserved only if the
  // caller re-passes them — arithmetic/concat rewrites keep the old flags,
  // which the caller reads from Header() first.
  void RewriteInPlace(const Ref& ref, const void* data, uint32_t size,
                      uint32_t flags, uint64_t cas, uint32_t stored_s);

  [[nodiscard]] const ValueArena::SlotHeader& Header(const Ref& ref) const;
  // Fills everything except expiry_s (the queue node owns expiry).
  void FillView(const Ref& ref, ValueView* view) const;

  // SegmentedLru::Listener — fired by the class queues mid-eviction.
  void OnValueDrop(uint64_t key) override;
  void OnKeyGone(uint64_t key) override;

  // Real memory accounting (the `stats` surface).
  [[nodiscard]] uint64_t value_bytes() const { return value_bytes_; }
  [[nodiscard]] size_t tracked_keys() const { return index_.size(); }
  struct ClassOccupancy {
    int slab_class = 0;
    uint32_t chunk_size = 0;
    uint64_t used_chunks = 0;     // live slots (= physically resident items)
    uint64_t free_chunks = 0;     // vacant slots on the class's held pages
    uint64_t total_pages = 0;     // pages the class holds
    uint64_t resident_bytes = 0;  // bytes of those pages
  };
  [[nodiscard]] std::vector<ClassOccupancy> Occupancy() const;
  // Emptied pages waiting in the pool for the next class that opens one.
  [[nodiscard]] uint64_t pooled_bytes() const { return pool_.bytes(); }

  // Debug/test: every arena free-list intact and the byte counter equal to
  // the sum of live slot sizes.
  [[nodiscard]] bool CheckInvariants() const;

 private:
  [[nodiscard]] static uint32_t Pack(int slab_class, uint32_t slot) {
    return (static_cast<uint32_t>(slab_class) << 28) | slot;
  }
  ValueArena& ArenaFor(int slab_class);
  // Free ref's slot (if any) and subtract its bytes. Returns the packed
  // shadow marker for the ref's class.
  uint32_t DropSlot(const Ref& ref);

  FlatIndex index_;
  PagePool pool_;
  std::unique_ptr<ValueArena> arenas_[kMaxSlabClasses];
  uint64_t value_bytes_ = 0;
};

}  // namespace cliffhanger
