#include "cache/value_store.h"

#include <cassert>
#include <cstring>

namespace cliffhanger {

ValueStore::Ref ValueStore::Find(uint64_t key) const {
  Ref ref;
  const uint32_t packed = index_.Find(key);
  if (packed == FlatIndex::kNotFound) return ref;
  ref.found = true;
  ref.slab_class = static_cast<int>(packed >> 28);
  ref.slot = packed & kNoSlot;
  return ref;
}

ValueArena& ValueStore::ArenaFor(int slab_class) {
  assert(slab_class >= 0 && slab_class < kMaxSlabClasses);
  auto& arena = arenas_[slab_class];
  if (!arena) {
    arena = std::make_unique<ValueArena>(ChunkSize(slab_class), &pool_);
  }
  return *arena;
}

uint32_t ValueStore::DropSlot(const Ref& ref) {
  if (ref.has_slot()) {
    ValueArena& arena = *arenas_[ref.slab_class];
    value_bytes_ -= arena.header(ref.slot)->value_size;
    arena.Free(ref.slot);
  }
  return Pack(ref.slab_class, kNoSlot);
}

void ValueStore::StorePhysical(uint64_t key, int slab_class, const void* data,
                               uint32_t size, uint32_t flags, uint64_t cas,
                               uint32_t stored_s) {
  const Ref old = Find(key);
  if (old.found) DropSlot(old);

  ValueArena& arena = ArenaFor(slab_class);
  assert(size <= arena.payload_capacity());
  const uint32_t slot = arena.Allocate();
  assert(slot < kNoSlot);
  ValueArena::SlotHeader* h = arena.header(slot);
  h->cas = cas;
  h->value_size = size;
  h->flags = flags;
  h->stored_s = stored_s;
  if (size > 0) std::memcpy(arena.payload(slot), data, size);
  value_bytes_ += size;

  const uint32_t packed = Pack(slab_class, slot);
  if (old.found) {
    index_.Replace(key, packed);
  } else {
    index_.Insert(key, packed);
  }
}

void ValueStore::RegisterShadow(uint64_t key, int slab_class) {
  const Ref old = Find(key);
  const uint32_t packed = Pack(slab_class, kNoSlot);
  if (old.found) {
    DropSlot(old);
    index_.Replace(key, packed);
  } else {
    index_.Insert(key, packed);
  }
}

void ValueStore::RewriteInPlace(const Ref& ref, const void* data,
                                uint32_t size, uint32_t flags, uint64_t cas,
                                uint32_t stored_s) {
  assert(ref.has_slot());
  ValueArena& arena = *arenas_[ref.slab_class];
  assert(size <= arena.payload_capacity());
  ValueArena::SlotHeader* h = arena.header(ref.slot);
  value_bytes_ += size;
  value_bytes_ -= h->value_size;
  h->cas = cas;
  h->value_size = size;
  h->flags = flags;
  h->stored_s = stored_s;
  if (size > 0) std::memcpy(arena.payload(ref.slot), data, size);
}

const ValueArena::SlotHeader& ValueStore::Header(const Ref& ref) const {
  assert(ref.has_slot());
  return *arenas_[ref.slab_class]->header(ref.slot);
}

void ValueStore::FillView(const Ref& ref, ValueView* view) const {
  assert(ref.has_slot());
  const ValueArena& arena = *arenas_[ref.slab_class];
  const ValueArena::SlotHeader* h = arena.header(ref.slot);
  view->data = arena.payload(ref.slot);
  view->size = h->value_size;
  view->flags = h->flags;
  view->cas = h->cas;
  view->stored_s = h->stored_s;
}

void ValueStore::OnValueDrop(uint64_t key) {
  const Ref ref = Find(key);
  if (!ref.has_slot()) return;  // shadow/unregistered: nothing resident
  index_.Replace(key, DropSlot(ref));
}

void ValueStore::OnKeyGone(uint64_t key) {
  const Ref ref = Find(key);
  if (!ref.found) return;
  DropSlot(ref);
  index_.Erase(key);
}

std::vector<ValueStore::ClassOccupancy> ValueStore::Occupancy() const {
  std::vector<ClassOccupancy> out;
  for (int k = 0; k < kMaxSlabClasses; ++k) {
    if (!arenas_[k]) continue;
    ClassOccupancy o;
    o.slab_class = k;
    o.chunk_size = arenas_[k]->chunk_size();
    o.used_chunks = arenas_[k]->live_slots();
    o.free_chunks = arenas_[k]->free_slots();
    o.total_pages = arenas_[k]->held_pages();
    o.resident_bytes = arenas_[k]->resident_bytes();
    out.push_back(o);
  }
  return out;
}

bool ValueStore::CheckInvariants() const {
  uint64_t live_bytes = 0;
  uint64_t live_slots = 0;
  for (int k = 0; k < kMaxSlabClasses; ++k) {
    if (!arenas_[k]) continue;
    if (!arenas_[k]->CheckFreeList()) return false;
    live_slots += arenas_[k]->live_slots();
  }
  uint64_t indexed_slots = 0;
  bool ok = true;
  index_.ForEach([&](uint64_t key, uint32_t packed) {
    (void)key;
    const auto slab_class = static_cast<int>(packed >> 28);
    const uint32_t slot = packed & kNoSlot;
    if (slab_class >= kMaxSlabClasses) ok = false;
    if (slot == kNoSlot) return;
    if (!arenas_[slab_class] || !arenas_[slab_class]->IsLive(slot)) {
      ok = false;
      return;
    }
    ++indexed_slots;
    live_bytes += arenas_[slab_class]->header(slot)->value_size;
  });
  return ok && indexed_slots == live_slots && live_bytes == value_bytes_;
}

}  // namespace cliffhanger
