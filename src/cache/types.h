// Shared cache-layer types.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cliffhanger {

// Where a GET landed. The regions beyond kPhysical are the signals the
// Cliffhanger algorithms consume (paper §4.3):
//   kPhysicalTail — hit in the last `tail_items` of the physical queue
//                   ("left of the pointer" for the cliff scaler);
//   kCliffShadow  — hit in the small shadow right after the physical queue
//                   ("right of the pointer");
//   kHillShadow   — hit in the long shadow at the end (hill-climb credit).
enum class HitRegion : uint8_t {
  kMiss,
  kPhysical,
  kPhysicalTail,
  kCliffShadow,
  kHillShadow,
};

enum class Side : uint8_t { kLeft, kRight };

struct GetResult {
  bool hit = false;  // value present (kPhysical or kPhysicalTail)
  HitRegion region = HitRegion::kMiss;
  Side side = Side::kLeft;
  // True when this access lazily expired the entry (the erased-on-access
  // path). Such an access is a full miss; the flag lets a payload-serving
  // front count expiry-misses separately (memcached's get_expired) without
  // keeping its own expiry records.
  bool expired = false;
  // The stored expiry of the item a hit found (0 = never; also 0 on a
  // miss), so a caller serving the hit needs no second probe for it.
  uint32_t expiry_s = 0;
};

// Insertion discipline for the physical queue.
//   kLru      — new items at the head (memcached default).
//   kMidpoint — Facebook's hybrid scheme (§5.5): first insertion lands at
//               the middle of the queue; a later hit promotes to the head.
enum class InsertionPolicy : uint8_t { kLru, kMidpoint };

// Sizes of the item being operated on; value sizes are a deterministic
// function of the key in all generators, so a refill after a miss recreates
// the same footprint.
//
// Time model: the cache layers are clockless — every operation carries its
// own access time (`now_s`, seconds), so expiry is a deterministic function
// of the operation stream. The simulator derives now_s from the trace's
// virtual time; the network adapter stamps it from an injectable wall
// clock. `expiry_s` is the absolute expiry second stored on Fill (0 =
// never). An item is expired iff expiry_s != 0 && expiry_s <= now_s;
// now_s == 0 disables expiry evaluation (legacy/simulation callers), so
// real clocks must never report second 0.
struct ItemMeta {
  uint64_t key = 0;
  uint32_t key_size = 16;
  uint32_t value_size = 0;
  uint32_t expiry_s = 0;  // absolute expiry second; 0 = never expires
  uint32_t now_s = 0;     // access time for lazy expiry; 0 = no checking
};

[[nodiscard]] inline bool ExpiredAt(uint32_t expiry_s, uint32_t now_s) {
  return expiry_s != 0 && expiry_s <= now_s;
}

// Touch with ItemMeta::expiry_s == kKeepExpiry refreshes recency without
// changing the stored expiry — the incr/decr path, where the caller (e.g.
// a trace replay) may not know the item's stored TTL and must not clear
// it. Protocol exptime normalization never produces this value
// (net::AbsoluteExpiry clamps below it), so it is unambiguous.
inline constexpr uint32_t kKeepExpiry = UINT32_MAX;

// Full memcached item metadata as the upper layers carry it: the opaque
// client flags, the absolute expiry and the compare-and-swap version. The
// cache queues store only expiry_s (the piece eviction semantics depend
// on); flags and cas ride in the value slot's header when the server runs
// with in-arena value storage (ServerConfig::store_values — see
// cache/value_store.h and util/value_arena.h).
struct ItemAttrs {
  uint32_t flags = 0;
  uint32_t expiry_s = 0;  // absolute; 0 = never
  uint64_t cas = 0;       // monotonically assigned per store
};

// Minimal queue interface shared by the slab-class queue and the
// alternative eviction schemes (ARC, LFU) so the server and the benches can
// swap them freely.
class ClassQueue {
 public:
  virtual ~ClassQueue() = default;

  // Lookup + recency/frequency update. Does not insert on miss. Expiry is
  // lazy: a hit on an item whose stored expiry_s has passed item.now_s is
  // erased on the spot (O(1), no background sweeper) and classified as a
  // full miss — no shadow credit, exactly as if memcached had already
  // reclaimed it.
  virtual GetResult Get(const ItemMeta& item) = 0;
  // Store after a miss (demand fill) or an explicit SET; records
  // item.expiry_s with the entry.
  virtual void Fill(const ItemMeta& item) = 0;
  // Update an existing item's expiry to item.expiry_s and refresh its
  // recency/frequency standing (memcached `touch`). Returns true only when
  // the item was physically resident and unexpired at item.now_s; an
  // expired item is erased (same lazy path as Get) and reported absent.
  // Shadow-only entries are left untouched and reported absent.
  virtual bool Touch(const ItemMeta& item) = 0;
  virtual void Delete(uint64_t key) = 0;

  virtual void SetCapacityBytes(uint64_t bytes) = 0;
  [[nodiscard]] virtual uint64_t capacity_bytes() const = 0;
  [[nodiscard]] virtual uint64_t used_bytes() const = 0;
  [[nodiscard]] virtual size_t physical_items() const = 0;
};

}  // namespace cliffhanger
