#include "cache/slab_class_queue.h"

#include <algorithm>
#include <cassert>

#include "util/hashing.h"

namespace cliffhanger {

namespace {

// Per-key bookkeeping bytes in a shadow queue beyond the key itself (paper
// §5.7: "keys of 14 bytes" dominate, plus structure overhead). Derived from
// the arena implementation's real footprint — one 32-byte pool node plus
// one 12-byte flat-index slot — so the reported overhead tracks what this
// code would actually spend, not a guessed constant.
constexpr uint32_t kShadowNodeOverhead = SegmentedLru::kPerItemOverheadBytes;

std::vector<SegmentedLru::SegmentConfig> MakeSegments(
    const SlabQueueConfig& config) {
  using Unit = SegmentedLru::Unit;
  std::vector<SegmentedLru::SegmentConfig> segs(5);
  segs[0] = {0, Unit::kItems, false};  // head
  segs[1] = {0, Unit::kItems, false};  // mid (midpoint insertion target)
  segs[2] = {0, Unit::kItems, false};  // tail ("left of pointer" detector)
  segs[3] = {config.cliff_shadow_items, Unit::kItems, true};  // cliff shadow
  segs[4] = {std::max<uint64_t>(1, config.hill_shadow_bytes /
                                       config.chunk_size),
             Unit::kItems, true};  // hill shadow ("1 MB of requests")
  return segs;
}

}  // namespace

SlabClassQueue::SlabClassQueue(const SlabQueueConfig& config)
    : config_(config), lru_(MakeSegments(config)) {
  assert(config.chunk_size > 0);
}

void SlabClassQueue::ApplyCapacity() {
  // The tail is carved out of the physical capacity; when the queue is
  // smaller than the nominal tail, the whole queue is tail.
  const uint64_t tail =
      std::min<uint64_t>(config_.tail_items, capacity_items_);
  const uint64_t body = capacity_items_ - tail;
  uint64_t head = body;
  uint64_t mid = 0;
  if (config_.policy == InsertionPolicy::kMidpoint) {
    head = body / 2;
    mid = body - head;
  }
  // Shrink from the back so demotions cascade at most once.
  lru_.SetCapacity(kTail, tail);
  lru_.SetCapacity(kMid, mid);
  lru_.SetCapacity(kHead, head);
  ReserveFromCapacity();
}

void SlabClassQueue::ReserveFromCapacity() {
  // Capacity hint: pre-size the node pool and index for the physical
  // entries plus the cliff shadow, so the replay that fills this queue
  // never grows or rehashes mid-stream. The hint flows down from the app's
  // reservation through SetCapacityBytes / SetCapacityItems (page grants,
  // static allocations, climber transfers). The hill shadow is left out:
  // it represents 1 MiB per queue (16k keys at 64-byte chunks) however
  // few keys it holds, and counting it would size every queue's index for
  // that worst case; its entries grow the tables on demand instead.
  lru_.ReserveItems(static_cast<size_t>(
      capacity_items_ + lru_.segment_capacity(kCliffShadow)));
}

void SlabClassQueue::SetCapacityBytes(uint64_t bytes) {
  SetCapacityItems(bytes / config_.chunk_size);
}

void SlabClassQueue::SetCapacityItems(uint64_t items) {
  capacity_items_ = items;
  ApplyCapacity();
}

void SlabClassQueue::SetHillShadowBytes(uint64_t represented_bytes) {
  config_.hill_shadow_bytes = represented_bytes;
  lru_.SetCapacity(kHillShadow,
                   std::max<uint64_t>(1, represented_bytes /
                                             config_.chunk_size));
}

GetResult SlabClassQueue::Get(const ItemMeta& item) {
  GetResult result;
  // One index probe for the whole GET: the handle both classifies the hit
  // region and drives the promotion.
  const SegmentedLru::Handle h = lru_.FindHandle(item.key);
  if (h != SegmentedLru::kNoHandle && lru_.HandleExpired(h, item.now_s)) {
    // Lazy expiration (O(1), on access): the item — physical or shadow —
    // is erased and the access is a full miss, with no shadow credit; a
    // real memcached would have reclaimed it, so crediting the climbers
    // for it would overstate what extra memory could buy.
    lru_.EraseHandle(h);
    result.expired = true;
    return result;
  }
  const int seg = h == SegmentedLru::kNoHandle ? -1 : lru_.HandleSegment(h);
  switch (seg) {
    case kHead:
    case kMid:
      result.hit = true;
      result.region = HitRegion::kPhysical;
      result.expiry_s = lru_.HandleExpiry(h);
      lru_.Promote(h, kHead);
      break;
    case kTail:
      result.hit = true;
      result.region = HitRegion::kPhysicalTail;
      result.expiry_s = lru_.HandleExpiry(h);
      lru_.Promote(h, kHead);
      break;
    case kCliffShadow:
      result.region = HitRegion::kCliffShadow;
      break;
    case kHillShadow:
      result.region = HitRegion::kHillShadow;
      break;
    default:
      result.region = HitRegion::kMiss;
      break;
  }
  return result;
}

void SlabClassQueue::Fill(const ItemMeta& item) {
  lru_.Erase(item.key);  // a shadow entry may linger from the miss
  SegmentedLru::Entry entry;
  entry.key = item.key;
  entry.full_bytes = config_.chunk_size;
  entry.key_bytes = item.key_size + kShadowNodeOverhead;
  entry.expiry_s = item.expiry_s;
  const size_t target =
      config_.policy == InsertionPolicy::kMidpoint ? kMid : kHead;
  lru_.Insert(entry, target);
}

bool SlabClassQueue::Touch(const ItemMeta& item) {
  const SegmentedLru::Handle h = lru_.FindHandle(item.key);
  if (h == SegmentedLru::kNoHandle) return false;
  if (lru_.HandleExpired(h, item.now_s)) {
    lru_.EraseHandle(h);
    return false;
  }
  const int seg = lru_.HandleSegment(h);
  if (seg > static_cast<int>(kTail)) {
    return false;  // shadow-only entry: not really resident
  }
  if (item.expiry_s != kKeepExpiry) lru_.SetHandleExpiry(h, item.expiry_s);
  // memcached's touch refreshes LRU standing; it does not emit the GET
  // signals (no stats, no tail/shadow classification), so the climbers
  // see touches only through the eviction order they produce.
  lru_.Promote(h, kHead);
  return true;
}

void SlabClassQueue::Delete(uint64_t key) { lru_.Erase(key); }

Residency SlabClassQueue::ResidencyOf(uint64_t key) const {
  const int seg = lru_.Find(key);
  if (seg < 0) return Residency::kAbsent;
  return seg <= static_cast<int>(kTail) ? Residency::kPhysical
                                        : Residency::kShadow;
}

bool SlabClassQueue::PeekPhysical(uint64_t key, uint32_t* expiry_s) const {
  const SegmentedLru::Handle h = lru_.FindHandle(key);
  if (h == SegmentedLru::kNoHandle) return false;
  if (lru_.HandleSegment(h) > static_cast<int>(kTail)) return false;
  *expiry_s = lru_.HandleExpiry(h);
  return true;
}

uint64_t SlabClassQueue::shadow_overhead_bytes() const {
  return lru_.segment_bytes(kCliffShadow) + lru_.segment_bytes(kHillShadow);
}

// --- PartitionedSlabQueue ---

PartitionedSlabQueue::PartitionedSlabQueue(const PartitionConfig& config)
    : config_(config),
      left_(std::make_unique<SlabClassQueue>(config.queue)),
      right_(std::make_unique<SlabClassQueue>(config.queue)),
      partition_enabled_(config.partition_enabled) {}

Side PartitionedSlabQueue::Route(uint64_t key) const {
  if (!partition_enabled_) return Side::kLeft;
  return KeyToUnitInterval(key) < ratio_ ? Side::kLeft : Side::kRight;
}

GetResult PartitionedSlabQueue::Get(const ItemMeta& item) {
  const Side side = Route(item.key);
  SlabClassQueue& routed = side == Side::kLeft ? *left_ : *right_;
  SlabClassQueue& other = side == Side::kLeft ? *right_ : *left_;

  GetResult result = routed.Get(item);
  result.side = side;
  if (result.hit) return result;

  // The key may live in the other partition if the routing boundary moved
  // since it was inserted; a physical hit there is a real hit. Shadow state
  // on the unrouted side is intentionally ignored (it would bias the
  // scaler's gradient signals).
  const int other_seg = other.lru().Find(item.key);
  if (other_seg >= 0 && other_seg <= 2) {
    GetResult other_result = other.Get(item);
    // The inner Get may have lazily expired the entry; only a surviving
    // physical hit counts (the expiry still surfaces in the flag).
    result.expired = result.expired || other_result.expired;
    if (!other_result.hit) return result;
    other_result.side = side == Side::kLeft ? Side::kRight : Side::kLeft;
    // Report the routed side's shadow signal if it had one; otherwise the
    // plain physical hit.
    other_result.region = result.region == HitRegion::kMiss
                              ? other_result.region
                              : result.region;
    return other_result;
  }
  return result;
}

bool PartitionedSlabQueue::Touch(const ItemMeta& item) {
  const Side side = Route(item.key);
  SlabClassQueue& routed = side == Side::kLeft ? *left_ : *right_;
  SlabClassQueue& other = side == Side::kLeft ? *right_ : *left_;
  // Same both-sides rule as Get: a ratio move must not hide a resident
  // item from touch. Shadow entries report absent on either side.
  return routed.Touch(item) || other.Touch(item);
}

void PartitionedSlabQueue::Fill(const ItemMeta& item) {
  // Remove any stale copy from both sides before inserting fresh.
  left_->Delete(item.key);
  right_->Delete(item.key);
  SlabClassQueue& routed = Route(item.key) == Side::kLeft ? *left_ : *right_;
  routed.Fill(item);
}

void PartitionedSlabQueue::Delete(uint64_t key) {
  left_->Delete(key);
  right_->Delete(key);
}

void PartitionedSlabQueue::SetListener(SegmentedLru::Listener* listener) {
  left_->SetListener(listener);
  right_->SetListener(listener);
}

Residency PartitionedSlabQueue::ResidencyOf(uint64_t key) const {
  const Residency l = left_->ResidencyOf(key);
  if (l == Residency::kPhysical) return l;
  const Residency r = right_->ResidencyOf(key);
  if (r == Residency::kPhysical) return r;
  return l == Residency::kShadow || r == Residency::kShadow
             ? Residency::kShadow
             : Residency::kAbsent;
}

bool PartitionedSlabQueue::PeekPhysical(uint64_t key,
                                        uint32_t* expiry_s) const {
  return left_->PeekPhysical(key, expiry_s) ||
         right_->PeekPhysical(key, expiry_s);
}

void PartitionedSlabQueue::SetCapacityBytes(uint64_t bytes) {
  const uint64_t old_left = left_->capacity_items();
  const uint64_t old_right = right_->capacity_items();
  const uint64_t old_total = old_left + old_right;
  capacity_bytes_ = bytes;
  total_capacity_items_ = bytes / chunk_size();
  if (!partition_enabled_ || old_total == 0) {
    DistributeEvenly();
    return;
  }
  // Preserve the current split proportion; the cliff scaler will re-derive
  // the exact sizes from its pointers on the next miss.
  const uint64_t left = static_cast<uint64_t>(
      static_cast<double>(total_capacity_items_) *
      (static_cast<double>(old_left) / static_cast<double>(old_total)));
  SetPartitionItems(left, total_capacity_items_ - left);
}

void PartitionedSlabQueue::EnablePartition(bool enabled) {
  if (partition_enabled_ == enabled) return;
  partition_enabled_ = enabled;
  DistributeEvenly();
}

void PartitionedSlabQueue::SetRatio(double ratio) {
  ratio_ = std::clamp(ratio, 0.0, 1.0);
}

void PartitionedSlabQueue::DistributeEvenly() {
  if (!partition_enabled_) {
    // Single-queue behaviour: everything left.
    ratio_ = 1.0;
    left_->SetCapacityItems(total_capacity_items_);
    right_->SetCapacityItems(0);
    left_->SetHillShadowBytes(config_.queue.hill_shadow_bytes);
    right_->SetHillShadowBytes(0);
    return;
  }
  ratio_ = 0.5;
  const uint64_t half = total_capacity_items_ / 2;
  SetPartitionItems(half, total_capacity_items_ - half);
}

void PartitionedSlabQueue::SetPartitionItems(uint64_t left_items,
                                             uint64_t right_items) {
  left_->SetCapacityItems(left_items);
  right_->SetCapacityItems(right_items);
  // Split the hill shadow between the partitions (§5.1). We split by the
  // *request* ratio rather than the size proportion: a side receiving a
  // fraction t of the traffic with a shadow of 1MB*t keys represents
  // exactly 1MB of additional queue, keeping the hill-climbing gradient
  // estimate calibrated. (Splitting by size would inflate the minority
  // side's simulated reach by rightPointer/queueSize and over-credit
  // cliff classes in Algorithm 1.)
  const uint64_t left_shadow = static_cast<uint64_t>(
      static_cast<double>(config_.queue.hill_shadow_bytes) * ratio_);
  left_->SetHillShadowBytes(left_shadow);
  right_->SetHillShadowBytes(config_.queue.hill_shadow_bytes - left_shadow);
}

}  // namespace cliffhanger
