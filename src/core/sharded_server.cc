#include "core/sharded_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cliffhanger {

// One shard: its CacheServer behind its mutex. Padded to a cache line so
// one shard's lock and op count never share a line with a neighbour's
// (false sharing would serialize otherwise independent shards).
struct alignas(64) ShardedCacheServer::Shard {
  mutable std::mutex mu;
  std::unique_ptr<CacheServer> server;  // guarded by mu
  // Hill-shadow hit totals per app at the last rebalance (guarded by mu).
  std::map<uint32_t, uint64_t> shadow_baseline;
  // Rebalance trigger (all op kinds); bumped after the lock is released.
  std::atomic<uint64_t> ops{0};
};

ShardedCacheServer::ShardedCacheServer(const ShardedServerConfig& config)
    : config_(config), num_shards_(std::max<size_t>(1, config.num_shards)) {
  config_.num_shards = num_shards_;  // keep config() consistent when 0 passed
  shards_.reserve(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    auto shard = std::make_unique<Shard>();
    ServerConfig shard_config = config_.server;
    // Decorrelate the shards' controller RNG streams (Algorithm 1 picks
    // random victims; identical streams would move memory in lockstep).
    shard_config.seed = HashCombine(config_.server.seed, 0x5AD0000 + i);
    shard->server = std::make_unique<CacheServer>(shard_config);
    shards_.push_back(std::move(shard));
  }
}

ShardedCacheServer::~ShardedCacheServer() = default;

void ShardedCacheServer::AddApp(uint32_t app_id, uint64_t reservation) {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  assert(app_totals_.find(app_id) == app_totals_.end());
  app_totals_[app_id] = reservation;
  // Largest-remainder split: every shard gets floor(total/N), the first
  // (total % N) shards one byte more, so the shares sum to the total.
  const uint64_t base = reservation / num_shards_;
  const uint64_t remainder = reservation % num_shards_;
  for (size_t i = 0; i < num_shards_; ++i) {
    const uint64_t share = base + (i < remainder ? 1 : 0);
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    shards_[i]->server->AddApp(app_id, share);
    shards_[i]->shadow_baseline[app_id] = 0;
  }
}

bool ShardedCacheServer::RemoveApp(uint32_t app_id) {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto it = app_totals_.find(app_id);
  if (it == app_totals_.end()) return false;
  app_totals_.erase(it);
  const auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    shard->server->RemoveApp(app_id);
    shard->shadow_baseline.erase(app_id);
  }
  // Each shard just redistributed the departing share to its survivors
  // (cross-app mode); fold those windfalls into the registered totals so
  // the next Rebalance re-divides what the apps actually hold.
  if (config_.server.allocation == AllocationMode::kCliffhanger &&
      config_.server.knobs.cross_app) {
    RefreshAppTotalsLocked();
  }
  return true;
}

// The routed verbs are one-op ShardBatches: one lock and rebalance-cadence
// discipline for every op, batched or not.

Outcome ShardedCacheServer::Get(uint32_t app_id, const ItemMeta& item) {
  return BeginBatch(ShardForKey(item.key)).Get(app_id, item);
}

bool ShardedCacheServer::Set(uint32_t app_id, const ItemMeta& item) {
  return BeginBatch(ShardForKey(item.key)).Set(app_id, item);
}

bool ShardedCacheServer::Touch(uint32_t app_id, const ItemMeta& item) {
  return BeginBatch(ShardForKey(item.key)).Touch(app_id, item);
}

void ShardedCacheServer::Delete(uint32_t app_id, const ItemMeta& item) {
  BeginBatch(ShardForKey(item.key)).Delete(app_id, item);
}

ValueOutcome ShardedCacheServer::GetValue(uint32_t app_id, uint64_t key,
                                          uint32_t key_size, uint32_t now_s,
                                          uint32_t flush_at_s) {
  return BeginBatch(ShardForKey(key))
      .GetValue(app_id, key, key_size, now_s, flush_at_s);
}

ValueOutcome ShardedCacheServer::PeekValue(uint32_t app_id, uint64_t key,
                                           uint32_t now_s,
                                           uint32_t flush_at_s) {
  return BeginBatch(ShardForKey(key)).PeekValue(app_id, key, now_s,
                                                flush_at_s);
}

bool ShardedCacheServer::SetValue(uint32_t app_id, const ItemMeta& item,
                                  const void* data, uint32_t flags,
                                  uint64_t cas) {
  return BeginBatch(ShardForKey(item.key))
      .SetValue(app_id, item, data, flags, cas);
}

ReplaceResult ShardedCacheServer::ReplaceValue(uint32_t app_id, uint64_t key,
                                               uint32_t key_size,
                                               const void* data,
                                               uint32_t size, uint64_t cas,
                                               uint32_t now_s) {
  return BeginBatch(ShardForKey(key))
      .ReplaceValue(app_id, key, key_size, data, size, cas, now_s);
}

bool ShardedCacheServer::TouchValue(uint32_t app_id, uint64_t key,
                                    uint32_t key_size, uint32_t expiry_s,
                                    uint32_t now_s, uint32_t flush_at_s) {
  return BeginBatch(ShardForKey(key))
      .TouchValue(app_id, key, key_size, expiry_s, now_s, flush_at_s);
}

bool ShardedCacheServer::DeleteValue(uint32_t app_id, uint64_t key,
                                     uint32_t now_s, uint32_t flush_at_s) {
  return BeginBatch(ShardForKey(key)).DeleteValue(app_id, key, now_s,
                                                  flush_at_s);
}

// ---------------------------------------------------------------------------
// ShardBatch: one lock acquisition amortized over a burst of same-shard ops.
// ---------------------------------------------------------------------------

ShardedCacheServer::ShardBatch::ShardBatch(ShardedCacheServer* owner,
                                           size_t shard_index)
    : owner_(owner),
      shard_(owner->shards_[shard_index].get()),
      shard_index_(shard_index),
      lock_(shard_->mu) {}

ShardedCacheServer::ShardBatch::ShardBatch(ShardBatch&& other) noexcept
    : owner_(other.owner_),
      shard_(other.shard_),
      shard_index_(other.shard_index_),
      lock_(std::move(other.lock_)),
      ops_(other.ops_) {
  other.owner_ = nullptr;
}

ShardedCacheServer::ShardBatch::~ShardBatch() {
  if (owner_ == nullptr) return;
  // Release the shard lock, then advance the rebalance cadence (which may
  // run Rebalance() — it takes apps_mu_ plus every shard lock, so it must
  // never run while this batch still holds one).
  if (lock_.owns_lock()) lock_.unlock();
  owner_->BumpOpCount(*shard_, ops_);
}

void ShardedCacheServer::ShardBatch::Unlock() {
  if (lock_.owns_lock()) lock_.unlock();
}

bool ShardedCacheServer::ShardBatch::HasApp(uint32_t app_id) const {
  assert(lock_.owns_lock());
  return shard_->server->app(app_id) != nullptr;
}

Outcome ShardedCacheServer::ShardBatch::Get(uint32_t app_id,
                                            const ItemMeta& item) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(item.key) == shard_index_);
  const Outcome outcome = shard_->server->Get(app_id, item);
  ++ops_;
  return outcome;
}

bool ShardedCacheServer::ShardBatch::Set(uint32_t app_id,
                                         const ItemMeta& item) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(item.key) == shard_index_);
  const bool counted = shard_->server->Set(app_id, item);
  ++ops_;
  return counted;
}

bool ShardedCacheServer::ShardBatch::Touch(uint32_t app_id,
                                           const ItemMeta& item) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(item.key) == shard_index_);
  const bool resident = shard_->server->Touch(app_id, item);
  ++ops_;
  return resident;
}

void ShardedCacheServer::ShardBatch::Delete(uint32_t app_id,
                                            const ItemMeta& item) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(item.key) == shard_index_);
  shard_->server->Delete(app_id, item);
  ++ops_;
}

ValueOutcome ShardedCacheServer::ShardBatch::GetValue(uint32_t app_id,
                                                      uint64_t key,
                                                      uint32_t key_size,
                                                      uint32_t now_s,
                                                      uint32_t flush_at_s) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(key) == shard_index_);
  const ValueOutcome vo =
      shard_->server->GetByKey(app_id, key, key_size, now_s, flush_at_s);
  ++ops_;
  return vo;
}

ValueOutcome ShardedCacheServer::ShardBatch::PeekValue(uint32_t app_id,
                                                       uint64_t key,
                                                       uint32_t now_s,
                                                       uint32_t flush_at_s) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(key) == shard_index_);
  const ValueOutcome vo =
      shard_->server->PeekByKey(app_id, key, now_s, flush_at_s);
  ++ops_;
  return vo;
}

bool ShardedCacheServer::ShardBatch::SetValue(uint32_t app_id,
                                              const ItemMeta& item,
                                              const void* data,
                                              uint32_t flags, uint64_t cas) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(item.key) == shard_index_);
  const bool counted =
      shard_->server->SetValue(app_id, item, data, flags, cas);
  ++ops_;
  return counted;
}

ReplaceResult ShardedCacheServer::ShardBatch::ReplaceValue(
    uint32_t app_id, uint64_t key, uint32_t key_size, const void* data,
    uint32_t size, uint64_t cas, uint32_t now_s) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(key) == shard_index_);
  const ReplaceResult result = shard_->server->ReplaceValue(
      app_id, key, key_size, data, size, cas, now_s);
  ++ops_;
  return result;
}

bool ShardedCacheServer::ShardBatch::TouchValue(uint32_t app_id, uint64_t key,
                                                uint32_t key_size,
                                                uint32_t expiry_s,
                                                uint32_t now_s,
                                                uint32_t flush_at_s) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(key) == shard_index_);
  const bool resident = shard_->server->TouchByKey(app_id, key, key_size,
                                                   expiry_s, now_s,
                                                   flush_at_s);
  ++ops_;
  return resident;
}

bool ShardedCacheServer::ShardBatch::DeleteValue(uint32_t app_id,
                                                 uint64_t key, uint32_t now_s,
                                                 uint32_t flush_at_s) {
  assert(lock_.owns_lock());
  assert(owner_->ShardForKey(key) == shard_index_);
  const bool was_valid =
      shard_->server->DeleteByKey(app_id, key, now_s, flush_at_s);
  ++ops_;
  return was_valid;
}

ShardedCacheServer::ShardBatch ShardedCacheServer::BeginBatch(
    size_t shard_index) {
  assert(shard_index < num_shards_);
  return ShardBatch(this, shard_index);
}

std::vector<std::unique_lock<std::mutex>> ShardedCacheServer::LockAllShards()
    const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_shards_);
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  return locks;
}

ClassStats ShardedCacheServer::TotalStats() const {
  const auto locks = LockAllShards();
  ClassStats total;
  for (const auto& shard : shards_) total += shard->server->TotalStats();
  return total;
}

ClassStats ShardedCacheServer::ShardStats(size_t shard) const {
  assert(shard < num_shards_);
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->server->TotalStats();
}

ShardedCacheServer::ValueStats ShardedCacheServer::MergedValueStats() const {
  const auto locks = LockAllShards();
  ValueStats total;
  for (const auto& shard : shards_) {
    for (const uint32_t app_id : shard->server->app_ids()) {
      const AppCache* app = shard->server->app(app_id);
      const ValueStore* store = app->value_store();
      if (store == nullptr) continue;
      total.value_bytes += store->value_bytes();
      total.tracked_keys += store->tracked_keys();
      total.pooled_bytes += store->pooled_bytes();
      for (const ValueStore::ClassOccupancy& o : store->Occupancy()) {
        ClassUse& use = total.classes[o.slab_class];
        use.chunk_size = o.chunk_size;
        use.used_chunks += o.used_chunks;
        use.free_chunks += o.free_chunks;
        use.total_pages += o.total_pages;
        use.resident_bytes += o.resident_bytes;
      }
    }
  }
  return total;
}

ClassStats ShardedCacheServer::AppStats(uint32_t app_id) const {
  const auto locks = LockAllShards();
  ClassStats total;
  for (const auto& shard : shards_) {
    const AppCache* app = shard->server->app(app_id);
    if (app != nullptr) total += app->TotalStats();
  }
  return total;
}

// The registered total, read under apps_mu_ alone — monitoring callers must
// not stall all N shards for a value AddApp records and Rebalance conserves
// by construction. The conservation invariant itself (per-shard shares sum
// to this) is what sharded_server_test checks via AppShardReservation.
uint64_t ShardedCacheServer::AppReservation(uint32_t app_id) const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto it = app_totals_.find(app_id);
  return it == app_totals_.end() ? 0 : it->second;
}

uint64_t ShardedCacheServer::AppShardReservation(uint32_t app_id,
                                                 size_t shard) const {
  assert(shard < num_shards_);
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  const AppCache* app = shards_[shard]->server->app(app_id);
  return app == nullptr ? 0 : app->reservation();
}

std::vector<uint32_t> ShardedCacheServer::app_ids() const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  std::vector<uint32_t> ids;
  ids.reserve(app_totals_.size());
  for (const auto& [id, total] : app_totals_) ids.push_back(id);
  return ids;
}

uint64_t ShardedCacheServer::rebalance_count() const {
  return rebalances_.load(std::memory_order_relaxed);
}

// Counted on the shard's own padded line so the hot path never contends on
// a process-global counter; the busiest shard drives the cadence. For a
// batch of n ops the trigger fires when the count crosses an interval
// boundary — for n == 1 that reduces to the classic "every interval-th op"
// modulo check, so batched and unbatched traffic share one cadence.
void ShardedCacheServer::BumpOpCount(Shard& shard, uint64_t n) {
  const uint64_t interval = config_.rebalance_interval_ops;
  if (interval == 0 || n == 0) return;
  const uint64_t prev = shard.ops.fetch_add(n, std::memory_order_relaxed);
  if ((prev + n) / interval != prev / interval) {
    Rebalance();
  }
}

void ShardedCacheServer::Rebalance() {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto locks = LockAllShards();
  if (config_.server.allocation == AllocationMode::kCliffhanger &&
      config_.server.knobs.cross_app) {
    // The cross-app climbers have been trading memory between apps inside
    // each shard since the last rebalance; re-divide what each app holds
    // now, not its stale registered total.
    RefreshAppTotalsLocked();
  }
  for (const auto& [app_id, total] : app_totals_) {
    RebalanceAppLocked(app_id, total);
  }
  rebalances_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedCacheServer::RefreshAppTotalsLocked() {
  for (auto& [app_id, total] : app_totals_) {
    uint64_t sum = 0;
    for (const auto& shard : shards_) {
      const AppCache* app = shard->server->app(app_id);
      if (app != nullptr) sum += app->reservation();
    }
    total = sum;
  }
}

uint64_t ShardedCacheServer::TotalReservation() const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto locks = LockAllShards();
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->server->total_reservation();
  }
  return total;
}

bool ShardedCacheServer::CheckInvariants() const {
  std::lock_guard<std::mutex> apps_lock(apps_mu_);
  const auto locks = LockAllShards();
  for (const auto& shard : shards_) {
    if (!shard->server->CheckInvariants()) return false;
  }
  const bool cross_app =
      config_.server.allocation == AllocationMode::kCliffhanger &&
      config_.server.knobs.cross_app;
  if (!cross_app) {
    // Static per-app totals: every app's shard shares must sum to its
    // registered reservation (AddApp splits it; Rebalance conserves it).
    for (const auto& [app_id, total] : app_totals_) {
      uint64_t sum = 0;
      for (const auto& shard : shards_) {
        const AppCache* app = shard->server->app(app_id);
        if (app != nullptr) sum += app->reservation();
      }
      if (sum != total) return false;
    }
  }
  return true;
}

// Pre: apps_mu_ and every shard lock held.
//
// Each shard's hill-shadow hits since the last rebalance estimate how much
// that shard's slice of the app would gain from more memory (§3.4: the
// shadow hit rate approximates the request-weighted hit-rate-curve
// gradient). The app's total moves a `rebalance_step` fraction toward the
// shadow-share target; with no signal anywhere the +1 smoothing makes the
// target an even split, so a skewed initial division decays geometrically.
void ShardedCacheServer::RebalanceAppLocked(uint32_t app_id,
                                            uint64_t total_reservation) {
  const size_t n = num_shards_;
  if (n <= 1 || total_reservation == 0) return;

  std::vector<uint64_t> current(n, 0);
  std::vector<double> weight(n, 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    AppCache* app = shards_[i]->server->app(app_id);
    if (app == nullptr) return;
    current[i] = app->reservation();
    const uint64_t shadow = app->TotalStats().hill_shadow_hits;
    uint64_t& baseline = shards_[i]->shadow_baseline[app_id];
    const uint64_t delta = shadow - baseline;
    baseline = shadow;
    weight[i] = 1.0 + static_cast<double>(delta);
    weight_sum += weight[i];
  }

  // Blend toward the shadow-share target, then integerize with the
  // largest-remainder method so the shares sum to the total exactly.
  const double step = std::clamp(config_.rebalance_step, 0.0, 1.0);
  const double total = static_cast<double>(total_reservation);
  std::vector<double> desired(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    desired[i] = (1.0 - step) * static_cast<double>(current[i]) +
                 step * total * (weight[i] / weight_sum);
  }
  std::vector<uint64_t> next(n, 0);
  std::vector<std::pair<double, size_t>> fractions;
  fractions.reserve(n);
  uint64_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double floored = std::floor(desired[i]);
    next[i] = static_cast<uint64_t>(std::max(0.0, floored));
    assigned += next[i];
    fractions.emplace_back(desired[i] - floored, i);
  }
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  size_t cursor = 0;
  while (assigned < total_reservation && cursor < fractions.size()) {
    ++next[fractions[cursor++].second];
    ++assigned;
  }
  // Defensive: absorb any residual rounding drift into shard 0 so the
  // invariant sum(next) == total_reservation always holds.
  if (assigned < total_reservation) next[0] += total_reservation - assigned;
  while (assigned > total_reservation) {
    for (size_t i = 0; i < n && assigned > total_reservation; ++i) {
      if (next[i] > 0) {
        --next[i];
        --assigned;
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (next[i] != current[i]) {
      shards_[i]->server->app(app_id)->SetReservation(next[i]);
    }
  }
}

}  // namespace cliffhanger
