// ShardedCacheServer: a thread-safe front over N independent CacheServer
// shards, selected by key hash (ShardIndexForKey). Each shard owns the full
// §4.3 controller state (hill climber, cliff scalers) for its slice of every
// application's key space, behind one per-shard mutex, so the paper's
// incremental algorithms keep running unmodified under concurrent traffic.
//
// Concurrency model:
//  - Every operation runs inside a ShardBatch (BeginBatch), which holds the
//    lock of the one shard its keys hash to. The routed verbs (Get, Set,
//    GetValue, ...) are one-op batches on ShardForKey(key); a caller that
//    groups a burst of ops by shard opens one batch per shard touched and
//    pays one lock acquisition for the whole group. Ops on different
//    shards act on disjoint cache state and same-key ops always hash to the
//    same shard, so shard-grouped execution that preserves the per-shard
//    op order yields the same cache state as one-op routing.
//  - Statistics live in one place: each shard's CacheServer. TotalStats()
//    and the per-app accessors take every shard lock (in index order) and
//    sum the shards' own counters, so every snapshot is exact and mutually
//    consistent; there is no second, lock-free copy to drift from it.
//  - An application's reservation is split across shards (largest-remainder,
//    so the split always sums to the registered total). A periodic rebalance
//    re-divides each app's total in proportion to the shards' hill-shadow
//    hit rates — the same signal Algorithm 1 uses — so static hash
//    partitioning cannot starve a shard that would profit from more memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/cache_server.h"
#include "util/hashing.h"

namespace cliffhanger {

struct ShardedServerConfig {
  // Template for every shard; each shard's RNG seed is decorrelated by
  // hashing the shard index into `server.seed`.
  ServerConfig server;
  size_t num_shards = 4;
  // A rebalance triggers whenever any single shard has processed this many
  // operations since its last trigger (counted per shard so the hot path
  // never touches a shared counter line). 0 = only explicit Rebalance().
  uint64_t rebalance_interval_ops = 0;
  // Fraction of the gap between a shard's current reservation and its
  // shadow-signal target that one rebalance closes. Small steps keep the
  // split stable against noisy shadow hits (same spirit as §5.1).
  double rebalance_step = 0.25;
};

class ShardedCacheServer {
 private:
  struct Shard;  // declared up front: the public ShardBatch refers to it

 public:
  explicit ShardedCacheServer(const ShardedServerConfig& config);
  ~ShardedCacheServer();
  ShardedCacheServer(const ShardedCacheServer&) = delete;
  ShardedCacheServer& operator=(const ShardedCacheServer&) = delete;

  // Registers the app on every shard, splitting `reservation` across them.
  // Safe to call while traffic runs: each shard registers the app under
  // its own lock, and until the last shard has it, ops on the shards that
  // lack it soft-fail as an unknown app.
  void AddApp(uint32_t app_id, uint64_t reservation);

  // Tenant departure: removes the app from every shard (queues, shadow
  // nodes and value slots are reclaimed eagerly by the per-shard
  // CacheServer::RemoveApp, which also retires the app's statistics into
  // the shard's cumulative TotalStats). Safe to call concurrently with
  // traffic — in-flight ops that already routed to the app soft-fail once
  // the shard lock serializes them behind the removal. In cross-app mode
  // each shard redistributes the departing share to its surviving tenants
  // (conserving the shard total) and the registered app totals are
  // refreshed from the live shard sums so the next Rebalance cannot claw
  // the windfall back.
  // Returns false for an unknown app.
  bool RemoveApp(uint32_t app_id);

  // Thread-safe routed operations, each a one-op ShardBatch on the key's
  // shard; ops for an unknown app soft-fail (CacheServer's routed verbs).
  // Set returns true when the item was cacheable (same as
  // CacheServer::Set). Touch refreshes expiry + recency of a resident item
  // (no statistics mutation).
  Outcome Get(uint32_t app_id, const ItemMeta& item);
  bool Set(uint32_t app_id, const ItemMeta& item);
  bool Touch(uint32_t app_id, const ItemMeta& item);
  void Delete(uint32_t app_id, const ItemMeta& item);

  // Value-mode routed verbs (ServerConfig::store_values; see the AppCache
  // declarations for semantics). NOTE on GetValue/PeekValue lifetimes: the
  // returned ValueOutcome::view borrows arena memory guarded by the shard
  // lock — with the routed verbs the lock is already released on return, so
  // the view is only safe if no other thread can mutate the shard. Callers
  // needing a stable span across concurrent traffic must go through a
  // ShardBatch and keep it alive while reading the view.
  ValueOutcome GetValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                        uint32_t now_s, uint32_t flush_at_s);
  ValueOutcome PeekValue(uint32_t app_id, uint64_t key, uint32_t now_s,
                         uint32_t flush_at_s);
  bool SetValue(uint32_t app_id, const ItemMeta& item, const void* data,
                uint32_t flags, uint64_t cas);
  ReplaceResult ReplaceValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                             const void* data, uint32_t size, uint64_t cas,
                             uint32_t now_s);
  bool TouchValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                  uint32_t expiry_s, uint32_t now_s, uint32_t flush_at_s);
  bool DeleteValue(uint32_t app_id, uint64_t key, uint32_t now_s,
                   uint32_t flush_at_s);

  // Holds one shard's lock for a burst of operations, so a caller that has
  // already grouped its ops by shard pays one lock acquisition per burst
  // instead of one per op. Every key passed to a batch method MUST hash to
  // the batch's shard, and the batch must still hold its lock (both
  // asserted in debug builds). The rebalance cadence is deferred to the
  // destructor, which adds the batch's op count after releasing the shard
  // lock and may fire Rebalance().
  class ShardBatch {
   public:
    ~ShardBatch();
    ShardBatch(ShardBatch&& other) noexcept;
    ShardBatch(const ShardBatch&) = delete;
    ShardBatch& operator=(const ShardBatch&) = delete;
    ShardBatch& operator=(ShardBatch&&) = delete;

    // Same semantics and counting discipline as the routed verbs above.
    Outcome Get(uint32_t app_id, const ItemMeta& item);
    bool Set(uint32_t app_id, const ItemMeta& item);
    bool Touch(uint32_t app_id, const ItemMeta& item);
    void Delete(uint32_t app_id, const ItemMeta& item);

    // Whether the shard hosts `app_id` right now — the tenant registry the
    // verbs themselves consult, read under the lock this batch holds, so
    // the answer cannot change before the batch's next op runs.
    [[nodiscard]] bool HasApp(uint32_t app_id) const;

    // Value-mode batch verbs. A ValueOutcome::view returned here stays
    // valid for exactly as long as this batch holds the shard lock AND no
    // further mutating call is made through it — the natural pattern for a
    // zero-copy GET burst: collect views, write them out, then destroy (or
    // Unlock()) the batch.
    ValueOutcome GetValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                          uint32_t now_s, uint32_t flush_at_s);
    ValueOutcome PeekValue(uint32_t app_id, uint64_t key, uint32_t now_s,
                           uint32_t flush_at_s);
    bool SetValue(uint32_t app_id, const ItemMeta& item, const void* data,
                  uint32_t flags, uint64_t cas);
    ReplaceResult ReplaceValue(uint32_t app_id, uint64_t key,
                               uint32_t key_size, const void* data,
                               uint32_t size, uint64_t cas, uint32_t now_s);
    bool TouchValue(uint32_t app_id, uint64_t key, uint32_t key_size,
                    uint32_t expiry_s, uint32_t now_s, uint32_t flush_at_s);
    bool DeleteValue(uint32_t app_id, uint64_t key, uint32_t now_s,
                     uint32_t flush_at_s);

    // Releases the shard lock early, before destruction. Borrowed views
    // die here. Required when a caller pins several batches at once and a
    // destructor side effect (BumpOpCount -> Rebalance, which takes every
    // shard lock) could otherwise run while sibling batches still hold
    // theirs: Unlock() all pins first, then let the destructors run
    // lock-free. Idempotent; no further ops are legal.
    void Unlock();

    [[nodiscard]] size_t shard_index() const { return shard_index_; }

   private:
    friend class ShardedCacheServer;
    ShardBatch(ShardedCacheServer* owner, size_t shard_index);

    ShardedCacheServer* owner_;  // nullptr after move-from: dtor is a no-op
    Shard* shard_;
    size_t shard_index_;
    std::unique_lock<std::mutex> lock_;
    uint64_t ops_ = 0;  // rebalance-cadence contribution
  };

  // Opens a batch on one shard (locks it until the ShardBatch dies).
  [[nodiscard]] ShardBatch BeginBatch(size_t shard_index);

  [[nodiscard]] size_t num_shards() const { return num_shards_; }
  [[nodiscard]] size_t ShardForKey(uint64_t key) const {
    return ShardIndexForKey(key, num_shards_);
  }
  [[nodiscard]] const ShardedServerConfig& config() const { return config_; }

  // Exact snapshots straight from the shards' own statistics. TotalStats
  // holds every shard lock at once, so the sum is mutually consistent; it
  // is cumulative across tenant churn (each shard keeps the statistics of
  // the apps RemoveApp retired), so it never goes backwards.
  [[nodiscard]] ClassStats TotalStats() const;
  [[nodiscard]] ClassStats ShardStats(size_t shard) const;

  // Per-app views. AppStats holds every shard lock for a consistent
  // cross-shard sum; AppReservation is the registered total (O(1), no
  // shard locks — rebalancing conserves it by construction);
  // AppShardReservation reads one shard's current share.
  // Real value-memory occupancy summed across every shard and app, taken
  // under all shard locks for a mutually consistent snapshot (the `stats`
  // command's `bytes` / `stats slabs` surface). Empty when the shards were
  // not built with store_values.
  struct ClassUse {
    uint32_t chunk_size = 0;
    uint64_t used_chunks = 0;
    uint64_t free_chunks = 0;
    uint64_t total_pages = 0;
    uint64_t resident_bytes = 0;
  };
  struct ValueStats {
    uint64_t value_bytes = 0;   // live payload bytes across all slots
    uint64_t tracked_keys = 0;  // index entries (resident + shadow)
    uint64_t pooled_bytes = 0;  // emptied pages awaiting reuse
    std::map<int, ClassUse> classes;
    // Arena page bytes held from the heap: every class's pages plus the
    // pools (memcached's total_malloced).
    [[nodiscard]] uint64_t held_bytes() const {
      uint64_t held = pooled_bytes;
      for (const auto& [cls, use] : classes) held += use.resident_bytes;
      return held;
    }
  };
  [[nodiscard]] ValueStats MergedValueStats() const;

  [[nodiscard]] ClassStats AppStats(uint32_t app_id) const;
  [[nodiscard]] uint64_t AppReservation(uint32_t app_id) const;
  [[nodiscard]] uint64_t AppShardReservation(uint32_t app_id,
                                             size_t shard) const;
  [[nodiscard]] std::vector<uint32_t> app_ids() const;

  // Re-divides every app's total reservation across shards toward each
  // shard's share of hill-shadow hits since the previous rebalance. Also
  // runs automatically every `rebalance_interval_ops` operations. In
  // cross-app mode the per-app totals are first refreshed from the live
  // shard sums (the cross-app climber moves memory between apps inside
  // each shard, so the registered totals go stale between rebalances).
  void Rebalance();
  [[nodiscard]] uint64_t rebalance_count() const;

  // Sum of the live reservations across every shard and app, under all
  // locks. Conserved by climber transfers, rebalances, and cross-app
  // removals (while at least one tenant survives).
  [[nodiscard]] uint64_t TotalReservation() const;

  // Runs every shard's CacheServer::CheckInvariants under all locks; with
  // cross_app off additionally checks that each app's shard shares sum to
  // its registered total. Test/debug only.
  [[nodiscard]] bool CheckInvariants() const;

 private:
  // Adds `n` to the shard's op counter and fires Rebalance() when the count
  // crosses a rebalance_interval_ops boundary (for n == 1 this is exactly
  // the classic "every interval-th op" trigger).
  void BumpOpCount(Shard& shard, uint64_t n = 1);
  void RebalanceAppLocked(uint32_t app_id, uint64_t total_reservation);
  // Pre: apps_mu_ and every shard lock held. Re-reads each app's live
  // cross-shard reservation sum into app_totals_.
  void RefreshAppTotalsLocked();
  // Acquires every shard mutex in ascending index order (the lock-order
  // rule); all whole-server snapshots and the rebalancer go through this.
  [[nodiscard]] std::vector<std::unique_lock<std::mutex>> LockAllShards()
      const;

  ShardedServerConfig config_;
  size_t num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Lock order: apps_mu_ first, then shard mutexes in ascending index order.
  mutable std::mutex apps_mu_;
  std::map<uint32_t, uint64_t> app_totals_;  // registered reservation per app

  std::atomic<uint64_t> rebalances_{0};
};

}  // namespace cliffhanger
