// Thread-safety battery for ShardedCacheServer: several threads hammer
// Get/Set/Delete on one shared server (run under ThreadSanitizer in CI via
// the `concurrency` ctest label), then the test asserts the invariants that
// concurrency must not break:
//   - every cacheable operation is counted exactly once (no lost updates),
//   - the lock-free TotalStats equals the exact MergedStats equals the sum
//     of the per-shard snapshots,
//   - every app's reservation stays conserved across shards even while the
//     shadow-signal rebalancer is re-dividing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "core/sharded_server.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "workload/zipf.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppA = 1;
constexpr uint32_t kAppB = 2;
constexpr uint64_t kReservationA = 4ULL << 20;  // 4 MiB
constexpr uint64_t kReservationB = 2ULL << 20;  // 2 MiB

ItemMeta MakeItem(uint64_t key) {
  ItemMeta item;
  item.key = key;
  item.key_size = 16;
  item.value_size = (key % 2 == 0) ? 64 : 400;
  return item;
}

void ExpectStatsEqual(const ClassStats& a, const ClassStats& b,
                      const char* label) {
  EXPECT_EQ(a.gets, b.gets) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.sets, b.sets) << label;
  EXPECT_EQ(a.tail_hits, b.tail_hits) << label;
  EXPECT_EQ(a.cliff_shadow_hits, b.cliff_shadow_hits) << label;
  EXPECT_EQ(a.hill_shadow_hits, b.hill_shadow_hits) << label;
}

// The conservation invariant under test: the shards' current shares must
// sum to the registered total at any observable moment.
uint64_t SumShardReservations(const ShardedCacheServer& server,
                              uint32_t app_id) {
  uint64_t total = 0;
  for (size_t i = 0; i < server.num_shards(); ++i) {
    total += server.AppShardReservation(app_id, i);
  }
  return total;
}

ShardedServerConfig HammerConfig(size_t num_shards,
                                 uint64_t rebalance_interval) {
  ShardedServerConfig config;
  config.server = CliffhangerServerConfig();
  config.num_shards = num_shards;
  config.rebalance_interval_ops = rebalance_interval;
  return config;
}

// Worker mixing demand-fill GETs, explicit SETs and DELETEs over a Zipf
// key population, tallying what it issued so the main thread can check
// nothing was lost.
struct WorkerTally {
  uint64_t gets = 0;
  uint64_t sets = 0;
};

WorkerTally Hammer(ShardedCacheServer& server, uint32_t thread_id,
                   size_t num_ops, const ZipfTable& zipf) {
  Rng rng(0xBEEF0000ULL + thread_id);
  WorkerTally tally;
  for (size_t i = 0; i < num_ops; ++i) {
    const uint32_t app_id = rng.NextBernoulli(0.7) ? kAppA : kAppB;
    const ItemMeta item =
        MakeItem(HashCombine(app_id, zipf.Sample(rng)));
    const double dice = rng.NextDouble();
    if (dice < 0.80) {
      const Outcome outcome = server.Get(app_id, item);
      ++tally.gets;
      if (!outcome.hit && outcome.cacheable) {
        server.Set(app_id, item);
        ++tally.sets;
      }
    } else if (dice < 0.95) {
      server.Set(app_id, item);
      ++tally.sets;
    } else {
      server.Delete(app_id, item);
    }
  }
  return tally;
}

TEST(ShardedServerTest, ConcurrentHammerKeepsInvariants) {
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 25000;
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4,
                                         /*rebalance_interval=*/20000));
  server.AddApp(kAppA, kReservationA);
  server.AddApp(kAppB, kReservationB);

  const ZipfTable zipf(20000, 0.9);
  std::vector<WorkerTally> tallies(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        tallies[t] = Hammer(server, static_cast<uint32_t>(t),
                            kOpsPerThread, zipf);
      });
    }
    for (auto& thread : threads) thread.join();
  }

  // No lost updates: the counted operations equal the issued ones.
  WorkerTally issued;
  for (const WorkerTally& tally : tallies) {
    issued.gets += tally.gets;
    issued.sets += tally.sets;
  }
  const ClassStats total = server.TotalStats();
  EXPECT_EQ(total.gets, issued.gets);
  EXPECT_EQ(total.sets, issued.sets);
  EXPECT_GT(total.hits, 0u);
  EXPECT_LT(total.hits, total.gets);

  // The lock-free counters, the exact merged snapshot, the per-shard sums
  // and the per-app sums all agree once writers are quiescent.
  ExpectStatsEqual(total, server.MergedStats(), "total vs merged");
  ClassStats per_shard_sum;
  for (size_t i = 0; i < server.num_shards(); ++i) {
    per_shard_sum += server.ShardStats(i);
  }
  ExpectStatsEqual(total, per_shard_sum, "total vs per-shard sum");
  ClassStats per_app_sum;
  per_app_sum += server.AppStats(kAppA);
  per_app_sum += server.AppStats(kAppB);
  ExpectStatsEqual(total, per_app_sum, "total vs per-app sum");

  // Rebalancing ran and conserved each tenant's total reservation: the
  // per-shard shares sum to the registered total.
  EXPECT_GT(server.rebalance_count(), 0u);
  EXPECT_EQ(server.AppReservation(kAppA), kReservationA);
  EXPECT_EQ(server.AppReservation(kAppB), kReservationB);
  EXPECT_EQ(SumShardReservations(server, kAppA), kReservationA);
  EXPECT_EQ(SumShardReservations(server, kAppB), kReservationB);
}

// Readers taking lock-free and locking snapshots race the writers; under
// ThreadSanitizer this validates the snapshot paths, and the monotonicity
// of the lock-free gets counter is asserted directly. (No cross-counter
// assertion: the mirror counters are independent relaxed atomics, so a
// reader on weakly-ordered hardware may see hits/gets increments of one
// operation in either order.)
TEST(ShardedServerTest, SnapshotsAreSafeAndMonotonicDuringTraffic) {
  constexpr size_t kWriters = 2;
  constexpr size_t kOpsPerThread = 15000;
  ShardedCacheServer server(HammerConfig(/*num_shards=*/2,
                                         /*rebalance_interval=*/10000));
  server.AddApp(kAppA, kReservationA);
  server.AddApp(kAppB, kReservationB);

  const ZipfTable zipf(10000, 0.9);
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    uint64_t last_gets = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ClassStats total = server.TotalStats();
      if (total.gets < last_gets) {
        failed.store(true);
        break;
      }
      last_gets = total.gets;
      (void)server.MergedStats();
      (void)server.AppReservation(kAppA);
      (void)server.rebalance_count();
    }
  });
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        Hammer(server, 100 + static_cast<uint32_t>(t), kOpsPerThread, zipf);
      });
    }
    for (auto& thread : writers) thread.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(SumShardReservations(server, kAppA), kReservationA);
  EXPECT_EQ(SumShardReservations(server, kAppB), kReservationB);
}

// An explicit Rebalance storm while traffic runs: reservations must stay
// conserved at every step, and a shard that shows no shadow signal drifts
// toward the even split rather than collapsing.
TEST(ShardedServerTest, ManualRebalanceConservesAndEvens) {
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4,
                                         /*rebalance_interval=*/0));
  server.AddApp(kAppA, kReservationA);

  const ZipfTable zipf(5000, 0.9);
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const ItemMeta item = MakeItem(zipf.Sample(rng));
      if (!server.Get(kAppA, item).hit) server.Set(kAppA, item);
    }
    server.Rebalance();
    EXPECT_EQ(SumShardReservations(server, kAppA), kReservationA)
        << "round " << round;
  }
  EXPECT_EQ(server.rebalance_count(), 20u);

  // With hash-balanced traffic no shard should end up starved: each holds
  // at least half of the even share.
  for (size_t i = 0; i < server.num_shards(); ++i) {
    EXPECT_GE(server.AppShardReservation(kAppA, i),
              kReservationA / server.num_shards() / 2)
        << "shard " << i;
  }
}

// --- Batch API equivalence -------------------------------------------------

struct GetOp {
  uint32_t app_id;
  ItemMeta item;
};
struct MutationOp {
  uint32_t app_id;
  MutateOp op;
  ItemMeta item;
};

// Runs ops[0, count) grouped by shard through BeginBatch, one batch per
// shard touched. The grouping is stable, so same-shard (and therefore
// same-key) ops keep their relative order — the property that makes
// grouped execution equivalent to one-op routing. `run(batch, op, i)`
// executes ops[i].
template <typename Op, typename Run>
void RunGroupedByShard(ShardedCacheServer& server, const std::vector<Op>& ops,
                       Run run) {
  const auto shard_of = [&](size_t i) {
    return server.ShardForKey(ops[i].item.key);
  };
  std::vector<size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shard_of(a) < shard_of(b);
  });
  size_t i = 0;
  while (i < order.size()) {
    const size_t shard = shard_of(order[i]);
    ShardedCacheServer::ShardBatch batch = server.BeginBatch(shard);
    for (; i < order.size() && shard_of(order[i]) == shard; ++i) {
      run(batch, ops[order[i]], order[i]);
    }
  }
}

// Two identical servers replay the same scripted op stream, one through the
// routed Get/Mutate calls and one through shard-grouped BeginBatch bursts of
// awkward sizes. Batching groups ops by shard but must change nothing
// observable: every per-op Outcome, and the counters at every aggregation
// level, must be bit-identical. Rebalance is off because the batched path
// intentionally defers the op-count bump to burst end; with a nonzero
// interval the rebalance would land mid-burst on one side and post-burst on
// the other.
TEST(ShardedServerTest, BatchedOpsMatchSequentialBitExactly) {
  const ShardedServerConfig config =
      HammerConfig(/*num_shards=*/4, /*rebalance_interval=*/0);
  ShardedCacheServer sequential(config);
  ShardedCacheServer batched(config);
  for (ShardedCacheServer* server : {&sequential, &batched}) {
    server->AddApp(kAppA, kReservationA);
    server->AddApp(kAppB, kReservationB);
  }

  const ZipfTable zipf(3000, 0.9);
  Rng rng(0xBA7C4);
  // Alternate mutation bursts (demand fills + touches + erases) and get
  // bursts; awkward burst sizes so shard runs split at odd boundaries.
  const size_t kBurstSizes[] = {1, 7, 37, 64, 3, 50};
  size_t burst_pick = 0;
  std::vector<GetOp> gets;
  std::vector<MutationOp> mutations;
  for (int round = 0; round < 300; ++round) {
    const size_t burst = kBurstSizes[burst_pick++ % 6];
    const bool mutate_round = round % 2 == 1;
    gets.clear();
    mutations.clear();
    for (size_t i = 0; i < burst; ++i) {
      const uint32_t app = rng.NextBernoulli(0.7) ? kAppA : kAppB;
      const ItemMeta item = MakeItem(zipf.Sample(rng));
      if (mutate_round) {
        const uint64_t pick = rng.NextBounded(10);
        const MutateOp op = pick < 7   ? MutateOp::kFill
                            : pick < 9 ? MutateOp::kTouch
                                       : MutateOp::kErase;
        mutations.push_back({app, op, item});
      } else {
        gets.push_back({app, item});
      }
    }
    if (mutate_round) {
      std::vector<Outcome> batch_out(mutations.size());
      RunGroupedByShard(batched, mutations,
                        [&](ShardedCacheServer::ShardBatch& batch,
                            const MutationOp& m, size_t i) {
                          batch_out[i] = batch.Mutate(m.app_id, m.op, m.item);
                        });
      for (size_t i = 0; i < mutations.size(); ++i) {
        const Outcome seq_out = sequential.Mutate(
            mutations[i].app_id, mutations[i].op, mutations[i].item);
        EXPECT_EQ(batch_out[i].hit, seq_out.hit) << "round " << round;
        EXPECT_EQ(batch_out[i].cacheable, seq_out.cacheable)
            << "round " << round;
        EXPECT_EQ(batch_out[i].region, seq_out.region) << "round " << round;
      }
    } else {
      std::vector<Outcome> batch_out(gets.size());
      RunGroupedByShard(batched, gets,
                        [&](ShardedCacheServer::ShardBatch& batch,
                            const GetOp& g, size_t i) {
                          batch_out[i] = batch.Get(g.app_id, g.item);
                        });
      for (size_t i = 0; i < gets.size(); ++i) {
        const Outcome seq_out = sequential.Get(gets[i].app_id, gets[i].item);
        EXPECT_EQ(batch_out[i].hit, seq_out.hit) << "round " << round;
        EXPECT_EQ(batch_out[i].region, seq_out.region) << "round " << round;
      }
    }
  }

  ExpectStatsEqual(sequential.MergedStats(), batched.MergedStats(), "merged");
  ExpectStatsEqual(sequential.AppStats(kAppA), batched.AppStats(kAppA),
                   "appA");
  ExpectStatsEqual(sequential.AppStats(kAppB), batched.AppStats(kAppB),
                   "appB");
  for (size_t shard = 0; shard < sequential.num_shards(); ++shard) {
    ExpectStatsEqual(sequential.ShardStats(shard), batched.ShardStats(shard),
                     "shard");
  }
  // The stream must actually have exercised misses and shadow traffic for
  // the equality to mean anything.
  const ClassStats merged = batched.MergedStats();
  EXPECT_GT(merged.gets, 0u);
  EXPECT_LT(merged.hits, merged.gets);
}

// Concurrent batch hammer: several threads push overlapping batches at one
// server (the TSan job sanitizes this via the `concurrency` label). The
// per-burst counter deltas published at batch end must not lose updates:
// the exact MergedStats tally has to equal the sum of what threads issued.
TEST(ShardedServerTest, ConcurrentBatchesKeepCountersExact) {
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4,
                                         /*rebalance_interval=*/2048));
  server.AddApp(kAppA, kReservationA);
  server.AddApp(kAppB, kReservationB);

  constexpr int kThreads = 4;
  constexpr size_t kBursts = 120;
  constexpr size_t kBurstOps = 48;
  const ZipfTable zipf(2000, 0.9);
  std::atomic<uint64_t> issued_gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xC0FFEEULL + static_cast<uint64_t>(t));
      std::vector<GetOp> gets;
      std::vector<MutationOp> fills;
      std::vector<Outcome> outcomes(kBurstOps);
      uint64_t local_gets = 0;
      for (size_t b = 0; b < kBursts; ++b) {
        gets.clear();
        for (size_t i = 0; i < kBurstOps; ++i) {
          const uint32_t app = rng.NextBernoulli(0.5) ? kAppA : kAppB;
          gets.push_back({app, MakeItem(zipf.Sample(rng))});
        }
        RunGroupedByShard(server, gets,
                          [&](ShardedCacheServer::ShardBatch& batch,
                              const GetOp& g, size_t i) {
                            outcomes[i] = batch.Get(g.app_id, g.item);
                          });
        local_gets += gets.size();
        // Demand-fill the misses through the mutation batch.
        fills.clear();
        for (size_t i = 0; i < gets.size(); ++i) {
          if (!outcomes[i].hit) {
            fills.push_back({gets[i].app_id, MutateOp::kFill, gets[i].item});
          }
        }
        RunGroupedByShard(server, fills,
                          [&](ShardedCacheServer::ShardBatch& batch,
                              const MutationOp& m, size_t i) {
                            outcomes[i] = batch.Mutate(m.app_id, m.op, m.item);
                          });
      }
      issued_gets.fetch_add(local_gets);
    });
  }
  for (auto& thread : threads) thread.join();

  const ClassStats merged = server.MergedStats();
  EXPECT_EQ(merged.gets, issued_gets.load());
  EXPECT_EQ(SumShardReservations(server, kAppA), kReservationA);
  EXPECT_EQ(SumShardReservations(server, kAppB), kReservationB);
}

// Tenant churn races traffic: one thread adds and removes apps (holding
// all shard locks per wave) while workers hammer the whole id space —
// including ids mid-removal and ids never added, which must soft-fail.
// Afterwards every queue/arena invariant must hold, each surviving
// tenant's shards must still sum to its registered reservation, and the
// server-wide total must match the arithmetic of the churn.
TEST(ShardedServerTest, TenantChurnUnderTrafficKeepsInvariants) {
  constexpr size_t kThreads = 3;
  constexpr size_t kOpsPerThread = 20000;
  constexpr uint32_t kInitialApps = 8;
  constexpr uint32_t kWaves = 24;
  ShardedCacheServer server(HammerConfig(/*num_shards=*/4,
                                         /*rebalance_interval=*/10000));
  const auto reservation_for = [](uint32_t id) {
    return (1ULL << 20) + id * 4096;
  };
  std::vector<uint32_t> live;
  uint64_t expected_total = 0;
  for (uint32_t id = 1; id <= kInitialApps; ++id) {
    server.AddApp(id, reservation_for(id));
    live.push_back(id);
    expected_total += reservation_for(id);
  }

  const ZipfTable zipf(20000, 0.9);
  std::atomic<size_t> running{kThreads};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0xC0FFEE00ULL + t);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const auto app_id = static_cast<uint32_t>(
            1 + rng.NextBounded(kInitialApps + kWaves + 4));
        const ItemMeta item =
            MakeItem(HashCombine(app_id, zipf.Sample(rng)));
        const Outcome outcome = server.Get(app_id, item);
        if (!outcome.hit && outcome.cacheable) server.Set(app_id, item);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // Churn on the main thread while the workers run: retire the oldest
  // tenant, admit a fresh one, rebalance every few waves.
  uint32_t next_id = kInitialApps + 1;
  for (uint32_t wave = 0; wave < kWaves; ++wave) {
    const uint32_t departing = live.front();
    live.erase(live.begin());
    EXPECT_TRUE(server.RemoveApp(departing));
    expected_total -= reservation_for(departing);
    server.AddApp(next_id, reservation_for(next_id));
    live.push_back(next_id);
    expected_total += reservation_for(next_id);
    ++next_id;
    if (wave % 4 == 3) server.Rebalance();
    if (running.load(std::memory_order_acquire) == 0) {
      // Workers already done — keep churning anyway; the remaining waves
      // still exercise removal with zero in-flight traffic.
    }
    std::this_thread::yield();
  }
  for (auto& worker : workers) worker.join();

  EXPECT_TRUE(server.CheckInvariants());
  EXPECT_EQ(server.TotalReservation(), expected_total);
  for (const uint32_t id : live) {
    EXPECT_EQ(server.AppReservation(id), reservation_for(id));
    EXPECT_EQ(SumShardReservations(server, id), reservation_for(id));
  }
  // Ops that raced a removal soft-failed before being counted, so the
  // counters still describe a consistent workload.
  const ClassStats total = server.TotalStats();
  EXPECT_GT(total.hits, 0u);
  EXPECT_LE(total.hits, total.gets);
}

}  // namespace
}  // namespace cliffhanger
