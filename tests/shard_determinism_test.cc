// Sharding must not distort the simulation: replaying one fixed-seed Zipf
// trace through 1 shard vs K shards (single-threaded, so the interleaving
// is fixed) must be bit-deterministic per configuration and yield per-app
// hit rates within a small tolerance of each other — splitting a tenant's
// keys and reservation K ways leaves K statistically identical sub-caches,
// so the Cliffhanger hit-rate gains of allocation_mode_smoke_test survive.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/sharded_server.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

constexpr uint32_t kAppId = 1;
constexpr uint64_t kReservation = 4ULL << 20;  // 4 MiB
constexpr size_t kRequests = 80000;

// Same shape as allocation_mode_smoke_test (the shared canonical builder):
// Zipf GETs over two value sizes, so every shard exercises at least two
// competing slab classes.
Trace MakeZipfTrace() {
  ZipfTraceSpec spec;
  spec.requests = kRequests;
  spec.app_id = kAppId;
  return MakeZipfMixTrace(spec);
}

// Single-threaded demand-fill replay (the sharded analogue of Replay()).
ClassStats ReplaySharded(ShardedCacheServer& server, const Trace& trace) {
  for (const Request& r : trace) {
    const ItemMeta item{r.key, r.key_size, r.value_size};
    const Outcome outcome = server.Get(r.app_id, item);
    if (!outcome.hit && outcome.cacheable) server.Set(r.app_id, item);
  }
  return server.AppStats(kAppId);
}

// gtest prints a parameter it has no printer for as its raw bytes, and
// ctest bakes that dump into the test name. The bytes after the one-byte
// mode are spelled out as zeroed members: left as compiler padding they
// held stale stack bytes, so the test's name changed from run to run.
struct ShardCase {
  AllocationMode mode;
  uint8_t zero[7];
  const char* name;
};
static_assert(std::has_unique_object_representations_v<ShardCase>,
              "ShardCase must have no padding bytes");

class ShardDeterminism : public ::testing::TestWithParam<ShardCase> {
 protected:
  [[nodiscard]] ShardedServerConfig Config(size_t num_shards) const {
    ShardedServerConfig config;
    config.server = GetParam().mode == AllocationMode::kCliffhanger
                        ? CliffhangerServerConfig()
                        : DefaultServerConfig();
    config.num_shards = num_shards;
    config.rebalance_interval_ops = 20000;
    return config;
  }

  [[nodiscard]] ClassStats Run(size_t num_shards, const Trace& trace) const {
    ShardedCacheServer server(Config(num_shards));
    server.AddApp(kAppId, kReservation);
    return ReplaySharded(server, trace);
  }
};

TEST_P(ShardDeterminism, SameTraceSameShardsIsBitDeterministic) {
  const Trace trace = MakeZipfTrace();
  for (const size_t shards : {1u, 4u}) {
    const ClassStats a = Run(shards, trace);
    const ClassStats b = Run(shards, trace);
    EXPECT_EQ(a.gets, b.gets) << shards << " shards";
    EXPECT_EQ(a.hits, b.hits) << shards << " shards";
    EXPECT_EQ(a.sets, b.sets) << shards << " shards";
    EXPECT_EQ(a.hill_shadow_hits, b.hill_shadow_hits) << shards << " shards";
  }
}

TEST_P(ShardDeterminism, HitRateSurvivesSharding) {
  const Trace trace = MakeZipfTrace();
  const ClassStats one = Run(1, trace);
  ASSERT_EQ(one.gets, kRequests);
  ASSERT_GT(one.hit_rate(), 0.0);
  ASSERT_LT(one.hit_rate(), 1.0);
  for (const size_t shards : {2u, 4u, 8u}) {
    const ClassStats sharded = Run(shards, trace);
    EXPECT_EQ(sharded.gets, kRequests) << shards << " shards";
    EXPECT_NEAR(sharded.hit_rate(), one.hit_rate(), 0.03)
        << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ShardDeterminism,
    ::testing::Values(
        ShardCase{AllocationMode::kFcfs, {}, "Fcfs"},
        ShardCase{AllocationMode::kCliffhanger, {}, "Cliffhanger"}),
    [](const ::testing::TestParamInfo<ShardCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cliffhanger
