// Counting-allocator proof of the in-arena design's headline property: at
// steady state, the GET/SET hot path performs ZERO heap allocations — in the
// core and in the adapter's burst path above it.
//
// The global operator new/delete are overridden in this translation unit
// (this test gets its own binary, so nothing else is affected) with a
// windowed counter. The nothrow forms count too: libstdc++ reaches for them
// internally (std::stable_sort's temporary buffer, for one), and an
// allocation is an allocation whichever form makes it.
//
// A ShardedCacheServer running real value storage is churned through
// eviction-heavy SET/GET traffic until every pool is at its high-water
// mark — queue node arenas, flat indexes, value-arena pages
// and free lists — and then the same traffic runs again with counting on.
// Any allocation inside the window is a regression: payload writes must be
// memcpy into recycled slots, index updates must be open-addressing
// relinks, and evictions must push slots onto free lists.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sharded_server.h"
#include "net/ascii_protocol.h"
#include "net/cache_adapter.h"
#include "sim/experiment.h"
#include "util/hashing.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

void* CountedAlloc(size_t size) {
  void* p = CountedMalloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace cliffhanger {
namespace {

constexpr uint32_t kApp = 1;

// Eviction-heavy single-class churn: the keyset's chunk footprint is ~2x
// the reservation, so every warm pass both fills recycled slots and evicts
// through the listener.
struct HotPathRig {
  explicit HotPathRig(const ServerConfig& server_config)
      : config(MakeConfig(server_config)), server(config) {
    server.AddApp(kApp, 256 * 1024);
    keys.reserve(kKeys);
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "hot" + std::to_string(i);
      keys.push_back(Fnv1a64(key));
    }
    value.assign(64, 'h');
  }

  static ShardedServerConfig MakeConfig(const ServerConfig& server_config) {
    ShardedServerConfig config;
    config.server = server_config;
    config.server.store_values = true;
    config.num_shards = 2;
    // The rebalancer allocates when it fires; it is cadence-driven, not
    // hot-path, so park it far beyond this test's op count.
    config.rebalance_interval_ops = 1ULL << 40;
    return config;
  }

  void Pass(uint32_t now_s) {
    for (int i = 0; i < kKeys; ++i) {
      ItemMeta item{keys[static_cast<size_t>(i)], 8,
                    static_cast<uint32_t>(value.size())};
      item.now_s = now_s;
      server.SetValue(kApp, item, value.data(), 0,
                      static_cast<uint64_t>(i) + 1);
      // GET a key stored a while ago: a mix of hits (recent survivors) and
      // misses (already evicted), both on the counted path.
      const uint64_t probe = keys[static_cast<size_t>((i * 7 + 3) % kKeys)];
      server.GetValue(kApp, probe, 8, now_s, /*flush_at_s=*/0);
    }
  }

  static constexpr int kKeys = 4096;
  ShardedServerConfig config;
  ShardedCacheServer server;
  std::vector<uint64_t> keys;
  std::string value;
};

class HotPathAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(HotPathAllocTest, SteadyStateGetSetAllocatesNothing) {
  const bool cliffhanger = GetParam();
  HotPathRig rig(cliffhanger ? CliffhangerServerConfig()
                             : DefaultServerConfig());

  // Warmup: reach every high-water mark (index tables, node pools, arena
  // pages, free lists). Three passes: the first grows, the rest prove the
  // pools stable before the measured window opens.
  for (uint32_t pass = 0; pass < 3; ++pass) rig.Pass(/*now_s=*/1 + pass);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  rig.Pass(/*now_s=*/10);
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "heap allocations leaked into the steady-state GET/SET hot path";

  // The window exercised real traffic, not a no-op: bytes are resident and
  // the keyset overflows the reservation (eviction ran inside the window).
  const ShardedCacheServer::ValueStats vs = rig.server.MergedValueStats();
  EXPECT_GT(vs.value_bytes, 0u);
  EXPECT_LT(vs.tracked_keys, static_cast<uint64_t>(HotPathRig::kKeys) +
                                 1);  // bounded by keyset
  const ClassStats stats = rig.server.TotalStats();
  EXPECT_GT(stats.gets, 0u);
  EXPECT_LT(stats.hits, stats.gets);
}

// Parses a pipelined stream up front, the way the socket server's burst
// cycle hands frames to the adapter; the Commands alias `wire`.
std::vector<net::Command> ParseAll(const std::string& wire) {
  std::vector<net::Command> cmds;
  net::AsciiParser parser;
  size_t pos = 0;
  while (pos < wire.size()) {
    net::Command cmd;
    size_t consumed = 0;
    const net::ParseStatus status =
        parser.Next(std::string_view(wire).substr(pos), &consumed, &cmd);
    pos += consumed;
    if (status != net::ParseStatus::kCommand) break;
    cmds.push_back(std::move(cmd));
  }
  return cmds;
}

// The adapter's burst path at steady state: pre-parsed get, multiget and
// set bursts through HandleBatch + ReleaseBurstPins — the socket server's
// exact per-burst call sequence, segments reset and reused in place — must
// not touch the allocator either. Pure-GET bursts pin their shard batches
// (zero-copy), set bursts do not, so both execution modes are covered.
TEST_P(HotPathAllocTest, SteadyStateAdapterBurstsAllocateNothing) {
  const bool cliffhanger = GetParam();
  ShardedServerConfig config = HotPathRig::MakeConfig(
      cliffhanger ? CliffhangerServerConfig() : DefaultServerConfig());
  config.num_shards = 4;
  ShardedCacheServer server(config);
  server.AddApp(kApp, 256 * 1024);
  net::CacheAdapterConfig adapter_config;
  adapter_config.default_app_id = kApp;
  adapter_config.clock = [] { return uint32_t{100}; };
  net::CacheAdapter adapter(&server, adapter_config);

  constexpr int kBurstKeys = 24;
  const std::string value(64, 'v');
  std::string get_wire;
  std::string multiget_wire = "get";
  std::string set_wire;
  for (int i = 0; i < kBurstKeys; ++i) {
    const std::string key = "burst" + std::to_string(i);
    get_wire += "get " + key + "\r\n";
    multiget_wire += " " + key;
    set_wire += "set " + key + " 0 0 64\r\n" + value + "\r\n";
  }
  multiget_wire += "\r\n";
  const std::vector<net::Command> gets = ParseAll(get_wire);
  const std::vector<net::Command> multiget = ParseAll(multiget_wire);
  const std::vector<net::Command> sets = ParseAll(set_wire);
  ASSERT_EQ(gets.size(), static_cast<size_t>(kBurstKeys));
  ASSERT_EQ(multiget.size(), 1u);
  ASSERT_EQ(sets.size(), static_cast<size_t>(kBurstKeys));

  std::vector<net::ResponseSegment> segments;
  const auto burst = [&](const std::vector<net::Command>& cmds) {
    for (net::ResponseSegment& seg : segments) seg.Reset();
    EXPECT_TRUE(adapter.HandleBatch(cmds.data(), cmds.size(), &segments));
    adapter.ReleaseBurstPins();
  };
  const auto round = [&] {
    burst(sets);
    burst(gets);
    burst(multiget);
  };
  // Warmup grows every reused capacity (segment strings, the adapter's
  // thread-local op and grouping scratch, pin storage, core pools).
  for (int i = 0; i < 3; ++i) round();

  const net::CacheAdapter::Counters before = adapter.counters();
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) round();
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u)
      << "heap allocations leaked into the steady-state adapter burst path";
  // The window served real hits: every key was stored before it was read.
  const net::CacheAdapter::Counters after = adapter.counters();
  EXPECT_EQ(after.get_hits - before.get_hits, 10u * 2 * kBurstKeys);
  EXPECT_EQ(after.cmd_set - before.cmd_set, 10u * kBurstKeys);
}

INSTANTIATE_TEST_SUITE_P(Configs, HotPathAllocTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Cliffhanger" : "DefaultLru";
                         });

}  // namespace
}  // namespace cliffhanger
