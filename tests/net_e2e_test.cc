// End-to-end tests of the network front: a real SocketServer on an
// ephemeral loopback port, a CacheAdapter over a ShardedCacheServer, and
// AsciiClient driving actual TCP sockets. Carries the `concurrency` ctest
// label (the server is inherently multi-threaded) so the CI TSan job
// sanitizes it; the ASan job runs it as part of the full suite.
//
// The centerpiece is the determinism test: a seeded Zipf trace replayed
// once through the library ShardedCacheServer (mirroring the adapter's
// size-bookkeeping exactly) and once over a loopback socket must leave the
// core with bit-identical hit/miss/set/shadow counters — proof that the
// parser, connection layer and adapter do not distort the operation
// stream.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sharded_server.h"
#include "net/ascii_client.h"
#include "net/cache_adapter.h"
#include "net/replay_keys.h"
#include "net/socket_server.h"
#include "sim/experiment.h"
#include "util/argparse.h"
#include "util/hashing.h"
#include "util/slab_geometry.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace cliffhanger {
namespace {

constexpr uint64_t kMiB = 1ULL << 20;

// Forwards to the adapter, counting how the socket server drives it.
class CountingHandler final : public net::CommandHandler {
 public:
  explicit CountingHandler(net::CommandHandler* inner) : inner_(inner) {}
  bool Handle(const net::Command& cmd, std::string* out) override {
    handle_calls.fetch_add(1);
    return inner_->Handle(cmd, out);
  }
  bool HandleBatch(const net::Command* cmds, size_t count,
                   std::vector<net::ResponseSegment>* segments) override {
    batch_calls.fetch_add(1);
    return inner_->HandleBatch(cmds, count, segments);
  }
  void ReleaseBurstPins() override { inner_->ReleaseBurstPins(); }

  std::atomic<uint64_t> handle_calls{0};
  std::atomic<uint64_t> batch_calls{0};

 private:
  net::CommandHandler* inner_;
};

// Every test runs once per event-loop backend: the poll(2) baseline, the
// epoll burst loop and the io_uring backend must be behaviorally
// indistinguishable on the wire (the burst backends batch per-shard
// downstream and uring batches syscalls on top, so this triples as the A/B
// proof that neither batching layer distorts responses). kUring runs fall
// back to epoll transparently when the kernel denies io_uring — the
// fixture still exercises the probe + fallback path in that case, and the
// uring-specific assertions skip themselves.
class NetE2eTest : public ::testing::TestWithParam<net::SocketBackend> {
 protected:
  void StartServer(
      const ShardedServerConfig& config,
      const std::vector<std::pair<uint32_t, uint64_t>>& apps,
      uint32_t default_app) {
    // The network front always serves real bytes: values live in the
    // core's per-shard arenas (zero-copy GET), not in an adapter side
    // table, so every socket server runs with in-arena value storage on.
    ShardedServerConfig value_config = config;
    value_config.server.store_values = true;
    server_ = std::make_unique<ShardedCacheServer>(value_config);
    for (const auto& [app_id, reservation] : apps) {
      server_->AddApp(app_id, reservation);
    }
    net::CacheAdapterConfig adapter_config;
    adapter_config.default_app_id = default_app;
    if (fake_now_.load() != 0) {
      // Deterministic expiry: the adapter reads this test-controlled
      // second counter instead of the wall clock. No sleeps anywhere.
      adapter_config.clock = [this] { return fake_now_.load(); };
    }
    adapter_ = std::make_unique<net::CacheAdapter>(server_.get(),
                                                   adapter_config);
    net::SocketServerConfig net_config = net_config_template_;
    net_config.port = 0;  // ephemeral
    net_config.backend = GetParam();
    counting_ = std::make_unique<CountingHandler>(adapter_.get());
    socket_server_ =
        std::make_unique<net::SocketServer>(net_config, counting_.get());
    std::string error;
    ASSERT_TRUE(socket_server_->Start(&error)) << error;
    ASSERT_GT(socket_server_->port(), 0);
  }

  void StartDefaultServer() {
    ShardedServerConfig config;
    config.server = DefaultServerConfig();
    config.num_shards = 4;
    StartServer(config, {{1, 8 * kMiB}}, 1);
  }

  // Fake-clock variant: call before any traffic; advance with fake_now_.
  void StartDefaultServerAt(uint32_t now_s) {
    fake_now_.store(now_s);
    StartDefaultServer();
  }

  net::AsciiClient MakeClient() {
    net::AsciiClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", socket_server_->port()));
    return client;
  }

  void TearDown() override {
    if (socket_server_) socket_server_->Stop();
  }

  std::unique_ptr<ShardedCacheServer> server_;
  std::unique_ptr<net::CacheAdapter> adapter_;
  std::unique_ptr<CountingHandler> counting_;  // between server and adapter
  std::unique_ptr<net::SocketServer> socket_server_;
  std::atomic<uint32_t> fake_now_{0};  // 0 = wall clock
  // Tests tune knobs (shrink threshold, backlog) here before StartServer;
  // port and backend are always overridden by the fixture.
  net::SocketServerConfig net_config_template_;
};

std::string BackendName(
    const ::testing::TestParamInfo<net::SocketBackend>& info) {
  switch (info.param) {
    case net::SocketBackend::kPoll:
      return "Poll";
    case net::SocketBackend::kEpoll:
      return "Epoll";
    case net::SocketBackend::kUring:
      return "Uring";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(Backends, NetE2eTest,
                         ::testing::Values(net::SocketBackend::kPoll,
                                           net::SocketBackend::kEpoll,
                                           net::SocketBackend::kUring),
                         BackendName);

TEST_P(NetE2eTest, StartStopIsCleanAndIdempotent) {
  StartDefaultServer();
  EXPECT_TRUE(socket_server_->running());
  socket_server_->Stop();
  EXPECT_FALSE(socket_server_->running());
  socket_server_->Stop();  // idempotent
}

TEST_P(NetE2eTest, BasicRoundTrip) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();

  EXPECT_EQ(client.Set("hello", "world", 42),
            net::AsciiClient::StoreResult::kStored);
  auto value = client.Get("hello");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->data, "world");
  EXPECT_EQ(value->flags, 42u);

  EXPECT_FALSE(client.Get("absent").has_value());

  // add: only when absent; replace: only when present.
  EXPECT_EQ(client.Add("hello", "other"),
            net::AsciiClient::StoreResult::kNotStored);
  EXPECT_EQ(client.Add("fresh", "f"),
            net::AsciiClient::StoreResult::kStored);
  EXPECT_EQ(client.Replace("fresh", "g"),
            net::AsciiClient::StoreResult::kStored);
  EXPECT_EQ(client.Replace("absent", "x"),
            net::AsciiClient::StoreResult::kNotStored);
  EXPECT_EQ(client.Get("fresh")->data, "g");

  EXPECT_TRUE(client.Delete("hello"));
  EXPECT_FALSE(client.Delete("hello"));  // NOT_FOUND the second time
  EXPECT_FALSE(client.Get("hello").has_value());

  EXPECT_EQ(client.Version(), std::string(net::kServerVersion));
  client.Quit();
}

TEST_P(NetE2eTest, GetsReturnsMonotonicCas) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  ASSERT_EQ(client.Set("k", "v1"), net::AsciiClient::StoreResult::kStored);
  const auto first = client.Gets("k");
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(client.Set("k", "v2"), net::AsciiClient::StoreResult::kStored);
  const auto second = client.Gets("k");
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->cas, first->cas);
  EXPECT_EQ(second->data, "v2");
}

TEST_P(NetE2eTest, MultiGetMixedHitsAndMisses) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  ASSERT_EQ(client.Set("a", "1"), net::AsciiClient::StoreResult::kStored);
  ASSERT_EQ(client.Set("c", "3"), net::AsciiClient::StoreResult::kStored);
  const auto values = client.MultiGet({"a", "b", "c", "d"});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values.at("a").data, "1");
  EXPECT_EQ(values.at("c").data, "3");
}

TEST_P(NetE2eTest, MultiGetBeyondServerKeyCapIsBatchedByClient) {
  // The server caps keys per get line (kMaxKeysPerGet); the client batches
  // transparently, so a 100-key multiget still resolves every hit.
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "mk" + std::to_string(i);
    keys.push_back(key);
    if (i % 3 == 0) {
      ASSERT_EQ(client.Set(key, "v" + std::to_string(i)),
                net::AsciiClient::StoreResult::kStored);
    }
  }
  const auto values = client.MultiGet(keys);
  EXPECT_TRUE(client.last_error().empty()) << client.last_error();
  EXPECT_EQ(values.size(), 34u);  // i = 0, 3, ..., 99
  EXPECT_EQ(values.at("mk99").data, "v99");
  EXPECT_EQ(values.count("mk1"), 0u);
}

TEST_P(NetE2eTest, PipelinedNoreplyStormThenRead) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  // 200 noreply sets in one write: no response expected until the final
  // get, which must see the last value.
  std::string blob;
  for (int i = 0; i < 200; ++i) {
    const std::string value = "v" + std::to_string(i);
    blob += "set storm 0 0 " + std::to_string(value.size()) +
            " noreply\r\n" + value + "\r\n";
  }
  blob += "get storm\r\n";
  ASSERT_TRUE(client.SendRaw(blob));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "VALUE storm 0 4");
  std::string data;
  ASSERT_TRUE(client.ReadBytes(4, &data));
  EXPECT_EQ(data, "v199");
  ASSERT_TRUE(client.ReadLine(&line));  // trailing CRLF of the data block
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "END");
}

TEST_P(NetE2eTest, BinarySafeValues) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  const std::string payload("\r\nEND\r\nget x\r\n\0\xff\x01", 17);
  ASSERT_EQ(client.Set("bin", payload),
            net::AsciiClient::StoreResult::kStored);
  const auto value = client.Get("bin");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->data, payload);
}

TEST_P(NetE2eTest, LargeValueRoundTripExercisesPartialWrites) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  std::string big(512 * 1024, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 31) % 26);
  }
  ASSERT_EQ(client.Set("big", big), net::AsciiClient::StoreResult::kStored);
  const auto value = client.Get("big");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->data, big);
}

TEST_P(NetE2eTest, OversizedValueRejectedConnectionSurvives) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  const size_t declared = net::kMaxValueBytes + 1;
  std::string frame =
      "set big 0 0 " + std::to_string(declared) + "\r\n";
  frame += std::string(declared, 'z');
  frame += "\r\n";
  ASSERT_TRUE(client.SendRaw(frame));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, net::kErrTooLarge);
  // The declared block was swallowed; the connection is still in sync.
  EXPECT_EQ(client.Version(), std::string(net::kServerVersion));
}

TEST_P(NetE2eTest, ProtocolErrorsMatchMemcached) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  std::string line;
  ASSERT_TRUE(client.SendRaw("bogus\r\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "ERROR");
  ASSERT_TRUE(client.SendRaw("set k bad 0 5\r\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, net::kErrBadLine);
  ASSERT_TRUE(client.SendRaw("set k 0 0 3\r\nabXY\r\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, net::kErrBadChunk);
  // Still usable after every error.
  EXPECT_EQ(client.Set("k", "v"), net::AsciiClient::StoreResult::kStored);
}

TEST_P(NetE2eTest, NoreplyErrorsAreSuppressedSoPipelinesStayAligned) {
  // An oversized noreply set must produce NO response (memcached
  // semantics): the next command's reply is the next bytes on the wire.
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  const size_t declared = net::kMaxValueBytes + 1;
  std::string frame = "set big 0 0 " + std::to_string(declared) +
                      " noreply\r\n" + std::string(declared, 'z') + "\r\n" +
                      "version\r\n";
  ASSERT_TRUE(client.SendRaw(frame));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "VERSION " + std::string(net::kServerVersion));
}

TEST_P(NetE2eTest, PipelineThenFinLikeNetcat) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  ASSERT_TRUE(client.SendRaw("set k 0 0 3\r\nabc\r\nget k\r\n"));
  client.ShutdownWrite();
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "STORED");
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "VALUE k 0 3");
  std::string data;
  ASSERT_TRUE(client.ReadBytes(3, &data));
  EXPECT_EQ(data, "abc");
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "END");
}

TEST_P(NetE2eTest, FinWhileWriteBackpressuredStillAnswersEveryFrame) {
  // Pipeline responses worth several times the server's write cap, then
  // FIN immediately: the worker must keep parsing buffered frames across
  // backpressure pauses and answer every one before closing.
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  const std::string big(512 * 1024, 'b');
  ASSERT_EQ(client.Set("big", big), net::AsciiClient::StoreResult::kStored);

  constexpr int kGets = 20;  // 20 x 512 KiB = 10 MiB >> 4 MiB write cap
  std::string blob;
  for (int i = 0; i < kGets; ++i) blob += "get big\r\n";
  ASSERT_TRUE(client.SendRaw(blob));
  client.ShutdownWrite();
  for (int i = 0; i < kGets; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    ASSERT_EQ(line, "VALUE big 0 524288") << "response " << i;
    std::string data;
    ASSERT_TRUE(client.ReadBytes(big.size(), &data));
    EXPECT_EQ(data, big);
    ASSERT_TRUE(client.ReadLine(&line));  // data-block CRLF
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line, "END");
  }
}

TEST_P(NetE2eTest, StatsSurfaceProtocolAndCoreCounters) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  ASSERT_EQ(client.Set("s1", "v"), net::AsciiClient::StoreResult::kStored);
  client.Get("s1");
  client.Get("nope");
  const auto stats = client.Stats();
  EXPECT_EQ(stats.at("cmd_set"), "1");
  EXPECT_EQ(stats.at("cmd_get"), "2");
  EXPECT_EQ(stats.at("get_hits"), "1");
  EXPECT_EQ(stats.at("get_misses"), "1");
  EXPECT_EQ(stats.at("num_shards"), "4");
  EXPECT_EQ(stats.at("bytes_stored"), "1");
  EXPECT_EQ(stats.at("bytes"), "1");          // live payload, from the arena
  EXPECT_EQ(stats.at("bytes_read"), "1");     // payload accepted by stores
  EXPECT_EQ(stats.at("bytes_written"), "1");  // payload served by get hits
  EXPECT_EQ(stats.at("cliffhanger_gets"), "2");
  EXPECT_EQ(stats.at("cliffhanger_sets"), "1");
  EXPECT_EQ(stats.at("app_1_reservation_bytes"),
            std::to_string(8 * kMiB));
}

TEST_P(NetE2eTest, PipelinedBurstCountersAreExactAtTheStatsBarrier) {
  // Sets, a multiget and `stats` in one pipelined send: the counters a
  // sharded run tallies must be published before the stats barrier that
  // follows it reads them, whichever burst boundaries the reads produce.
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  constexpr int kSets = 12;
  constexpr int kMisses = 3;
  std::string blob;
  std::string multiget = "get";
  uint64_t payload_bytes = 0;
  for (int i = 0; i < kSets; ++i) {
    const std::string key = "c" + std::to_string(i);
    const std::string value(static_cast<size_t>(i + 1), 'v');
    payload_bytes += value.size();
    blob += "set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" +
            value + "\r\n";
    multiget += " " + key;
  }
  for (int i = 0; i < kMisses; ++i) multiget += " absent" + std::to_string(i);
  blob += multiget + "\r\nstats\r\n";
  ASSERT_TRUE(client.SendRaw(blob));

  std::string line;
  for (int i = 0; i < kSets; ++i) {
    ASSERT_TRUE(client.ReadLine(&line));
    ASSERT_EQ(line, "STORED");
  }
  for (int i = 0; i < kSets; ++i) {
    ASSERT_TRUE(client.ReadLine(&line));
    ASSERT_EQ(line, "VALUE c" + std::to_string(i) + " 0 " +
                        std::to_string(i + 1));
    ASSERT_TRUE(client.ReadLine(&line));
  }
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_EQ(line, "END");
  std::map<std::string, std::string> stats;
  while (client.ReadLine(&line) && line != "END") {
    const size_t name_end = line.find(' ', 5);
    ASSERT_EQ(line.compare(0, 5, "STAT "), 0) << line;
    stats[line.substr(5, name_end - 5)] = line.substr(name_end + 1);
  }
  ASSERT_EQ(line, "END");
  EXPECT_EQ(stats.at("cmd_set"), std::to_string(kSets));
  EXPECT_EQ(stats.at("cmd_get"), std::to_string(kSets + kMisses));
  EXPECT_EQ(stats.at("get_hits"), std::to_string(kSets));
  EXPECT_EQ(stats.at("get_misses"), std::to_string(kMisses));
  EXPECT_EQ(stats.at("get_expired"), "0");
  EXPECT_EQ(stats.at("bytes_read"), std::to_string(payload_bytes));
  EXPECT_EQ(stats.at("bytes_written"), std::to_string(payload_bytes));
  EXPECT_EQ(stats.at("cliffhanger_gets"), std::to_string(kSets + kMisses));
}

// The accounting IS the storage: `bytes` and the per-class slab lines come
// straight from the value arenas, so storing, serving, deleting and
// re-slabbing known payloads must move them by exactly the known amounts.
TEST_P(NetE2eTest, StatsReportRealArenaMemoryAccounting) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();

  const std::string small_a(100, 'a');
  const std::string small_b(100, 'b');
  const std::string big_c(1000, 'c');
  ASSERT_EQ(client.Set("ma", small_a), net::AsciiClient::StoreResult::kStored);
  ASSERT_EQ(client.Set("mb", small_b), net::AsciiClient::StoreResult::kStored);
  ASSERT_EQ(client.Set("mc", big_c), net::AsciiClient::StoreResult::kStored);
  const int small_class = SlabClassFor(ExactFootprint(2, 100));
  const int big_class = SlabClassFor(ExactFootprint(2, 1000));
  ASSERT_GE(small_class, 0);
  ASSERT_NE(small_class, big_class);

  const auto slab_stat = [&](const std::map<std::string, std::string>& stats,
                             int cls, const char* field) -> uint64_t {
    const std::string name =
        "slabs:" + std::to_string(cls) + ":" + field;
    const auto it = stats.find(name);
    return it == stats.end() ? 0 : std::stoull(it->second);
  };

  auto stats = client.Stats();
  EXPECT_EQ(stats.at("bytes"), "1200");
  EXPECT_EQ(stats.at("bytes_stored"), "1200");
  EXPECT_EQ(stats.at("bytes_read"), "1200");
  EXPECT_EQ(stats.at("bytes_written"), "0");
  EXPECT_EQ(slab_stat(stats, small_class, "chunk_size"),
            static_cast<uint64_t>(ChunkSize(small_class)));
  EXPECT_EQ(slab_stat(stats, small_class, "used_chunks"), 2u);
  EXPECT_EQ(slab_stat(stats, big_class, "chunk_size"),
            static_cast<uint64_t>(ChunkSize(big_class)));
  EXPECT_EQ(slab_stat(stats, big_class, "used_chunks"), 1u);

  // Serving moves bytes_written by the payload size; nothing else moves.
  EXPECT_EQ(client.Get("mc")->data, big_c);
  stats = client.Stats();
  EXPECT_EQ(stats.at("bytes"), "1200");
  EXPECT_EQ(stats.at("bytes_written"), "1000");

  // Eager reclamation: a delete returns the chunk (and the bytes) at once.
  EXPECT_TRUE(client.Delete("mb"));
  stats = client.Stats();
  EXPECT_EQ(stats.at("bytes"), "1100");
  EXPECT_EQ(slab_stat(stats, small_class, "used_chunks"), 1u);

  // A cross-class overwrite frees the old chunk and charges the new class.
  ASSERT_EQ(client.Set("ma", big_c), net::AsciiClient::StoreResult::kStored);
  stats = client.Stats();
  EXPECT_EQ(stats.at("bytes"), "2000");
  EXPECT_EQ(slab_stat(stats, small_class, "used_chunks"), 0u);
  EXPECT_EQ(slab_stat(stats, big_class, "used_chunks"), 2u);
  EXPECT_EQ(stats.at("bytes_read"), "2200");
}

// Held memory follows residency: a class emptied by deletes gives its arena
// pages back to the store's pool, `total_pages` for it reads 0, and the
// same bytes stored in another class reuse those pages, so total_malloced
// (page bytes held, pool included) does not move.
TEST_P(NetE2eTest, EmptiedClassPagesMoveToAnotherClass) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 1;  // one store, one page pool
  StartServer(config, {{1, 8 * kMiB}}, 1);
  net::AsciiClient client = MakeClient();

  const auto store_all = [&](const char* prefix, int count, size_t size) {
    const std::string value(size, 'p');
    std::string blob;
    for (int i = 0; i < count; ++i) {
      blob += "set " + std::string(prefix) + std::to_string(i) + " 0 0 " +
              std::to_string(size) + " noreply\r\n" + value + "\r\n";
    }
    ASSERT_TRUE(client.SendRaw(blob));
    ASSERT_EQ(client.Version(), std::string(net::kServerVersion));  // sync
  };
  const auto slab_stat = [](const std::map<std::string, std::string>& stats,
                            int cls, const char* field) {
    return stats.at("slabs:" + std::to_string(cls) + ":" + field);
  };
  // Two full pages of 1 KiB chunks, then two of 2 KiB chunks.
  const int small_class = SlabClassFor(ExactFootprint(4, 900));
  const int big_class = SlabClassFor(ExactFootprint(4, 1900));
  ASSERT_EQ(ChunkSize(small_class), 1024u);
  ASSERT_EQ(ChunkSize(big_class), 2048u);
  const std::string two_pages = std::to_string(2 * kPageSize);

  store_all("s", 128, 900);
  auto stats = client.Stats();
  EXPECT_EQ(slab_stat(stats, small_class, "total_pages"), "2");
  EXPECT_EQ(slab_stat(stats, small_class, "free_chunks"), "0");
  EXPECT_EQ(stats.at("total_malloced"), two_pages);

  std::string deletes;
  for (int i = 0; i < 128; ++i) {
    deletes += "delete s" + std::to_string(i) + " noreply\r\n";
  }
  ASSERT_TRUE(client.SendRaw(deletes));
  ASSERT_EQ(client.Version(), std::string(net::kServerVersion));  // sync
  stats = client.Stats();
  EXPECT_EQ(slab_stat(stats, small_class, "used_chunks"), "0");
  EXPECT_EQ(slab_stat(stats, small_class, "total_pages"), "0");
  EXPECT_EQ(stats.at("total_malloced"), two_pages);

  store_all("b", 64, 1900);
  stats = client.Stats();
  EXPECT_EQ(slab_stat(stats, big_class, "used_chunks"), "64");
  EXPECT_EQ(slab_stat(stats, big_class, "total_pages"), "2");
  EXPECT_EQ(slab_stat(stats, small_class, "total_pages"), "0");
  EXPECT_EQ(stats.at("total_malloced"), two_pages);
  EXPECT_EQ(stats.at("bytes"), std::to_string(64 * 1900));
}

// Regression: `add` (and replace/cas) decide presence from the core, not
// from any adapter-side record of what was once stored. Under the old
// side-table design an evicted key still looked "live" to `add` until some
// GET noticed the eviction — so an add issued right after the eviction was
// wrongly rejected with NOT_STORED.
TEST_P(NetE2eTest, AddSucceedsImmediatelyAfterEviction) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 1;  // one LRU: the coldest key's eviction is certain
  StartServer(config, {{1, 256 * 1024}}, 1);
  net::AsciiClient client = MakeClient();

  const std::string value(400, 'v');
  ASSERT_EQ(client.Set("vic", value), net::AsciiClient::StoreResult::kStored);
  // ~800 KiB of fresh keys through a 256 KiB reservation: "vic", never
  // touched again, is long gone. Crucially there is NO get on "vic"
  // between the eviction and the add.
  std::string blob;
  for (int i = 0; i < 2000; ++i) {
    blob += "set churn" + std::to_string(i) + " 0 0 400 noreply\r\n" + value +
            "\r\n";
  }
  ASSERT_TRUE(client.SendRaw(blob));
  ASSERT_EQ(client.Version(), std::string(net::kServerVersion));  // sync

  // Same slab class as the churn values, so FCFS class capacity exists and
  // the accepted add is also physically retained (a smaller value would
  // land in a zero-capacity class and shadow out — correct FCFS
  // calcification, but not what this regression is about).
  const std::string revived(400, 'r');
  EXPECT_EQ(client.Add("vic", revived),
            net::AsciiClient::StoreResult::kStored);
  const auto got = client.Get("vic");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, revived);
}

// Regression for the per-key metadata retention leak: the old adapter kept
// ~40 bytes per key EVER stored (a size/cas record that out-lived
// eviction). Now the only per-key state anywhere is the core's, and the
// core's is bounded by residency — churning many times more unique keys
// than the reservation holds must leave the tracked-key count at the
// resident population, not the ever-stored population.
TEST_P(NetE2eTest, KeyChurnDoesNotAccumulatePerKeyMetadata) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 4;
  StartServer(config, {{1, 1 * kMiB}}, 1);
  net::AsciiClient client = MakeClient();

  // Enough uniques to sail past the config-derived tracking bound
  // (resident chunks + shadow-ghost capacities, ~41k for this geometry).
  constexpr int kUnique = 120000;
  const std::string value(32, 'x');
  std::string blob;
  for (int i = 0; i < kUnique; ++i) {
    blob += "set churn" + std::to_string(i) + " 0 0 32 noreply\r\n" + value +
            "\r\n";
    if (blob.size() > 256 * 1024) {
      ASSERT_TRUE(client.SendRaw(blob));
      blob.clear();
    }
  }
  ASSERT_TRUE(client.SendRaw(blob));
  ASSERT_EQ(client.Version(), std::string(net::kServerVersion));  // sync

  const ShardedCacheServer::ValueStats vs = server_->MergedValueStats();
  // Tracked = resident slots + shadow ghosts, both capped by configuration
  // (reservation / chunk and the shadow capacities) — never by how many
  // keys have ever been stored.
  EXPECT_GT(vs.tracked_keys, 0u);
  EXPECT_LT(vs.tracked_keys, static_cast<uint64_t>(kUnique) / 2);
  EXPECT_LE(vs.value_bytes, 1 * kMiB);
}

TEST_P(NetE2eTest, AppPrefixRoutesToRegisteredApps) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 4;
  StartServer(config, {{1, 4 * kMiB}, {2, 4 * kMiB}}, 1);
  net::AsciiClient client = MakeClient();

  ASSERT_EQ(client.Set("plain", "a"), net::AsciiClient::StoreResult::kStored);
  ASSERT_EQ(client.Set("app2:k", "bb"),
            net::AsciiClient::StoreResult::kStored);
  EXPECT_EQ(client.Get("app2:k")->data, "bb");

  const ClassStats app1 = server_->AppStats(1);
  const ClassStats app2 = server_->AppStats(2);
  EXPECT_EQ(app1.sets, 1u);
  EXPECT_EQ(app2.sets, 1u);
  EXPECT_EQ(app2.gets, 1u);
  EXPECT_EQ(app2.hits, 1u);

  // Unregistered app: soft failure, nothing reaches the core.
  std::string line;
  ASSERT_TRUE(client.SendRaw("set app9:k 0 0 1\r\nx\r\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "SERVER_ERROR unknown application");
  EXPECT_FALSE(client.Get("app9:k").has_value());
}

// Tenants are managed on the core alone: an app the core gains while the
// server runs is served on its next command, and an app the core loses is
// rejected at once — its store neither answers STORED nor counts bytes.
TEST_P(NetE2eTest, CoreTenantChangesTakeEffectOnTheWire) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 4;
  StartServer(config, {{1, 4 * kMiB}, {2, 4 * kMiB}}, 1);
  net::AsciiClient client = MakeClient();

  // Non-fatal checks throughout, so a failure in the first half still
  // runs the second.
  server_->AddApp(3, 4 * kMiB);
  EXPECT_EQ(client.Set("app3:k", "new"),
            net::AsciiClient::StoreResult::kStored);
  const auto fresh = client.Get("app3:k");
  EXPECT_TRUE(fresh.has_value() && fresh->data == "new");
  EXPECT_EQ(server_->AppStats(3).sets, 1u);
  EXPECT_EQ(client.Stats()["app_3_reservation_bytes"],
            std::to_string(4 * kMiB));

  ASSERT_EQ(client.Set("app2:k", "old"),
            net::AsciiClient::StoreResult::kStored);
  ASSERT_TRUE(server_->RemoveApp(2));
  const std::string bytes_read = client.Stats().at("bytes_read");
  std::string line;
  EXPECT_TRUE(client.SendRaw("set app2:k 0 0 1\r\nx\r\n"));
  EXPECT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "SERVER_ERROR unknown application");
  EXPECT_FALSE(client.Get("app2:k").has_value());
  const auto stats = client.Stats();
  EXPECT_EQ(stats.at("bytes_read"), bytes_read);
  EXPECT_EQ(stats.count("app_2_reservation_bytes"), 0u);
}

// The core counters `stats` reports are cumulative: a tenant's departure
// must not take its history out of cliffhanger_gets/hits/sets.
TEST_P(NetE2eTest, StatsCoreCountersSurviveTenantRemoval) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 4;
  StartServer(config, {{1, 4 * kMiB}, {2, 4 * kMiB}}, 1);
  net::AsciiClient client = MakeClient();
  for (int i = 0; i < 32; ++i) {
    const std::string key = "app2:k" + std::to_string(i);
    ASSERT_EQ(client.Set(key, "v"), net::AsciiClient::StoreResult::kStored);
    ASSERT_TRUE(client.Get(key).has_value());
  }
  const auto before = client.Stats();
  ASSERT_EQ(before.at("cliffhanger_gets"), "32");

  ASSERT_TRUE(server_->RemoveApp(2));
  const auto after = client.Stats();
  EXPECT_EQ(after.at("cliffhanger_gets"), before.at("cliffhanger_gets"));
  EXPECT_EQ(after.at("cliffhanger_hits"), before.at("cliffhanger_hits"));
  EXPECT_EQ(after.at("cliffhanger_sets"), before.at("cliffhanger_sets"));
}

TEST_P(NetE2eTest, ManyConnectionsHammerConcurrently) {
  StartDefaultServer();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      net::AsciiClient client;
      if (!client.Connect("127.0.0.1", socket_server_->port())) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(0x7EA4 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "h" + std::to_string(t) + "_" + std::to_string(rng.NextBounded(64));
        if (rng.NextBernoulli(0.5)) {
          if (client.Set(key, "value") !=
              net::AsciiClient::StoreResult::kStored) {
            failures.fetch_add(1);
            return;
          }
        } else {
          const auto value = client.Get(key);
          if (value.has_value() && value->data != "value") {
            failures.fetch_add(1);
            return;
          }
        }
      }
      client.Quit();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const auto counters = adapter_->counters();
  EXPECT_GT(counters.cmd_get + counters.cmd_set,
            static_cast<uint64_t>(kThreads) * kOpsPerThread - 1);
}

// --- The new verbs: cas / arithmetic / concat / touch / flush ------------

TEST_P(NetE2eTest, CasStoresOnlyAtTheRightVersion) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  EXPECT_EQ(client.Cas("nope", "v", 1), SR::kNotFound);

  ASSERT_EQ(client.Set("k", "v1"), SR::kStored);
  const auto versioned = client.Gets("k");
  ASSERT_TRUE(versioned.has_value());

  // Right version stores; the stored value gets a NEW version, so the
  // same cas again is EXISTS (exactly memcached's optimistic-locking
  // contract).
  EXPECT_EQ(client.Cas("k", "v2", versioned->cas), SR::kStored);
  EXPECT_EQ(client.Cas("k", "v3", versioned->cas), SR::kExists);
  EXPECT_EQ(client.Get("k")->data, "v2");

  const auto fresh = client.Gets("k");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_GT(fresh->cas, versioned->cas);
  EXPECT_EQ(client.Cas("k", "v3", fresh->cas), SR::kStored);
  EXPECT_EQ(client.Get("k")->data, "v3");

  // A cas-stored value can change size (re-slab path runs under the hood).
  const std::string big(4096, 'x');
  const auto before_big = client.Gets("k");
  ASSERT_TRUE(before_big.has_value());
  EXPECT_EQ(client.Cas("k", big, before_big->cas), SR::kStored);
  EXPECT_EQ(client.Get("k")->data, big);
}

TEST_P(NetE2eTest, IncrDecrFollowMemcachedArithmetic) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  // Absent key: NOT_FOUND is a clean miss (no error).
  EXPECT_FALSE(client.Incr("counter", 1).has_value());
  EXPECT_TRUE(client.last_error().empty()) << client.last_error();

  ASSERT_EQ(client.Set("counter", "5"), SR::kStored);
  EXPECT_EQ(client.Incr("counter", 3), std::optional<uint64_t>(8));
  EXPECT_EQ(client.Get("counter")->data, "8");

  // decr saturates at zero; incr wraps modulo 2^64.
  EXPECT_EQ(client.Decr("counter", 100), std::optional<uint64_t>(0));
  EXPECT_EQ(client.Get("counter")->data, "0");
  ASSERT_EQ(client.Set("counter", "18446744073709551615"), SR::kStored);
  EXPECT_EQ(client.Incr("counter", 2), std::optional<uint64_t>(1));
  // The rewrite shrank the value from 20 digits to 1 — re-slab flowed
  // through and GET serves the new bytes.
  EXPECT_EQ(client.Get("counter")->data, "1");

  // Arithmetic bumps the cas version like any store.
  const auto before = client.Gets("counter");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(client.Incr("counter", 1), std::optional<uint64_t>(2));
  const auto after = client.Gets("counter");
  ASSERT_TRUE(after.has_value());
  EXPECT_GT(after->cas, before->cas);

  // Non-numeric value: the dedicated memcached error, value untouched.
  ASSERT_EQ(client.Set("word", "hello"), SR::kStored);
  EXPECT_FALSE(client.Incr("word", 1).has_value());
  EXPECT_NE(client.last_error().find(
                "cannot increment or decrement non-numeric value"),
            std::string::npos)
      << client.last_error();
  EXPECT_EQ(client.Get("word")->data, "hello");

  // Raw numeric-reply grammar: the bare decimal, CRLF-terminated.
  ASSERT_TRUE(client.SendRaw("incr counter 7\r\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "9");
}

TEST_P(NetE2eTest, AppendPrependSpliceAndReslab) {
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  // Both verbs demand an existing item.
  EXPECT_EQ(client.Append("missing", "x"), SR::kNotStored);
  EXPECT_EQ(client.Prepend("missing", "x"), SR::kNotStored);

  ASSERT_EQ(client.Set("k", "bb", /*flags=*/7), SR::kStored);
  const auto v0 = client.Gets("k");
  ASSERT_TRUE(v0.has_value());
  EXPECT_EQ(client.Append("k", "cc"), SR::kStored);
  EXPECT_EQ(client.Prepend("k", "aa"), SR::kStored);
  const auto v1 = client.Gets("k");
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->data, "aabbcc");
  // Flags survive a splice (memcached ignores the command-line flags);
  // the cas version does not.
  EXPECT_EQ(v1->flags, 7u);
  EXPECT_GT(v1->cas, v0->cas);

  // Splicing past the hard value cap rejects but keeps the original.
  const std::string half(600 * 1024, 'z');
  ASSERT_EQ(client.Set("big", half), SR::kStored);
  std::string line;
  ASSERT_TRUE(client.SendRaw("append big 0 0 " +
                             std::to_string(half.size()) + "\r\n" + half +
                             "\r\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, net::kErrTooLarge);
  EXPECT_EQ(client.Get("big")->data, half);
}

TEST_P(NetE2eTest, ExpiryIsLazyAndDeterministicUnderTheInjectedClock) {
  StartDefaultServerAt(1000);
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  // Relative exptime: 10 seconds from now => absolute second 1010.
  ASSERT_EQ(client.Set("ttl", "v", 0, /*exptime=*/10), SR::kStored);
  EXPECT_TRUE(client.Get("ttl").has_value());
  fake_now_.store(1009);
  EXPECT_TRUE(client.Get("ttl").has_value());  // second 1009: still alive
  fake_now_.store(1010);
  EXPECT_FALSE(client.Get("ttl").has_value());  // expiry second: gone
  // Expired stays gone (the first miss reclaimed it) and a fresh store
  // resurrects the key with a new TTL.
  EXPECT_FALSE(client.Get("ttl").has_value());
  ASSERT_EQ(client.Set("ttl", "v2", 0, 10), SR::kStored);
  EXPECT_EQ(client.Get("ttl")->data, "v2");

  // Negative exptime: stored but immediately expired, like memcached.
  ASSERT_EQ(client.Set("dead", "v", 0, -1), SR::kStored);
  EXPECT_FALSE(client.Get("dead").has_value());

  // An exptime past the 30-day cutoff is an absolute unix second, not a
  // relative offset.
  const int64_t absolute = 3000000000LL;
  ASSERT_EQ(client.Set("abs", "v", 0, absolute), SR::kStored);
  EXPECT_TRUE(client.Get("abs").has_value());
  fake_now_.store(static_cast<uint32_t>(absolute) - 1);
  EXPECT_TRUE(client.Get("abs").has_value());
  fake_now_.store(static_cast<uint32_t>(absolute));
  EXPECT_FALSE(client.Get("abs").has_value());

  const auto stats = client.Stats();
  EXPECT_GE(std::stoull(stats.at("get_expired")), 3ull);
}

TEST_P(NetE2eTest, ExpiredKeysActAbsentForEveryConditionalVerb) {
  StartDefaultServerAt(1000);
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  ASSERT_EQ(client.Set("k", "5", 0, 10), SR::kStored);
  fake_now_.store(1010);  // expired, not yet observed by any GET

  EXPECT_EQ(client.Replace("k", "x"), SR::kNotStored);
  EXPECT_EQ(client.Append("k", "x"), SR::kNotStored);
  EXPECT_FALSE(client.Incr("k", 1).has_value());
  EXPECT_TRUE(client.last_error().empty());
  EXPECT_FALSE(client.Touch("k", 100));
  EXPECT_EQ(client.Cas("k", "x", 1), SR::kNotFound);
  EXPECT_FALSE(client.Delete("k"));  // NOT_FOUND, like memcached
  // add treats the expired key as absent and stores fresh.
  EXPECT_EQ(client.Add("k", "new", 0, 0), SR::kStored);
  EXPECT_EQ(client.Get("k")->data, "new");
}

TEST_P(NetE2eTest, TouchExtendsAndCutsLifetimes) {
  StartDefaultServerAt(1000);
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  EXPECT_FALSE(client.Touch("missing", 100));
  EXPECT_TRUE(client.last_error().empty()) << client.last_error();

  ASSERT_EQ(client.Set("k", "v", 0, 10), SR::kStored);  // dies at 1010
  fake_now_.store(1005);
  EXPECT_TRUE(client.Touch("k", 100));  // now dies at 1105
  fake_now_.store(1050);
  EXPECT_TRUE(client.Get("k").has_value());
  fake_now_.store(1105);
  EXPECT_FALSE(client.Get("k").has_value());

  // touch -1 expires immediately; touch 0 makes an item permanent.
  ASSERT_EQ(client.Set("cut", "v"), SR::kStored);
  EXPECT_TRUE(client.Touch("cut", -1));
  EXPECT_FALSE(client.Get("cut").has_value());
  ASSERT_EQ(client.Set("keep", "v", 0, 5), SR::kStored);
  EXPECT_TRUE(client.Touch("keep", 0));
  fake_now_.store(2000000);
  EXPECT_TRUE(client.Get("keep").has_value());

  const auto stats = client.Stats();
  EXPECT_EQ(stats.at("cmd_touch"), "4");
  EXPECT_EQ(stats.at("touch_hits"), "3");
  EXPECT_EQ(stats.at("touch_misses"), "1");
}

TEST_P(NetE2eTest, FlushAllInvalidatesLazilyWithOptionalDelay) {
  StartDefaultServerAt(1000);
  net::AsciiClient client = MakeClient();
  using SR = net::AsciiClient::StoreResult;

  ASSERT_EQ(client.Set("a", "1"), SR::kStored);
  ASSERT_EQ(client.Set("b", "2"), SR::kStored);
  fake_now_.store(1001);
  EXPECT_TRUE(client.FlushAll());
  EXPECT_FALSE(client.Get("a").has_value());
  EXPECT_FALSE(client.Get("b").has_value());
  // Items stored at/after the flush point survive.
  ASSERT_EQ(client.Set("c", "3"), SR::kStored);
  EXPECT_TRUE(client.Get("c").has_value());

  // Delayed flush: alive until the scheduled second, dead after.
  ASSERT_EQ(client.Set("d", "4"), SR::kStored);
  EXPECT_TRUE(client.FlushAll(/*delay=*/10));  // fires at 1011
  fake_now_.store(1005);
  EXPECT_TRUE(client.Get("d").has_value());
  fake_now_.store(1011);
  EXPECT_FALSE(client.Get("d").has_value());
  EXPECT_FALSE(client.Get("c").has_value());  // c predates the point too

  const auto stats = client.Stats();
  EXPECT_EQ(stats.at("cmd_flush"), "2");
}

// --- Satellite regression: Stop() must never wedge -----------------------

TEST_P(NetE2eTest, StopDoesNotWedgeWithPendingAndIdleConnections) {
  StartDefaultServer();
  // A mix of abusive client states: connected-but-silent, half-written
  // frames, and unread pending responses. None may wedge Stop.
  std::vector<net::AsciiClient> clients(6);
  for (size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i].Connect("127.0.0.1", socket_server_->port()));
  }
  ASSERT_TRUE(clients[1].SendRaw("get half"));          // partial frame
  ASSERT_TRUE(clients[2].SendRaw("set k 0 0 100\r\nabc"));  // partial data
  ASSERT_TRUE(clients[3].SendRaw("version\r\n"));       // unread response
  clients[4].ShutdownWrite();                           // half-closed

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    socket_server_->Stop();
    stopped.store(true);
  });
  // Generous deadline: a wedged Stop (blocking accept, lost wakeup) hangs
  // forever, so any completion below the cap is a pass.
  for (int i = 0; i < 500 && !stopped.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(stopped.load()) << "SocketServer::Stop wedged";
  if (!stopped.load()) stopper.detach();  // don't hang the test binary
  else stopper.join();
  EXPECT_FALSE(socket_server_->running());
}

TEST_P(NetE2eTest, RepeatedStartStopCyclesStayClean) {
  ShardedServerConfig config;
  config.server = DefaultServerConfig();
  config.num_shards = 2;
  StartServer(config, {{1, 4 * kMiB}}, 1);
  for (int round = 0; round < 3; ++round) {
    net::AsciiClient client = MakeClient();
    EXPECT_EQ(client.Set("k", "v"), net::AsciiClient::StoreResult::kStored);
    socket_server_->Stop();
    ASSERT_FALSE(socket_server_->running());
    net::SocketServerConfig net_config;
    net_config.port = 0;
    net_config.num_workers = 2;
    net_config.backend = GetParam();
    socket_server_ =
        std::make_unique<net::SocketServer>(net_config, adapter_.get());
    std::string error;
    ASSERT_TRUE(socket_server_->Start(&error)) << error;
  }
}

// --- Satellite regressions: fd exhaustion, wake drain, buffer shrink ------

// UBSan's vptr check verifies an object is readable via a pipe(2) probe
// (sanitizer IsAccessibleMemoryRange), which itself fails with EMFILE while
// the descriptor table is full — so any std::thread start/exit during
// exhaustion reports a bogus "invalid vptr" on libstdc++'s thread _State
// and, with -fno-sanitize-recover, kills the process. Type-name
// suppressions can't match either (the probe failure means the name is
// never read). Tests that join threads while exhausted must release first
// under ASan+UBSan builds.
#if defined(__SANITIZE_ADDRESS__)
#define CLIFFHANGER_VPTR_CHECK_NEEDS_FDS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CLIFFHANGER_VPTR_CHECK_NEEDS_FDS 1
#endif
#endif

// Exhausts this process's descriptor table (open("/dev/null") until EMFILE),
// optionally leaving `spare` descriptors free; restores everything on
// Release or destruction. Lets a test drive the server's accept path into
// real EMFILE without mocking.
class FdHog {
 public:
  ~FdHog() { Release(); }
  bool Exhaust(size_t spare) {
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (fd < 0) break;
      fds_.push_back(fd);
    }
    if (fds_.size() < spare) {
      Release();
      return false;
    }
    for (size_t i = 0; i < spare; ++i) {
      ::close(fds_.back());
      fds_.pop_back();
    }
    return true;
  }
  void Release() {
    for (const int fd : fds_) ::close(fd);
    fds_.clear();
  }

 private:
  std::vector<int> fds_;
};

TEST_P(NetE2eTest, FdExhaustionStallsAcceptorAndRecoversOnClose) {
  StartDefaultServer();
  net::AsciiClient pinned = MakeClient();
  ASSERT_EQ(pinned.Set("k", "v"), net::AsciiClient::StoreResult::kStored);

  FdHog hog;
  ASSERT_TRUE(hog.Exhaust(/*spare=*/1));
  // The last free descriptor becomes the client socket; the kernel
  // completes the handshake into the backlog, but the server's accept4 has
  // no descriptor left and must stall — without dying or spinning a core.
  net::AsciiClient blocked;
  ASSERT_TRUE(blocked.Connect("127.0.0.1", socket_server_->port()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(socket_server_->active_connections(), 1u);

  // While stalled the acceptor parks in its wake-pipe backoff poll: a few
  // wakeups per 50ms window, not a hot loop.
  const uint64_t stall_before = socket_server_->acceptor_loop_iterations();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(socket_server_->acceptor_loop_iterations() - stall_before, 64u);

  // Closing a connection frees one descriptor and pokes the wake pipe; the
  // acceptor must pick up the parked connection from the backlog.
  pinned.Quit();
  bool adopted = false;
  for (int i = 0; i < 1000 && !adopted; ++i) {
    adopted = socket_server_->total_connections() >= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(adopted) << "acceptor never recovered from fd exhaustion";
  EXPECT_EQ(blocked.Version(), std::string(net::kServerVersion));
  hog.Release();

  // Regression for the undrained wake pipe: the wake bytes written during
  // the stall must be consumed, or the always-readable pipe turns the
  // acceptor's blocking poll into a hot spin forever after.
  const uint64_t idle_before = socket_server_->acceptor_loop_iterations();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(socket_server_->acceptor_loop_iterations() - idle_before, 16u);
}

TEST_P(NetE2eTest, StopIsPromptDuringFdExhaustionBackoff) {
  StartDefaultServer();
  FdHog hog;
  ASSERT_TRUE(hog.Exhaust(/*spare=*/1));
  // A parked handshake keeps the listen fd readable, so the acceptor sits
  // in the EMFILE backoff path when Stop arrives.
  net::AsciiClient blocked;
  ASSERT_TRUE(blocked.Connect("127.0.0.1", socket_server_->port()));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));

#ifdef CLIFFHANGER_VPTR_CHECK_NEEDS_FDS
  // Stop() joins threads, and thread exit trips the vptr-probe false
  // positive described at FdHog. The acceptor is still parked in (or just
  // leaving) its backoff poll when Stop arrives, so the promptness
  // assertion keeps most of its teeth; the full stop-while-exhausted path
  // is covered by the Debug/Release/TSan configurations.
  hog.Release();
#endif
  const auto begin = std::chrono::steady_clock::now();
  socket_server_->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_FALSE(socket_server_->running());
  // The backoff polls the wake pipe, so Stop interrupts it immediately; the
  // bound is generous because the point is wedge-vs-prompt, not a latency
  // SLO.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST_P(NetE2eTest, ConnectionBuffersReleaseHighWaterCapacity) {
  // A single fat frame balloons the connection's read buffer far past the
  // (lowered) shrink threshold; once the frame is consumed the capacity
  // must go back to the allocator instead of pinning the high-water mark
  // for the connection's lifetime.
  net_config_template_.buffer_shrink_threshold = 16 * 1024;
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  const std::string big(128 * 1024, 'x');
  ASSERT_EQ(client.Set("big", big), net::AsciiClient::StoreResult::kStored);
  ASSERT_EQ(client.Get("big")->data, big);
  // The STORED response proves the frame was handled, but the release runs
  // just after the reply flush — give the worker a moment.
  uint64_t releases = 0;
  for (int i = 0; i < 400 && releases == 0; ++i) {
    releases = socket_server_->buffer_releases();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(releases, 0u);
}

// --- Satellite soak: 1k pipelined connections, exact transcripts ----------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLIFFHANGER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CLIFFHANGER_SANITIZED 1
#endif
#endif

TEST_P(NetE2eTest, ThousandPipelinedConnectionsKeepTranscriptsExact) {
  // Write-all-then-read-all over ~1k concurrent connections (scaled down
  // under sanitizers, whose shadow memory makes 1k sockets gratuitously
  // slow). Every connection pipelines one multi-verb burst whose full
  // response transcript is known in advance; any dropped, duplicated or
  // reordered response — across connections or within a burst — breaks an
  // exact line match. This is the backend A/B soak for the epoll burst
  // path against the poll baseline.
#ifdef CLIFFHANGER_SANITIZED
  constexpr size_t kConns = 128;
#else
  constexpr size_t kConns = 1024;
#endif
  net_config_template_.backlog = static_cast<int>(kConns);
  StartDefaultServer();

  std::vector<net::AsciiClient> clients(kConns);
  for (size_t i = 0; i < kConns; ++i) {
    ASSERT_TRUE(clients[i].Connect("127.0.0.1", socket_server_->port()))
        << "connection " << i;
  }
  for (size_t i = 0; i < kConns; ++i) {
    const std::string tag = std::to_string(i);
    const std::string val = "payload-" + tag;
    // noreply set -> read-your-write get -> plain set -> multiget with a
    // guaranteed miss -> version as the end-of-transcript marker.
    std::string blob;
    blob += "set a" + tag + " 0 0 " + std::to_string(val.size()) +
            " noreply\r\n" + val + "\r\n";
    blob += "get a" + tag + "\r\n";
    blob += "set b" + tag + " 0 0 1\r\nx\r\n";
    blob += "get a" + tag + " b" + tag + " miss" + tag + "\r\n";
    blob += "version\r\n";
    ASSERT_TRUE(clients[i].SendRaw(blob)) << "connection " << i;
  }
  for (size_t i = 0; i < kConns; ++i) {
    const std::string tag = std::to_string(i);
    const std::string val = "payload-" + tag;
    const auto expect_line = [&](const std::string& want) {
      std::string line;
      ASSERT_TRUE(clients[i].ReadLine(&line)) << "connection " << i;
      ASSERT_EQ(line, want) << "connection " << i;
    };
    const std::string value_header =
        "VALUE a" + tag + " 0 " + std::to_string(val.size());
    expect_line(value_header);
    expect_line(val);
    expect_line("END");
    expect_line("STORED");
    expect_line(value_header);
    expect_line(val);
    expect_line("VALUE b" + tag + " 0 1");
    expect_line("x");
    expect_line("END");
    expect_line("VERSION " + std::string(net::kServerVersion));
    clients[i].Quit();
  }
}

TEST_P(NetE2eTest, BurstMixedVerbPipelineKeepsResponseOrder) {
  // One burst interleaving every shardable verb across many shards plus a
  // barrier command (version) mid-stream: responses must come back in
  // command order even though the burst path executes grouped by shard.
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  std::string blob;
  for (int i = 0; i < 24; ++i) {
    const std::string tag = std::to_string(i);
    blob += "set o" + tag + " 0 0 2 noreply\r\nv" +
            std::string(1, static_cast<char>('a' + i % 26)) + "\r\n";
  }
  blob += "get o0 o5 o23 nope\r\n";
  blob += "set n0 0 0 1\r\n7\r\n";
  blob += "incr n0 3\r\n";
  blob += "version\r\n";  // barrier: splits the burst into two sharded runs
  blob += "delete o5\r\n";
  blob += "get o5\r\n";
  blob += "decr n0 100\r\n";
  ASSERT_TRUE(client.SendRaw(blob));
  const auto expect_line = [&](const std::string& want) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    ASSERT_EQ(line, want);
  };
  expect_line("VALUE o0 0 2");
  expect_line("va");
  expect_line("VALUE o5 0 2");
  expect_line("vf");
  expect_line("VALUE o23 0 2");
  expect_line("vx");
  expect_line("END");
  expect_line("STORED");
  expect_line("10");
  expect_line("VERSION " + std::string(net::kServerVersion));
  expect_line("DELETED");
  expect_line("END");
  expect_line("0");
  client.Quit();
}

TEST_P(NetE2eTest, EveryBackendRunsOneBatchedExecutionPath) {
  // A pipelined session must reach the handler only through HandleBatch,
  // in bursts of several frames — never through per-command Handle(),
  // whichever backend serves it.
  StartDefaultServer();
  net::AsciiClient client = MakeClient();
  constexpr int kFrames = 64;
  std::string blob;
  for (int i = 0; i < kFrames; i += 2) {
    const std::string key = "p" + std::to_string(i);
    blob += "set " + key + " 0 0 1\r\nx\r\nget " + key + "\r\n";
  }
  ASSERT_TRUE(client.SendRaw(blob));
  const auto expect_line = [&](const std::string& want) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    ASSERT_EQ(line, want);
  };
  for (int i = 0; i < kFrames; i += 2) {
    expect_line("STORED");
    expect_line("VALUE p" + std::to_string(i) + " 0 1");
    expect_line("x");
    expect_line("END");
  }
  EXPECT_EQ(counting_->handle_calls.load(), 0u);
  EXPECT_GT(counting_->batch_calls.load(), 0u);
  EXPECT_LT(counting_->batch_calls.load(), static_cast<uint64_t>(kFrames));
}

// --- The determinism test -------------------------------------------------

// Mirrors CacheAdapter against a library server. With values in the core
// arenas the mirror needs no bookkeeping of its own: it issues exactly the
// value verbs the adapter issues (a GetValue probe; on a miss the client
// demand-fills, which is a SetValue behind the slab-class admission
// precheck). The trace carries no TTLs and no flushes, so a fixed clock
// stands in for the socket pass's wall clock.
class LibraryReplay {
 public:
  explicit LibraryReplay(ShardedCacheServer* server, uint32_t app_id)
      : server_(server), app_id_(app_id) {}

  // Demand-fill GET; returns true on hit.
  bool Get(uint64_t key_id, uint32_t key_size, uint32_t fill_value_size) {
    const ValueOutcome vo =
        server_->GetValue(app_id_, key_id, key_size, kNow, /*flush_at_s=*/0);
    if (vo.valid) return true;
    Set(key_id, key_size, fill_value_size);
    return false;
  }

  void Set(uint64_t key_id, uint32_t key_size, uint32_t value_size) {
    const std::string bytes(value_size, 'v');
    ItemMeta item{key_id, key_size, value_size};
    item.now_s = kNow;
    if (SlabClassFor(ExactFootprint(key_size, value_size)) < 0) {
      // Oversized store: drops any old incarnation, mints no cas — the
      // adapter's too-large path.
      server_->SetValue(app_id_, item, bytes.data(), 0, 0);
      return;
    }
    server_->SetValue(app_id_, item, bytes.data(), 0, ++cas_);
  }

 private:
  static constexpr uint32_t kNow = 1;
  ShardedCacheServer* server_;
  uint32_t app_id_;
  uint64_t cas_ = 0;
};

void ExpectStatsEqual(const ClassStats& a, const ClassStats& b,
                      const char* what) {
  EXPECT_EQ(a.gets, b.gets) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.sets, b.sets) << what;
  EXPECT_EQ(a.tail_hits, b.tail_hits) << what;
  EXPECT_EQ(a.cliff_shadow_hits, b.cliff_shadow_hits) << what;
  EXPECT_EQ(a.hill_shadow_hits, b.hill_shadow_hits) << what;
}

TEST_P(NetE2eTest, SocketReplayIsBitIdenticalToLibraryReplay) {
  // Full Cliffhanger controllers on both sides: any distortion of the op
  // stream (a lost get, a misrouted size, a reordered fill) shifts the
  // hill climber or cliff scaler and shows up in the counters.
  ShardedServerConfig config;
  config.server = CliffhangerServerConfig();
  config.server.store_values = true;  // both passes serve real bytes
  config.num_shards = 4;
  config.rebalance_interval_ops = 4096;
  constexpr uint32_t kApp = 1;
  // Far below the trace's ~1.9 MiB unique footprint, so the replay runs in
  // the eviction + shadow-traffic regime the controllers live on.
  constexpr uint64_t kReservation = 1 * kMiB;

  ZipfTraceSpec spec;
  spec.requests = 24000;
  spec.universe = 6000;
  spec.zipf_alpha = 0.9;
  spec.seed = 0xD37E12;
  spec.app_id = kApp;
  spec.get_fraction = 0.9;  // 10% explicit SETs ride along
  const Trace trace = MakeZipfMixTrace(spec);

  // Library pass.
  ShardedCacheServer library_server(config);
  library_server.AddApp(kApp, kReservation);
  LibraryReplay replay(&library_server, kApp);
  uint64_t library_hits = 0;
  for (const Request& r : trace) {
    const std::string key = net::ReplayKeyString(r.key);
    const uint64_t key_id = Fnv1a64(key);
    if (r.is_get()) {
      library_hits += replay.Get(key_id, r.key_size, r.value_size) ? 1 : 0;
    } else {
      replay.Set(key_id, r.key_size, r.value_size);
    }
  }

  // Socket pass: same config, one connection, demand-fill via the client.
  StartServer(config, {{kApp, kReservation}}, kApp);
  net::AsciiClient client = MakeClient();
  uint64_t socket_hits = 0;
  uint64_t value_mismatches = 0;
  for (const Request& r : trace) {
    const std::string key = net::ReplayKeyString(r.key);
    if (r.is_get()) {
      const auto value = client.Get(key);
      if (value.has_value()) {
        ++socket_hits;
        if (value->data != net::ReplayValueBytes(r.key, r.value_size)) {
          ++value_mismatches;
        }
      } else {
        ASSERT_EQ(client.Set(key, net::ReplayValueBytes(r.key, r.value_size)),
                  net::AsciiClient::StoreResult::kStored);
      }
    } else {
      ASSERT_EQ(client.Set(key, net::ReplayValueBytes(r.key, r.value_size)),
                net::AsciiClient::StoreResult::kStored);
    }
  }
  client.Quit();

  EXPECT_EQ(socket_hits, library_hits);
  EXPECT_EQ(value_mismatches, 0u);
  ExpectStatsEqual(server_->TotalStats(), library_server.TotalStats(),
                   "total");
  ExpectStatsEqual(server_->AppStats(kApp), library_server.AppStats(kApp),
                   "app");
  for (size_t shard = 0; shard < config.num_shards; ++shard) {
    ExpectStatsEqual(server_->ShardStats(shard),
                     library_server.ShardStats(shard), "shard");
  }
  // The workload must actually have exercised eviction + shadow machinery,
  // or the equality above proves nothing.
  const ClassStats total = server_->TotalStats();
  EXPECT_GT(total.gets, 0u);
  EXPECT_LT(total.hits, total.gets);
  EXPECT_GT(total.hill_shadow_hits + total.cliff_shadow_hits, 0u);
}

// --- The full-verb determinism test ---------------------------------------

// Mirrors CacheAdapter over the core value verbs: values, cas versions,
// expiries and flush reclamation all live in the core now, so the mirror
// holds only what the adapter itself holds — a cas counter and the flush
// point — and issues exactly the verb sequence the adapter issues
// (including the no-cas-minted-on-rejected-store discipline).
// Single-threaded, like the one-connection socket pass, so the cas counter
// advances in the same order.
class FullVerbReplay {
 public:
  FullVerbReplay(ShardedCacheServer* server, uint32_t app_id)
      : server_(server), app_id_(app_id) {}

  enum class SR : uint8_t { kStored, kNotStored, kExists, kNotFound,
                            kTooLarge };
  enum class Kind : uint8_t { kSet, kAdd, kReplace, kCas };

  struct GotValue {
    std::string value;
    uint64_t cas = 0;
  };

  // Demand-fill-free GET (the adapter's HandleGet for one key).
  std::optional<GotValue> Get(uint64_t key_id, uint32_t key_size,
                              uint32_t now) {
    const ValueOutcome vo =
        server_->GetValue(app_id_, key_id, key_size, now, flush_at_s_);
    if (!vo.valid) return std::nullopt;
    return GotValue{std::string(vo.view.data, vo.view.size), vo.view.cas};
  }

  SR Store(Kind kind, uint64_t key_id, uint32_t key_size,
           const std::string& value, int64_t exptime, uint64_t cas_unique,
           uint32_t now) {
    if (kind != Kind::kSet) {
      // Presence straight from the core (resident, unexpired, unflushed),
      // like the adapter's StoreLocked peek.
      const ValueOutcome peek =
          server_->PeekValue(app_id_, key_id, now, flush_at_s_);
      if ((kind == Kind::kAdd && peek.valid) ||
          (kind == Kind::kReplace && !peek.valid)) {
        return SR::kNotStored;
      }
      if (kind == Kind::kCas) {
        if (!peek.valid) return SR::kNotFound;
        if (peek.view.cas != cas_unique) return SR::kExists;
      }
    }
    const auto new_size = static_cast<uint32_t>(value.size());
    ItemMeta item{key_id, key_size, new_size};
    item.expiry_s = net::AbsoluteExpiry(exptime, now);
    item.now_s = now;
    if (SlabClassFor(ExactFootprint(key_size, new_size)) < 0) {
      server_->SetValue(app_id_, item, value.data(), 0, 0);
      return SR::kTooLarge;
    }
    server_->SetValue(app_id_, item, value.data(), 0, ++cas_counter_);
    return SR::kStored;
  }

  SR Concat(bool append, uint64_t key_id, uint32_t key_size,
            const std::string& data, uint32_t now) {
    const ValueOutcome peek =
        server_->PeekValue(app_id_, key_id, now, flush_at_s_);
    if (!peek.valid) return SR::kNotStored;
    if (static_cast<uint64_t>(peek.view.size) + data.size() >
        net::kMaxValueBytes) {
      return SR::kTooLarge;  // splice rejected, original intact
    }
    std::string combined;
    combined.reserve(peek.view.size + data.size());
    if (append) {
      combined.append(peek.view.data, peek.view.size);
      combined.append(data);
    } else {
      combined.append(data);
      combined.append(peek.view.data, peek.view.size);
    }
    const auto new_size = static_cast<uint32_t>(combined.size());
    if (SlabClassFor(ExactFootprint(key_size, new_size)) < 0) {
      // Under kMaxValueBytes but over the largest chunk: the old
      // incarnation dies (ReplaceValue deletes before failing), no cas.
      server_->ReplaceValue(app_id_, key_id, key_size, combined.data(),
                            new_size, 0, now);
      return SR::kTooLarge;
    }
    server_->ReplaceValue(app_id_, key_id, key_size, combined.data(),
                          new_size, ++cas_counter_, now);
    return SR::kStored;
  }

  enum class ArithResult : uint8_t { kOk, kNotFound, kNonNumeric };
  ArithResult Arith(bool increment, uint64_t key_id, uint32_t key_size,
                    uint64_t delta, uint32_t now, uint64_t* result_out) {
    const ValueOutcome peek =
        server_->PeekValue(app_id_, key_id, now, flush_at_s_);
    if (!peek.valid) return ArithResult::kNotFound;
    uint64_t value = 0;
    if (!ParseDecimalU64(std::string_view(peek.view.data, peek.view.size),
                         &value)) {
      return ArithResult::kNonNumeric;
    }
    const uint64_t result = increment
                                ? value + delta
                                : (value < delta ? 0 : value - delta);
    const std::string text = std::to_string(result);
    server_->ReplaceValue(app_id_, key_id, key_size, text.data(),
                          static_cast<uint32_t>(text.size()), ++cas_counter_,
                          now);
    *result_out = result;
    return ArithResult::kOk;
  }

  bool Touch(uint64_t key_id, uint32_t key_size, int64_t exptime,
             uint32_t now) {
    return server_->TouchValue(app_id_, key_id, key_size,
                               net::AbsoluteExpiry(exptime, now), now,
                               flush_at_s_);
  }

  bool Delete(uint64_t key_id, uint32_t key_size, uint32_t now) {
    (void)key_size;
    return server_->DeleteValue(app_id_, key_id, now, flush_at_s_);
  }

  void FlushAll(int64_t delay, uint32_t now) {
    flush_at_s_ = static_cast<uint32_t>(
        std::min<uint64_t>(UINT32_MAX, static_cast<uint64_t>(now) +
                                           static_cast<uint64_t>(delay)));
  }

 private:
  ShardedCacheServer* server_;
  uint32_t app_id_;
  uint64_t cas_counter_ = 0;  // same numbering as the adapter's NextCas()
  uint32_t flush_at_s_ = 0;
};

// One scripted operation of the full-verb trace. Generated once, replayed
// twice (library and socket), so both passes see byte-identical inputs.
struct ScriptOp {
  enum class Verb : uint8_t { kGet, kSet, kAdd, kReplace, kCasFresh,
                              kCasStale, kIncr, kDecr, kTouch, kAppend,
                              kPrepend, kDelete, kFlushAll };
  Verb verb = Verb::kGet;
  uint32_t now_s = 0;
  uint64_t key = 0;
  std::string value;   // store payload / demand-fill payload
  std::string splice;  // append/prepend chunk
  int64_t exptime = 0;
  uint64_t delta = 0;
  int64_t flush_delay = 0;
};

std::vector<ScriptOp> MakeFullVerbScript() {
  constexpr int kOps = 18000;
  constexpr uint64_t kUniverse = 3000;
  std::vector<ScriptOp> script;
  script.reserve(kOps);
  Rng rng(0xC1F7A4);
  uint32_t now = 5000;
  for (int i = 0; i < kOps; ++i) {
    if (i % 40 == 39) ++now;  // seconds tick every 40 ops: TTLs bite mid-run
    ScriptOp op;
    op.now_s = now;
    op.key = rng.NextBounded(kUniverse);
    const bool counter_key = op.key % 16 == 0;

    // Two flushes at fixed points: one immediate-ish, one delayed.
    if (i == 6000 || i == 13000) {
      op.verb = ScriptOp::Verb::kFlushAll;
      op.flush_delay = i == 6000 ? 0 : 5;
      script.push_back(op);
      continue;
    }

    // TTL grammar mix: never / short relative / memcached's -1 / absolute.
    const uint32_t ttl_pick = rng.NextBounded(20);
    if (ttl_pick < 10) {
      op.exptime = 0;
    } else if (ttl_pick < 17) {
      op.exptime = 1 + static_cast<int64_t>(rng.NextBounded(90));
    } else if (ttl_pick < 18) {
      op.exptime = -1;
    } else {
      // Past the 30-day cutoff: interpreted as an absolute second.
      op.exptime = net::kRelativeExptimeCutoff + 1 +
                   static_cast<int64_t>(rng.NextBounded(1000));
    }

    if (counter_key && rng.NextBounded(10) != 0) {
      // Counters stay numeric 90% of the time; digit count varies so the
      // incr/decr rewrites cross slab classes.
      op.value = std::to_string(rng() >> (24 + rng.NextBounded(40)));
    } else {
      op.value = net::ReplayValueBytes(op.key,
                                       32 + rng.NextBounded(480));
    }
    op.splice = net::ReplayValueBytes(op.key ^ 0x5A5A, 1 + rng.NextBounded(8));
    op.delta = rng.NextBounded(1000);

    const uint32_t pick = rng.NextBounded(100);
    using V = ScriptOp::Verb;
    if (pick < 52) op.verb = V::kGet;
    else if (pick < 67) op.verb = V::kSet;
    else if (pick < 70) op.verb = V::kAdd;
    else if (pick < 73) op.verb = V::kReplace;
    else if (pick < 76) op.verb = V::kCasFresh;
    else if (pick < 78) op.verb = V::kCasStale;
    else if (pick < 81) op.verb = V::kIncr;
    else if (pick < 83) op.verb = V::kDecr;
    else if (pick < 87) op.verb = V::kTouch;
    else if (pick < 90) op.verb = V::kAppend;
    else if (pick < 92) op.verb = V::kPrepend;
    else op.verb = V::kDelete;
    script.push_back(op);
  }
  return script;
}

std::string StoreCode(net::AsciiClient::StoreResult r) {
  switch (r) {
    case net::AsciiClient::StoreResult::kStored: return "stored";
    case net::AsciiClient::StoreResult::kNotStored: return "not_stored";
    case net::AsciiClient::StoreResult::kExists: return "exists";
    case net::AsciiClient::StoreResult::kNotFound: return "not_found";
    case net::AsciiClient::StoreResult::kError: return "error";
  }
  return "?";
}

std::string StoreCode(FullVerbReplay::SR r) {
  switch (r) {
    case FullVerbReplay::SR::kStored: return "stored";
    case FullVerbReplay::SR::kNotStored: return "not_stored";
    case FullVerbReplay::SR::kExists: return "exists";
    case FullVerbReplay::SR::kNotFound: return "not_found";
    case FullVerbReplay::SR::kTooLarge: return "error";
  }
  return "?";
}

TEST_P(NetE2eTest, FullVerbSocketReplayIsBitIdenticalToLibraryReplay) {
  // Same construction as the get/set determinism test, but the trace spans
  // the whole PR-5 verb set under the injected clock: cas (fresh and
  // stale), incr/decr (including non-numeric errors), touch, append/
  // prepend re-slabs, deletes, relative/absolute/immediate TTLs and two
  // flush_all points. Every per-op result is transcribed on both sides and
  // the transcripts — not just the final counters — must be identical.
  ShardedServerConfig config;
  config.server = CliffhangerServerConfig();
  config.server.store_values = true;  // both passes serve real bytes
  config.num_shards = 4;
  config.rebalance_interval_ops = 4096;
  constexpr uint32_t kApp = 1;
  constexpr uint64_t kReservation = 1 * kMiB;
  const std::vector<ScriptOp> script = MakeFullVerbScript();
  using V = ScriptOp::Verb;

  // Library pass.
  ShardedCacheServer library_server(config);
  library_server.AddApp(kApp, kReservation);
  FullVerbReplay replay(&library_server, kApp);
  std::vector<std::string> library_log;
  library_log.reserve(script.size());
  for (const ScriptOp& op : script) {
    const std::string key = net::ReplayKeyString(op.key);
    const uint64_t kid = Fnv1a64(key);
    const auto ks = static_cast<uint32_t>(key.size());
    const uint32_t now = op.now_s;
    switch (op.verb) {
      case V::kGet: {
        const auto got = replay.Get(kid, ks, now);
        if (got.has_value()) {
          library_log.push_back("hit:" + std::to_string(Fnv1a64(got->value)));
        } else {
          const auto fill = replay.Store(FullVerbReplay::Kind::kSet, kid, ks,
                                         op.value, op.exptime, 0, now);
          library_log.push_back("miss+fill:" + StoreCode(fill));
        }
        break;
      }
      case V::kSet:
        library_log.push_back(
            "set:" + StoreCode(replay.Store(FullVerbReplay::Kind::kSet, kid,
                                            ks, op.value, op.exptime, 0,
                                            now)));
        break;
      case V::kAdd:
        library_log.push_back(
            "add:" + StoreCode(replay.Store(FullVerbReplay::Kind::kAdd, kid,
                                            ks, op.value, op.exptime, 0,
                                            now)));
        break;
      case V::kReplace:
        library_log.push_back(
            "replace:" + StoreCode(replay.Store(FullVerbReplay::Kind::kReplace,
                                                kid, ks, op.value, op.exptime,
                                                0, now)));
        break;
      case V::kCasFresh:
      case V::kCasStale: {
        const auto got = replay.Get(kid, ks, now);  // mirrors the gets probe
        if (!got.has_value()) {
          library_log.push_back("cas:skip");
          break;
        }
        const uint64_t cas = op.verb == V::kCasFresh ? got->cas
                                                     : got->cas + 1000000;
        library_log.push_back(
            "cas:" + StoreCode(replay.Store(FullVerbReplay::Kind::kCas, kid,
                                            ks, op.value, op.exptime, cas,
                                            now)));
        break;
      }
      case V::kIncr:
      case V::kDecr: {
        uint64_t result = 0;
        const auto r = replay.Arith(op.verb == V::kIncr, kid, ks, op.delta,
                                    now, &result);
        if (r == FullVerbReplay::ArithResult::kOk) {
          library_log.push_back("arith:" + std::to_string(result));
        } else if (r == FullVerbReplay::ArithResult::kNotFound) {
          library_log.push_back("arith:nf");
        } else {
          library_log.push_back("arith:nonnum");
        }
        break;
      }
      case V::kTouch:
        library_log.push_back(replay.Touch(kid, ks, op.exptime, now)
                                  ? "touch:yes" : "touch:no");
        break;
      case V::kAppend:
      case V::kPrepend:
        library_log.push_back(
            "splice:" + StoreCode(replay.Concat(op.verb == V::kAppend, kid,
                                                ks, op.splice, now)));
        break;
      case V::kDelete:
        library_log.push_back(replay.Delete(kid, ks, now) ? "del:yes"
                                                          : "del:no");
        break;
      case V::kFlushAll:
        replay.FlushAll(op.flush_delay, now);
        library_log.push_back("flush");
        break;
    }
  }

  // Socket pass: same config and script, one connection, injected clock.
  fake_now_.store(script.front().now_s);
  ShardedServerConfig socket_config = config;
  StartServer(socket_config, {{kApp, kReservation}}, kApp);
  net::AsciiClient client = MakeClient();
  std::vector<std::string> socket_log;
  socket_log.reserve(script.size());
  for (const ScriptOp& op : script) {
    fake_now_.store(op.now_s);
    const std::string key = net::ReplayKeyString(op.key);
    switch (op.verb) {
      case V::kGet: {
        const auto got = client.Get(key);
        if (got.has_value()) {
          socket_log.push_back("hit:" + std::to_string(Fnv1a64(got->data)));
        } else {
          const auto fill = client.Set(key, op.value, 0, op.exptime);
          socket_log.push_back("miss+fill:" + StoreCode(fill));
        }
        break;
      }
      case V::kSet:
        socket_log.push_back(
            "set:" + StoreCode(client.Set(key, op.value, 0, op.exptime)));
        break;
      case V::kAdd:
        socket_log.push_back(
            "add:" + StoreCode(client.Add(key, op.value, 0, op.exptime)));
        break;
      case V::kReplace:
        socket_log.push_back(
            "replace:" + StoreCode(client.Replace(key, op.value, 0,
                                                  op.exptime)));
        break;
      case V::kCasFresh:
      case V::kCasStale: {
        const auto got = client.Gets(key);
        if (!got.has_value()) {
          socket_log.push_back("cas:skip");
          break;
        }
        const uint64_t cas = op.verb == V::kCasFresh ? got->cas
                                                     : got->cas + 1000000;
        socket_log.push_back(
            "cas:" + StoreCode(client.Cas(key, op.value, cas, 0,
                                          op.exptime)));
        break;
      }
      case V::kIncr:
      case V::kDecr: {
        const auto result = op.verb == V::kIncr ? client.Incr(key, op.delta)
                                                : client.Decr(key, op.delta);
        if (result.has_value()) {
          socket_log.push_back("arith:" + std::to_string(*result));
        } else if (client.last_error().empty()) {
          socket_log.push_back("arith:nf");
        } else {
          socket_log.push_back("arith:nonnum");
        }
        break;
      }
      case V::kTouch:
        socket_log.push_back(client.Touch(key, op.exptime) ? "touch:yes"
                                                           : "touch:no");
        break;
      case V::kAppend:
        socket_log.push_back(
            "splice:" + StoreCode(client.Append(key, op.splice)));
        break;
      case V::kPrepend:
        socket_log.push_back(
            "splice:" + StoreCode(client.Prepend(key, op.splice)));
        break;
      case V::kDelete:
        socket_log.push_back(client.Delete(key) ? "del:yes" : "del:no");
        break;
      case V::kFlushAll:
        ASSERT_TRUE(client.FlushAll(op.flush_delay));
        socket_log.push_back("flush");
        break;
    }
  }
  client.Quit();

  // Per-op transcripts first (they localize a divergence to the exact op),
  // then the core counters on every level.
  ASSERT_EQ(socket_log.size(), library_log.size());
  for (size_t i = 0; i < socket_log.size(); ++i) {
    ASSERT_EQ(socket_log[i], library_log[i])
        << "first divergence at op " << i << " (verb "
        << static_cast<int>(script[i].verb) << ", key " << script[i].key
        << ", now " << script[i].now_s << ")";
  }
  ExpectStatsEqual(server_->TotalStats(), library_server.TotalStats(),
                   "total");
  ExpectStatsEqual(server_->AppStats(kApp), library_server.AppStats(kApp),
                   "app");
  for (size_t shard = 0; shard < config.num_shards; ++shard) {
    ExpectStatsEqual(server_->ShardStats(shard),
                     library_server.ShardStats(shard), "shard");
  }

  // The equality only proves something if the trace actually drove every
  // semantic corner: evictions + shadow traffic, expiries, flush reclaims,
  // fresh and stale cas, arithmetic (incl. the non-numeric error), touch
  // hits, splices and deletes.
  const auto c = adapter_->counters();
  const ClassStats total = server_->TotalStats();
  EXPECT_LT(total.hits, total.gets);
  EXPECT_GT(total.hill_shadow_hits + total.cliff_shadow_hits, 0u);
  EXPECT_GT(c.get_expired, 0u);
  EXPECT_GT(c.cas_hits, 0u);
  EXPECT_GT(c.cas_badval, 0u);
  EXPECT_GT(c.incr_hits, 0u);
  EXPECT_GT(c.decr_hits, 0u);
  EXPECT_GT(c.touch_hits, 0u);
  EXPECT_GT(c.touch_misses, 0u);
  EXPECT_GT(c.delete_hits, 0u);
  EXPECT_EQ(c.cmd_flush, 2u);
  const auto nonnum = std::count(socket_log.begin(), socket_log.end(),
                                 std::string("arith:nonnum"));
  EXPECT_GT(nonnum, 0);
}

TEST_P(NetE2eTest, EffectiveBackendAndFallbackReasonAreConsistent) {
  // poll/epoll never fall back; a kUring request either comes up on the
  // ring (no reason logged) or degrades to epoll with a reason — and the
  // server must serve traffic identically either way.
  StartDefaultServer();
  const net::SocketBackend effective = socket_server_->effective_backend();
  if (GetParam() == net::SocketBackend::kUring) {
    if (effective == net::SocketBackend::kUring) {
      EXPECT_TRUE(socket_server_->backend_fallback_reason().empty())
          << socket_server_->backend_fallback_reason();
    } else {
      EXPECT_EQ(effective, net::SocketBackend::kEpoll);
      EXPECT_FALSE(socket_server_->backend_fallback_reason().empty());
    }
  } else {
    EXPECT_EQ(effective, GetParam());
    EXPECT_TRUE(socket_server_->backend_fallback_reason().empty())
        << socket_server_->backend_fallback_reason();
  }
  net::AsciiClient client = MakeClient();
  ASSERT_EQ(client.Set("ebk", "ebv"), net::AsciiClient::StoreResult::kStored);
  const auto got = client.Get("ebk");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, "ebv");
  client.Quit();
}

TEST_P(NetE2eTest, UringBatchesManySqesPerSubmit) {
  // The per-op syscall-reduction proof: a pipelined storm of frames must
  // cost far fewer io_uring_enter calls than frames — each burst's flush,
  // buffer return and read re-arm ride one submit — and the average batch
  // must pack multiple SQEs per enter.
  if (GetParam() != net::SocketBackend::kUring) {
    GTEST_SKIP() << "submit accounting only exists on the uring backend";
  }
  StartDefaultServer();
  if (socket_server_->effective_backend() != net::SocketBackend::kUring) {
    GTEST_SKIP() << "io_uring unavailable here: "
                 << socket_server_->backend_fallback_reason();
  }
  net::AsciiClient client = MakeClient();
  constexpr int kRounds = 1000;  // 2 frames per round + the version barrier
  std::string blob;
  for (int i = 0; i < kRounds; ++i) {
    const std::string tag = std::to_string(i % 64);
    blob += "set bk" + tag + " 0 0 8 noreply\r\nvvvvvvvv\r\n";
    blob += "get bk" + tag + "\r\n";
  }
  blob += "version\r\n";
  ASSERT_TRUE(client.SendRaw(blob));
  std::string line;
  int value_lines = 0;
  while (true) {
    ASSERT_TRUE(client.ReadLine(&line)) << client.last_error();
    if (line.rfind("VERSION", 0) == 0) break;
    if (line.rfind("VALUE ", 0) == 0) ++value_lines;
  }
  EXPECT_EQ(value_lines, kRounds);
  const uint64_t frames = 2 * kRounds + 1;
  const uint64_t submits = socket_server_->uring_submit_calls();
  const uint64_t sqes = socket_server_->uring_submitted_sqes();
  ASSERT_GT(submits, 0u);
  // Batching both ways: several SQEs per enter on average, and an order of
  // magnitude fewer enters than protocol frames served.
  EXPECT_GT(sqes, submits);
  EXPECT_LT(submits * 4, frames)
      << "submits=" << submits << " sqes=" << sqes << " frames=" << frames;
  client.Quit();
}

}  // namespace
}  // namespace cliffhanger
