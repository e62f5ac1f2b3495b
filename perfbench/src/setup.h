// Building and filling the server under test, with cliffhangerd's defaults.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_server.h"
#include "net/cache_adapter.h"
#include "net/socket_server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

// cliffhangerd's defaults: 4 shards, cliffhanger mode, LRU eviction, values
// stored in the slab arenas, a shard rebalance every 100k operations.
[[nodiscard]] cliffhanger::ShardedServerConfig LiveServerConfig();
// cliffhangerd's defaults: epoll, 2 workers.
[[nodiscard]] cliffhanger::net::SocketServerConfig LiveSocketConfig();

// Calls `fn` for each key the set-up fill stores, in order.
void ForEachFillKey(WorkloadKind kind, uint64_t seed,
                    const std::function<void(const KeySpec&)>& fn);

// Parses `wire` and hands it to `handler` in bursts of up to `max_frames`
// frames and 64 key operations, like the socket server's burst cycle.
void FeedHandler(cliffhanger::net::CommandHandler* handler,
                 const std::string& wire, size_t max_frames);

// Stores the fill keys through the adapter.
void FillThroughAdapter(cliffhanger::net::CacheAdapter* adapter,
                        WorkloadKind kind, uint64_t seed);

// The running system: core server, adapter, optional forwarding handler
// (traced runs), socket server.
struct Server {
  std::unique_ptr<cliffhanger::ShardedCacheServer> core;
  std::unique_ptr<cliffhanger::net::CacheAdapter> adapter;
  std::unique_ptr<ForwardingHandler> forwarder;
  std::unique_ptr<cliffhanger::net::SocketServer> socket;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();
};

// Builds, registers the apps, fills and starts the server. With a span
// log, the socket server talks to a ForwardingHandler around the adapter.
[[nodiscard]] std::unique_ptr<Server> StartServer(WorkloadKind kind,
                                                  uint64_t seed, SpanLog* log,
                                                  std::string* error);

[[nodiscard]] const char* BackendName(cliffhanger::net::SocketBackend b);

}  // namespace perfbench
