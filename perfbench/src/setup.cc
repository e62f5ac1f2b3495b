#include "setup.h"

#include <string_view>

#include "sim/experiment.h"

namespace perfbench {

namespace net = cliffhanger::net;

cliffhanger::ShardedServerConfig LiveServerConfig() {
  cliffhanger::ShardedServerConfig config;
  config.server = cliffhanger::CliffhangerServerConfig();
  config.server.eviction = cliffhanger::EvictionScheme::kLru;
  config.server.store_values = true;
  config.num_shards = 4;
  config.rebalance_interval_ops = 100000;
  return config;
}

net::SocketServerConfig LiveSocketConfig() {
  net::SocketServerConfig config;
  config.port = 0;
  config.num_workers = 2;
  config.backend = net::SocketBackend::kEpoll;
  return config;
}

void ForEachFillKey(WorkloadKind kind, uint64_t seed,
                    const std::function<void(const KeySpec&)>& fn) {
  const uint64_t n = FillKeys(kind);
  Source fill(kind, seed ^ 0xF111F111ULL, n);
  for (uint64_t i = 0; i < n; ++i) fn(fill.NextKey());
}

void FeedHandler(net::CommandHandler* handler, const std::string& wire,
                 size_t max_frames) {
  thread_local std::vector<net::Command> cmds;
  thread_local std::vector<net::ResponseSegment> segments;
  net::AsciiParser parser;
  const std::string_view bytes(wire);
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t frames = 0;
    size_t key_ops = 0;
    while (pos < bytes.size() && frames < max_frames) {
      if (cmds.size() == frames) cmds.emplace_back();
      size_t consumed = 0;
      const net::ParseStatus status =
          parser.Next(bytes.substr(pos), &consumed, &cmds[frames]);
      if (status != net::ParseStatus::kCommand) {
        pos = bytes.size();
        break;
      }
      const size_t ops = std::max<size_t>(1, cmds[frames].keys.size());
      if (frames > 0 && key_ops + ops > net::kMaxKeysPerGet) break;
      pos += consumed;
      key_ops += ops;
      ++frames;
    }
    for (net::ResponseSegment& seg : segments) seg.Reset();
    handler->HandleBatch(cmds.data(), frames, &segments);
    handler->ReleaseBurstPins();
  }
}

void FillThroughAdapter(net::CacheAdapter* adapter, WorkloadKind kind,
                        uint64_t seed) {
  std::string wire;
  Request r;
  r.verb = Verb::kSet;
  r.nkeys = 1;
  size_t pending = 0;
  ForEachFillKey(kind, seed, [&](const KeySpec& k) {
    r.keys[0] = k;
    AppendRequest(r, &wire);
    if (++pending == 256) {
      FeedHandler(adapter, wire, 64);
      wire.clear();
      pending = 0;
    }
  });
  FeedHandler(adapter, wire, 64);
}

Server::~Server() {
  if (socket) socket->Stop();
}

std::unique_ptr<Server> StartServer(WorkloadKind kind, uint64_t seed,
                                    SpanLog* log, std::string* error) {
  auto server = std::make_unique<Server>();
  server->core =
      std::make_unique<cliffhanger::ShardedCacheServer>(LiveServerConfig());
  for (const AppSpec& app : AppsFor(kind)) {
    server->core->AddApp(app.app_id, app.reservation);
  }
  net::CacheAdapterConfig adapter_config;
  adapter_config.default_app_id = AppsFor(kind).front().app_id;
  server->adapter =
      std::make_unique<net::CacheAdapter>(server->core.get(), adapter_config);
  FillThroughAdapter(server->adapter.get(), kind, seed);
  net::CommandHandler* handler = server->adapter.get();
  if (log != nullptr) {
    server->forwarder =
        std::make_unique<ForwardingHandler>(server->adapter.get(), log);
    handler = server->forwarder.get();
  }
  server->socket =
      std::make_unique<net::SocketServer>(LiveSocketConfig(), handler);
  if (!server->socket->Start(error)) return nullptr;
  return server;
}

const char* BackendName(net::SocketBackend b) {
  switch (b) {
    case net::SocketBackend::kPoll:
      return "poll";
    case net::SocketBackend::kEpoll:
      return "epoll";
    case net::SocketBackend::kUring:
      return "uring";
  }
  return "?";
}

}  // namespace perfbench
