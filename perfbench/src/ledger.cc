#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <thread>

#include "cache/segmented_lru.h"
#include "core/cache_server.h"
#include "core/sharded_server.h"
#include "net/ascii_protocol.h"
#include "net/cache_adapter.h"
#include "setup.h"
#include "util/hashing.h"
#include "util/slab_geometry.h"

namespace perfbench {

namespace net = cliffhanger::net;
using cliffhanger::CacheServer;
using cliffhanger::ItemMeta;
using cliffhanger::SegmentedLru;
using cliffhanger::ShardedCacheServer;

namespace {

constexpr uint64_t kLedgerKeyOps = 100000;
constexpr int kTimedPasses = 7;

// One key operation, routed the way CacheAdapter routes it.
struct Op {
  Verb verb = Verb::kGet;
  uint32_t app_id = 0;
  uint32_t app_index = 0;
  uint64_t key_id = 0;
  uint32_t key_len = 0;
  uint32_t value_size = 0;
  uint32_t flags = 0;
  size_t payload_off = 0;
  const char* payload = nullptr;
  size_t shard = 0;
};

struct Burst {
  size_t byte_begin = 0;
  size_t byte_end = 0;
  size_t cmd_begin = 0;
  size_t cmd_end = 0;
  size_t op_begin = 0;  // into Stream::shard_order
  size_t op_end = 0;
};

struct Stream {
  std::string wire;
  std::vector<Op> ops;                // key operations in command order
  std::vector<uint32_t> shard_order;  // per burst, ops stable by shard
  std::vector<Burst> bursts;
  std::vector<AppSpec> apps;
  uint64_t commands = 0;
};

Op MakeOp(Verb verb, const KeySpec& k, const std::vector<AppSpec>& apps,
          size_t num_shards) {
  char text[kMaxKeyLen];
  RenderKey(k, text);
  Op op;
  op.verb = verb;
  op.app_id = k.app_id != 0 ? k.app_id : apps.front().app_id;
  for (size_t i = 0; i < apps.size(); ++i) {
    if (apps[i].app_id == op.app_id) op.app_index = static_cast<uint32_t>(i);
  }
  op.key_id = cliffhanger::Fnv1a64(std::string_view(text, k.key_len));
  op.key_len = k.key_len;
  op.value_size = k.value_size;
  op.flags = FlagsFor(k);
  op.shard = cliffhanger::ShardIndexForKey(op.key_id, num_shards);
  return op;
}

Stream BuildStream(WorkloadKind kind, uint64_t seed, size_t burst_frames,
                   size_t num_shards) {
  Stream st;
  st.apps = AppsFor(kind);
  Source source(kind, seed ^ 0x1ED6E5ULL, kLedgerKeyOps);
  Request r;
  Burst cur;
  size_t cur_frames = 0;
  size_t cur_key_ops = 0;
  const auto close_burst = [&] {
    cur.byte_end = st.wire.size();
    cur.cmd_end = st.commands;
    cur.op_end = st.ops.size();
    st.bursts.push_back(cur);
    cur = Burst{};
    cur.byte_begin = st.wire.size();
    cur.cmd_begin = st.commands;
    cur.op_begin = st.ops.size();
    cur_frames = 0;
    cur_key_ops = 0;
  };
  while (st.ops.size() < kLedgerKeyOps) {
    source.Next(&r);
    const size_t key_ops = r.verb == Verb::kGet ? r.nkeys : 1;
    if (cur_frames == burst_frames ||
        (cur_frames > 0 && cur_key_ops + key_ops > net::kMaxKeysPerGet)) {
      close_burst();
    }
    AppendRequest(r, &st.wire);
    ++st.commands;
    ++cur_frames;
    cur_key_ops += key_ops;
    for (size_t i = 0; i < key_ops; ++i) {
      Op op = MakeOp(r.verb, r.keys[i], st.apps, num_shards);
      if (r.verb == Verb::kSet) {
        op.payload_off = st.wire.size() - 2 - op.value_size;
      }
      st.ops.push_back(op);
    }
  }
  close_burst();
  for (Op& op : st.ops) op.payload = st.wire.data() + op.payload_off;
  st.shard_order.resize(st.ops.size());
  for (const Burst& b : st.bursts) {
    for (size_t i = b.op_begin; i < b.op_end; ++i) {
      st.shard_order[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(st.shard_order.begin() + static_cast<ptrdiff_t>(b.op_begin),
                     st.shard_order.begin() + static_cast<ptrdiff_t>(b.op_end),
                     [&](uint32_t x, uint32_t y) {
                       return st.ops[x].shard < st.ops[y].shard;
                     });
  }
  return st;
}

// One layer's timed pass over the whole stream.
struct TimedPass {
  const char* span_name;
  uint64_t ops;
  std::function<void()> run;
};

// One untimed warm pass of each, then kTimedPasses rounds that run every
// pass once, in turn; per pass, the fastest round, per op. Interleaving
// lays a slow host episode on the compared layers alike, and host noise
// only ever adds time, so the minimum is the steadiest estimate of a
// layer's own cost.
std::vector<double> TimeInterleaved(const std::vector<TimedPass>& passes,
                                    SpanLog* log) {
  for (const TimedPass& p : passes) p.run();
  std::vector<int64_t> best(passes.size(), INT64_MAX);
  for (int round = 0; round < kTimedPasses; ++round) {
    for (size_t i = 0; i < passes.size(); ++i) {
      Span span;
      span.name = passes[i].span_name;
      span.request_id = static_cast<uint64_t>(round);
      span.start_ns = NowNs();
      passes[i].run();
      span.end_ns = NowNs();
      best[i] = std::min(best[i], span.end_ns - span.start_ns);
      log->ThreadBuffer()->push_back(span);
    }
  }
  std::vector<double> ns;
  for (size_t i = 0; i < passes.size(); ++i) {
    ns.push_back(static_cast<double>(best[i]) /
                 static_cast<double>(passes[i].ops));
  }
  return ns;
}

uint32_t NowSeconds() { return static_cast<uint32_t>(::time(nullptr)); }

// Fill for the core layers: the same keys FillThroughAdapter stores.
template <typename SetFn>
void FillCore(WorkloadKind kind, uint64_t seed, const Stream& st,
              size_t num_shards, SetFn set) {
  std::string payload;
  ForEachFillKey(kind, seed, [&](const KeySpec& k) {
    payload.resize(k.value_size);
    RenderPayload(k, payload.data());
    Op op = MakeOp(Verb::kSet, k, st.apps, num_shards);
    op.payload = payload.data();
    set(op);
  });
}

ItemMeta MetaFor(const Op& op, uint32_t now) {
  ItemMeta item;
  item.key = op.key_id;
  item.key_size = op.key_len;
  item.value_size = op.value_size;
  item.now_s = now;
  return item;
}

// Executes one op through a value-verb surface (ShardBatch or CacheServer
// adaptor below). Returns 1 for a GET hit.
template <typename Core>
uint64_t Exec(Core& core, const Op& op, uint32_t now, uint64_t* cas) {
  switch (op.verb) {
    case Verb::kGet:
      return core.Get(op, now) ? 1 : 0;
    case Verb::kSet:
      core.Set(op, now, ++*cas);
      return 0;
    case Verb::kTouch:
      core.Touch(op, now);
      return 0;
    case Verb::kDelete:
      core.Delete(op, now);
      return 0;
  }
  return 0;
}

struct BatchVerbs {
  ShardedCacheServer::ShardBatch& b;
  bool Get(const Op& op, uint32_t now) {
    return b.GetValue(op.app_id, op.key_id, op.key_len, now, 0).valid;
  }
  void Set(const Op& op, uint32_t now, uint64_t cas) {
    b.SetValue(op.app_id, MetaFor(op, now), op.payload, op.flags, cas);
  }
  void Touch(const Op& op, uint32_t now) {
    b.TouchValue(op.app_id, op.key_id, op.key_len, 0, now, 0);
  }
  void Delete(const Op& op, uint32_t now) {
    b.DeleteValue(op.app_id, op.key_id, now, 0);
  }
};

struct ServerVerbs {
  CacheServer& s;
  bool Get(const Op& op, uint32_t now) {
    return s.GetByKey(op.app_id, op.key_id, op.key_len, now, 0).valid;
  }
  void Set(const Op& op, uint32_t now, uint64_t cas) {
    s.SetValue(op.app_id, MetaFor(op, now), op.payload, op.flags, cas);
  }
  void Touch(const Op& op, uint32_t now) {
    s.TouchByKey(op.app_id, op.key_id, op.key_len, 0, now, 0);
  }
  void Delete(const Op& op, uint32_t now) {
    s.DeleteByKey(op.app_id, op.key_id, now, 0);
  }
};

// Bursts b = first, first + step, ...: one BeginBatch per shard group, as
// CacheAdapter::HandleBatch does. With `lock_ns`, BeginBatch is timed.
uint64_t ShardedPass(ShardedCacheServer* server, const Stream& st,
                     size_t first, size_t step, uint64_t* cas,
                     int64_t* lock_ns, uint64_t* begins) {
  const uint32_t now = NowSeconds();
  uint64_t hits = 0;
  for (size_t b = first; b < st.bursts.size(); b += step) {
    const Burst& burst = st.bursts[b];
    size_t i = burst.op_begin;
    while (i < burst.op_end) {
      const size_t shard = st.ops[st.shard_order[i]].shard;
      const int64_t t0 = lock_ns != nullptr ? NowNs() : 0;
      ShardedCacheServer::ShardBatch batch = server->BeginBatch(shard);
      if (lock_ns != nullptr) {
        *lock_ns += NowNs() - t0;
        ++*begins;
      }
      BatchVerbs verbs{batch};
      for (; i < burst.op_end && st.ops[st.shard_order[i]].shard == shard;
           ++i) {
        hits += Exec(verbs, st.ops[st.shard_order[i]], now, cas);
      }
    }
  }
  return hits;
}

std::unique_ptr<ShardedCacheServer> FreshSharded(WorkloadKind kind,
                                                 uint64_t seed,
                                                 const Stream& st) {
  auto server = std::make_unique<ShardedCacheServer>(LiveServerConfig());
  for (const AppSpec& app : st.apps) server->AddApp(app.app_id, app.reservation);
  uint64_t cas = 0;
  const uint32_t now = NowSeconds();
  FillCore(kind, seed, st, 1, [&](const Op& op) {
    server->SetValue(op.app_id, MetaFor(op, now), op.payload, op.flags,
                     ++cas);
  });
  return server;
}

struct AdapterUnderTest {
  std::unique_ptr<ShardedCacheServer> core;
  std::unique_ptr<net::CacheAdapter> adapter;
};

AdapterUnderTest FreshAdapter(WorkloadKind kind, uint64_t seed,
                              const Stream& st) {
  AdapterUnderTest a;
  a.core = std::make_unique<ShardedCacheServer>(LiveServerConfig());
  for (const AppSpec& app : st.apps) a.core->AddApp(app.app_id, app.reservation);
  net::CacheAdapterConfig config;
  config.default_app_id = st.apps.front().app_id;
  a.adapter = std::make_unique<net::CacheAdapter>(a.core.get(), config);
  FillThroughAdapter(a.adapter.get(), kind, seed);
  return a;
}

}  // namespace

double LedgerResult::ns(const std::string& name) const {
  for (const LedgerLayer& l : chain) {
    if (l.name == name) return l.ns_per_op;
  }
  return 0;
}

LedgerResult RunLedger(WorkloadKind kind, uint64_t seed, size_t burst_frames,
                       SpanLog* log) {
  const size_t num_shards = LiveServerConfig().num_shards;
  const Stream st = BuildStream(kind, seed, burst_frames, num_shards);
  const auto ops = static_cast<uint64_t>(st.ops.size());
  LedgerResult res;
  res.commands = st.commands;
  res.key_ops = ops;
  const std::string_view wire(st.wire);

  // AsciiParser::Next alone, interleaved with: parse each burst, then
  // HandleBatch + ReleaseBurstPins. The adapter layer is the time inside
  // HandleBatch + ReleaseBurstPins, read around each burst as the live
  // forwarder reads it, so both adapter figures come from one hot pass.
  // (Replaying commands parsed up front instead walks 100k Commands
  // scattered over the heap, which on single-key workloads cost more than
  // parsing them afresh.)
  {
    AdapterUnderTest a = FreshAdapter(kind, seed, st);
    net::AsciiParser parser;
    net::Command parsed;
    std::vector<net::Command> cmds(net::kMaxKeysPerGet);
    std::vector<net::ResponseSegment> segments;
    std::vector<int64_t> adapter_ns;  // per parse_adapter pass
    const std::vector<double> ns = TimeInterleaved(
        {{"ledger.parse", st.commands,
          [&] {
            size_t at = 0;
            while (at < wire.size()) {
              size_t consumed = 0;
              if (parser.Next(wire.substr(at), &consumed, &parsed) !=
                  net::ParseStatus::kCommand) {
                break;
              }
              at += consumed;
            }
          }},
         {"ledger.parse_adapter", ops,
          [&] {
            int64_t inside = 0;
            for (const Burst& b : st.bursts) {
              size_t at = b.byte_begin;
              size_t n = 0;
              while (at < b.byte_end) {
                size_t consumed = 0;
                parser.Next(wire.substr(at, b.byte_end - at), &consumed,
                            &cmds[n++]);
                at += consumed;
              }
              for (net::ResponseSegment& seg : segments) seg.Reset();
              const int64_t t0 = NowNs();
              a.adapter->HandleBatch(cmds.data(), n, &segments);
              a.adapter->ReleaseBurstPins();
              inside += NowNs() - t0;
            }
            adapter_ns.push_back(inside);
          }}},
        log);
    res.parse_ns_per_cmd = ns[0];
    res.chain.push_back({"parse_adapter", ns[1]});
    // The first pass is the untimed warm pass.
    res.chain.push_back(
        {"adapter",
         static_cast<double>(
             *std::min_element(adapter_ns.begin() + 1, adapter_ns.end())) /
             static_cast<double>(ops)});
  }

  // The core layers, interleaved: ShardedCacheServer on one thread;
  // CacheServer value verbs without the sharding layer, one CacheServer
  // per shard, configured and sized as ShardedCacheServer configures its
  // shards, each op sent to its key's shard (the delta from sharded_t1 is
  // the shard lock, statistics mirror and rebalance cadence); and the
  // SegmentedLru probe, one queue per shard and app, its physical segment
  // sized to that shard's share of the reservation, followed by a cliff
  // shadow and a hill shadow of keys.
  const cliffhanger::ShardedServerConfig live = LiveServerConfig();
  const auto shard_share = [&](uint64_t total, size_t shard) {
    return total / num_shards + (shard < total % num_shards ? 1 : 0);
  };
  {
    auto server = FreshSharded(kind, seed, st);
    uint64_t sharded_cas = 1ULL << 40;

    std::vector<std::unique_ptr<CacheServer>> shards;
    for (size_t i = 0; i < num_shards; ++i) {
      cliffhanger::ServerConfig config = live.server;
      config.seed = cliffhanger::HashCombine(live.server.seed, 0x5AD0000 + i);
      shards.push_back(std::make_unique<CacheServer>(config));
      for (const AppSpec& app : st.apps) {
        shards.back()->AddApp(app.app_id, shard_share(app.reservation, i));
      }
    }
    uint64_t cas = 0;
    const uint32_t now = NowSeconds();
    FillCore(kind, seed, st, num_shards, [&](const Op& op) {
      shards[op.shard]->SetValue(op.app_id, MetaFor(op, now), op.payload,
                                 op.flags, ++cas);
    });

    std::vector<std::unique_ptr<SegmentedLru>> lrus;
    for (size_t i = 0; i < num_shards; ++i) {
      for (const AppSpec& app : st.apps) {
        lrus.push_back(std::make_unique<SegmentedLru>(
            std::vector<SegmentedLru::SegmentConfig>{
                {shard_share(app.reservation, i), SegmentedLru::Unit::kBytes,
                 false},
                {128, SegmentedLru::Unit::kItems, true},
                {8192, SegmentedLru::Unit::kItems, true}}));
      }
    }
    const auto lru_for = [&](const Op& op) -> SegmentedLru& {
      return *lrus[op.shard * st.apps.size() + op.app_index];
    };
    const auto probe = [&](const Op& op, bool insert) {
      SegmentedLru& lru = lru_for(op);
      const SegmentedLru::Handle h = lru.FindHandle(op.key_id);
      if (h != SegmentedLru::kNoHandle) {
        lru.Promote(h, 0);
        return uint64_t{1};
      }
      if (insert) {
        SegmentedLru::Entry e;
        e.key = op.key_id;
        e.full_bytes = static_cast<uint32_t>(
            cliffhanger::ItemFootprint(op.key_len, op.value_size));
        e.key_bytes = op.key_len;
        lru.Insert(e, 0);
      }
      return uint64_t{0};
    };
    FillCore(kind, seed, st, num_shards,
             [&](const Op& op) { probe(op, true); });
    uint64_t sink = 0;

    const std::vector<double> ns = TimeInterleaved(
        {{"ledger.sharded_t1", ops,
          [&] {
            ShardedPass(server.get(), st, 0, 1, &sharded_cas, nullptr,
                        nullptr);
          }},
         {"ledger.cache_server", ops,
          [&] {
            const uint32_t t = NowSeconds();
            for (const Op& op : st.ops) {
              ServerVerbs verbs{*shards[op.shard]};
              Exec(verbs, op, t, &cas);
            }
          }},
         {"ledger.lru", ops,
          [&] {
            for (const Op& op : st.ops) {
              if (op.verb == Verb::kDelete) {
                lru_for(op).Erase(op.key_id);
              } else {
                sink += probe(op, op.verb == Verb::kSet);
              }
            }
          }}},
        log);
    (void)sink;
    res.chain.push_back({"sharded_t1", ns[0]});
    res.chain.push_back({"cache_server", ns[1]});
    res.chain.push_back({"lru", ns[2]});
    for (const auto& shard : shards) {
      for (const AppSpec& app : st.apps) {
        res.shadow_overhead_kib +=
            static_cast<double>(
                shard->app(app.app_id)->shadow_overhead_bytes()) /
            1024.0;
      }
    }
  }

  // ShardedCacheServer, two threads on alternate bursts: per-thread busy
  // time per op, then a pass timing BeginBatch alone.
  {
    auto server = FreshSharded(kind, seed, st);
    uint64_t cas = 1ULL << 40;
    ShardedPass(server.get(), st, 0, 1, &cas, nullptr, nullptr);
    const auto two_threads = [&](bool time_locks, int64_t* lock_ns,
                                 uint64_t* begins) {
      std::atomic<int> ready{0};
      int64_t busy[2] = {0, 0};
      int64_t locks[2] = {0, 0};
      uint64_t calls[2] = {0, 0};
      std::vector<std::thread> threads;
      for (size_t t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
          uint64_t local_cas = (t + 2) << 40;
          ready.fetch_add(1);
          while (ready.load() < 2) {
          }
          const int64_t start = NowNs();
          ShardedPass(server.get(), st, t, 2, &local_cas,
                      time_locks ? &locks[t] : nullptr, &calls[t]);
          busy[t] = NowNs() - start;
        });
      }
      for (std::thread& th : threads) th.join();
      if (lock_ns != nullptr) {
        *lock_ns = locks[0] + locks[1];
        *begins = calls[0] + calls[1];
      }
      return busy[0] + busy[1];
    };
    std::vector<int64_t> times;
    for (int i = 0; i < kTimedPasses; ++i) {
      Span span;
      span.name = "ledger.sharded_t2";
      span.request_id = static_cast<uint64_t>(i);
      span.start_ns = NowNs();
      times.push_back(two_threads(false, nullptr, nullptr));
      span.end_ns = NowNs();
      log->ThreadBuffer()->push_back(span);
    }
    res.sharded_t2_ns_per_op =
        static_cast<double>(*std::min_element(times.begin(), times.end())) /
        static_cast<double>(ops);
    int64_t lock_ns = 0;
    uint64_t begins = 0;
    (void)two_threads(true, &lock_ns, &begins);
    res.lock_wait_ns = begins == 0 ? 0
                                   : static_cast<double>(lock_ns) /
                                         static_cast<double>(begins);
  }

  return res;
}

std::string CheckLedger(const LedgerResult& ledger, double tolerance) {
  const double parse_per_op = ledger.parse_ns_per_cmd *
                              static_cast<double>(ledger.commands) /
                              static_cast<double>(ledger.key_ops);
  if (ledger.ns("parse_adapter") < parse_per_op * (1 - tolerance)) {
    return "parse_adapter costs less than parse alone";
  }
  for (size_t i = 0; i + 1 < ledger.chain.size(); ++i) {
    const LedgerLayer& upper = ledger.chain[i];
    const LedgerLayer& lower = ledger.chain[i + 1];
    if (upper.ns_per_op < lower.ns_per_op * (1 - tolerance)) {
      return upper.name + " costs less than " + lower.name + " beneath it";
    }
  }
  return "";
}

}  // namespace perfbench
