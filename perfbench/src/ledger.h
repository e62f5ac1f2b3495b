// The per-layer cost ledger: one seeded op stream of the workload, driven
// in-process through each layer's public entry point in turn,
//
//   AsciiParser::Next -> CacheAdapter::HandleBatch -> ShardedCacheServer
//   (BeginBatch + ShardBatch verbs, 1 and 2 threads) -> CacheServer value
//   verbs -> SegmentedLru probe,
//
// on identically filled instances, reporting ns per key operation and the
// delta from the layer below. The passes of neighbouring layers run
// interleaved, so a slow stretch of the host slows them alike.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

struct LedgerLayer {
  std::string name;
  double ns_per_op = 0;  // per key operation
};

struct LedgerResult {
  uint64_t commands = 0;
  uint64_t key_ops = 0;
  double parse_ns_per_cmd = 0;
  double sharded_t2_ns_per_op = 0;  // per-thread busy time per op
  double lock_wait_ns = 0;          // mean time inside BeginBatch, 2 threads
  double shadow_overhead_kib = 0;   // CacheServer shadow queues, all apps
  // Cheapest last: parse_adapter, adapter, sharded_t1, cache_server, lru.
  std::vector<LedgerLayer> chain;
  [[nodiscard]] double ns(const std::string& name) const;
};

// `burst_frames`: frames per HandleBatch call, taken from the traced
// socket run so the ledger's batching matches what the server saw.
[[nodiscard]] LedgerResult RunLedger(WorkloadKind kind, uint64_t seed,
                                     size_t burst_frames, SpanLog* log);

// Each layer must cost no less than the one beneath it, within `tolerance`
// (a share of the lower layer). Empty when it holds; else the reason.
[[nodiscard]] std::string CheckLedger(const LedgerResult& ledger,
                                      double tolerance);

}  // namespace perfbench
