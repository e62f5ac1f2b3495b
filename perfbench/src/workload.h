// Seeded request streams for the three benchmark workloads, their wire
// encoding, and the byte-exact reply verifier.
//
// The server sees only the generated protocol bytes. Every key's text,
// flags and payload are pure functions of its KeySpec, so any reply can be
// checked byte for byte without the client remembering what it stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/facebook_workload.h"
#include "workload/memcachier_suite.h"

namespace perfbench {

enum class WorkloadKind : uint8_t { kEtc, kMultiget, kCliff };

[[nodiscard]] bool ParseWorkload(const std::string& name, WorkloadKind* kind);
[[nodiscard]] const char* WorkloadName(WorkloadKind kind);

// Fixed per-workload load shape: the offered rate the latency metrics are
// taken at, the rate ladder for max_rate_kops, and the GET p99 limit a rung
// must meet. Rates are protocol requests per second (a multiget is one).
struct LoadShape {
  double fixed_kops = 0;
  std::vector<double> ladder_kops;
  double latency_limit_us = 0;
  bool demand_fill = false;  // a GET miss is followed by a SET of that key
};
[[nodiscard]] LoadShape LoadShapeFor(WorkloadKind kind);

// One key. Text, flags and payload derive from it deterministically.
struct KeySpec {
  uint64_t id = 0;
  uint32_t value_size = 0;
  uint16_t key_len = 0;  // total text length, app prefix included
  uint16_t app_id = 0;   // 0 = the default app (no "app<id>:" prefix)
};

enum class Verb : uint8_t { kGet, kSet, kTouch, kDelete };

inline constexpr size_t kMaxKeys = 32;
inline constexpr size_t kMaxKeyLen = 60;

struct Request {
  Verb verb = Verb::kGet;
  uint8_t nkeys = 0;
  KeySpec keys[kMaxKeys];
};

// Tenants the server registers for a workload, with their reservations.
struct AppSpec {
  uint32_t app_id = 0;
  uint64_t reservation = 0;
};
[[nodiscard]] std::vector<AppSpec> AppsFor(WorkloadKind kind);

// Streaming request generator: nothing is stored, the same seed yields the
// same stream. `expected_requests` paces the Memcachier suite's burst
// windows (cliff only).
class Source {
 public:
  Source(WorkloadKind kind, uint64_t seed, uint64_t expected_requests);

  void Next(Request* r);
  // The next key alone (fill streams): always a SET-able key.
  KeySpec NextKey();

 private:
  WorkloadKind kind_;
  cliffhanger::Rng rng_;
  std::unique_ptr<cliffhanger::FacebookWorkload> etc_;
  std::vector<cliffhanger::AppTraceBuilder> apps_;
  std::vector<double> app_shares_;
};

// Number of keys SET into the cache during set-up.
[[nodiscard]] uint64_t FillKeys(WorkloadKind kind);

// Writes the key text (key_len bytes) to `out`.
void RenderKey(const KeySpec& k, char* out);
[[nodiscard]] uint32_t FlagsFor(const KeySpec& k);
// Writes value_size payload bytes to `out`.
void RenderPayload(const KeySpec& k, char* out);

// Appends the request's protocol bytes.
void AppendRequest(const Request& r, std::string* out);

// Result of matching one reply at the front of a byte buffer.
enum class ReplyStatus : uint8_t { kNeedMore, kOk, kBad };
struct ReplyCheck {
  ReplyStatus status = ReplyStatus::kNeedMore;
  size_t consumed = 0;  // bytes of the reply (valid for kOk and kBad)
  uint32_t hits = 0;    // GET keys returned
};
// Frames and verifies the reply to `r`: framing (VALUE/END, STORED, ...),
// key order, flags, length and every payload byte. A GET may return any
// subset of its keys, in request order.
[[nodiscard]] ReplyCheck CheckReply(const Request& r, const char* buf,
                                    size_t len);

}  // namespace perfbench
