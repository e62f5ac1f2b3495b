#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

#include "util/hashing.h"

namespace perfbench {

using cliffhanger::Mix64;

namespace {

// ETC keyspace: Zipf(0.99) over this many keys. With the default app's
// 64 MiB reservation the working set mostly fits.
constexpr uint64_t kEtcUniverse = 100000;
constexpr uint64_t kEtcReservation = 64ULL << 20;
// Keys are clamped to [12, 60] bytes: at least 48 bits of key text (so two
// ids never share a text key) and short enough that a 32-key get line
// fits the protocol's 2048-byte line limit. Values are clamped to 16 KiB,
// which cuts the generalized-Pareto tail at its 99.99th percentile.
constexpr uint32_t kMinEtcKeyLen = 12;
constexpr uint32_t kMaxEtcValue = 16384;

constexpr double kMultigetSetShare = 0.10;
constexpr uint32_t kMultigetMinKeys = 16;
constexpr uint32_t kMultigetMaxKeys = 32;

// Cliff mix: Memcachier cliff apps 1, 7, 19 beside concave apps 2 and 12,
// at the suite's full-scale reservations and request shares. Keys are
// "app<id>:" plus hex, 18 bytes in all — the suite's largest key size, so
// each stream keeps its slab class.
constexpr int kCliffApps[] = {1, 7, 19, 2, 12};
constexpr uint16_t kCliffKeyLen = 18;
constexpr double kCliffTouchShare = 0.02;
constexpr double kCliffDeleteShare = 0.01;
constexpr double kCliffSetShare = 0.20;

constexpr char kHex[] = "0123456789abcdef";

KeySpec EtcKey(uint64_t id) {
  KeySpec k;
  k.id = id;
  k.key_len = static_cast<uint16_t>(std::clamp<uint32_t>(
      cliffhanger::FacebookWorkload::KeySizeForKey(id), kMinEtcKeyLen,
      kMaxKeyLen));
  k.value_size = std::min<uint32_t>(
      cliffhanger::FacebookWorkload::ValueSizeForKey(id), kMaxEtcValue);
  return k;
}

cliffhanger::FacebookWorkloadConfig EtcConfig(uint64_t seed) {
  cliffhanger::FacebookWorkloadConfig config;
  config.universe = kEtcUniverse;
  config.seed = seed;
  return config;
}

const cliffhanger::MemcachierSuite& Suite() {
  static const cliffhanger::MemcachierSuite suite;
  return suite;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (const WorkloadKind k :
       {WorkloadKind::kEtc, WorkloadKind::kMultiget, WorkloadKind::kCliff}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kEtc:
      return "etc";
    case WorkloadKind::kMultiget:
      return "multiget";
    case WorkloadKind::kCliff:
      return "cliff";
  }
  return "?";
}

LoadShape LoadShapeFor(WorkloadKind kind) {
  LoadShape s;
  switch (kind) {
    case WorkloadKind::kEtc:
      s.fixed_kops = 20;
      s.ladder_kops = {20, 100, 200, 300, 400, 450, 500, 550, 600, 650, 700};
      s.latency_limit_us = 2000;
      s.demand_fill = true;
      break;
    case WorkloadKind::kMultiget:
      // Low against the ~25-35k/s the server sustains on a quiet host: a
      // host that steals a fifth of the CPU time cuts that below 12k/s.
      s.fixed_kops = 4;
      s.ladder_kops = {4, 8, 16, 20, 24, 26, 28, 30, 32, 34, 36};
      s.latency_limit_us = 2000;
      break;
    case WorkloadKind::kCliff:
      s.fixed_kops = 20;
      s.ladder_kops = {20, 100, 200, 300, 350, 400, 450, 500, 550, 600};
      s.latency_limit_us = 2000;
      s.demand_fill = true;
      break;
  }
  return s;
}

std::vector<AppSpec> AppsFor(WorkloadKind kind) {
  if (kind != WorkloadKind::kCliff) return {{1, kEtcReservation}};
  std::vector<AppSpec> apps;
  for (const int id : kCliffApps) {
    apps.push_back({static_cast<uint32_t>(id), Suite().app(id).reservation});
  }
  return apps;
}

uint64_t FillKeys(WorkloadKind kind) {
  return kind == WorkloadKind::kCliff ? 200000 : 150000;
}

Source::Source(WorkloadKind kind, uint64_t seed, uint64_t expected_requests)
    : kind_(kind), rng_(Mix64(seed ^ 0x50757263ULL)) {
  if (kind != WorkloadKind::kCliff) {
    etc_ = std::make_unique<cliffhanger::FacebookWorkload>(EtcConfig(seed));
    return;
  }
  double total = 0;
  for (const int id : kCliffApps) total += Suite().app(id).request_share;
  for (const int id : kCliffApps) {
    const double share = Suite().app(id).request_share / total;
    app_shares_.push_back(share);
    apps_.emplace_back(
        Suite().app(id),
        static_cast<uint64_t>(share * static_cast<double>(expected_requests)),
        seed);
  }
}

KeySpec Source::NextKey() {
  if (etc_) return EtcKey(etc_->Next().key);
  double u = rng_.NextDouble();
  size_t pick = apps_.size() - 1;
  for (size_t i = 0; i < app_shares_.size(); ++i) {
    u -= app_shares_[i];
    if (u <= 0) {
      pick = i;
      break;
    }
  }
  const cliffhanger::Request q = apps_[pick].Next();
  KeySpec k;
  // The suite's key ids can coincide across an app's streams, which carry
  // different value sizes; folding the size in keeps one size per key.
  k.id = cliffhanger::HashCombine(q.key, q.value_size);
  k.value_size = q.value_size;
  k.key_len = kCliffKeyLen;
  k.app_id = static_cast<uint16_t>(q.app_id);
  return k;
}

void Source::Next(Request* r) {
  switch (kind_) {
    case WorkloadKind::kEtc: {
      const cliffhanger::Request q = etc_->Next();
      r->verb = q.op == cliffhanger::Op::kGet ? Verb::kGet : Verb::kSet;
      r->nkeys = 1;
      r->keys[0] = EtcKey(q.key);
      return;
    }
    case WorkloadKind::kMultiget:
      if (rng_.NextBernoulli(kMultigetSetShare)) {
        r->verb = Verb::kSet;
        r->nkeys = 1;
      } else {
        r->verb = Verb::kGet;
        r->nkeys = static_cast<uint8_t>(
            rng_.NextInRange(kMultigetMinKeys, kMultigetMaxKeys));
      }
      for (size_t i = 0; i < r->nkeys; ++i) r->keys[i] = NextKey();
      return;
    case WorkloadKind::kCliff: {
      const double u = rng_.NextDouble();
      if (u < kCliffTouchShare) {
        r->verb = Verb::kTouch;
      } else if (u < kCliffTouchShare + kCliffDeleteShare) {
        r->verb = Verb::kDelete;
      } else if (u < kCliffTouchShare + kCliffDeleteShare + kCliffSetShare) {
        r->verb = Verb::kSet;
      } else {
        r->verb = Verb::kGet;
      }
      r->nkeys = 1;
      r->keys[0] = NextKey();
      return;
    }
  }
}

void RenderKey(const KeySpec& k, char* out) {
  size_t pos = 0;
  if (k.app_id != 0) {
    std::memcpy(out, "app", 3);
    pos = 3;
    pos = static_cast<size_t>(
        std::to_chars(out + pos, out + k.key_len, k.app_id).ptr - out);
    out[pos++] = ':';
  }
  uint64_t state = Mix64(k.id ^ 0x6b6579ULL);
  for (size_t i = 0; pos < k.key_len; ++i, ++pos) {
    if (i != 0 && i % 16 == 0) state = Mix64(state + 1);
    out[pos] = kHex[(state >> (4 * (i % 16))) & 0xF];
  }
}

uint32_t FlagsFor(const KeySpec& k) {
  return static_cast<uint32_t>(Mix64(k.id ^ 0xf1a95ULL) & 0xFFFF);
}

void RenderPayload(const KeySpec& k, char* out) {
  uint64_t state = Mix64(k.id ^ 0x5eedf00dULL);
  for (uint32_t i = 0; i < k.value_size; ++i) {
    if (i != 0 && i % 16 == 0) state = Mix64(state + 1);
    out[i] = static_cast<char>('a' + ((state >> (4 * (i % 16))) & 0xF));
  }
}

namespace {

void AppendNumber(std::string* out, uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

void AppendKey(std::string* out, const KeySpec& k) {
  char buf[kMaxKeyLen];
  RenderKey(k, buf);
  out->append(buf, k.key_len);
}

}  // namespace

void AppendRequest(const Request& r, std::string* out) {
  const KeySpec& k = r.keys[0];
  switch (r.verb) {
    case Verb::kGet:
      out->append("get");
      for (size_t i = 0; i < r.nkeys; ++i) {
        out->push_back(' ');
        AppendKey(out, r.keys[i]);
      }
      out->append("\r\n");
      return;
    case Verb::kSet: {
      out->append("set ");
      AppendKey(out, k);
      out->push_back(' ');
      AppendNumber(out, FlagsFor(k));
      out->append(" 0 ");
      AppendNumber(out, k.value_size);
      out->append("\r\n");
      const size_t at = out->size();
      out->resize(at + k.value_size);
      RenderPayload(k, out->data() + at);
      out->append("\r\n");
      return;
    }
    case Verb::kTouch:
      out->append("touch ");
      AppendKey(out, k);
      out->append(" 0\r\n");
      return;
    case Verb::kDelete:
      out->append("delete ");
      AppendKey(out, k);
      out->append("\r\n");
      return;
  }
}

namespace {

bool ParseU64(std::string_view s, uint64_t* v) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *v);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

// Single-line replies: the line must be one of the accepted forms.
ReplyCheck CheckLine(const char* buf, size_t len,
                     std::initializer_list<std::string_view> accepted) {
  ReplyCheck rc;
  const std::string_view view(buf, len);
  const size_t eol = view.find("\r\n");
  if (eol == std::string_view::npos) return rc;
  rc.consumed = eol + 2;
  const std::string_view line = view.substr(0, eol);
  rc.status = ReplyStatus::kBad;
  for (const std::string_view a : accepted) {
    if (line == a) rc.status = ReplyStatus::kOk;
  }
  return rc;
}

// Framing only: true once a complete VALUE*/END reply is buffered. A reply
// that arrives over several reads is then verified once, not per read.
bool GetReplyComplete(std::string_view view) {
  size_t pos = 0;
  while (true) {
    const size_t eol = view.find("\r\n", pos);
    if (eol == std::string_view::npos) return false;
    const std::string_view line = view.substr(pos, eol - pos);
    if (line == "END" || line.substr(0, 6) != "VALUE ") return true;
    uint64_t bytes = 0;
    if (!ParseU64(line.substr(line.rfind(' ') + 1), &bytes)) return true;
    pos = eol + 2 + bytes + 2;
    if (pos > view.size()) return false;
  }
}

ReplyCheck CheckGet(const Request& r, const char* buf, size_t len) {
  thread_local std::string expected;
  ReplyCheck rc;
  const std::string_view view(buf, len);
  if (!GetReplyComplete(view)) return rc;
  size_t pos = 0;
  size_t next_key = 0;
  char key_text[kMaxKeyLen];
  while (true) {
    const size_t eol = view.find("\r\n", pos);
    if (eol == std::string_view::npos) return ReplyCheck{};
    const std::string_view line = view.substr(pos, eol - pos);
    if (line == "END") {
      rc.status = ReplyStatus::kOk;
      rc.consumed = eol + 2;
      return rc;
    }
    rc.status = ReplyStatus::kBad;
    rc.consumed = eol + 2;
    // VALUE <key> <flags> <bytes>
    if (line.substr(0, 6) != "VALUE ") return rc;
    const std::string_view rest = line.substr(6);
    const size_t s1 = rest.find(' ');
    const size_t s2 =
        s1 == std::string_view::npos ? s1 : rest.find(' ', s1 + 1);
    if (s2 == std::string_view::npos) return rc;
    const std::string_view key = rest.substr(0, s1);
    uint64_t flags = 0;
    uint64_t bytes = 0;
    if (!ParseU64(rest.substr(s1 + 1, s2 - s1 - 1), &flags) ||
        !ParseU64(rest.substr(s2 + 1), &bytes)) {
      return rc;
    }
    // The returned key must be a later requested key (misses are skipped).
    const KeySpec* match = nullptr;
    for (; next_key < r.nkeys; ++next_key) {
      const KeySpec& k = r.keys[next_key];
      if (k.key_len != key.size()) continue;
      RenderKey(k, key_text);
      if (std::memcmp(key_text, key.data(), key.size()) == 0) {
        match = &k;
        ++next_key;
        break;
      }
    }
    if (match == nullptr || flags != FlagsFor(*match) ||
        bytes != match->value_size) {
      return rc;
    }
    const size_t data_at = eol + 2;
    if (len < data_at + bytes + 2) return ReplyCheck{};
    expected.resize(bytes);
    RenderPayload(*match, expected.data());
    if (std::memcmp(buf + data_at, expected.data(), bytes) != 0 ||
        view.substr(data_at + bytes, 2) != "\r\n") {
      rc.consumed = data_at + bytes + 2;
      return rc;
    }
    ++rc.hits;
    pos = data_at + bytes + 2;
  }
}

}  // namespace

ReplyCheck CheckReply(const Request& r, const char* buf, size_t len) {
  switch (r.verb) {
    case Verb::kGet:
      return CheckGet(r, buf, len);
    case Verb::kSet:
      return CheckLine(buf, len, {"STORED"});
    case Verb::kTouch:
      return CheckLine(buf, len, {"TOUCHED", "NOT_FOUND"});
    case Verb::kDelete:
      return CheckLine(buf, len, {"DELETED", "NOT_FOUND"});
  }
  return ReplyCheck{};
}

}  // namespace perfbench
