#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/hashing.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanLog::NextGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

std::vector<Span>* SpanLog::ThreadBuffer() {
  // Cached per thread, keyed by the log's generation so a new log never
  // sees a buffer registered with an earlier one.
  thread_local uint64_t cached_generation = 0;
  thread_local std::vector<Span>* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 16);
    cached = buffers_.back().get();
    cached_generation = generation_;
  }
  return cached;
}

std::vector<Span> SpanLog::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

bool ForwardingHandler::HandleBatch(
    const cliffhanger::net::Command* cmds, size_t count,
    std::vector<cliffhanger::net::ResponseSegment>* segments) {
  if (!recording_.load(std::memory_order_relaxed)) {
    return inner_->HandleBatch(cmds, count, segments);
  }
  const int64_t start = NowNs();
  const bool keep = inner_->HandleBatch(cmds, count, segments);
  const int64_t end = NowNs();
  uint64_t key_ops = 0;
  for (size_t i = 0; i < count; ++i) {
    key_ops += std::max<size_t>(1, cmds[i].keys.size());
  }
  uint64_t borrowed = 0;
  for (const auto& seg : *segments) borrowed += seg.payload_size;
  bursts_.fetch_add(1, std::memory_order_relaxed);
  frames_.fetch_add(count, std::memory_order_relaxed);
  key_ops_.fetch_add(key_ops, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<uint64_t>(end - start),
                     std::memory_order_relaxed);
  borrowed_bytes_.fetch_add(borrowed, std::memory_order_relaxed);
  Span span;
  span.name = "adapter.HandleBatch";
  span.start_ns = start;
  span.end_ns = end;
  span.key_hash = count > 0 ? cliffhanger::Fnv1a64(cmds[0].key()) : 0;
  log_->ThreadBuffer()->push_back(span);
  return keep;
}

void ForwardingHandler::ReleaseBurstPins() {
  if (!recording_.load(std::memory_order_relaxed)) {
    inner_->ReleaseBurstPins();
    return;
  }
  const int64_t start = NowNs();
  inner_->ReleaseBurstPins();
  const int64_t end = NowNs();
  busy_ns_.fetch_add(static_cast<uint64_t>(end - start),
                     std::memory_order_relaxed);
  std::vector<Span>* buf = log_->ThreadBuffer();
  Span span;
  span.name = "adapter.ReleaseBurstPins";
  span.start_ns = start;
  span.end_ns = end;
  // Same burst as the HandleBatch span just recorded on this thread.
  span.key_hash = buf->empty() ? 0 : buf->back().key_hash;
  buf->push_back(span);
}

ForwardingHandler::Totals ForwardingHandler::totals() const {
  Totals t;
  t.bursts = bursts_.load();
  t.frames = frames_.load();
  t.key_ops = key_ops_.load();
  t.busy_ns = busy_ns_.load();
  t.borrowed_bytes = borrowed_bytes_.load();
  return t;
}

bool WriteSpans(std::vector<Span> spans, const std::string& path) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  for (size_t i = 0; i < spans.size(); ++i) spans[i].id = i + 1;
  // Client request spans by (first-key hash, start); a forwarded span's
  // parent is the latest such span that started before it and contains it.
  std::vector<std::pair<uint64_t, size_t>> clients;  // (key hash, index)
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "client.request") {
      clients.emplace_back(spans[i].key_hash, i);  // index order = start
    }
  }
  std::stable_sort(clients.begin(), clients.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (Span& s : spans) {
    if (std::string_view(s.name).rfind("adapter.", 0) != 0) continue;
    const auto first = std::lower_bound(
        clients.begin(), clients.end(), s.key_hash,
        [](const auto& c, uint64_t key) { return c.first < key; });
    auto it = std::upper_bound(
        first, clients.end(), s.start_ns,
        [&](int64_t start, const auto& c) {
          return c.first != s.key_hash || start < spans[c.second].start_ns;
        });
    // Pipelined requests for one key can overlap; look back a few.
    for (int back = 0; back < 8 && it != first; ++back) {
      --it;
      const Span& c = spans[it->second];
      if (s.end_ns <= c.end_ns) {
        s.parent = c.id;
        s.request_id = c.request_id;
        break;
      }
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request_id\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
