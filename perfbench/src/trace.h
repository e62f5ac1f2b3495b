// In-memory spans for the traced run, and the forwarding CommandHandler
// that times the socket server's calls into CacheAdapter.
//
// Spans are kept in per-thread buffers while the run is measured and
// written out once it ends. A span's parent and request id are resolved at
// write-out: a forwarded HandleBatch is attached to the client request
// whose first key it carried and whose round trip contains it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/cache_adapter.h"
#include "net/socket_server.h"

namespace perfbench {

[[nodiscard]] int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;          // assigned at write-out
  uint64_t parent = 0;      // span id; 0 = root
  uint64_t request_id = 0;  // client request (or ledger burst) it serves
  uint64_t key_hash = 0;    // FNV-1a of the first key, for linking
};

class SpanLog {
 public:
  // The calling thread's buffer (registered on first use).
  std::vector<Span>* ThreadBuffer();
  // Every buffer's spans, moved out. Call once the writers are quiescent.
  [[nodiscard]] std::vector<Span> Drain();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  uint64_t generation_ = NextGeneration();
  static uint64_t NextGeneration();
};

// Wraps CacheAdapter for the socket server. While recording, every
// HandleBatch / ReleaseBurstPins call is timed into a span and counted.
class ForwardingHandler final : public cliffhanger::net::CommandHandler {
 public:
  ForwardingHandler(cliffhanger::net::CacheAdapter* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  bool Handle(const cliffhanger::net::Command& cmd,
              std::string* out) override {
    return inner_->Handle(cmd, out);
  }
  bool HandleBatch(const cliffhanger::net::Command* cmds, size_t count,
                   std::vector<cliffhanger::net::ResponseSegment>* segments)
      override;
  void ReleaseBurstPins() override;

  void set_recording(bool on) { recording_.store(on); }

  struct Totals {
    uint64_t bursts = 0;
    uint64_t frames = 0;
    uint64_t key_ops = 0;
    uint64_t busy_ns = 0;         // HandleBatch + ReleaseBurstPins
    uint64_t borrowed_bytes = 0;  // payload bytes served zero-copy
  };
  [[nodiscard]] Totals totals() const;

 private:
  cliffhanger::net::CacheAdapter* inner_;
  SpanLog* log_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> bursts_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> key_ops_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> borrowed_bytes_{0};
};

// Links forwarded and client spans, assigns ids and writes CSV
// (name,start_ns,end_ns,id,parent,request_id). Returns false on I/O error.
bool WriteSpans(std::vector<Span> spans, const std::string& path);

}  // namespace perfbench
