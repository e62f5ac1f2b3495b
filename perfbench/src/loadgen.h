// Single-thread open-loop load generator over a few non-blocking loopback
// connections.
//
// Request i of a phase is due at start + i/rate whether or not earlier
// requests have completed; latency is measured from the due time, so a
// stall also charges the requests queued behind it. The generator spins on
// epoll with a zero timeout, writes every due request to the next live
// connection round-robin (pipelining as deep as the backlog demands), and
// verifies each reply byte for byte as it arrives. A wrong reply closes
// its connection and fails everything still outstanding on it.
//
// An offered rate above what the server sustains (a high ladder rung) does
// not fail requests: once kMaxOutstanding requests are unanswered the phase
// stops offering, marks itself saturated and drains.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // wrong, missing, timed-out or refused
  uint64_t get_keys = 0;
  uint64_t get_hits = 0;
  std::vector<float> get_us;   // due -> reply, per GET request
  std::vector<float> set_us;   // due -> reply, per SET request
  std::vector<float> late_us;  // due -> last byte written
  double rtt_us_sum = 0;       // last byte written -> reply
  uint64_t backlog_max = 0;    // requests due but not yet answered
  bool backlog_growing = false;
  bool saturated = false;  // stopped offering at the outstanding cap
  double elapsed_s = 0;  // until the last reply (or the drain timeout)
};

class LoadGen {
 public:
  LoadGen(Source* source, bool demand_fill);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Opens `connections` connections to 127.0.0.1:port.
  bool Connect(uint16_t port, size_t connections, std::string* error);
  // Offers `rate` requests per second for `seconds`, then drains (up to a
  // 10 s timeout; what is still unanswered then has failed).
  PhaseStats Run(double rate, double seconds);

  // While non-null, completed requests are recorded as client spans.
  void set_span_buffer(std::vector<Span>* spans) { spans_ = spans; }
  // Self-check: corrupt one payload byte of the first GET hit received
  // after `n` replies, before it is verified.
  void CorruptReplyAfter(uint64_t n) { corrupt_after_ = n; }

 private:
  struct Pending {
    Request req;
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    uint64_t end_offset = 0;  // connection byte offset of its last byte
    uint64_t id = 0;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    uint64_t bytes_appended = 0;
    uint64_t bytes_sent = 0;
    std::vector<char> in;
    size_t in_len = 0;
    std::deque<Pending> fifo;
    size_t unsent = 0;  // trailing fifo entries not fully written yet
  };

  void Enqueue(const Request& req, int64_t due_ns, PhaseStats* st);
  void Flush(Conn* c, int64_t now, PhaseStats* st);
  void Receive(Conn* c, PhaseStats* st);
  // Verifies and completes the whole replies at the front of `c->in`.
  void Consume(Conn* c, PhaseStats* st);
  void Complete(const Pending& p, uint32_t hits, int64_t now,
                PhaseStats* st);
  void Break(Conn* c, PhaseStats* st);
  [[nodiscard]] uint64_t Outstanding() const;

  Source* source_;
  bool demand_fill_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  size_t next_conn_ = 0;
  uint64_t next_id_ = 1;
  uint64_t replies_ = 0;
  uint64_t corrupt_after_ = UINT64_MAX;
  std::vector<Span>* spans_ = nullptr;
};

}  // namespace perfbench
