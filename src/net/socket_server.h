// TCP front: one acceptor thread plus N worker threads, each worker owning
// its connections outright (read buffer, write buffer, parser state), so no
// connection state is ever shared between threads. The layer knows nothing
// about caches — it feeds parsed Commands to a CommandHandler and writes
// back whatever the handler appended.
//
// Every backend runs one burst cycle per serviced connection: parse up to
// max_burst_frames pipelined frames, hand the whole burst to
// CommandHandler::HandleBatch (one per-shard lock per burst downstream),
// flush the response segments scatter-gather straight from the handler's
// segments (no concatenation copy), release the handler's burst pins,
// compact, apply the abuse guard and compute the connection's next
// interest. The backends differ only in how readiness arrives and which
// primitive moves the bytes, selected by SocketServerConfig::backend:
//  - kEpoll (default): each worker owns an epoll instance; connections are
//    registered once at adoption, and interest (EPOLLIN/EPOLLOUT) is only
//    re-armed via EPOLL_CTL_MOD when it actually changes — no per-iteration
//    fd-set rebuild. Bytes move with recv and writev.
//  - kUring: the syscalls submerged into io_uring. Reads complete into a
//    provided-buffer group the kernel picks from (no recv syscall, no
//    dedicated buffer per armed connection), each burst's responses leave
//    as one batched SENDMSG SQE, read re-arms and buffer returns ride the
//    same io_uring_submit, the mailbox wake is a registered eventfd read,
//    and the acceptor arms one multishot accept SQE instead of calling
//    accept4 per connection. Requires kernel support, probed at Start();
//    otherwise falls back to kEpoll with a logged reason so restricted
//    kernels/containers still serve.
//  - kPoll: the poll(2) A/B baseline. Each wakeup rebuilds the pollfd
//    array from every connection's desired interest; bytes move with recv
//    and writev, as under kEpoll.
//
// Connection lifecycle (every backend):
//  - The acceptor poll()s the listen socket, drains accept4 until EAGAIN in
//    batches, sets O_NONBLOCK + TCP_NODELAY, and hands each fd to the
//    least-loaded worker via a mutexed mailbox + wake pipe. On EMFILE or
//    ENFILE it backs off polling the wake pipe (so Stop() and fd-freeing
//    closes interrupt the backoff instead of waiting out a sleep).
//  - Reads append to the connection's read buffer; the burst cycle drains
//    every complete pipelined frame. Partial frames stay buffered; partial
//    writes stay queued. Buffers that ballooned past
//    buffer_shrink_threshold release their capacity once they empty.
//  - `quit` (handler returns false) flushes the pending write buffer and
//    closes. A read buffer driven past its cap without completing a frame
//    closes the connection (protocol abuse guard).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/ascii_protocol.h"

namespace cliffhanger {
namespace net {

// One command's response, in up to three writev-able pieces: protocol text,
// an optional borrowed payload span (zero-copy GET: the bytes live in the
// cache's value arena, not in this struct), and an optional trailer (the
// CRLF/END bytes that follow a payload). The payload pointer must stay
// valid until the server has either written it to the socket or spilled it
// into the connection's write buffer — i.e. through the FlushSegments call
// for the burst that produced it, after which ReleaseBurstPins() runs.
struct ResponseSegment {
  std::string text;
  const char* payload = nullptr;
  size_t payload_size = 0;
  std::string trailer;

  void Reset() {
    text.clear();
    payload = nullptr;
    payload_size = 0;
    trailer.clear();
  }
};

class CommandHandler {
 public:
  virtual ~CommandHandler() = default;
  // Handles a burst of pipelined commands, filling response segments so the
  // caller can writev them without concatenating. A command may produce
  // zero segments (noreply) or several (a multiget emits one segment per
  // key plus one END segment), so the segment count is the handler's to
  // decide: the caller Reset()s every existing element of *segments before
  // the call, the handler fills elements front-to-back — growing the
  // vector when it runs out of recycled slots — and leaves any unused tail
  // elements empty. The caller flushes the entire vector; empty elements
  // contribute no bytes. Segment order must match command order (pipelined
  // clients rely on response order and read-your-write within a burst).
  // Returns false to close the connection after the segments filled so far
  // are flushed; remaining commands are dropped (quit).
  virtual bool HandleBatch(const Command* cmds, size_t count,
                           std::vector<ResponseSegment>* segments) = 0;
  // Called after every flush of a burst whose segments this handler
  // produced — the borrowed payload spans are dead from here on. Handlers
  // that pinned shard locks to keep those spans alive release them now;
  // the default has nothing to release.
  virtual void ReleaseBurstPins() {}
  // One command outside any burst, its response appended to *out; returns
  // false to close the connection (quit). The socket server never calls
  // this. The default runs `cmd` as a one-command burst and concatenates
  // the segments, so a handler has exactly one execution path.
  virtual bool Handle(const Command& cmd, std::string* out) {
    std::vector<ResponseSegment> segments;
    const bool keep_open = HandleBatch(&cmd, 1, &segments);
    for (const ResponseSegment& seg : segments) {
      out->append(seg.text);
      if (seg.payload_size > 0) out->append(seg.payload, seg.payload_size);
      out->append(seg.trailer);
    }
    ReleaseBurstPins();
    return keep_open;
  }
};

enum class SocketBackend : uint8_t {
  kPoll,   // poll(2) readiness: pollfd rebuild per wakeup — the A/B baseline
  kEpoll,  // epoll readiness: register-once, re-arm only on change
  kUring,  // io_uring: same burst model, but reads complete into a
           // kernel-selected provided-buffer group, burst responses go out
           // as one batched SENDMSG SQE, and re-arms ride the same submit —
           // steady-state GET/SET costs no per-op syscall beyond it. Falls
           // back to kEpoll at Start() (with a logged reason) when the
           // kernel or a seccomp policy denies io_uring.
};

struct SocketServerConfig {
  uint16_t port = 0;  // 0 = ephemeral; the bound port is port() after Start
  size_t num_workers = 2;
  int backlog = 128;
  SocketBackend backend = SocketBackend::kEpoll;
  // Read-buffer cap: must fit a full storage frame (line + max value + 2).
  size_t max_read_buffer = kMaxLineBytes + kMaxValueBytes + 16;
  // Write-buffer cap: once this many response bytes are pending, the
  // worker stops parsing further pipelined commands until the peer drains
  // some (a non-reading client must not balloon server memory). Parsing
  // resumes automatically after a flush makes room. The check runs between
  // bursts, so the true per-connection bound is this cap plus one burst's
  // worst-case response — bounded by kMaxKeysPerGet × kMaxValueBytes (a
  // burst is capped at kMaxKeysPerGet key-ops, see max_burst_frames).
  size_t max_write_buffer = 4 * (1 << 20);
  // Max pipelined frames handed to one HandleBatch call.
  // A burst is additionally capped at kMaxKeysPerGet key-operations (a
  // multiget counts each key), so a burst's worst-case response volume
  // never exceeds the single-command worst case the write cap documents.
  size_t max_burst_frames = 64;
  // A connection buffer whose capacity grew beyond this releases its
  // memory once it empties (per-connection high-water-mark bloat would
  // otherwise persist for the connection's lifetime — at 10k connections
  // one large burst each would pin gigabytes). 0 disables shrinking.
  size_t buffer_shrink_threshold = 256 * 1024;
  // Uring backend: submission-queue depth per worker ring. Bounds how many
  // SQEs (read re-arms, buffer returns, the burst write) one submit can
  // carry; the kernel rounds up to a power of two and sizes the CQ at 2x.
  unsigned uring_sq_entries = 256;
  // Uring backend: provided-buffer group per worker — the pool kernel-side
  // recv completions draw from. The pool only has to cover *completing*
  // reads within one CQE drain (buffers are returned as soon as each
  // completion is copied out), not armed connections, so it stays small
  // even under the 1k-connection soak. -ENOBUFS completions are re-armed
  // after the drain returns the buffers.
  unsigned uring_read_buffers = 64;
  // Uring backend: size of each provided buffer (one recv's max take).
  unsigned uring_buffer_bytes = 64 * 1024;
};

class SocketServer {
 public:
  SocketServer(const SocketServerConfig& config, CommandHandler* handler);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds, listens and spawns the threads. Returns false (with *error set)
  // if the socket setup fails. Calling Start twice is an error.
  bool Start(std::string* error);
  // Stops accepting, closes every connection, joins all threads. Idempotent.
  void Stop();

  [[nodiscard]] uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const { return running_.load(); }
  // The backend actually serving after Start(): differs from the configured
  // one exactly when kUring was requested but the runtime probe (ring init
  // + opcode check) failed and the server fell back to epoll.
  [[nodiscard]] SocketBackend effective_backend() const {
    return effective_backend_;
  }
  // Non-empty exactly when a kUring request fell back to epoll; the same
  // text is logged to stderr at Start().
  [[nodiscard]] const std::string& backend_fallback_reason() const {
    return fallback_reason_;
  }
  // Connections currently open across all workers (tests/stats).
  [[nodiscard]] size_t active_connections() const {
    return active_connections_.load();
  }
  [[nodiscard]] uint64_t total_connections() const {
    return total_connections_.load();
  }
  // Test hooks. acceptor_loop_iterations counts acceptor wakeups (a spin
  // regression shows up as an unbounded rate); buffer_releases counts
  // connection buffers whose capacity was returned to the allocator.
  [[nodiscard]] uint64_t acceptor_loop_iterations() const {
    return acceptor_iterations_.load();
  }
  [[nodiscard]] uint64_t buffer_releases() const {
    return buffer_releases_.load();
  }
  // Uring backend test hooks: total io_uring_enter calls that carried
  // submissions, and total SQEs they carried, summed over every worker ring
  // and the acceptor ring. The batching proof asserts submits stays far
  // below the op count (reads, writes, and re-arms share submits) while
  // sqes_per_submit > 1. Both are 0 under poll/epoll or after fallback.
  [[nodiscard]] uint64_t uring_submit_calls() const;
  [[nodiscard]] uint64_t uring_submitted_sqes() const;

 private:
  struct Connection;
  struct Worker;
  struct UringState;

  void AcceptLoop();
  // io_uring acceptor: multishot accept on the acceptor ring (one armed SQE
  // produces a CQE per connection) plus the wake pipe read armed through
  // the same ring; EMFILE backoff is an IORING_OP_TIMEOUT instead of a
  // blocking poll.
  void AcceptLoopUring();
  // Distributes a batch of accepted fds to the least-loaded workers (one
  // mailbox lock and one wake byte per worker touched, not per fd).
  void DispatchAccepted(std::vector<int>* fds);
  void WorkerLoopPoll(Worker* worker);    // poll(2) readiness loop
  void WorkerLoopEpoll(Worker* worker);   // epoll readiness loop
  // io_uring backend: a CQE pump. Reads complete into the worker's
  // provided-buffer group (zero syscalls per read), each completed read
  // runs the burst cycle with a ring SENDMSG as its flush primitive (reaped
  // inline, so the arena payload borrow ends inside the burst, exactly
  // like writev), spill drains via an async SEND of the stable write
  // buffer, and every re-arm rides the next submit.
  void WorkerLoopUring(Worker* worker);
  // Moves mailbox fds into owned connections (registering them with the
  // worker's epoll instance when it has one).
  void AdoptIncoming(Worker* worker);
  // The burst cycle every backend runs on a serviced connection: flush any
  // queued bytes, then CollectBurst → Reset segments → HandleBatch → flush
  // → ReleaseBurstPins until no complete frame remains or write
  // backpressure holds; then compact, apply the abuse guard, and return the
  // interest the connection waits on next (or close). `write_some` is the
  // flush primitive, with FlushSegmentsVia's writev contract.
  template <typename WriteFn>
  uint32_t RunBurstCycle(Worker* worker, Connection* conn,
                         WriteFn&& write_some);
  // Poll and epoll service of one readiness event: close on error, drain
  // the socket when readable, run the burst cycle over writev, then close
  // or record (and, under epoll, re-arm) the connection's interest.
  void ServiceConnection(Worker* worker, Connection* conn, bool error,
                         bool readable);
  // Non-blocking recv until EAGAIN, EOF (sets peer_eof) or the read cap.
  // Returns false on a dead socket.
  bool ReadSocket(Worker* worker, Connection* conn);
  // Whether the connection still takes input: not closing, no EOF yet, and
  // the read buffer within its cap.
  [[nodiscard]] bool ReadOpen(const Connection* conn) const;
  // Parses up to max_burst_frames complete frames (capped at kMaxKeysPerGet
  // key-ops) from the read buffer into *cmds. The parsed Commands alias the
  // read buffer; the caller compacts it only after the burst is handled.
  size_t CollectBurst(Connection* conn, std::vector<Command>* cmds);
  // Re-arms the connection's epoll registration via EPOLL_CTL_MOD, only
  // when its desired interest differs from what is currently armed.
  static void UpdateEpollInterest(Worker* worker, Connection* conn);
  // Releases a drained connection buffer's capacity once it exceeds
  // buffer_shrink_threshold (counted in buffer_releases_).
  void MaybeReleaseBuffers(Connection* conn);
  void CloseConnection(Worker* worker, size_t index);

  // --- uring backend helpers (no-ops unless effective_backend_ == kUring).
  // Dispatches one completion: wake, read, write, buffer-return or cancel.
  void DispatchUringCqe(Worker* worker, uint64_t user_data, int32_t res,
                        uint32_t flags);
  // Read and write completions land here: the burst cycle over a ring
  // SENDMSG flush (paused while an async SEND pins wr), then the re-arms.
  void ServiceConnectionUring(Worker* worker, Connection* conn);
  // Begins teardown: cancels armed SQEs and frees the connection once its
  // in-flight count drains to zero (the fd must stay open until then — a
  // recycled descriptor would route stale completions to a new peer).
  void CloseConnectionUring(Worker* worker, Connection* conn);
  void AdoptIncomingUring(Worker* worker);
  // SQE preparation helpers (queue only — nothing hits the kernel until the
  // next submit): provided-buffer RECV arm, async SEND of the wr tail,
  // eventfd wake read (fixed file 0), single-buffer return, async cancel.
  static void ArmUringRead(UringState* u, Connection* conn);
  static void ArmUringWrite(UringState* u, Connection* conn);
  static void ArmUringWake(UringState* u);
  static void ProvideUringBuffer(UringState* u, unsigned bid);
  static void QueueUringCancel(UringState* u, uint64_t target);
  // Backend-appropriate worker wake: an 8-byte eventfd write (uring) or a
  // wake-pipe byte (poll/epoll).
  static void WakeWorker(Worker* worker);

  SocketServerConfig config_;
  CommandHandler* handler_;
  // Set by Start(): config_.backend, unless a kUring request failed the
  // runtime probe and fell back to kEpoll.
  SocketBackend effective_backend_ = SocketBackend::kEpoll;
  std::string fallback_reason_;

  int listen_fd_ = -1;
  int accept_wake_[2] = {-1, -1};
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // True while the acceptor is backing off on EMFILE/ENFILE; closes write a
  // wake byte so the acceptor retries as soon as an fd is actually free.
  std::atomic<bool> accept_stalled_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> total_connections_{0};
  std::atomic<uint64_t> acceptor_iterations_{0};
  std::atomic<uint64_t> buffer_releases_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  // Uring backend: the acceptor's own small ring (multishot accept + wake
  // pipe read + EMFILE backoff timeout). Null under poll/epoll or fallback.
  std::unique_ptr<UringState> accept_uring_;
};

}  // namespace net
}  // namespace cliffhanger
