#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/hashing.h"

namespace perfbench {

namespace {

// A reply still missing this long after the phase's last request was due
// has failed. Generous, so that a vCPU the hypervisor deschedules for a
// while does not read as a lost reply.
constexpr int64_t kDrainTimeoutNs = 10'000'000'000;
// Backlog at which a phase stops offering: the server is over capacity,
// and the drain stays well inside the timeout for every workload.
constexpr uint64_t kMaxOutstanding = 32768;
constexpr int64_t kBacklogSampleNs = 1'000'000;
// Free receive space below which a connection's buffered replies are
// verified before the next read.
constexpr size_t kMinRecvSpace = 16384;

uint64_t FirstKeyHash(const Request& r) {
  char text[kMaxKeyLen];
  RenderKey(r.keys[0], text);
  return cliffhanger::Fnv1a64(std::string_view(text, r.keys[0].key_len));
}

// The first wrong reply of a run goes to stderr, for diagnosis.
void ReportBad(const Request& r, const char* buf, size_t len) {
  static bool reported = false;
  if (reported) return;
  reported = true;
  std::string request;
  AppendRequest(r, &request);
  request.resize(std::min<size_t>(request.size(), 200));
  std::fprintf(stderr, "perfbench: wrong reply to [%s]: [%.*s]\n",
               request.c_str(), static_cast<int>(std::min<size_t>(len, 200)),
               buf);
}

}  // namespace

LoadGen::LoadGen(Source* source, bool demand_fill)
    : source_(source), demand_fill_(demand_fill) {}

LoadGen::~LoadGen() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool LoadGen::Connect(uint16_t port, size_t connections, std::string* error) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    *error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  conns_.resize(connections);
  for (size_t i = 0; i < connections; ++i) {
    Conn& c = conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 ||
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
    c.in.resize(1 << 16);
  }
  return true;
}

uint64_t LoadGen::Outstanding() const {
  uint64_t n = 0;
  for (const Conn& c : conns_) n += c.fifo.size();
  return n;
}

void LoadGen::Enqueue(const Request& req, int64_t due_ns, PhaseStats* st) {
  ++st->attempted;
  Conn* c = nullptr;
  for (size_t tries = 0; tries < conns_.size() && c == nullptr; ++tries) {
    Conn& cand = conns_[next_conn_];
    next_conn_ = (next_conn_ + 1) % conns_.size();
    if (cand.fd >= 0) c = &cand;
  }
  if (c == nullptr) {  // every connection is gone: refused
    ++st->failed;
    return;
  }
  const size_t before = c->out.size();
  AppendRequest(req, &c->out);
  c->bytes_appended += c->out.size() - before;
  Pending p;
  p.req = req;
  p.due_ns = due_ns;
  p.end_offset = c->bytes_appended;
  p.id = next_id_++;
  c->fifo.push_back(p);
  ++c->unsent;
}

void LoadGen::Flush(Conn* c, int64_t now, PhaseStats* st) {
  while (c->fd >= 0 && c->out_off < c->out.size()) {
    const ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                             c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Break(c, st);
      return;
    }
    c->out_off += static_cast<size_t>(n);
    c->bytes_sent += static_cast<uint64_t>(n);
  }
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
  }
  while (c->unsent > 0) {
    Pending& p = c->fifo[c->fifo.size() - c->unsent];
    if (p.end_offset > c->bytes_sent) break;
    p.sent_ns = now;
    st->late_us.push_back(static_cast<float>(now - p.due_ns) * 1e-3f);
    --c->unsent;
  }
}

void LoadGen::Complete(const Pending& p, uint32_t hits, int64_t now,
                       PhaseStats* st) {
  ++st->completed;
  const auto us = static_cast<float>(now - p.due_ns) * 1e-3f;
  st->rtt_us_sum += static_cast<double>(now - p.sent_ns) * 1e-3;
  if (p.req.verb == Verb::kGet) {
    st->get_us.push_back(us);
    st->get_keys += p.req.nkeys;
    st->get_hits += hits;
  } else if (p.req.verb == Verb::kSet) {
    st->set_us.push_back(us);
  }
  if (spans_ != nullptr) {
    Span s;
    s.name = "client.request";
    s.start_ns = p.sent_ns;
    s.end_ns = now;
    s.request_id = p.id;
    s.key_hash = FirstKeyHash(p.req);
    spans_->push_back(s);
  }
  if (demand_fill_ && p.req.verb == Verb::kGet && hits == 0) {
    Request fill;
    fill.verb = Verb::kSet;
    fill.nkeys = 1;
    fill.keys[0] = p.req.keys[0];
    Enqueue(fill, now, st);
  }
}

void LoadGen::Break(Conn* c, PhaseStats* st) {
  if (c->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  c->fd = -1;
  st->failed += c->fifo.size();
  c->fifo.clear();
  c->unsent = 0;
  c->out.clear();
  c->out_off = 0;
}

void LoadGen::Receive(Conn* c, PhaseStats* st) {
  while (c->fd >= 0) {
    if (c->in.size() - c->in_len < kMinRecvSpace) {
      // Verify what has arrived before reading more: the buffer then grows
      // only for one reply larger than it, not with a burst of replies,
      // whose size would otherwise reach the peak RSS.
      Consume(c, st);
      if (c->fd < 0) return;
      if (c->in.size() - c->in_len < kMinRecvSpace) {
        c->in.resize(c->in.size() * 2);
      }
    }
    const ssize_t n = ::recv(c->fd, c->in.data() + c->in_len,
                             c->in.size() - c->in_len, 0);
    if (n > 0) {
      c->in_len += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    Break(c, st);  // peer closed or socket error
    return;
  }
  Consume(c, st);
}

void LoadGen::Consume(Conn* c, PhaseStats* st) {
  const int64_t now = NowNs();
  size_t off = 0;
  while (!c->fifo.empty() && c->fifo.size() > c->unsent) {
    const Pending& p = c->fifo.front();
    char* buf = c->in.data() + off;
    const size_t len = c->in_len - off;
    ReplyCheck rc = CheckReply(p.req, buf, len);
    if (rc.status == ReplyStatus::kNeedMore) break;
    if (rc.status == ReplyStatus::kOk && rc.hits > 0 &&
        replies_ >= corrupt_after_) {
      // Flip the first payload byte of this hit and verify again.
      corrupt_after_ = UINT64_MAX;
      const char* eol = static_cast<const char*>(std::memchr(buf, '\n', len));
      buf[eol - buf + 1] ^= 0x01;
      rc = CheckReply(p.req, buf, len);
    }
    ++replies_;
    if (rc.status == ReplyStatus::kBad) {
      ReportBad(p.req, buf, len);
      Break(c, st);
      return;
    }
    off += rc.consumed;
    const Pending done = p;
    c->fifo.pop_front();
    Complete(done, rc.hits, now, st);
  }
  if (off > 0) {
    std::memmove(c->in.data(), c->in.data() + off, c->in_len - off);
    c->in_len -= off;
  }
}

PhaseStats LoadGen::Run(double rate, double seconds) {
  PhaseStats st;
  const auto period = static_cast<int64_t>(1e9 / rate);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t next_due = start;
  int64_t next_sample = start;
  std::vector<uint64_t> backlog;
  Request req;
  epoll_event events[16];
  while (true) {
    // Taken before the receive pass: a request times out only if it is
    // still unanswered after a pass that began past the deadline.
    const int64_t pass_start = NowNs();
    while (next_due <= pass_start && next_due < end) {
      source_->Next(&req);
      Enqueue(req, next_due, &st);
      next_due += period;
    }
    for (Conn& c : conns_) Flush(&c, pass_start, &st);
    const int n = ::epoll_wait(epoll_fd_, events, 16, 0);
    for (int i = 0; i < n; ++i) Receive(&conns_[events[i].data.u64], &st);
    // Fills queued after a miss go out on the next pass.
    const int64_t now = NowNs();
    const uint64_t outstanding = Outstanding();
    if (now >= next_sample && next_due < end) {
      backlog.push_back(outstanding);
      next_sample += kBacklogSampleNs;
    }
    st.backlog_max = std::max(st.backlog_max, outstanding);
    if (outstanding >= kMaxOutstanding && next_due < end) {
      st.saturated = true;
      next_due = end;
    }
    if (next_due >= end && outstanding == 0) {
      st.elapsed_s = static_cast<double>(now - start) * 1e-9;
      break;
    }
    if (pass_start > end + kDrainTimeoutNs) {
      std::fprintf(stderr, "perfbench: %llu request(s) unanswered %.0f s "
                   "after the phase ended\n",
                   static_cast<unsigned long long>(outstanding),
                   static_cast<double>(kDrainTimeoutNs) * 1e-9);
      for (Conn& c : conns_) Break(&c, &st);  // timed out
      st.elapsed_s = static_cast<double>(now - start) * 1e-9;
      break;
    }
  }
  // Growing backlog: the last quarter of the phase holds clearly more
  // outstanding requests than the first.
  if (backlog.size() >= 8) {
    const size_t q = backlog.size() / 4;
    double first = 0;
    double last = 0;
    for (size_t i = 0; i < q; ++i) {
      first += static_cast<double>(backlog[i]);
      last += static_cast<double>(backlog[backlog.size() - 1 - i]);
    }
    st.backlog_growing = last > 2 * first + 4.0 * static_cast<double>(q);
  }
  st.backlog_growing = st.backlog_growing || st.saturated;
  return st;
}

}  // namespace perfbench
