// Shared partial-write bookkeeping for response-segment flushes.
//
// Every backend flushes a burst the same way: scatter-gather the queued
// write-buffer tail plus each ResponseSegment's up-to-three pieces (protocol
// text, borrowed zero-copy payload span, trailer), and — when the socket
// stops taking bytes — spill everything unsent into the connection's write
// buffer, copying the payload bytes because the arena borrow ends when the
// flush returns. The cursor arithmetic (segment index, piece index, offset
// within the piece) and the spill are identical whether the bytes move via
// writev(2) (poll/epoll backends) or an io_uring SENDMSG completion (uring
// backend), so they live here once, templated on the write primitive, and
// are unit-tested for mid-segment resume without a socket in sight
// (tests/segment_flush_test.cc).
#pragma once

#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "net/socket_server.h"

namespace cliffhanger {
namespace net {

// iovec slots per gather-write call: the kernel's per-call limit, so one
// call carries a whole burst. Burst collection stops at kMaxKeysPerGet
// key-ops, so a burst holds fewer than 2 x kMaxKeysPerGet keys of three
// pieces each plus one END per frame (under 450 pieces); only a socket
// that takes less than everything sends the rest in a further call.
constexpr int kMaxFlushIov = UIO_MAXIOV;

// The p-th write piece of one response segment (0 = text, 1 = borrowed
// payload, 2 = trailer). Empty pieces are skipped by the cursor logic.
inline std::pair<const char*, size_t> SegmentPiece(const ResponseSegment& seg,
                                                   size_t p) {
  switch (p) {
    case 0:
      return {seg.text.data(), seg.text.size()};
    case 1:
      return {seg.payload, seg.payload_size};
    default:
      return {seg.trailer.data(), seg.trailer.size()};
  }
}

// Flushes the queued write buffer (*wr beyond *wr_offset) followed by the
// first `count` response segments through `write_some`, a callable with the
// writev contract: ssize_t write_some(const iovec* iov, int iov_count),
// returning the bytes it moved (> 0), or -errno. -EAGAIN (and a 0 return)
// mean "socket full": every unsent byte — payload spans included, their
// borrow is over — is appended to *wr and the flush reports success with
// the spill queued; any other negative return is a dead socket.
//
// Returns false only on a dead socket. On true, either everything was
// written (wr left empty) or the unsent remainder sits in *wr.
template <typename WriteFn>
bool FlushSegmentsVia(WriteFn&& write_some, std::string* wr,
                      size_t* wr_offset, const ResponseSegment* segments,
                      size_t count) {
  size_t seg_i = 0;    // first segment with unsent bytes
  size_t piece_i = 0;  // piece cursor within segments[seg_i]
  size_t off = 0;      // sent prefix of that piece
  const auto advance = [&] {
    off = 0;
    if (++piece_i == 3) {
      piece_i = 0;
      ++seg_i;
    }
  };
  while (true) {
    // Skip fully-sent and empty pieces.
    while (seg_i < count) {
      const auto [ptr, len] = SegmentPiece(segments[seg_i], piece_i);
      (void)ptr;
      if (off < len) break;
      advance();
    }
    iovec iov[kMaxFlushIov];  // 16 KiB of worker stack, left uninitialised
    int iov_count = 0;
    if (*wr_offset < wr->size()) {
      iov[iov_count++] = {const_cast<char*>(wr->data()) + *wr_offset,
                          wr->size() - *wr_offset};
    }
    for (size_t s = seg_i, p = piece_i, o = off;
         s < count && iov_count < kMaxFlushIov;) {
      const auto [ptr, len] = SegmentPiece(segments[s], p);
      if (o < len) {
        iov[iov_count++] = {const_cast<char*>(ptr) + o, len - o};
      }
      o = 0;
      if (++p == 3) {
        p = 0;
        ++s;
      }
    }
    if (iov_count == 0) {
      wr->clear();
      *wr_offset = 0;
      return true;  // everything flushed
    }
    const ssize_t n = write_some(iov, iov_count);
    if (n <= 0) {
      if (n < 0 && n != -EAGAIN && n != -EWOULDBLOCK) {
        return false;  // peer gone
      }
      // Socket full: queue the unsent bytes (payloads included — the
      // borrow is over) behind the wr tail.
      for (size_t s = seg_i, p = piece_i, o = off; s < count;) {
        const auto [ptr, len] = SegmentPiece(segments[s], p);
        if (o < len) wr->append(ptr + o, len - o);
        o = 0;
        if (++p == 3) {
          p = 0;
          ++s;
        }
      }
      return true;
    }
    size_t left = static_cast<size_t>(n);
    if (*wr_offset < wr->size()) {
      const size_t take = std::min(left, wr->size() - *wr_offset);
      *wr_offset += take;
      left -= take;
      if (*wr_offset == wr->size()) {
        wr->clear();
        *wr_offset = 0;
      }
    }
    while (left > 0) {
      const auto [ptr, len] = SegmentPiece(segments[seg_i], piece_i);
      (void)ptr;
      const size_t take = std::min(left, len - off);
      off += take;
      left -= take;
      if (off >= len) advance();
    }
  }
}

}  // namespace net
}  // namespace cliffhanger
