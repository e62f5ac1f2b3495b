#include "net/ascii_protocol.h"

#include <algorithm>

#include "util/argparse.h"

namespace cliffhanger {
namespace net {

namespace {

// Strict unsigned decimal (digits only, no sign, overflow rejected):
// memcached treats any deviation as a malformed command line. One grammar
// shared with the CLI flag parsing, so the two can never drift.
bool ParseU64(std::string_view token, uint64_t* value) {
  return ParseDecimalU64(token, value);
}

bool ParseU32(std::string_view token, uint32_t* value) {
  uint64_t v = 0;
  if (!ParseU64(token, &v) || v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

// exptime is signed in the protocol (-1 = already expired).
bool ParseI64(std::string_view token, int64_t* value) {
  const bool negative = !token.empty() && token.front() == '-';
  if (negative) token.remove_prefix(1);
  uint64_t magnitude = 0;
  if (!ParseU64(token, &magnitude)) return false;
  if (magnitude > static_cast<uint64_t>(INT64_MAX)) return false;
  *value = negative ? -static_cast<int64_t>(magnitude)
                    : static_cast<int64_t>(magnitude);
  return true;
}

// Splits on runs of spaces (memcached tolerates repeated separators).
void Tokenize(std::string_view line, std::vector<std::string_view>* tokens) {
  tokens->clear();
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos > start) tokens->push_back(line.substr(start, pos - start));
  }
}

void SetError(Command* out, std::string_view error) {
  out->type = CommandType::kProtocolError;
  out->error = error;
}

// The first space-delimited word of `line` and the offset just past it —
// the verb the general tokenizer would read as tokens.front().
std::string_view FirstWord(std::string_view line, size_t* end) {
  size_t pos = 0;
  while (pos < line.size() && line[pos] == ' ') ++pos;
  const size_t start = pos;
  while (pos < line.size() && line[pos] != ' ') ++pos;
  *end = pos;
  return line.substr(start, pos - start);
}

// Splits a get/gets key list on runs of spaces straight into *keys in one
// pass, validating each key (ValidKey's rule) and the kMaxKeysPerGet cap as
// it goes. Returns the error line — kErrError for no key, kErrBadLine for a
// bad key or one key too many — with *keys cleared, or an empty view.
std::string_view ScanGetKeys(std::string_view rest,
                             std::vector<std::string_view>* keys) {
  size_t pos = 0;
  while (true) {
    while (pos < rest.size() && rest[pos] == ' ') ++pos;
    if (pos == rest.size()) break;
    const size_t start = pos;
    bool printable = true;
    for (; pos < rest.size() && rest[pos] != ' '; ++pos) {
      const auto c = static_cast<unsigned char>(rest[pos]);
      printable &= c > ' ' && c != 0x7f;
    }
    if (!printable || pos - start > kMaxKeyBytes ||
        keys->size() == kMaxKeysPerGet) {
      keys->clear();
      return kErrBadLine;
    }
    keys->push_back(rest.substr(start, pos - start));
  }
  return keys->empty() ? kErrError : std::string_view{};
}

bool ValidKey(std::string_view key) {
  if (key.empty() || key.size() > kMaxKeyBytes) return false;
  // memcached keys are printable non-space bytes: control characters
  // (notably a bare '\r' mid-line) would otherwise be echoed verbatim
  // into VALUE response lines and desync CRLF-based readers.
  for (const char c : key) {
    if (static_cast<unsigned char>(c) <= ' ' ||
        static_cast<unsigned char>(c) == 0x7f) {
      return false;
    }
  }
  return true;
}

}  // namespace

ParseStatus AsciiParser::Next(std::string_view buffer, size_t* consumed,
                              Command* out) {
  // Reset fields in place (keys keeps its capacity): together with the
  // tokens_ scratch below, a warm connection parses commands without any
  // heap allocation — the same no-per-item-allocation rule the cache hot
  // path follows.
  *consumed = 0;
  out->type = CommandType::kProtocolError;
  out->keys.clear();
  out->flags = 0;
  out->exptime = 0;
  out->cas_unique = 0;
  out->delta = 0;
  out->noreply = false;
  out->data = {};
  out->error = {};

  // Resync state 1: a rejected data block is being discarded byte-for-byte
  // (no memory of it is kept, so a hostile "bytes" value costs nothing).
  if (swallow_data_remaining_ > 0) {
    const uint64_t n =
        std::min<uint64_t>(swallow_data_remaining_, buffer.size());
    swallow_data_remaining_ -= n;
    *consumed = static_cast<size_t>(n);
    return ParseStatus::kNeedMore;
  }

  const size_t newline = buffer.find('\n');

  // Resync state 2: discarding the tail of an oversized request line.
  if (swallow_line_) {
    if (newline == std::string_view::npos) {
      *consumed = buffer.size();
      return ParseStatus::kNeedMore;
    }
    swallow_line_ = false;
    *consumed = newline + 1;
    return ParseStatus::kNeedMore;
  }

  if (newline == std::string_view::npos) {
    if (buffer.size() > kMaxLineBytes) {
      // Bound the read buffer against newline-free garbage: reject the line
      // now and discard the rest of it as it arrives.
      swallow_line_ = true;
      *consumed = buffer.size();
      SetError(out, kErrLineTooLong);
      return ParseStatus::kCommand;
    }
    return ParseStatus::kNeedMore;
  }

  const size_t line_end = newline + 1;  // one past '\n'
  if (newline > kMaxLineBytes) {
    // Enforce the cap even when the newline is already buffered, so a
    // too-long line gets the same single error no matter how TCP
    // segmented it (split-invariance contract).
    *consumed = line_end;
    SetError(out, kErrLineTooLong);
    return ParseStatus::kCommand;
  }
  std::string_view line = buffer.substr(0, newline);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  // --- retrieval: one pass from the line into out->keys ----------------
  size_t verb_end = 0;
  const std::string_view verb = FirstWord(line, &verb_end);
  if (verb == "get" || verb == "gets") {
    *consumed = line_end;
    const std::string_view error =
        ScanGetKeys(line.substr(verb_end), &out->keys);
    if (!error.empty()) {
      SetError(out, error);
    } else {
      out->type = verb == "get" ? CommandType::kGet : CommandType::kGets;
    }
    return ParseStatus::kCommand;
  }

  Tokenize(line, &tokens_);
  const std::vector<std::string_view>& tokens = tokens_;

  if (tokens.empty()) {
    *consumed = line_end;
    SetError(out, kErrError);
    return ParseStatus::kCommand;
  }

  const std::string_view word = tokens.front();

  // --- storage ---------------------------------------------------------
  const bool is_cas = word == "cas";
  if (word == "set" || word == "add" || word == "replace" || is_cas ||
      word == "append" || word == "prepend") {
    uint32_t flags = 0;
    int64_t exptime = 0;
    uint64_t bytes = 0;
    uint64_t cas_unique = 0;
    bool noreply = false;
    // cas carries one extra field (the compare version) before noreply.
    const size_t base_tokens = is_cas ? 6 : 5;
    const bool arity_ok =
        tokens.size() == base_tokens || tokens.size() == base_tokens + 1;
    bool fields_ok = arity_ok && ValidKey(tokens[1]) &&
                     ParseU32(tokens[2], &flags) &&
                     ParseI64(tokens[3], &exptime) &&
                     ParseU64(tokens[4], &bytes);
    if (is_cas && fields_ok) fields_ok = ParseU64(tokens[5], &cas_unique);
    if (tokens.size() == base_tokens + 1) {
      if (tokens[base_tokens] == "noreply") {
        noreply = true;
      } else if (fields_ok) {
        *consumed = line_end;
        SetError(out, kErrBadLine);
        return ParseStatus::kCommand;
      }
    }
    if (!fields_ok) {
      // The data length is unknown, so nothing can be swallowed: the
      // client's data block (if any) will re-enter as command lines and
      // produce further errors, exactly as memcached behaves.
      *consumed = line_end;
      SetError(out, kErrBadLine);
      return ParseStatus::kCommand;
    }
    if (bytes > kMaxValueBytes) {
      // Reject now but keep the stream in sync by discarding the declared
      // block and its terminator as they arrive. Saturate the add: a
      // declared size near UINT64_MAX must not wrap into a tiny swallow
      // and desynchronize the stream (the connection just drains garbage
      // until the client gives up).
      swallow_data_remaining_ =
          bytes > UINT64_MAX - 2 ? UINT64_MAX : bytes + 2;
      *consumed = line_end;
      SetError(out, kErrTooLarge);
      // The line parsed cleanly, so noreply is known and honoured: like
      // memcached, a noreply command gets no response — not even an error
      // — or a pipelining client would misattribute every later reply.
      out->noreply = noreply;
      return ParseStatus::kCommand;
    }
    // Zero-copy constraint: line and data block must be in the buffer
    // together before the command can be emitted.
    const uint64_t frame_end = static_cast<uint64_t>(line_end) + bytes + 2;
    if (buffer.size() < frame_end) return ParseStatus::kNeedMore;
    if (buffer[line_end + bytes] != '\r' ||
        buffer[line_end + bytes + 1] != '\n') {
      // Client framing is off; drop the declared block and resync at the
      // next newline.
      swallow_line_ = true;
      *consumed = line_end + static_cast<size_t>(bytes);
      SetError(out, kErrBadChunk);
      out->noreply = noreply;  // known: the command line parsed cleanly
      return ParseStatus::kCommand;
    }
    out->type = word == "set"       ? CommandType::kSet
                : word == "add"     ? CommandType::kAdd
                : word == "replace" ? CommandType::kReplace
                : is_cas            ? CommandType::kCas
                : word == "append"  ? CommandType::kAppend
                                    : CommandType::kPrepend;
    out->keys.push_back(tokens[1]);
    out->flags = flags;
    out->exptime = exptime;
    out->cas_unique = cas_unique;
    out->noreply = noreply;
    out->data = buffer.substr(line_end, static_cast<size_t>(bytes));
    *consumed = static_cast<size_t>(frame_end);
    return ParseStatus::kCommand;
  }

  // --- arithmetic ------------------------------------------------------
  if (word == "incr" || word == "decr") {
    const bool arity_ok = tokens.size() == 3 || tokens.size() == 4;
    const bool noreply = tokens.size() == 4 && tokens[3] == "noreply";
    if (!arity_ok || (tokens.size() == 4 && !noreply) ||
        !ValidKey(tokens[1])) {
      *consumed = line_end;
      SetError(out, kErrBadLine);
      return ParseStatus::kCommand;
    }
    uint64_t delta = 0;
    if (!ParseU64(tokens[2], &delta)) {
      // Line shape is fine but the operand is not a 64-bit decimal: the
      // dedicated memcached error, with noreply honoured (the line parsed
      // cleanly enough to know it).
      *consumed = line_end;
      SetError(out, kErrBadDelta);
      out->noreply = noreply;
      return ParseStatus::kCommand;
    }
    out->type = word == "incr" ? CommandType::kIncr : CommandType::kDecr;
    out->keys.push_back(tokens[1]);
    out->delta = delta;
    out->noreply = noreply;
    *consumed = line_end;
    return ParseStatus::kCommand;
  }

  // --- touch -----------------------------------------------------------
  if (word == "touch") {
    const bool arity_ok = tokens.size() == 3 || tokens.size() == 4;
    const bool noreply = tokens.size() == 4 && tokens[3] == "noreply";
    if (!arity_ok || (tokens.size() == 4 && !noreply) ||
        !ValidKey(tokens[1])) {
      *consumed = line_end;
      SetError(out, kErrBadLine);
      return ParseStatus::kCommand;
    }
    int64_t exptime = 0;
    if (!ParseI64(tokens[2], &exptime)) {
      *consumed = line_end;
      SetError(out, kErrBadExptime);
      out->noreply = noreply;
      return ParseStatus::kCommand;
    }
    out->type = CommandType::kTouch;
    out->keys.push_back(tokens[1]);
    out->exptime = exptime;
    out->noreply = noreply;
    *consumed = line_end;
    return ParseStatus::kCommand;
  }

  // --- flush_all -------------------------------------------------------
  if (word == "flush_all") {
    // flush_all [delay] [noreply] — the delay defaults to 0 (immediate).
    int64_t delay = 0;
    bool noreply = false;
    bool ok = tokens.size() <= 3;
    if (ok && tokens.size() > 1 && tokens.back() == "noreply") {
      noreply = true;
    }
    const size_t args = tokens.size() - 1 - (noreply ? 1 : 0);
    ok = ok && args <= 1;
    if (ok && args == 1) {
      ok = ParseI64(tokens[1], &delay) && delay >= 0;
    }
    if (!ok) {
      *consumed = line_end;
      SetError(out, kErrBadLine);
      return ParseStatus::kCommand;
    }
    out->type = CommandType::kFlushAll;
    out->exptime = delay;
    out->noreply = noreply;
    *consumed = line_end;
    return ParseStatus::kCommand;
  }

  // --- delete ----------------------------------------------------------
  if (word == "delete") {
    const bool arity_ok = tokens.size() == 2 || tokens.size() == 3;
    const bool noreply = tokens.size() == 3 && tokens[2] == "noreply";
    if (!arity_ok || (tokens.size() == 3 && !noreply) ||
        !ValidKey(tokens[1])) {
      *consumed = line_end;
      SetError(out, kErrBadLine);
      return ParseStatus::kCommand;
    }
    out->type = CommandType::kDelete;
    out->keys.push_back(tokens[1]);
    out->noreply = noreply;
    *consumed = line_end;
    return ParseStatus::kCommand;
  }

  // --- administrative --------------------------------------------------
  if (word == "stats" || word == "version" || word == "quit") {
    if (tokens.size() != 1) {
      // `stats <unknown-subcommand>` is ERROR in memcached too.
      *consumed = line_end;
      SetError(out, kErrError);
      return ParseStatus::kCommand;
    }
    out->type = word == "stats"     ? CommandType::kStats
                : word == "version" ? CommandType::kVersion
                                    : CommandType::kQuit;
    *consumed = line_end;
    return ParseStatus::kCommand;
  }

  *consumed = line_end;
  SetError(out, kErrError);
  return ParseStatus::kCommand;
}

// --- Serializers ----------------------------------------------------------

namespace {
void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  out->append(p, static_cast<size_t>(buf + sizeof(buf) - p));
}
}  // namespace

void AppendValueHeader(std::string* out, std::string_view key, uint32_t flags,
                       uint64_t bytes) {
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  AppendU64(out, flags);
  out->push_back(' ');
  AppendU64(out, bytes);
  out->append(kCrlf);
}

void AppendValueHeaderCas(std::string* out, std::string_view key,
                          uint32_t flags, uint64_t bytes, uint64_t cas) {
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  AppendU64(out, flags);
  out->push_back(' ');
  AppendU64(out, bytes);
  out->push_back(' ');
  AppendU64(out, cas);
  out->append(kCrlf);
}

void AppendValueResponse(std::string* out, std::string_view key,
                         uint32_t flags, std::string_view data) {
  AppendValueHeader(out, key, flags, data.size());
  out->append(data);
  out->append(kCrlf);
}

void AppendValueResponseCas(std::string* out, std::string_view key,
                            uint32_t flags, std::string_view data,
                            uint64_t cas) {
  AppendValueHeaderCas(out, key, flags, data.size(), cas);
  out->append(data);
  out->append(kCrlf);
}

void AppendErrorLine(std::string* out, std::string_view error) {
  out->append(error);
  out->append(kCrlf);
}

void AppendNumericLine(std::string* out, uint64_t v) {
  AppendU64(out, v);
  out->append(kCrlf);
}

void AppendStat(std::string* out, std::string_view name, std::string_view v) {
  out->append("STAT ");
  out->append(name);
  out->push_back(' ');
  out->append(v);
  out->append(kCrlf);
}

void AppendStat(std::string* out, std::string_view name, uint64_t v) {
  out->append("STAT ");
  out->append(name);
  out->push_back(' ');
  AppendU64(out, v);
  out->append(kCrlf);
}

}  // namespace net
}  // namespace cliffhanger
