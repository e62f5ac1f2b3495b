#include "net/cache_adapter.h"

#include <time.h>

#include <algorithm>
#include <cassert>

#include "util/argparse.h"
#include "util/hashing.h"
#include "util/slab_geometry.h"

namespace cliffhanger {
namespace net {

namespace {

// "app<digits>:<rest>" -> app id. Returns false when the key does not use
// the namespace convention (including overflowing ids).
bool ParseAppPrefix(std::string_view key, uint32_t* app_id) {
  if (key.size() < 5 || key.compare(0, 3, "app") != 0) return false;
  uint64_t id = 0;
  size_t pos = 3;
  while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') {
    id = id * 10 + static_cast<uint64_t>(key[pos] - '0');
    if (id > UINT32_MAX) return false;
    ++pos;
  }
  if (pos == 3 || pos >= key.size() || key[pos] != ':') return false;
  *app_id = static_cast<uint32_t>(id);
  return true;
}

// Claims the next response slot, recycling a caller-Reset() element when
// one is available and growing the vector otherwise (see the HandleBatch
// contract in socket_server.h: the steady-state burst cycle reuses slots
// and their string capacities, so it does not touch the allocator).
ResponseSegment& ClaimSlot(std::vector<ResponseSegment>* segments,
                           size_t* used) {
  if (*used == segments->size()) segments->emplace_back();
  return (*segments)[(*used)++];
}

// ShardBatches pinned by a pure-GET burst: they keep the shard locks — and
// therefore the borrowed arena payload spans in the response segments —
// alive until ReleaseBurstPins() runs after the flush. Thread-local
// because each socket worker runs its own bursts; the socket server calls
// HandleBatch and ReleaseBurstPins on the same thread, back to back.
thread_local std::vector<ShardedCacheServer::ShardBatch> t_burst_pins;

}  // namespace

uint32_t AbsoluteExpiry(int64_t exptime, uint32_t now_s) {
  // Clamp below kKeepExpiry so a protocol exptime can never alias the
  // Touch keep-the-stored-expiry sentinel (cache/types.h).
  constexpr uint32_t kMaxExpiry = kKeepExpiry - 1;
  if (exptime == 0) return 0;
  if (exptime < 0) {
    // Already expired (memcached's -1): any stored second <= now reads as
    // expired; max(1, now) also covers a (contractually forbidden) now==0.
    return std::max<uint32_t>(1, now_s);
  }
  if (exptime <= kRelativeExptimeCutoff) {
    const uint64_t absolute = static_cast<uint64_t>(now_s) +
                              static_cast<uint64_t>(exptime);
    return absolute > kMaxExpiry ? kMaxExpiry
                                 : static_cast<uint32_t>(absolute);
  }
  return exptime > static_cast<int64_t>(kMaxExpiry)
             ? kMaxExpiry
             : static_cast<uint32_t>(exptime);
}

CacheAdapter::CacheAdapter(ShardedCacheServer* server,
                           const CacheAdapterConfig& config)
    : server_(server), config_(config) {
  if (!config_.clock) {
    config_.clock = [] { return static_cast<uint32_t>(::time(nullptr)); };
  }
}

CacheAdapter::~CacheAdapter() = default;

CacheAdapter::RoutedKey CacheAdapter::Route(std::string_view key) const {
  RoutedKey rk;
  rk.key_id = Fnv1a64(key);
  rk.app_id = config_.default_app_id;
  if (config_.parse_app_prefix) {
    uint32_t prefixed = 0;
    if (ParseAppPrefix(key, &prefixed)) rk.app_id = prefixed;
  }
  return rk;
}

void CacheAdapter::GetKeyLocked(ShardedCacheServer::ShardBatch& core,
                                std::string_view key, const RoutedKey& rk,
                                uint32_t now_s, bool with_cas,
                                std::string* out, ResponseSegment* zc,
                                Counters* tally) {
  const ValueOutcome vo = core.GetValue(
      rk.app_id, rk.key_id, static_cast<uint32_t>(key.size()), now_s,
      FlushAt());
  if (vo.flush_reclaimed) {
    // flush_all invalidation, reclaimed on this access without touching
    // the core statistics (the probe never ran).
    ++tally->get_misses;
    ++tally->get_expired;
    return;
  }
  if (vo.valid) {
    ++tally->get_hits;
    tally->bytes_written += vo.view.size;
    if (zc != nullptr) {
      // Zero-copy: the VALUE header goes into the segment text, the
      // payload piece borrows the arena bytes (stable while the caller
      // keeps `core` pinned), and the terminating CRLF is the trailer.
      if (with_cas) {
        AppendValueHeaderCas(&zc->text, key, vo.view.flags, vo.view.size,
                             vo.view.cas);
      } else {
        AppendValueHeader(&zc->text, key, vo.view.flags, vo.view.size);
      }
      zc->payload = vo.view.data;
      zc->payload_size = vo.view.size;
      zc->trailer.append(kCrlf);
    } else {
      // Copy path (mixed bursts): the batch dies before the response is
      // written, so the payload must move into the text.
      const std::string_view data(vo.view.data, vo.view.size);
      if (with_cas) {
        AppendValueResponseCas(out, key, vo.view.flags, data, vo.view.cas);
      } else {
        AppendValueResponse(out, key, vo.view.flags, data);
      }
    }
    return;
  }
  ++tally->get_misses;
  if (vo.expired) {
    ++tally->get_expired;
  }
}

void CacheAdapter::CountCommand(const Command& cmd, Counters* tally) {
  switch (cmd.type) {
    case CommandType::kSet:
    case CommandType::kAdd:
    case CommandType::kReplace:
    case CommandType::kCas:
    case CommandType::kAppend:
    case CommandType::kPrepend:
      ++tally->cmd_set;
      break;
    case CommandType::kTouch:
      ++tally->cmd_touch;
      break;
    case CommandType::kDelete:
      ++tally->cmd_delete;
      break;
    default:
      break;
  }
}

void CacheAdapter::RejectUnknownApp(const Command& cmd, std::string* out,
                                    Counters* tally) {
  switch (cmd.type) {
    case CommandType::kGet:
    case CommandType::kGets:
      // The slot stays empty: an unknown app's key is a miss.
      ++tally->get_misses;
      return;
    case CommandType::kSet:
    case CommandType::kAdd:
    case CommandType::kReplace:
    case CommandType::kCas:
    case CommandType::kAppend:
    case CommandType::kPrepend:
      // Checked before any size or presence test, so it wins over "too
      // large", and no cas is minted.
      ++tally->store_rejected;
      if (cmd.type == CommandType::kCas) {
        ++tally->cas_misses;
      }
      if (!cmd.noreply) {
        AppendErrorLine(out, "SERVER_ERROR unknown application");
      }
      return;
    case CommandType::kIncr:
    case CommandType::kDecr:
      ++(cmd.type == CommandType::kIncr ? tally->incr_misses
                                        : tally->decr_misses);
      break;
    case CommandType::kTouch:
      ++tally->touch_misses;
      break;
    default:  // kDelete
      break;
  }
  if (!cmd.noreply) out->append(kNotFoundLine);
}

void CacheAdapter::StoreLocked(ShardedCacheServer::ShardBatch& core,
                               const Command& cmd, const RoutedKey& rk,
                               uint32_t now_s, std::string* out,
                               Counters* tally) {
  const bool is_cas = cmd.type == CommandType::kCas;
  const std::string_view key = cmd.key();
  const auto key_size = static_cast<uint32_t>(key.size());

  // The conditional verbs decide presence from the core directly
  // (resident, unexpired, unflushed) — a statistics-neutral peek that also
  // lazily reclaims an expired/flushed incarnation on this touch-point.
  if (cmd.type == CommandType::kAdd || cmd.type == CommandType::kReplace ||
      is_cas) {
    const ValueOutcome peek =
        core.PeekValue(rk.app_id, rk.key_id, now_s, FlushAt());
    if ((cmd.type == CommandType::kAdd && peek.valid) ||
        (cmd.type == CommandType::kReplace && !peek.valid)) {
      ++tally->store_rejected;
      if (!cmd.noreply) out->append(kNotStoredLine);
      return;
    }
    if (is_cas) {
      if (!peek.valid) {
        ++tally->cas_misses;
        ++tally->store_rejected;
        if (!cmd.noreply) out->append(kNotFoundLine);
        return;
      }
      if (peek.view.cas != cmd.cas_unique) {
        ++tally->cas_badval;
        ++tally->store_rejected;
        if (!cmd.noreply) out->append(kExistsLine);
        return;
      }
    }
  }

  const auto new_size = static_cast<uint32_t>(cmd.data.size());
  ItemMeta item{rk.key_id, key_size, new_size};
  item.expiry_s = AbsoluteExpiry(cmd.exptime, now_s);
  item.now_s = now_s;
  if (SlabClassFor(ExactFootprint(key_size, new_size)) < 0) {
    // No slab class fits. SetValue still runs to drop any old incarnation
    // (memcached erases the key on an oversized store attempt); no cas is
    // minted for a rejected store, keeping the cas stream identical to the
    // success-only sequence.
    core.SetValue(rk.app_id, item, cmd.data.data(), cmd.flags, 0);
    ++tally->store_rejected;
    if (!cmd.noreply) AppendErrorLine(out, kErrTooLarge);
    return;
  }
  const uint64_t cas = NextCas();
  const bool admitted =
      core.SetValue(rk.app_id, item, cmd.data.data(), cmd.flags, cas);
  assert(admitted);
  (void)admitted;
  tally->bytes_read += cmd.data.size();
  if (is_cas) ++tally->cas_hits;
  if (!cmd.noreply) out->append(kStoredLine);
}

// append/prepend: splice onto an existing value. The command line's flags
// and exptime are parsed but ignored (memcached semantics); only existence
// gates the store, and the result re-slabs through the core when the size
// leaves the slab class.
void CacheAdapter::ConcatLocked(ShardedCacheServer::ShardBatch& core,
                                const Command& cmd, const RoutedKey& rk,
                                uint32_t now_s, std::string* out,
                                Counters* tally) {
  const std::string_view key = cmd.key();
  const auto key_size = static_cast<uint32_t>(key.size());
  const ValueOutcome peek =
      core.PeekValue(rk.app_id, rk.key_id, now_s, FlushAt());
  if (!peek.valid) {
    ++tally->store_rejected;
    if (!cmd.noreply) out->append(kNotStoredLine);
    return;
  }
  const uint64_t combined_size =
      static_cast<uint64_t>(peek.view.size) + cmd.data.size();
  if (combined_size > kMaxValueBytes) {
    // Reject the splice but keep the original item intact, as memcached
    // does when the concatenated object no longer fits.
    ++tally->store_rejected;
    if (!cmd.noreply) AppendErrorLine(out, kErrTooLarge);
    return;
  }
  // The splice copies by necessity; the view stays stable while `core`
  // holds the shard lock.
  std::string combined;
  combined.reserve(static_cast<size_t>(combined_size));
  if (cmd.type == CommandType::kAppend) {
    combined.append(peek.view.data, peek.view.size);
    combined.append(cmd.data.data(), cmd.data.size());
  } else {
    combined.append(cmd.data.data(), cmd.data.size());
    combined.append(peek.view.data, peek.view.size);
  }
  const auto new_size = static_cast<uint32_t>(combined.size());
  if (SlabClassFor(ExactFootprint(key_size, new_size)) < 0) {
    // Under kMaxValueBytes but over the largest chunk once the key and
    // item overhead are added: the old incarnation dies (ReplaceValue
    // deletes it before failing), no cas is minted.
    core.ReplaceValue(rk.app_id, rk.key_id, key_size, combined.data(),
                      new_size, 0, now_s);
    ++tally->store_rejected;
    if (!cmd.noreply) AppendErrorLine(out, kErrTooLarge);
    return;
  }
  const uint64_t cas = NextCas();
  const ReplaceResult r = core.ReplaceValue(
      rk.app_id, rk.key_id, key_size, combined.data(), new_size, cas, now_s);
  assert(r != ReplaceResult::kFailed);
  (void)r;
  tally->bytes_read += cmd.data.size();
  if (!cmd.noreply) out->append(kStoredLine);
}

void CacheAdapter::ArithLocked(ShardedCacheServer::ShardBatch& core,
                               const Command& cmd, const RoutedKey& rk,
                               uint32_t now_s, bool increment,
                               std::string* out, Counters* tally) {
  uint64_t& hits = increment ? tally->incr_hits : tally->decr_hits;
  uint64_t& misses = increment ? tally->incr_misses : tally->decr_misses;
  const std::string_view key = cmd.key();
  const ValueOutcome peek =
      core.PeekValue(rk.app_id, rk.key_id, now_s, FlushAt());
  if (!peek.valid) {
    ++misses;
    if (!cmd.noreply) out->append(kNotFoundLine);
    return;
  }
  uint64_t value = 0;
  if (!ParseDecimalU64(std::string_view(peek.view.data, peek.view.size),
                       &value)) {
    // Neither a hit nor a miss in memcached's books: the key exists but
    // its payload is not a 64-bit decimal.
    if (!cmd.noreply) AppendErrorLine(out, kErrNonNumeric);
    return;
  }
  // memcached arithmetic: incr wraps modulo 2^64, decr saturates at 0.
  const uint64_t result = increment
                              ? value + cmd.delta
                              : (value < cmd.delta ? 0 : value - cmd.delta);
  char buf[20];
  char* p = buf + sizeof(buf);
  uint64_t v = result;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  const auto new_size = static_cast<size_t>(buf + sizeof(buf) - p);
  // A <=20-byte decimal always fits a slab class next to a protocol-legal
  // key, so the rewrite cannot fail.
  const uint64_t cas = NextCas();
  const ReplaceResult r = core.ReplaceValue(
      rk.app_id, rk.key_id, static_cast<uint32_t>(key.size()), p,
      static_cast<uint32_t>(new_size), cas, now_s);
  assert(r != ReplaceResult::kFailed);
  (void)r;
  tally->bytes_read += new_size;
  ++hits;
  if (!cmd.noreply) AppendNumericLine(out, result);
}

void CacheAdapter::TouchLocked(ShardedCacheServer::ShardBatch& core,
                               const Command& cmd, const RoutedKey& rk,
                               uint32_t now_s, std::string* out,
                               Counters* tally) {
  const std::string_view key = cmd.key();
  // Refreshes the stored expiry and the item's recency standing; no GET
  // statistics move (memcached counts touches separately, and so does the
  // core — not at all). An expired/flushed item touches as NOT_FOUND and
  // is reclaimed on this access.
  const bool ok = core.TouchValue(
      rk.app_id, rk.key_id, static_cast<uint32_t>(key.size()),
      AbsoluteExpiry(cmd.exptime, now_s), now_s, FlushAt());
  if (ok) {
    ++tally->touch_hits;
    if (!cmd.noreply) out->append(kTouchedLine);
  } else {
    ++tally->touch_misses;
    if (!cmd.noreply) out->append(kNotFoundLine);
  }
}

void CacheAdapter::DeleteLocked(ShardedCacheServer::ShardBatch& core,
                                const Command& cmd, const RoutedKey& rk,
                                uint32_t now_s, std::string* out,
                                Counters* tally) {
  // The core reports whether a live, unexpired, unflushed item existed
  // (memcached's DELETED/NOT_FOUND split) and erases every trace either
  // way — including shadow state, which must not keep earning credit an
  // explicit delete revoked.
  const bool valid = core.DeleteValue(rk.app_id, rk.key_id, now_s, FlushAt());
  if (valid) {
    ++tally->delete_hits;
    if (!cmd.noreply) out->append(kDeletedLine);
  } else {
    if (!cmd.noreply) out->append(kNotFoundLine);
  }
}

bool CacheAdapter::HandleBarrier(const Command& cmd, std::string* out) {
  switch (cmd.type) {
    case CommandType::kFlushAll: {
      cmd_flush_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t at = static_cast<uint64_t>(Now()) +
                          static_cast<uint64_t>(cmd.exptime);
      // Items with stored_s < flush point are dead once now reaches it; the
      // reclaim is lazy (first access), O(1) per key, no sweeper. Items
      // stored at or after the flush point — including later in the same
      // second — survive. A later flush_all overwrites an earlier one, as
      // memcached's single oldest_live does.
      flush_at_s_.store(
          at > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(at),
          std::memory_order_relaxed);
      if (!cmd.noreply) out->append(kOkLine);
      return true;
    }
    case CommandType::kStats:
      AppendStats(out);
      return true;
    case CommandType::kVersion:
      out->append("VERSION ");
      out->append(kServerVersion);
      out->append(kCrlf);
      return true;
    case CommandType::kQuit:
      return false;
    case CommandType::kProtocolError:
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      // noreply is set only when the rejected command's line parsed
      // cleanly enough to carry it; like memcached, such a command gets
      // no reply at all — an unexpected error line would desync clients
      // that count one response per non-noreply command.
      if (!cmd.noreply) AppendErrorLine(out, cmd.error);
      return true;
    default:
      return true;  // unreachable: shardable verbs never reach a barrier
  }
}

void CacheAdapter::AppendStats(std::string* out) {
  AppendStat(out, "version", kServerVersion);
  AppendStat(out, "pointer_size", static_cast<uint64_t>(8 * sizeof(void*)));
  AppendStat(out, "num_shards", static_cast<uint64_t>(server_->num_shards()));

  const Counters c = counters();
  AppendStat(out, "cmd_get", c.cmd_get);
  AppendStat(out, "get_hits", c.get_hits);
  AppendStat(out, "get_misses", c.get_misses);
  AppendStat(out, "get_expired", c.get_expired);
  AppendStat(out, "cmd_set", c.cmd_set);
  AppendStat(out, "store_rejected", c.store_rejected);
  AppendStat(out, "cas_hits", c.cas_hits);
  AppendStat(out, "cas_misses", c.cas_misses);
  AppendStat(out, "cas_badval", c.cas_badval);
  AppendStat(out, "incr_hits", c.incr_hits);
  AppendStat(out, "incr_misses", c.incr_misses);
  AppendStat(out, "decr_hits", c.decr_hits);
  AppendStat(out, "decr_misses", c.decr_misses);
  AppendStat(out, "cmd_touch", c.cmd_touch);
  AppendStat(out, "touch_hits", c.touch_hits);
  AppendStat(out, "touch_misses", c.touch_misses);
  AppendStat(out, "cmd_flush", c.cmd_flush);
  AppendStat(out, "cmd_delete", c.cmd_delete);
  AppendStat(out, "delete_hits", c.delete_hits);
  AppendStat(out, "protocol_errors", c.protocol_errors);

  // Real memory accounting, straight from the value arenas (a mutually
  // consistent snapshot: MergedValueStats holds every shard lock at once).
  // `bytes` is live payload bytes (what memcached reports for stored
  // data); bytes_stored keeps the pre-0.6 name for the same quantity;
  // bytes_read/bytes_written count payload bytes accepted by stores and
  // served by get hits; total_malloced is the arena page bytes held,
  // emptied pages awaiting reuse included.
  const ShardedCacheServer::ValueStats vs = server_->MergedValueStats();
  AppendStat(out, "bytes_stored", vs.value_bytes);
  AppendStat(out, "bytes", vs.value_bytes);
  AppendStat(out, "bytes_read", c.bytes_read);
  AppendStat(out, "bytes_written", c.bytes_written);
  AppendStat(out, "total_malloced", vs.held_bytes());

  // The paper's signals, straight from the core (exact snapshot: TotalStats
  // holds every shard lock at once, and keeps departed apps' history).
  const ClassStats core = server_->TotalStats();
  AppendStat(out, "cliffhanger_gets", core.gets);
  AppendStat(out, "cliffhanger_hits", core.hits);
  AppendStat(out, "cliffhanger_sets", core.sets);
  AppendStat(out, "cliffhanger_tail_hits", core.tail_hits);
  AppendStat(out, "cliffhanger_cliff_shadow_hits", core.cliff_shadow_hits);
  AppendStat(out, "cliffhanger_hill_shadow_hits", core.hill_shadow_hits);
  AppendStat(out, "cliffhanger_rebalances", server_->rebalance_count());

  // Per-class arena occupancy (memcached's `stats slabs` shape, inlined
  // into the general stats block): chunk geometry, chunks in use, and the
  // pages the class holds with their vacant chunks.
  for (const auto& [cls, use] : vs.classes) {
    const std::string prefix = "slabs:" + std::to_string(cls);
    AppendStat(out, prefix + ":chunk_size",
               static_cast<uint64_t>(use.chunk_size));
    AppendStat(out, prefix + ":used_chunks", use.used_chunks);
    AppendStat(out, prefix + ":total_pages", use.total_pages);
    AppendStat(out, prefix + ":free_chunks", use.free_chunks);
  }
  for (const uint32_t app_id : server_->app_ids()) {
    std::string name = "app_" + std::to_string(app_id) + "_reservation_bytes";
    AppendStat(out, name, server_->AppReservation(app_id));
  }
  out->append(kEndLine);
}

// ---------------------------------------------------------------------------
// Burst path: per-shard op batching, zero-copy GET
// ---------------------------------------------------------------------------

// One shard-routed operation of a burst, bound to its response slot. A
// multiget expands into one BurstOp per key (plus a pre-filled END slot), so
// reassembling the slots in index order reproduces the sequential byte
// stream exactly.
struct CacheAdapter::BurstOp {
  const Command* cmd;
  size_t key_idx;  // which key of a multiget; 0 for single-key verbs
  size_t slot;     // response segment index
  uint32_t now_s;  // stamped at collection, in command order (clock contract)
  RoutedKey rk;
  size_t shard;
};

namespace {

// Commands whose effects are confined to one key's shard. Everything else
// (stats/version/flush_all/quit/protocol errors) acts as a barrier and runs
// through HandleBarrier in stream order.
bool IsShardable(CommandType type) {
  switch (type) {
    case CommandType::kGet:
    case CommandType::kGets:
    case CommandType::kSet:
    case CommandType::kAdd:
    case CommandType::kReplace:
    case CommandType::kCas:
    case CommandType::kAppend:
    case CommandType::kPrepend:
    case CommandType::kIncr:
    case CommandType::kDecr:
    case CommandType::kTouch:
    case CommandType::kDelete:
      return true;
    default:
      return false;
  }
}

}  // namespace

void CacheAdapter::ExecuteOpLocked(ShardedCacheServer::ShardBatch& core,
                                   const BurstOp& op, ResponseSegment* seg,
                                   bool pinned, Counters* tally) {
  const Command& cmd = *op.cmd;
  // The tenant check reads the shard's own registry under the lock this op
  // already holds, so an app added or removed on the core takes effect
  // here with no second copy to keep in sync.
  if (!core.HasApp(op.rk.app_id)) {
    RejectUnknownApp(cmd, &seg->text, tally);
    return;
  }
  switch (cmd.type) {
    case CommandType::kGet:
    case CommandType::kGets:
      // In a pinned (pure-GET) burst the segment borrows the payload from
      // the arena; otherwise the batch dies before the flush, so copy.
      GetKeyLocked(core, cmd.keys[op.key_idx], op.rk, op.now_s,
                   /*with_cas=*/cmd.type == CommandType::kGets, &seg->text,
                   pinned ? seg : nullptr, tally);
      break;
    case CommandType::kSet:
    case CommandType::kAdd:
    case CommandType::kReplace:
    case CommandType::kCas:
      StoreLocked(core, cmd, op.rk, op.now_s, &seg->text, tally);
      break;
    case CommandType::kAppend:
    case CommandType::kPrepend:
      ConcatLocked(core, cmd, op.rk, op.now_s, &seg->text, tally);
      break;
    case CommandType::kIncr:
    case CommandType::kDecr:
      ArithLocked(core, cmd, op.rk, op.now_s,
                  /*increment=*/cmd.type == CommandType::kIncr, &seg->text,
                  tally);
      break;
    case CommandType::kTouch:
      TouchLocked(core, cmd, op.rk, op.now_s, &seg->text, tally);
      break;
    case CommandType::kDelete:
      DeleteLocked(core, cmd, op.rk, op.now_s, &seg->text, tally);
      break;
    default:
      break;  // unreachable: only shardable ops are collected
  }
}

void CacheAdapter::ExecuteShardedRun(const Command* cmds, size_t count,
                                     std::vector<ResponseSegment>* segments,
                                     size_t* used, bool pinned) {
  // Collection: expand commands into shard-routed ops and claim their
  // response slots in stream order. The command counters run here, before
  // any lock; Now() is read once per command, in command order. `ops` is
  // thread-local so the steady-state burst cycle reuses its capacity and
  // stays off the allocator (each worker runs its own bursts). Every
  // counter the run moves goes into `tally`, published once at the end,
  // before a barrier that follows the run can read it.
  static thread_local std::vector<BurstOp> ops;
  Counters tally;
  ops.clear();
  ops.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    const Command& cmd = cmds[c];
    const uint32_t now = Now();
    if (cmd.type == CommandType::kGet || cmd.type == CommandType::kGets) {
      tally.cmd_get += cmd.keys.size();
      for (size_t k = 0; k < cmd.keys.size(); ++k) {
        ClaimSlot(segments, used);
        const RoutedKey rk = Route(cmd.keys[k]);
        ops.push_back(BurstOp{&cmd, k, *used - 1, now, rk,
                              server_->ShardForKey(rk.key_id)});
      }
      // The terminator's content is known now; giving it its own slot keeps
      // every VALUE block independently writev-able.
      ClaimSlot(segments, used).text.append(kEndLine);
      continue;
    }
    ClaimSlot(segments, used);
    CountCommand(cmd, &tally);
    const RoutedKey rk = Route(cmd.key());
    ops.push_back(BurstOp{&cmd, 0, *used - 1, now, rk,
                          server_->ShardForKey(rk.key_id)});
  }

  if (ops.empty()) return;  // nothing was counted either

  // Group by shard with a counting pass: ops land in their shard's bucket
  // in collection order, so same-shard (and therefore same-key) op order is
  // preserved — which is what makes the grouped execution equivalent to
  // the sequential stream, including read-your-write for a pipelined
  // `set k` ... `get k` in one burst. Thread-local like `ops`.
  static thread_local std::vector<size_t> bucket;   // per-shard cursor
  static thread_local std::vector<size_t> grouped;  // op indexes by shard
  const size_t num_shards = server_->num_shards();
  bucket.assign(num_shards, 0);
  for (const BurstOp& op : ops) ++bucket[op.shard];
  size_t start = 0;
  for (size_t& b : bucket) {
    const size_t n = b;
    b = start;  // bucket[s] = first slot of shard s
    start += n;
  }
  grouped.resize(ops.size());
  for (size_t j = 0; j < ops.size(); ++j) grouped[bucket[ops[j].shard]++] = j;
  // Placement advanced every cursor to its bucket's end.

  // Execution: one core ShardBatch (shard lock) per shard per run. In a
  // pinned run the batches are parked — in ascending shard order, which
  // keeps concurrent pinning workers deadlock-free — so the zero-copy
  // payload spans stay valid until ReleaseBurstPins(); otherwise
  // ~ShardBatch bumps the rebalance cadence here.
  size_t begin = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const size_t end = bucket[shard];
    if (begin == end) continue;
    ShardedCacheServer::ShardBatch batch = server_->BeginBatch(shard);
    for (size_t j = begin; j < end; ++j) {
      const BurstOp& op = ops[grouped[j]];
      ExecuteOpLocked(batch, op, &(*segments)[op.slot], pinned, &tally);
    }
    if (pinned) t_burst_pins.push_back(std::move(batch));
    begin = end;
  }
  Publish(tally);
}

void CacheAdapter::Publish(const Counters& tally) {
  const auto add = [](std::atomic<uint64_t>& total, uint64_t n) {
    if (n != 0) total.fetch_add(n, std::memory_order_relaxed);
  };
  add(cmd_get_, tally.cmd_get);
  add(get_hits_, tally.get_hits);
  add(get_misses_, tally.get_misses);
  add(get_expired_, tally.get_expired);
  add(cmd_set_, tally.cmd_set);
  add(store_rejected_, tally.store_rejected);
  add(cas_hits_, tally.cas_hits);
  add(cas_misses_, tally.cas_misses);
  add(cas_badval_, tally.cas_badval);
  add(incr_hits_, tally.incr_hits);
  add(incr_misses_, tally.incr_misses);
  add(decr_hits_, tally.decr_hits);
  add(decr_misses_, tally.decr_misses);
  add(cmd_touch_, tally.cmd_touch);
  add(touch_hits_, tally.touch_hits);
  add(touch_misses_, tally.touch_misses);
  add(cmd_delete_, tally.cmd_delete);
  add(delete_hits_, tally.delete_hits);
  add(bytes_read_, tally.bytes_read);
  add(bytes_written_, tally.bytes_written);
}

bool CacheAdapter::HandleBatch(const Command* cmds, size_t count,
                               std::vector<ResponseSegment>* segments) {
  size_t used = 0;
  // Zero-copy is only safe when the whole burst is get/gets: pinning shard
  // locks across a burst that also runs barrier commands (stats takes every
  // shard lock) or store verbs on the same shard would self-deadlock.
  bool pure_get = count > 0;
  for (size_t i = 0; i < count && pure_get; ++i) {
    pure_get = cmds[i].type == CommandType::kGet ||
               cmds[i].type == CommandType::kGets;
  }
  size_t i = 0;
  while (i < count) {
    if (!IsShardable(cmds[i].type)) {
      ResponseSegment& seg = ClaimSlot(segments, &used);
      if (!HandleBarrier(cmds[i], &seg.text)) return false;
      ++i;
      continue;
    }
    size_t run_end = i + 1;
    while (run_end < count && IsShardable(cmds[run_end].type)) ++run_end;
    ExecuteShardedRun(cmds + i, run_end - i, segments, &used, pure_get);
    i = run_end;
  }
  // Slots beyond `used` were Reset by the caller and flush as zero bytes.
  return true;
}

void CacheAdapter::ReleaseBurstPins() {
  // Unlock every pinned batch before destroying any: a destructor may fire
  // Rebalance(), which takes all shard locks.
  for (ShardedCacheServer::ShardBatch& batch : t_burst_pins) batch.Unlock();
  t_burst_pins.clear();
}

CacheAdapter::Counters CacheAdapter::counters() const {
  Counters c;
  c.cmd_get = cmd_get_.load(std::memory_order_relaxed);
  c.get_hits = get_hits_.load(std::memory_order_relaxed);
  c.get_misses = get_misses_.load(std::memory_order_relaxed);
  c.get_expired = get_expired_.load(std::memory_order_relaxed);
  c.cmd_set = cmd_set_.load(std::memory_order_relaxed);
  c.store_rejected = store_rejected_.load(std::memory_order_relaxed);
  c.cas_hits = cas_hits_.load(std::memory_order_relaxed);
  c.cas_misses = cas_misses_.load(std::memory_order_relaxed);
  c.cas_badval = cas_badval_.load(std::memory_order_relaxed);
  c.incr_hits = incr_hits_.load(std::memory_order_relaxed);
  c.incr_misses = incr_misses_.load(std::memory_order_relaxed);
  c.decr_hits = decr_hits_.load(std::memory_order_relaxed);
  c.decr_misses = decr_misses_.load(std::memory_order_relaxed);
  c.cmd_touch = cmd_touch_.load(std::memory_order_relaxed);
  c.touch_hits = touch_hits_.load(std::memory_order_relaxed);
  c.touch_misses = touch_misses_.load(std::memory_order_relaxed);
  c.cmd_flush = cmd_flush_.load(std::memory_order_relaxed);
  c.cmd_delete = cmd_delete_.load(std::memory_order_relaxed);
  c.delete_hits = delete_hits_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  // Live value bytes come from the arenas themselves — the accounting is
  // the storage, so it cannot drift.
  c.bytes_stored = server_->MergedValueStats().value_bytes;
  c.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  c.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace net
}  // namespace cliffhanger
