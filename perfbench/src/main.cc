// perfbench: cliffhangerd's loopback benchmark.
//
//   perfbench --workload etc|multiget|cliff --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--corrupt-reply N]
//
// Builds the server in-process with cliffhangerd's defaults, fills it, and
// drives it from one open-loop generator thread over min(nproc, 4) loopback
// connections. --trace 0 reports the end-to-end metrics; --trace 1 is a
// separate run that records spans, measures the per-layer metrics and runs
// the layer ledger. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the line before it stamps
// the host and the run. Exits 1 when any reply fails verification or the
// ledger is inconsistent, 2 on bad usage or set-up failure, 3 when built
// without optimisation.
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "loadgen.h"
#include "setup.h"
#include "trace.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr uint8_t kSetupsPerRound = 2;
constexpr size_t kMaxConnections = 4;
// The fixed-rate phase is cut into kWindows windows. A latency metric is
// the first quartile over windows of each window's percentile, so stalls
// and slow host episodes that cover up to three quarters of the windows do
// not move it. SET percentiles pool windows first, so that each p99 has at
// least ten samples beyond it.
constexpr int kWindows = 44;
constexpr size_t kMinCleanWindows = 3;
constexpr size_t kMinSetSamples = 1000;
// Share of --seconds for each phase; at the benchmark's 40 s a window
// lasts 0.5 s and a ladder rung 1 s, cut into kRungWindows windows.
constexpr double kWarmShare = 0.0125;
constexpr double kFixedShare = 0.55;
constexpr double kRungShare = 0.025;
constexpr int kRungWindows = 4;
constexpr double kLadderShare = 0.4;
constexpr int kRungAttempts = 2;
constexpr int kMaxRungRuns = 4;
constexpr int kFailedRungsToStop = 2;
// Ledger sanity: a layer may read up to this share below the one beneath
// it (timing noise). The ledger's hot in-process adapter loop may not cost
// more than the traced socket path's adapter busy time per op (beyond the
// same noise share), nor less than this fraction of it: each socket burst
// runs cold after an epoll wakeup, so the live path costs 2-7x the hot
// loop, depending on the host, while an emptied loop or an op count off
// by a multiget's 16-32 keys lands below the floor.
constexpr double kLedgerNoise = 0.25;
constexpr double kAdapterColdFloor = 1.0 / 32;

struct Options {
  WorkloadKind kind = WorkloadKind::kEtc;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  uint64_t corrupt_after = UINT64_MAX;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &opt->kind)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt->seconds <= 0 || opt->seconds > 60) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (flag == "--spans") {
      opt->spans_path = value;
    } else if (flag == "--corrupt-reply") {
      opt->corrupt_after = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

// Restricts the calling thread, and the threads it spawns from now on, to
// cpus[first, last).
void PinThread(const std::vector<int>& cpus, size_t first, size_t last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = first; i < last; ++i) CPU_SET(cpus[i], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// A child process, forked before this one starts any thread, that times
// set-ups on request. Rounds of set-ups spread over the run sample the
// host's speed at several times, which on a shared VM drifts for seconds
// at a time. And what a torn-down server leaves in the heap never reaches
// this process, whose peak RSS thus holds the one server it measures.
class SetupTimer {
 public:
  explicit SetupTimer(const Options& opt) {
    int request[2];
    int reply[2];
    if (::pipe(request) != 0) return;
    if (::pipe(reply) != 0) {
      ::close(request[0]);
      ::close(request[1]);
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(request[1]);
      ::close(reply[0]);
      Serve(opt, request[0], reply[1]);
      _exit(0);
    }
    ::close(request[0]);
    ::close(reply[1]);
    if (pid_ < 0) {
      ::close(request[1]);
      ::close(reply[0]);
      return;
    }
    request_fd_ = request[1];
    reply_fd_ = reply[0];
  }

  // Closing the request pipe ends the child; waits for it.
  ~SetupTimer() {
    if (request_fd_ >= 0) ::close(request_fd_);
    if (reply_fd_ >= 0) ::close(reply_fd_);
    if (pid_ > 0) {
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }

  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

  // Times `count` set-ups in the child, appending their durations.
  bool Time(uint8_t count, std::vector<double>* out) {
    if (request_fd_ < 0 || ::write(request_fd_, &count, 1) != 1) return false;
    for (uint8_t i = 0; i < count; ++i) {
      double s = 0;
      if (!ReadFull(reply_fd_, &s, sizeof(s)) || s < 0) return false;
      out->push_back(s);
    }
    return true;
  }

 private:
  static bool ReadFull(int fd, void* buf, size_t len) {
    auto* p = static_cast<char*>(buf);
    while (len > 0) {
      const ssize_t n = ::read(fd, p, len);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      p += n;
      len -= static_cast<size_t>(n);
    }
    return true;
  }

  // The child: each request byte asks for that many set-ups, answered with
  // one duration each (negative on failure); end of file ends it.
  static void Serve(const Options& opt, int request_fd, int reply_fd) {
    SpanLog log;
    uint8_t count = 0;
    while (ReadFull(request_fd, &count, 1)) {
      for (uint8_t i = 0; i < count; ++i) {
        std::string error;
        const int64_t t0 = NowNs();
        auto server = StartServer(opt.kind, opt.seed,
                                  opt.trace ? &log : nullptr, &error);
        const double s =
            server ? static_cast<double>(NowNs() - t0) * 1e-9 : -1.0;
        server.reset();
        if (::write(reply_fd, &s, sizeof(s)) != sizeof(s)) return;
      }
    }
  }

  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

// Keeps the server's CPUs from going idle. On a shared VM an idle vCPU
// halts and gives up its physical CPU, and waking it for a request then
// waits on the hypervisor: on a busy host the halting server vCPUs lost
// 2.5-5x the time to steal that the spinning generator's vCPU did, and
// GET p50 followed the steal. One SCHED_IDLE thread per server CPU spins;
// the guest scheduler preempts it as soon as a server thread wakes there.
class CpuKeeper {
 public:
  CpuKeeper(const std::vector<int>& cpus, size_t first, size_t last) {
    for (size_t i = first; i < last; ++i) {
      threads_.emplace_back([this, cpu = cpus[i]] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~CpuKeeper() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  CpuKeeper(const CpuKeeper&) = delete;
  CpuKeeper& operator=(const CpuKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// CPU time the hypervisor gave to others while this VM's vCPUs were
// runnable ("steal"), summed over every CPU, in clock ticks.
uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string line;
  uint64_t total = 0;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') {
      continue;
    }
    std::istringstream fields(line.substr(line.find(' ')));
    uint64_t v[8] = {};
    for (uint64_t& f : v) fields >> f;
    total += v[7];
  }
  return total;
}

double Quantile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

// First quartile (nearest rank below).
double LowerQuartile(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t k = (v.size() - 1) / 4;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Tallies every phase of the run (warm-up and ladder included).
struct RunTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const PhaseStats& st) {
    attempted += st.attempted;
    failed += st.failed;
  }
};

// Ordered JSON object of numbers and pre-rendered values.
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string NumList(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

void Metric(Json* metrics, const std::string& name, double value,
            const char* unit) {
  Json m;
  m.Num("value", value);
  m.Str("unit", unit);
  metrics->Raw(name, m.str());
}

// The fixed-rate phase, reduced to the end-to-end statistics and what the
// traced run needs.
struct FixedPhase {
  std::vector<double> p50_untraced;  // per used window
  std::vector<double> p50_traced;
  std::vector<double> p99s;
  std::vector<double> set_p99s;  // per SET group
  uint64_t set_samples = 0;
  size_t clean_windows = 0;
  size_t used_windows = 0;
  uint64_t steal_ticks = 0;
  uint64_t get_keys = 0;
  uint64_t get_hits = 0;
  uint64_t backlog_max = 0;
  std::vector<float> late_us;
  // Traced windows only.
  std::vector<Span> client_spans;
  uint64_t traced_requests = 0;
  double traced_rtt_us = 0;
  uint64_t traced_bytes_written = 0;
};

// kWindows windows at `rate`. In a traced run odd windows record spans and
// even ones do not, for the tracing overhead.
FixedPhase MeasureFixedPhase(LoadGen* gen, Server* server, bool trace,
                             double rate, double seconds, RunTotals* totals) {
  struct Window {
    bool traced = false;
    uint64_t steal = 0;  // CPU time the hypervisor stole during it
    double p50 = 0;
    double p99 = 0;
    std::vector<float> set_us;
  };
  FixedPhase fp;
  std::vector<Window> windows;
  const uint64_t steal_start = StealTicks();
  for (int w = 0; w < kWindows; ++w) {
    Window win;
    win.traced = trace && w % 2 == 1;
    if (win.traced) {
      server->forwarder->set_recording(true);
      gen->set_span_buffer(&fp.client_spans);
    }
    const uint64_t written_before = server->adapter->counters().bytes_written;
    const uint64_t steal_before = StealTicks();
    PhaseStats st = gen->Run(rate, seconds / kWindows);
    win.steal = StealTicks() - steal_before;
    if (win.traced) {
      server->forwarder->set_recording(false);
      gen->set_span_buffer(nullptr);
      fp.traced_requests += st.completed;
      fp.traced_rtt_us += st.rtt_us_sum;
      fp.traced_bytes_written +=
          server->adapter->counters().bytes_written - written_before;
    }
    totals->Add(st);
    win.p50 = Quantile(st.get_us, 0.5);
    win.p99 = Quantile(st.get_us, 0.99);
    win.set_us = std::move(st.set_us);
    windows.push_back(std::move(win));
    fp.late_us.insert(fp.late_us.end(), st.late_us.begin(), st.late_us.end());
    fp.get_keys += st.get_keys;
    fp.get_hits += st.get_hits;
    fp.backlog_max = std::max(fp.backlog_max, st.backlog_max);
  }
  fp.steal_ticks = StealTicks() - steal_start;

  // Windows in which the hypervisor descheduled a vCPU measure the host,
  // not the server: they are set aside. When fewer than kMinCleanWindows
  // are clean, the half of the windows with the least steal counts.
  std::vector<const Window*> used;
  for (const Window& win : windows) {
    if (win.steal == 0) used.push_back(&win);
  }
  fp.clean_windows = used.size();
  if (used.size() < kMinCleanWindows) {
    std::vector<const Window*> by_steal;
    for (const Window& win : windows) by_steal.push_back(&win);
    std::stable_sort(by_steal.begin(), by_steal.end(),
                     [](const Window* a, const Window* b) {
                       return a->steal < b->steal;
                     });
    by_steal.resize(by_steal.size() / 2);
    // Back in time order, for the SET groups below.
    used.clear();
    for (const Window& win : windows) {
      if (std::find(by_steal.begin(), by_steal.end(), &win) !=
          by_steal.end()) {
        used.push_back(&win);
      }
    }
  }
  fp.used_windows = used.size();
  for (const Window* win : used) {
    (win->traced ? fp.p50_traced : fp.p50_untraced).push_back(win->p50);
    fp.p99s.push_back(win->p99);
  }
  // SET p99: consecutive used windows pooled until a group holds
  // kMinSetSamples SETs (a tail that falls short joins the last group).
  std::vector<std::vector<float>> groups(1);
  for (const Window* win : used) {
    if (groups.back().size() >= kMinSetSamples) groups.emplace_back();
    groups.back().insert(groups.back().end(), win->set_us.begin(),
                         win->set_us.end());
  }
  if (groups.size() > 1 && groups.back().size() < kMinSetSamples) {
    std::vector<float> tail = std::move(groups.back());
    groups.pop_back();
    groups.back().insert(groups.back().end(), tail.begin(), tail.end());
  }
  for (const std::vector<float>& g : groups) {
    fp.set_p99s.push_back(Quantile(g, 0.99));
    fp.set_samples += g.size();
  }
  return fp;
}

// Rate ladder: the achieved rate at the highest rung that meets the GET
// p99 limit with no growing backlog and no failure. Like the fixed-rate
// phase, a rung is cut into kRungWindows windows and windows the
// hypervisor stole CPU time in are set aside. An attempt passes when no
// request failed and at least half of its clean windows met the limit
// without a growing backlog; with fewer than two clean windows it decides
// nothing. A rung is attempted until one attempt passes, kRungAttempts
// attempts fail, or kMaxRungRuns attempts ran, so one stall or a slow host
// episode cannot end the climb. The climb ends after kFailedRungsToStop
// failed rungs in a row, or once the ladder has used its share of the run.
double ClimbLadder(LoadGen* gen, const LoadShape& shape, double seconds,
                   RunTotals* totals, std::vector<double>* rung_p99) {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(seconds * kLadderShare * 1e9);
  double max_rate_kops = 0;
  int failed_in_a_row = 0;
  for (const double kops : shape.ladder_kops) {
    if (failed_in_a_row == kFailedRungsToStop || NowNs() > deadline) break;
    bool passed = false;
    int failures = 0;
    for (int run = 0;
         run < kMaxRungRuns && !passed && failures < kRungAttempts; ++run) {
      std::vector<double> window_p99;
      uint64_t completed = 0;
      uint64_t failed = 0;
      double elapsed_s = 0;
      int clean = 0;
      int good = 0;
      for (int w = 0; w < kRungWindows; ++w) {
        const uint64_t steal_before = StealTicks();
        const PhaseStats st =
            gen->Run(kops * 1e3, seconds * kRungShare / kRungWindows);
        totals->Add(st);
        const double p99 = Quantile(st.get_us, 0.99);
        window_p99.push_back(p99);
        completed += st.completed;
        failed += st.failed;
        elapsed_s += st.elapsed_s;
        if (StealTicks() != steal_before) continue;
        ++clean;
        if (p99 <= shape.latency_limit_us && !st.backlog_growing) ++good;
      }
      rung_p99->push_back(Median(window_p99));
      if (failed == 0 && clean >= 2 && 2 * good >= clean) {
        passed = true;
        max_rate_kops = static_cast<double>(completed) / elapsed_s * 1e-3;
      } else if (failed > 0 || clean >= 2) {
        ++failures;
      }
    }
    failed_in_a_row = passed ? 0 : failed_in_a_row + 1;
  }
  return max_rate_kops;
}

// The traced run's per-layer metrics, the layer ledger and its checks.
// Stops the socket server (the ledger builds its own instances). Returns
// false when the ledger is inconsistent.
bool LayerMetrics(const Options& opt, Server* server,
                  const cliffhanger::ClassStats& core_before,
                  const FixedPhase& fp, SpanLog* log, Json* metrics,
                  Json* stamp) {
  cliffhanger::ShardedCacheServer& core = *server->core;
  const ForwardingHandler::Totals fwd = server->forwarder->totals();
  const auto core_after = core.TotalStats();
  const auto counters = server->adapter->counters();
  // Reservation moved by rebalancing since the server was built: the
  // distance from ShardedCacheServer's initial largest-remainder split.
  const size_t num_shards = core.num_shards();
  double moved = 0;
  for (const AppSpec& app : AppsFor(opt.kind)) {
    for (size_t s = 0; s < num_shards; ++s) {
      const uint64_t initial = app.reservation / num_shards +
                               (s < app.reservation % num_shards ? 1 : 0);
      moved += std::abs(
          static_cast<double>(core.AppShardReservation(app.app_id, s)) -
          static_cast<double>(initial));
    }
  }
  uint64_t max_shard_ops = 0;
  uint64_t sum_shard_ops = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const auto st = core.ShardStats(s);
    max_shard_ops = std::max(max_shard_ops, st.gets + st.sets);
    sum_shard_ops += st.gets + st.sets;
  }
  sum_shard_ops = std::max<uint64_t>(1, sum_shard_ops);
  const auto values = core.MergedValueStats();
  uint64_t resident = 0;
  for (const auto& [cls, use] : values.classes) resident += use.resident_bytes;
  const uint64_t sqes = server->socket->uring_submitted_sqes();
  const uint64_t submits = server->socket->uring_submit_calls();
  const double gets = static_cast<double>(core_after.gets - core_before.gets);
  const double key_ops = static_cast<double>(std::max<uint64_t>(1, fwd.key_ops));
  const double bursts = static_cast<double>(std::max<uint64_t>(1, fwd.bursts));
  const double busy_ns_per_op = static_cast<double>(fwd.busy_ns) / key_ops;
  const auto per_kget = [&](uint64_t after, uint64_t before) {
    return gets == 0 ? 0 : static_cast<double>(after - before) * 1e3 / gets;
  };

  server->socket->Stop();
  const size_t burst_frames = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(fwd.frames) / bursts + 0.5), 1,
      64);
  const LedgerResult ledger = RunLedger(opt.kind, opt.seed, burst_frames, log);

  Metric(metrics, "loadgen.late_p99_us", Quantile(fp.late_us, 0.99), "us");
  Metric(metrics, "loadgen.backlog_max", static_cast<double>(fp.backlog_max),
         "count");
  Metric(metrics, "socket.bursts_per_kop",
         static_cast<double>(fwd.bursts) * 1e3 / key_ops, "count");
  Metric(metrics, "socket.frames_per_burst",
         static_cast<double>(fwd.frames) / bursts, "count");
  Metric(metrics, "socket.self_us",
         (fp.traced_rtt_us - static_cast<double>(fwd.busy_ns) * 1e-3) /
             static_cast<double>(std::max<uint64_t>(1, fp.traced_requests)),
         "us");
  Metric(metrics, "socket.sqes_per_submit",
         submits == 0 ? 0 : static_cast<double>(sqes) / submits, "count");
  Metric(metrics, "parse.ns_per_cmd", ledger.parse_ns_per_cmd, "ns");
  Metric(metrics, "adapter.busy_ns_per_op", busy_ns_per_op, "ns");
  Metric(metrics, "adapter.ledger_ns_per_op", ledger.ns("adapter"), "ns");
  Metric(metrics, "adapter.zero_copy_frac",
         fp.traced_bytes_written == 0
             ? 0
             : static_cast<double>(fwd.borrowed_bytes) /
                   static_cast<double>(fp.traced_bytes_written),
         "ratio");
  Metric(metrics, "adapter.errors",
         static_cast<double>(counters.protocol_errors +
                             counters.store_rejected),
         "count");
  Metric(metrics, "sharded.ns_per_op_t1", ledger.ns("sharded_t1"), "ns");
  Metric(metrics, "sharded.ns_per_op_t2", ledger.sharded_t2_ns_per_op, "ns");
  Metric(metrics, "sharded.lock_wait_ns", ledger.lock_wait_ns, "ns");
  Metric(metrics, "sharded.rebalances_per_mop",
         static_cast<double>(core.rebalance_count()) * 1e6 /
             static_cast<double>(sum_shard_ops),
         "count");
  Metric(metrics, "sharded.shard_skew",
         static_cast<double>(max_shard_ops * num_shards) /
             static_cast<double>(sum_shard_ops),
         "ratio");
  Metric(metrics, "cache_server.ns_per_op", ledger.ns("cache_server"), "ns");
  Metric(metrics, "cache_server.hill_shadow_hits_per_kget",
         per_kget(core_after.hill_shadow_hits, core_before.hill_shadow_hits),
         "count");
  Metric(metrics, "cache_server.cliff_shadow_hits_per_kget",
         per_kget(core_after.cliff_shadow_hits, core_before.cliff_shadow_hits),
         "count");
  Metric(metrics, "cache_server.reservation_moved_frac",
         moved / static_cast<double>(core.TotalReservation()), "ratio");
  Metric(metrics, "cache_server.shadow_overhead_kib",
         ledger.shadow_overhead_kib, "KiB");
  Metric(metrics, "lru.ns_per_probe", ledger.ns("lru"), "ns");
  Metric(metrics, "value_store.resident_per_value_byte",
         values.value_bytes == 0 ? 0
                                 : static_cast<double>(resident) /
                                       static_cast<double>(values.value_bytes),
         "ratio");
  Metric(metrics, "value_store.tracked_keys",
         static_cast<double>(values.tracked_keys), "count");
  const double untraced_p50 = Median(fp.p50_untraced);
  Metric(metrics, "trace.overhead_frac",
         untraced_p50 == 0 ? 0 : Median(fp.p50_traced) / untraced_p50 - 1,
         "ratio");

  Json layers;
  for (size_t i = 0; i < ledger.chain.size(); ++i) {
    const LedgerLayer& l = ledger.chain[i];
    const double below =
        i + 1 < ledger.chain.size() ? ledger.chain[i + 1].ns_per_op : 0;
    layers.Raw(l.name, NumList({l.ns_per_op, l.ns_per_op - below}));
  }
  stamp->Raw("ledger_ns_per_op_and_delta", layers.str());
  stamp->Num("ledger_burst_frames", static_cast<double>(burst_frames));
  stamp->Num("ledger_key_ops", static_cast<double>(ledger.key_ops));
  std::string problem = CheckLedger(ledger, kLedgerNoise);
  const double ledger_over_busy = ledger.ns("adapter") / busy_ns_per_op;
  stamp->Num("adapter_ledger_over_busy", ledger_over_busy);
  if (problem.empty() && (ledger_over_busy > 1 + kLedgerNoise ||
                          ledger_over_busy < kAdapterColdFloor)) {
    problem = "ledger adapter ns/op disagrees with traced busy time";
  }
  if (problem.empty()) return true;
  std::fprintf(stderr, "perfbench: ledger check failed: %s\n",
               problem.c_str());
  stamp->Str("ledger_check", problem);
  return false;
}

int Run(const Options& opt) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  bool optimised = build_type == "Release";
#ifndef NDEBUG
  optimised = false;
#endif
  if (!optimised) {
    std::fprintf(stderr,
                 "perfbench: refusing to report metrics from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }

  const LoadShape shape = LoadShapeFor(opt.kind);
  const std::vector<int> cpus = AllowedCpus();
  const size_t nproc = std::max<size_t>(1, cpus.size());
  const size_t connections = std::min(nproc, kMaxConnections);

  SpanLog log;
  std::string error;
  // The server's threads inherit all allowed CPUs but the last; the
  // generator, which spins, then takes the last one alone, so it never
  // competes with a worker and thread placement is the same in every run.
  if (nproc > 1) PinThread(cpus, 0, nproc - 1);
  // The measured server's set-up, and kSetupsPerRound more in the child at
  // the start and, in untraced runs, after the fixed-rate phase and at the
  // end of the run. A child that died fails a write instead of killing
  // this process.
  std::signal(SIGPIPE, SIG_IGN);
  SetupTimer setup_timer(opt);
  std::vector<double> setup_s;
  const auto time_setups = [&] {
    if (setup_timer.Time(kSetupsPerRound, &setup_s)) return true;
    std::fprintf(stderr, "perfbench: set-up in the child process failed\n");
    return false;
  };
  if (!time_setups()) return 2;
  const int64_t t0 = NowNs();
  std::unique_ptr<Server> server = StartServer(
      opt.kind, opt.seed, opt.trace ? &log : nullptr, &error);
  if (!server) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 error.c_str());
    return 2;
  }
  setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);

  if (nproc > 1) PinThread(cpus, nproc - 1, nproc);
  const double fixed_rate = shape.fixed_kops * 1e3;
  const auto expected = static_cast<uint64_t>(fixed_rate * opt.seconds);
  Source source(opt.kind, opt.seed, expected);
  LoadGen gen(&source, shape.demand_fill);
  gen.CorruptReplyAfter(opt.corrupt_after);
  if (!gen.Connect(server->socket->port(), connections, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  // Server CPUs stay awake while load runs; stopped before the set-up
  // rounds and the ledger.
  auto keeper = std::make_unique<CpuKeeper>(cpus, 0, nproc - 1);
  RunTotals totals;
  totals.Add(gen.Run(fixed_rate, opt.seconds * kWarmShare));
  const auto core_before = server->core->TotalStats();
  const FixedPhase fp =
      MeasureFixedPhase(&gen, server.get(), opt.trace, fixed_rate,
                        opt.seconds * kFixedShare, &totals);
  // Memory high-water mark of set-up and the fixed-rate phase; the ladder
  // after it only grows the generator's own buffers.
  const double peak_rss_mib = PeakRssMib();
  keeper.reset();
  if (!opt.trace && !time_setups()) return 2;

  Json stamp;
  stamp.Str("workload", WorkloadName(opt.kind));
  stamp.Num("seed", static_cast<double>(opt.seed));
  stamp.Num("seconds", opt.seconds);
  stamp.Num("trace", opt.trace ? 1 : 0);
  stamp.Num("nproc", static_cast<double>(nproc));
  stamp.Num("hardware_concurrency",
            static_cast<double>(std::thread::hardware_concurrency()));
  stamp.Str("backend", BackendName(server->socket->effective_backend()));
  stamp.Str("build_type", build_type);
  stamp.Str("transport", "loopback_inprocess");
  stamp.Num("connections", static_cast<double>(connections));
  stamp.Num("fixed_rate_kops", shape.fixed_kops);
  stamp.Raw("rate_ladder_kops", NumList(shape.ladder_kops));
  stamp.Num("latency_limit_us", shape.latency_limit_us);
  stamp.Raw("window_get_p99_us", NumList(fp.p99s));
  stamp.Num("windows", kWindows);
  stamp.Num("windows_clean", static_cast<double>(fp.clean_windows));
  stamp.Num("windows_used", static_cast<double>(fp.used_windows));
  stamp.Num("steal_ticks", static_cast<double>(fp.steal_ticks));
  stamp.Num("get_keys_per_window",
            static_cast<double>(fp.get_keys) / kWindows);
  stamp.Num("set_samples_used", static_cast<double>(fp.set_samples));
  stamp.Num("set_groups", static_cast<double>(fp.set_p99s.size()));

  Json metrics;
  bool correct = true;
  if (!opt.trace) {
    std::vector<double> rung_p99;
    keeper = std::make_unique<CpuKeeper>(cpus, 0, nproc - 1);
    const double max_rate_kops =
        ClimbLadder(&gen, shape, opt.seconds, &totals, &rung_p99);
    keeper.reset();
    stamp.Raw("rung_get_p99_us", NumList(rung_p99));
    if (!time_setups()) return 2;
    // Tail latency and the rate ladder are reported with the stamp, not
    // gated: on a shared VM their run-to-run spread is wider than any
    // bound the gate could hold (see BENCHMARK.md).
    Json reported;
    Metric(&reported, "get_p99_us", LowerQuartile(fp.p99s), "us");
    Metric(&reported, "set_p99_us", LowerQuartile(fp.set_p99s), "us");
    Metric(&reported, "max_rate_kops", max_rate_kops, "kops");
    stamp.Raw("reported", reported.str());
    Metric(&metrics, "get_p50_us", LowerQuartile(fp.p50_untraced), "us");
    Metric(&metrics, "hit_rate",
           fp.get_keys == 0
               ? 0
               : static_cast<double>(fp.get_hits) / fp.get_keys,
           "ratio");
    Metric(&metrics, "peak_rss_mib", peak_rss_mib, "MiB");
    Metric(&metrics, "setup_s", Median(setup_s), "s");
  } else {
    // The ledger's two-thread pass needs two CPUs again.
    if (nproc > 1) PinThread(cpus, 0, nproc);
    correct = LayerMetrics(opt, server.get(), core_before, fp, &log,
                           &metrics, &stamp);
    if (!opt.spans_path.empty()) {
      std::vector<Span> spans = log.Drain();
      spans.insert(spans.end(), fp.client_spans.begin(),
                   fp.client_spans.end());
      if (!WriteSpans(std::move(spans), opt.spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spans_path.c_str());
        correct = false;
      }
    }
  }

  if (totals.failed > 0) correct = false;
  stamp.Raw("setup_s_each", NumList(setup_s));
  stamp.Num("failed_frac", static_cast<double>(totals.failed) /
                               static_cast<double>(totals.attempted));
  server.reset();

  Json stamp_line;
  stamp_line.Raw("stamp", stamp.str());
  std::printf("%s\n", stamp_line.str().c_str());
  Json result;
  result.Raw("correct", correct ? "true" : "false");
  result.Num("attempted", static_cast<double>(totals.attempted));
  result.Num("failed", static_cast<double>(totals.failed));
  result.Raw("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload etc|multiget|cliff --seed N "
                 "--seconds S --trace 0|1 [--spans FILE] "
                 "[--corrupt-reply N]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(opt);
}
