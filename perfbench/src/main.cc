// perfbench_e2e: the end-to-end protected-session benchmark.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --digests <digests.json> [--spans-out <file.tsv>]
//                 [--corrupt-digest] [--force-wrong-verdict] [--record-digest]
//
// A run sets up the server state several times (setup_s is the median of
// the fastest quarter) and serves sessions in a closed loop for --seconds.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// phases with phases of the traced decomposition and prints the per-layer
// metrics. Every run
// checks each verdict, replays the recorded digest set, and checks that the
// traced decomposition reproduces the real session's report. The last
// stdout line is one JSON object; the exit code is 0 only when every check
// passed.
//
// --corrupt-digest and --force-wrong-verdict break the expected digest or
// the first session's expected verdict; the self-test uses them to show
// that each makes the run fail. --record-digest prints the replay set's
// digest instead of checking it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/session.h"
#include "perfbench/src/trace.h"
#include "src/analysis/plan_analyzer.h"

namespace perfbench {
namespace {

namespace api = bunshin::api;
using bunshin::StatusOr;

// Set-ups per run. setup_s is the median of the quietest (fastest) quarter
// of them, for the reason the slices below give. Set-ups made inside the
// loop come one every kSetupEverySlices slices (SetUpInLoop).
constexpr size_t kSetupReps = 64;
constexpr size_t kSetupEverySlices = 3;
// Sessions whose reports the drift check replays through the traced
// decomposition in a --trace 0 run.
constexpr uint64_t kDriftSessions = 16;
// virtual_overhead_pct averages over the first this many sessions, and
// peak_rss_mb is read when that many have completed: a fixed amount of work
// per seed, so a pure speed change moves neither. (Read at the end of the
// window, RSS would follow throughput wherever memory grows per session.)
constexpr uint64_t kFixedWorkSessions = 1000;
// The untraced window is cut into consecutive slices of at least this many
// seconds, each ending at a session's completion. Throughput, median latency
// and CPU per session are reported over the quietest kQuietShare of them (the
// slices with the highest completion rate, pooled): on a shared host,
// co-tenants only ever slow a slice down, in spells of tenths of a second to
// many seconds that each vCPU sees on its own, so the quietest slices are the
// steadiest estimate of what the code itself costs. A synchronous client's
// process moves between windows of vCPUs at slice boundaries (MoveOn); the
// async loop, which keeps every vCPU busy and is not moved, cuts finer slices
// to catch the moments when all of them are quiet.
constexpr double kSliceSeconds = 0.05;
constexpr double kAsyncSliceSeconds = 0.01;
// A moved process stays in its window while each slice there completes at
// least kStayShare of the quietest slice's rate, for at most kMaxStaySlices.
constexpr double kStayShare = 0.9;
constexpr int kMaxStaySlices = 8;
constexpr double kQuietShare = 0.03;
// Sessions in the recorded-digest replay set.
constexpr uint64_t kGoldenSessions = 32;
// The layer spans must account for at least this share of the traced
// sessions' wall time; the rest is the decomposition's own glue.
constexpr double kMinSelfTimeCoverage = 0.95;
// A --trace 1 run alternates untraced and traced phases of this length.
constexpr double kTracePhaseSeconds = 0.5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests;
  std::string spans_out;
  bool corrupt_digest = false;
  bool force_wrong_verdict = false;
  bool record_digest = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (arg != name || i + 1 >= argc) {
        return nullptr;
      }
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      options->workload = v;
    } else if (const char* v = value("--seed")) {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      options->seconds = std::atof(v);
    } else if (const char* v = value("--trace")) {
      options->trace = std::string(v) == "1";
    } else if (const char* v = value("--digests")) {
      options->digests = v;
    } else if (const char* v = value("--spans-out")) {
      options->spans_out = v;
    } else if (arg == "--corrupt-digest") {
      options->corrupt_digest = true;
    } else if (arg == "--force-wrong-verdict") {
      options->force_wrong_verdict = true;
    } else if (arg == "--record-digest") {
      options->record_digest = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0 &&
         (options->record_digest || !options->digests.empty());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// The highest percentile with at least ten samples beyond it, capped at p99.
double TailLatency(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double p = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  const size_t rank = static_cast<size_t>(std::ceil(p * n)) - 1;
  return values[std::min(rank, values.size() - 1)];
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Reads `"<workload>": "<hex>"` from the recorded digest file.
bool ReadRecordedDigest(const std::string& path, const std::string& workload, uint64_t* out) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  const std::string needle = "\"" + workload + "\"";
  size_t at = body.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  at = body.find('"', body.find(':', at + needle.size()));
  if (at == std::string::npos) {
    return false;
  }
  *out = std::strtoull(body.c_str() + at + 1, nullptr, 16);
  return true;
}

// Counters read from outside the program: cache and pool stats, executor
// stats, the counting sockets, and the process's fd and thread counts.
struct Observed {
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t pool_hits = 0, pool_misses = 0;  // the session pool and the executors' pools
  uint64_t exec_requests = 0, exec_plan_hits = 0;
  uint64_t dials = 0, bytes_sent = 0, bytes_recv = 0;
  long fds = 0, threads = 0;
  long minor_faults = 0;

  static Observed Read(const ServerState& s) {
    Observed o;
    o.fds = OpenFdCount();
    o.threads = ThreadCount();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    o.minor_faults = usage.ru_minflt;
    o.cache_hits = s.plan_cache->stats().hits;
    o.cache_misses = s.plan_cache->stats().misses;
    o.pool_hits = s.engine_pool->stats().hits;
    o.pool_misses = s.engine_pool->stats().misses;
    for (const auto& executor : s.executors) {
      o.exec_requests += executor->stats().requests;
      o.exec_plan_hits += executor->stats().plan_cache_hits;
      o.pool_hits += executor->occupancy().engine_pool_hits;
      o.pool_misses += executor->occupancy().engine_pool_misses;
    }
    if (s.socket_counters != nullptr) {
      o.dials = s.socket_counters->dials.load();
      o.bytes_sent = s.socket_counters->bytes_sent.load();
      o.bytes_recv = s.socket_counters->bytes_recv.load();
    }
    return o;
  }

  // Adds `after - before` to this total.
  void AddDelta(const Observed& before, const Observed& after) {
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    pool_hits += after.pool_hits - before.pool_hits;
    pool_misses += after.pool_misses - before.pool_misses;
    exec_requests += after.exec_requests - before.exec_requests;
    exec_plan_hits += after.exec_plan_hits - before.exec_plan_hits;
    dials += after.dials - before.dials;
    bytes_sent += after.bytes_sent - before.bytes_sent;
    bytes_recv += after.bytes_recv - before.bytes_recv;
    fds += after.fds - before.fds;
    threads += after.threads - before.threads;
    minor_faults += after.minor_faults - before.minor_faults;
  }
};

// Everything one run learns, filled phase by phase.
struct RunState {
  const Workload* workload = nullptr;
  Options options;
  std::unique_ptr<ServerState> server;

  // Untraced closed loop.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<uint64_t> hashes;  // by session index
  std::map<uint64_t, api::RunReport> drift_reports;  // index < kDriftSessions
  std::vector<double> overhead_pct;                   // index < kFixedWorkSessions
  double peak_rss_mb = 0.0;  // after kFixedWorkSessions sessions; 0 until then
  // Slice boundaries: wall clock, process CPU, and sessions recorded so far.
  struct SliceMark {
    int64_t ns;
    int64_t cpu_ns;
    size_t sessions;
    uint64_t completed;  // without error or wrong verdict
  };
  std::vector<SliceMark> marks;
  int64_t next_mark_ns = 0;
  int64_t slice_ns = 0;
  CpuRotor* rotor = nullptr;  // moves a synchronous client's process between slices
  double best_rate = 0.0;     // the quietest slice's rate so far, per ns
  int stayed = 0;             // slices the process has stayed in its window
  std::vector<std::string> problems;  // first few failure reasons

  uint64_t next_index = 0;  // the next request's index, across all phases
  Observed observed;        // counter deltas summed over the untraced phases

  // Set-up.
  std::vector<double> setup_s;
  std::vector<double> plan_cold_us;

  // Checks.
  bool setup_ok = true;  // every set-up inside the loop succeeded
  bool digest_ok = true;
  bool drift_ok = true;
  uint64_t drift_checked = 0;

  Request MakeRequest(uint64_t index) const {
    return perfbench::MakeRequest(*workload, options.seed, index);
  }

  // The verdict a session is checked against: the request's own, except
  // that --force-wrong-verdict expects the wrong one for session 0.
  Expectation Expected(const Request& request) const {
    Expectation expect = request.expect;
    if (options.force_wrong_verdict && request.index == 0) {
      expect.outcome = expect.outcome == api::NvxOutcome::kOk ? api::NvxOutcome::kDiverged
                                                              : api::NvxOutcome::kOk;
    }
    return expect;
  }

  void Problem(const std::string& what) {
    if (problems.size() < 8) {
      problems.push_back(what);
    }
  }

  // Closes the current slice at `now` and starts the next one.
  void Mark(int64_t now) {
    if (rotor != nullptr && MoveOn(now)) {
      rotor->Next();
      now = NowNs();
    }
    Restart(now);
  }

  // Starts the next slice at `now`, without closing one: what ran since the
  // last mark belongs to no slice.
  void Restart(int64_t now) {
    marks.push_back({now, ProcessCpuNs(), latency_ms.size(), attempted - failed});
    next_mark_ns = now + slice_ns;
  }

  // Whether a moved process leaves its window at `now`: always at the start,
  // and after a slice clearly slower than the quietest one so far or after
  // kMaxStaySlices in one window. So a quiet window is used for as long as
  // it stays quiet, and every window is still visited.
  bool MoveOn(int64_t now) {
    if (marks.empty()) {
      best_rate = 0.0;
      stayed = 0;
      return true;
    }
    const SliceMark& from = marks.back();
    const double rate = static_cast<double>(attempted - failed - from.completed) /
                        static_cast<double>(std::max<int64_t>(now - from.ns, 1));
    best_rate = std::max(best_rate, rate);
    if (rate < kStayShare * best_rate || ++stayed >= kMaxStaySlices) {
      stayed = 0;
      return true;
    }
    return false;
  }

  // Accounts one completed (or failed) session of the untraced loop.
  void Record(const Request& request, const StatusOr<api::RunReport>& report, double ms) {
    ++attempted;
    latency_ms.push_back(ms);
    if (hashes.size() <= request.index) {
      hashes.resize(request.index + 1, 0);
    }
    const std::string verdict =
        report.ok() ? CheckVerdict(*report, Expected(request)) : report.status().ToString();
    if (!verdict.empty()) {
      ++failed;
      Problem("session " + std::to_string(request.index) + ": " + verdict);
    }
    if (report.ok()) {
      hashes[request.index] = ReportHash(*report);
      if (request.index < kDriftSessions) {
        drift_reports.emplace(request.index, *report);
      }
      StatusOr<double> overhead = report->Overhead();
      if (request.index < kFixedWorkSessions && overhead.ok()) {
        overhead_pct.push_back(100.0 * *overhead);
      }
    }
    if (latency_ms.size() == kFixedWorkSessions) {
      peak_rss_mb = PeakRssMb();
    }
    const int64_t now = NowNs();
    if (now >= next_mark_ns) {
      Mark(now);
    }
  }
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// The vCPUs a synchronous session keeps busy at once: the client's, or one
// per executor it dispatches its shard groups to. The async loop keeps every
// vCPU busy and is not moved (0).
size_t RotorWidth(const Workload& w) {
  if (w.in_flight > 1) {
    return 0;
  }
  return w.kind == WorkloadKind::kRemoteTcp ? 2 : 1;
}

// One set-up: fresh server state, a cold PlanVariants() (the analyzer runs
// inside it), and one warm-up session; the clock covers all three. Records
// setup_s and analysis.plan_cold_us and returns the state, or null after
// recording the problem. With a rotor, the server's threads start with the
// process's own affinity and the rest runs in the rotor's next window.
std::unique_ptr<ServerState> SetUpOnce(RunState* run, uint64_t rep, CpuRotor* rotor) {
  const Workload& w = *run->workload;
  if (rotor != nullptr) {
    rotor->Release();
  }
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<ServerState>> server = StartServer(w);
  if (!server.ok()) {
    run->Problem("server start: " + server.status().ToString());
    return nullptr;
  }
  if (rotor != nullptr) {
    rotor->Next();
  }
  StatusOr<api::VariantPlan> plan = SessionBuilder(w, **server, Request{}).PlanVariants();
  if (!plan.ok()) {
    run->Problem("cold plan: " + plan.status().ToString());
    return nullptr;
  }
  const Request warm = perfbench::MakeRequest(w, ~run->options.seed, rep);
  StatusOr<api::RunReport> report = RealSession(w, **server, warm);
  if (!report.ok() || !CheckVerdict(*report, warm.expect).empty()) {
    run->Problem("warm-up session failed");
    return nullptr;
  }
  run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

  const int64_t a0 = NowNs();
  bunshin::analysis::AnalysisReport cold = bunshin::analysis::AnalyzePlan(*plan);
  run->plan_cold_us.push_back(Us(NowNs() - a0));
  if (!cold.ok()) {
    run->Problem("cold plan analysis reported errors");
    return nullptr;
  }
  return std::move(*server);
}

// Whether the set-ups go inside the measured loop: for a synchronous
// workload whose server starts no threads, so that setup_s can take quiet
// moments from the whole run as the slices do. A server with threads (the
// async pool, the executors) is set up before the loop, so that the loop
// never starts or stops threads.
bool SetUpInLoop(const Workload& w) { return RotorWidth(w) == 1; }

// The set-ups before the measured loop, keeping the last state for it: one
// when the rest go inside the loop (ServeUntraced), else all of them.
bool SetUp(RunState* run) {
  const Workload& w = *run->workload;
  CpuRotor rotor(RotorWidth(w));
  const size_t reps = SetUpInLoop(w) ? 1 : kSetupReps;
  for (size_t rep = 0; rep < reps; ++rep) {
    run->server.reset();
    run->server = SetUpOnce(run, rep, &rotor);
    if (run->server == nullptr) {
      return false;
    }
  }
  return true;
}

// The untraced closed loop: one synchronous client, or one generator thread
// keeping `in_flight` async sessions outstanding on the shared pool.
void ServeUntraced(RunState* run, double seconds) {
  const Workload& w = *run->workload;
  ServerState& server = *run->server;
  const Observed before = Observed::Read(server);
  // A synchronous client's process moves between windows of vCPUs.
  CpuRotor rotor(RotorWidth(w));
  run->rotor = RotorWidth(w) > 0 ? &rotor : nullptr;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  run->marks.clear();
  const double slice_seconds = run->rotor != nullptr ? kSliceSeconds : kAsyncSliceSeconds;
  run->marks.reserve(static_cast<size_t>(seconds / slice_seconds) + 2);
  run->slice_ns = static_cast<int64_t>(slice_seconds * 1e9);
  run->Mark(start);
  uint64_t& next = run->next_index;

  if (server.pool == nullptr) {
    while (NowNs() < deadline) {
      const Request request = run->MakeRequest(next++);
      const api::NvxBuilder builder = SessionBuilder(w, server, request);
      const int64_t t0 = NowNs();
      StatusOr<api::NvxSession> session = builder.Build();
      StatusOr<api::RunReport> report = session.ok() ? session->Run(SeededRequest(request.seed))
                                                     : StatusOr<api::RunReport>(session.status());
      const size_t slices = run->marks.size();
      run->Record(request, report, Ms(NowNs() - t0));
      if (SetUpInLoop(w) && run->marks.size() != slices &&
          run->marks.size() % kSetupEverySlices == 0 && run->setup_s.size() < kSetupReps) {
        // A throwaway set-up between slices, in the current window; its time
        // is left out of every slice.
        run->setup_ok = run->setup_ok && SetUpOnce(run, run->setup_s.size(), nullptr) != nullptr;
        run->Restart(NowNs());
      }
    }
  } else {
    struct InFlight {
      api::AsyncNvxSession session;
      Request request;
      int64_t start_ns;
    };
    std::unordered_map<uint64_t, InFlight> in_flight;
    for (;;) {
      while (in_flight.size() < w.in_flight && NowNs() < deadline) {
        const Request request = run->MakeRequest(next++);
        const api::NvxBuilder builder = SessionBuilder(w, server, request);
        const int64_t t0 = NowNs();
        StatusOr<api::AsyncNvxSession> session = builder.BuildAsync(server.pool);
        if (!session.ok()) {
          run->Record(request, session.status(), Ms(NowNs() - t0));
          continue;
        }
        session->Submit(SeededRequest(request.seed), server.completions.get(), request.index);
        in_flight.emplace(request.index, InFlight{std::move(*session), request, t0});
      }
      if (in_flight.empty()) {
        break;
      }
      api::CompletionEvent event = server.completions->Wait();
      const int64_t done = NowNs();
      auto it = in_flight.find(event.token);
      run->Record(it->second.request, event.report, Ms(done - it->second.start_ns));
      in_flight.erase(it);
    }
  }
  run->rotor = nullptr;
  run->Mark(NowNs());
  run->observed.AddDelta(before, Observed::Read(server));
}

// The traced loop: each session decomposed into layer calls, then the real
// session for the same request (untimed) to check the decomposition.
void ServeTraced(RunState* run, double seconds, Tracer* tracer, TracedCounters* counters) {
  const Workload& w = *run->workload;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  SetAllocCounting(true);
  while (NowNs() < deadline) {
    const Request request = run->MakeRequest(run->next_index++);
    StatusOr<api::RunReport> traced = TracedSession(w, *run->server, request, tracer, counters);
    SetAllocCounting(false);
    StatusOr<api::RunReport> real = RealSession(w, *run->server, request);
    SetAllocCounting(true);
    ++run->attempted;
    ++run->drift_checked;
    if (!traced.ok() || !real.ok() || !CheckVerdict(*real, run->Expected(request)).empty()) {
      ++run->failed;
      run->Problem("traced session " + std::to_string(request.index) + " failed");
      continue;
    }
    const std::string diff = CompareReports(*real, *traced);
    if (!diff.empty()) {
      run->drift_ok = false;
      run->Problem("drift: session " + std::to_string(request.index) + " differs in " + diff);
    }
  }
  SetAllocCounting(false);
}

// Replays the stored reports' seeds through the traced decomposition (and,
// for remote_tcp, through in-process Shards(2)); every simulated field must
// match the real session's report.
void CheckDrift(RunState* run, Tracer* tracer, TracedCounters* counters) {
  const Workload& w = *run->workload;
  for (const auto& [index, real] : run->drift_reports) {
    const Request request = run->MakeRequest(index);
    StatusOr<api::RunReport> traced = TracedSession(w, *run->server, request, tracer, counters);
    ++run->drift_checked;
    const std::string diff = traced.ok() ? CompareReports(real, *traced) : "status";
    if (!diff.empty()) {
      run->drift_ok = false;
      run->Problem("drift: session " + std::to_string(index) + " traced report differs in " +
                   diff);
    }
    if (w.kind == WorkloadKind::kRemoteTcp) {
      StatusOr<api::NvxSession> local =
          InProcessShardsBuilder(w, *run->server, request).Build();
      StatusOr<api::RunReport> replay = local.ok() ? local->Run(SeededRequest(request.seed))
                                                   : StatusOr<api::RunReport>(local.status());
      const std::string local_diff = replay.ok() ? CompareReports(real, *replay) : "status";
      if (!local_diff.empty()) {
        run->drift_ok = false;
        run->Problem("remote session " + std::to_string(index) +
                     " differs from its in-process Shards(2) replay in " + local_diff);
      }
    }
  }
}

// The recorded-digest replay: fixed seeds through real sessions (and, for
// remote_tcp, through in-process Shards(2) too), folded into one digest
// that must equal the one recorded beside the benchmark.
void CheckGoldenDigest(RunState* run) {
  const Workload& w = *run->workload;
  std::vector<uint64_t> hashes;
  std::vector<uint64_t> local_hashes;
  for (uint64_t i = 0; i < kGoldenSessions; ++i) {
    const Request request = GoldenRequest(w, i);
    StatusOr<api::RunReport> report = RealSession(w, *run->server, request);
    hashes.push_back(report.ok() ? ReportHash(*report) : 0);
    if (w.kind == WorkloadKind::kRemoteTcp) {
      StatusOr<api::NvxSession> local =
          InProcessShardsBuilder(w, *run->server, request).Build();
      StatusOr<api::RunReport> replay = local.ok() ? local->Run(SeededRequest(request.seed))
                                                   : StatusOr<api::RunReport>(local.status());
      local_hashes.push_back(replay.ok() ? ReportHash(*replay) : 0);
    }
  }
  const uint64_t digest = FoldDigest(hashes);
  if (run->options.record_digest) {
    std::printf("golden_digest %s %s\n", w.name, Hex(digest).c_str());
    return;
  }
  uint64_t expected = 0;
  if (!ReadRecordedDigest(run->options.digests, w.name, &expected)) {
    run->digest_ok = false;
    run->Problem("no recorded digest for " + std::string(w.name) + " in " +
                 run->options.digests);
    return;
  }
  if (run->options.corrupt_digest) {
    expected ^= 1;
  }
  std::printf("check golden_digest %s expected %s\n", Hex(digest).c_str(),
              Hex(expected).c_str());
  if (digest != expected) {
    run->digest_ok = false;
    run->Problem("replay digest " + Hex(digest) + " != recorded " + Hex(expected));
  }
  if (!local_hashes.empty() && FoldDigest(local_hashes) != digest) {
    run->digest_ok = false;
    run->Problem("remote digest differs from the in-process Shards(2) replay digest");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const RunState& run, bool correct, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : run.problems) {
    std::printf("problem %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// The median of the fastest quarter of the set-ups.
double QuietSetup(std::vector<double> setup_s) {
  std::sort(setup_s.begin(), setup_s.end());
  setup_s.resize(std::max<size_t>(1, setup_s.size() / 4));
  return Median(setup_s);
}

std::vector<Metric> EndToEndMetrics(const RunState& run) {
  // The quietest slices: the highest completion rates, pooled.
  std::vector<std::pair<double, size_t>> by_rate;  // (rate, index of the slice's first mark)
  for (size_t i = 0; i + 1 < run.marks.size(); ++i) {
    const RunState::SliceMark& from = run.marks[i];
    const RunState::SliceMark& to = run.marks[i + 1];
    if (to.sessions > from.sessions && to.ns > from.ns) {
      by_rate.emplace_back(static_cast<double>(to.completed - from.completed) /
                               (static_cast<double>(to.ns - from.ns) / 1e9),
                           i);
    }
  }
  std::sort(by_rate.begin(), by_rate.end(), std::greater<>());
  const size_t quiet = std::max<size_t>(
      1, static_cast<size_t>(std::lround(kQuietShare * static_cast<double>(by_rate.size()))));
  by_rate.resize(std::min(quiet, by_rate.size()));
  int64_t quiet_ns = 0, quiet_cpu_ns = 0;
  uint64_t quiet_completed = 0;
  std::vector<double> quiet_latency_ms;
  for (const auto& [slice_rate, i] : by_rate) {
    const RunState::SliceMark& from = run.marks[i];
    const RunState::SliceMark& to = run.marks[i + 1];
    quiet_ns += to.ns - from.ns;
    quiet_cpu_ns += to.cpu_ns - from.cpu_ns;
    quiet_completed += to.completed - from.completed;
    quiet_latency_ms.insert(quiet_latency_ms.end(), run.latency_ms.begin() + from.sessions,
                            run.latency_ms.begin() + to.sessions);
  }
  const double rate =
      Ratio(static_cast<double>(quiet_completed), static_cast<double>(quiet_ns) / 1e9);
  const double p50 = Median(quiet_latency_ms);
  const double cpu = Ratio(Ms(quiet_cpu_ns), static_cast<double>(quiet_latency_ms.size()));
  double overhead = 0.0;
  for (double v : run.overhead_pct) {
    overhead += v;
  }
  overhead /= static_cast<double>(std::max<size_t>(run.overhead_pct.size(), 1));
  return {
      {"sessions_per_s", rate, "1/s"},
      {"session_p50_ms", p50, "ms"},
      {"cpu_ms_per_session", cpu, "ms"},
      {"setup_s", QuietSetup(run.setup_s), "s"},
      {"peak_rss_mb", run.peak_rss_mb > 0.0 ? run.peak_rss_mb : PeakRssMb(), "MB"},
      {"virtual_overhead_pct", overhead, "%"},
  };
}

// Per-layer metrics: layer times are medians over traced sessions of each
// session's summed self time; counts are per traced session; hit rates,
// bytes, dials and fd/thread deltas come from the untraced half.
std::vector<Metric> LayerMetrics(const RunState& run, const std::vector<SessionBreakdown>& traced,
                                 const TracedCounters& counters, double traced_p50_ms,
                                 double service_p50_ms, double coverage) {
  const double n = static_cast<double>(std::max<size_t>(traced.size(), 1));
  const double untraced = static_cast<double>(std::max<size_t>(run.latency_ms.size(), 1));
  auto self_us = [&](std::initializer_list<Layer> layers) {
    std::vector<double> per_session;
    for (const SessionBreakdown& s : traced) {
      int64_t ns = 0;
      for (Layer l : layers) {
        ns += s.self_ns[static_cast<size_t>(l)];
      }
      per_session.push_back(Us(ns));
    }
    return Median(per_session);
  };
  auto allocs = [&](std::initializer_list<Layer> layers) {
    uint64_t total = 0;
    for (const SessionBreakdown& s : traced) {
      for (Layer l : layers) {
        total += s.allocs[static_cast<size_t>(l)];
      }
    }
    return static_cast<double>(total) / n;
  };
  auto calls = [&](Layer layer) {
    uint64_t total = 0;
    for (const SessionBreakdown& s : traced) {
      total += s.calls[static_cast<size_t>(layer)];
    }
    return static_cast<double>(total) / n;
  };
  std::vector<double> build_us;
  int64_t nxe_ns = 0;
  for (const SessionBreakdown& s : traced) {
    build_us.push_back(Us(s.total_ns[static_cast<size_t>(Layer::kBuild)]));
    nxe_ns += s.self_ns[static_cast<size_t>(Layer::kBaseline)] +
              s.self_ns[static_cast<size_t>(Layer::kEngine)];
  }
  const double events = static_cast<double>(counters.engine_events + counters.baseline_events);
  const Observed& o = run.observed;
  const double untraced_p50_ms = Median(run.latency_ms);
  return {
      {"workload.trace_build_us", self_us({Layer::kTraceBuild, Layer::kBaselineTrace}), "us"},
      {"workload.actions_per_session", static_cast<double>(counters.actions_built) / n, "count"},
      {"workload.allocs_per_session", allocs({Layer::kTraceBuild, Layer::kBaselineTrace}),
       "count"},
      {"analysis.analyze_us", self_us({Layer::kAnalyze}), "us"},
      {"analysis.calls_per_session", calls(Layer::kAnalyze), "count"},
      {"analysis.plan_cold_us", Median(run.plan_cold_us), "us"},
      {"nxe.baseline_us", self_us({Layer::kBaseline}), "us"},
      {"nxe.engine_us", self_us({Layer::kEngine}), "us"},
      {"nxe.events_per_session", events / n, "count"},
      {"nxe.ns_per_event", Ratio(static_cast<double>(nxe_ns), events), "ns"},
      {"nxe.allocs_per_session",
       allocs({Layer::kEnginePool, Layer::kBaseline, Layer::kEngine}), "count"},
      {"nxe.engine_pool_hit_rate",
       Ratio(static_cast<double>(o.pool_hits), static_cast<double>(o.pool_hits + o.pool_misses)),
       "ratio"},
      {"api.build_us", Median(build_us), "us"},
      {"api.plan_cache_hit_rate",
       Ratio(static_cast<double>(o.cache_hits),
             static_cast<double>(o.cache_hits + o.cache_misses)),
       "ratio"},
      {"api.merge_us", self_us({Layer::kMerge}), "us"},
      {"api.queue_wait_us", 1e3 * (untraced_p50_ms - service_p50_ms), "us"},
      {"net.encode_us", self_us({Layer::kEncode}), "us"},
      {"net.decode_us", self_us({Layer::kDecode}), "us"},
      {"net.rtt_us", self_us({Layer::kRtt}), "us"},
      {"net.bytes_sent_per_session", static_cast<double>(o.bytes_sent) / untraced, "B"},
      {"net.bytes_recv_per_session", static_cast<double>(o.bytes_recv) / untraced, "B"},
      {"net.dials_per_session", static_cast<double>(o.dials) / untraced, "count"},
      {"net.open_fds_delta", static_cast<double>(o.fds), "count"},
      {"net.threads_delta", static_cast<double>(o.threads), "count"},
      {"net.executor_plan_cache_hit_rate",
       Ratio(static_cast<double>(o.exec_plan_hits), static_cast<double>(o.exec_requests)),
       "ratio"},
      {"process.minor_faults_per_session", static_cast<double>(o.minor_faults) / untraced,
       "count"},
      {"trace.overhead_ms", traced_p50_ms - untraced_p50_ms, "ms"},
      {"trace.self_time_coverage", coverage, "ratio"},
  };
}

// One line per span name: median self time per session and calls per
// session, so the whole decomposition is readable, not just the metrics.
void PrintLayerTable(const std::vector<SessionBreakdown>& sessions) {
  for (size_t layer = 0; layer < static_cast<size_t>(Layer::kCount); ++layer) {
    std::vector<double> self_us;
    uint64_t calls = 0;
    for (const SessionBreakdown& s : sessions) {
      self_us.push_back(Us(s.self_ns[layer]));
      calls += s.calls[layer];
    }
    if (calls > 0) {
      std::printf("layer %-24s self_us_p50 %10.2f calls_per_session %.2f\n",
                  LayerName(static_cast<Layer>(layer)), Median(self_us),
                  static_cast<double>(calls) / static_cast<double>(sessions.size()));
    }
  }
}

// Median over traced sessions of the share of the session's wall time its
// layer spans account for (the root span's own self time is the rest).
double SelfTimeCoverage(const std::vector<SessionBreakdown>& sessions) {
  std::vector<double> shares;
  for (const SessionBreakdown& s : sessions) {
    const int64_t covered = s.wall_ns - s.self_ns[static_cast<size_t>(Layer::kSession)];
    shares.push_back(Ratio(static_cast<double>(covered), static_cast<double>(s.wall_ns)));
  }
  return Median(shares);
}

int Main(int argc, char** argv) {
  // Freed memory stays in the heap, as a long-running server would set up
  // its allocator: no trimming of the heap top, no mmap per large block. At
  // glibc's defaults every local_spec_n8 session hands ~1.5 MB back to the
  // kernel and faults it in again (~370 minor faults, a third of the
  // session's time), and what a fault costs on a shared VM host swings with
  // co-tenant load. process.minor_faults_per_session shows what churn is
  // left; perfbench/README.md has the numbers at the defaults.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  RunState run;
  if (!ParseOptions(argc, argv, &run.options)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--digests <file> [--spans-out <file>] [--corrupt-digest] "
                 "[--force-wrong-verdict] [--record-digest]\n");
    return 2;
  }
  run.workload = FindWorkload(run.options.workload);
  if (run.workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", run.options.workload.c_str());
    return 2;
  }
  const Workload& w = *run.workload;
  run.latency_ms.reserve(1 << 16);
  run.hashes.reserve(1 << 16);
  std::printf("workload %s seed %llu seconds %g trace %d nproc %u\n", w.name,
              static_cast<unsigned long long>(run.options.seed), run.options.seconds,
              run.options.trace ? 1 : 0, std::thread::hardware_concurrency());

  if (!SetUp(&run)) {
    for (const std::string& p : run.problems) {
      std::fprintf(stderr, "setup failed: %s\n", p.c_str());
    }
    return 1;
  }
  if (run.options.record_digest) {
    CheckGoldenDigest(&run);
    return 0;
  }

  Tracer tracer;
  TracedCounters counters;
  if (run.options.trace) {
    // Untraced and traced phases alternate, so slow drift in the host's
    // speed lands on both sides of the traced-vs-untraced comparison.
    tracer.Reserve(1 << 20);
    const int64_t end = NowNs() + static_cast<int64_t>(run.options.seconds * 1e9);
    while (NowNs() < end) {
      ServeUntraced(&run, kTracePhaseSeconds);
      ServeTraced(&run, kTracePhaseSeconds, &tracer, &counters);
    }
  } else {
    ServeUntraced(&run, run.options.seconds);
  }

  // Drift check on the untraced loop's first sessions, then the recorded
  // digest replay.
  Tracer drift_tracer;
  drift_tracer.Reserve(64 * kDriftSessions);
  TracedCounters drift_counters;
  CheckDrift(&run, &drift_tracer, &drift_counters);
  CheckGoldenDigest(&run);

  double coverage = SelfTimeCoverage(Breakdown(drift_tracer.spans()));
  std::vector<Metric> metrics;
  if (!run.options.trace) {
    metrics = EndToEndMetrics(run);
  } else {
    const std::vector<SessionBreakdown> sessions = Breakdown(tracer.spans());
    std::vector<double> wall_ms, service_ms;
    for (const SessionBreakdown& s : sessions) {
      wall_ms.push_back(Ms(s.wall_ns));
      service_ms.push_back(Ms(s.wall_ns - s.self_ns[static_cast<size_t>(Layer::kSession)]));
    }
    coverage = SelfTimeCoverage(sessions);
    PrintLayerTable(sessions);
    metrics = LayerMetrics(run, sessions, counters, Median(wall_ms), Median(service_ms), coverage);
    if (!run.options.spans_out.empty() && !tracer.WriteTsv(run.options.spans_out)) {
      run.Problem("could not write spans to " + run.options.spans_out);
    }
  }

  const bool coverage_ok = run.drift_checked == 0 || coverage >= kMinSelfTimeCoverage;
  if (!coverage_ok) {
    run.Problem("layer spans cover only " + std::to_string(coverage) +
                " of the traced wall time");
  }
  const double failed_frac =
      static_cast<double>(run.failed) / static_cast<double>(std::max<uint64_t>(run.attempted, 1));
  std::printf("check failed_frac %.6g ratio (%llu of %llu sessions)\n", failed_frac,
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  std::printf("check run_digest %s over %zu sessions\n", Hex(FoldDigest(run.hashes)).c_str(),
              run.hashes.size());
  std::printf("check drift %s (%llu sessions)\n", run.drift_ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(run.drift_checked));
  std::printf("check self_time_coverage %.4f (bound >= %.2f)\n", coverage, kMinSelfTimeCoverage);
  std::printf("check fds_delta %ld threads_delta %ld (untraced loop), peak RSS at exit %.1f MB\n",
              run.observed.fds, run.observed.threads, PeakRssMb());
  // The whole window's tail is printed, not bounded: on a shared host it
  // spreads far beyond any bound (perfbench/README.md).
  std::printf("check session_p99_ms %.4f ms, whole-window p50 %.4f ms, over %zu sessions\n",
              TailLatency(run.latency_ms), Median(run.latency_ms), run.latency_ms.size());
  const bool correct =
      run.failed == 0 && run.setup_ok && run.digest_ok && run.drift_ok && coverage_ok;
  PrintResult(run, correct, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
