#include "perfbench/src/session.h"

#include <cstring>
#include <numeric>
#include <utility>

#include "src/analysis/plan_analyzer.h"
#include "src/api/plan.h"
#include "src/net/remote.h"
#include "src/net/wire.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace perfbench {

namespace api = bunshin::api;
namespace net = bunshin::net;
namespace nxe = bunshin::nxe;
using bunshin::Status;
using bunshin::StatusOr;

namespace {

constexpr size_t kShards = 2;
constexpr const char* kDetector = "__asan_report_store";
constexpr const char* kPayload = "exfiltrated-session-key";

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool IsRemote(const Workload& w) { return w.kind == WorkloadKind::kRemoteTcp; }
bool IsSharded(const Workload& w) {
  return w.kind == WorkloadKind::kLocalLocksSharded || IsRemote(w);
}
bool IsAttack(const Workload& w) { return w.kind == WorkloadKind::kAttackReplay; }

Expectation ExpectationFor(const Workload& workload, uint64_t index) {
  if (!IsAttack(workload)) {
    return {};
  }
  // Detection and divergence alternate; the tampered follower rotates over
  // 1..7 so every follower is attributed in turn.
  return {index % 2 == 0 ? api::NvxOutcome::kDetected : api::NvxOutcome::kDiverged,
          1 + (index / 2) % 7};
}

// Target, width, strategy and lockstep: the planning inputs alone.
api::NvxBuilder PlanningBuilder(const Workload& workload) {
  api::NvxBuilder builder;
  if (workload.kind == WorkloadKind::kLocalLocksSharded) {
    builder.Benchmark(*bunshin::workload::FindBenchmark("radiosity")).Variants(4);
  } else {
    builder.Benchmark(*bunshin::workload::FindBenchmark("perlbench"))
        .Variants(8)
        .DistributeChecks(bunshin::san::SanitizerId::kASan);
  }
  builder.Lockstep(nxe::LockstepMode::kSelective);
  return builder;
}

api::NvxBuilder ServedBuilder(const Workload& workload, const ServerState& server,
                              const Request& request) {
  api::NvxBuilder builder = PlanningBuilder(workload);
  builder.WithPlanCache(server.plan_cache).WithEnginePool(server.engine_pool);
  if (IsAttack(workload) && request.expect.outcome == api::NvxOutcome::kDetected) {
    builder.InjectDetection(request.expect.variant, kDetector);
  } else if (IsAttack(workload) && request.expect.outcome == api::NvxOutcome::kDiverged) {
    builder.InjectDivergence(request.expect.variant, kPayload);
  }
  return builder;
}

uint64_t TotalActions(const std::vector<nxe::VariantTrace>& traces) {
  uint64_t n = 0;
  for (const auto& trace : traces) {
    n += trace.TotalActions();
  }
  return n;
}

// One shard group run in-process, exactly as a TraceBackend over `members`
// runs it, with each layer call in its own span.
StatusOr<api::PartialReport> LocalGroup(const api::VariantPlan& plan,
                                        const std::vector<size_t>& members, bool owns_baseline,
                                        uint64_t seed, const std::string& pool_key,
                                        nxe::EnginePool& engine_pool, Tracer* tracer,
                                        TracedCounters* counters) {
  std::vector<nxe::VariantTrace> traces;
  {
    Tracer::Scope span(tracer, Layer::kTraceBuild);
    Status built = api::BuildPlanTraces(plan, members, seed, &traces);
    if (!built.ok()) {
      return built;
    }
  }
  counters->actions_built += TotalActions(traces);
  std::optional<nxe::VariantTrace> baseline_trace;
  if (owns_baseline) {
    Tracer::Scope span(tracer, Layer::kBaselineTrace);
    baseline_trace = bunshin::workload::BuildTrace(*plan.benchmark, {}, seed);
  }
  if (baseline_trace.has_value()) {
    counters->actions_built += baseline_trace->TotalActions();
  }

  nxe::EngineConfig config = plan.engine_config;
  config.contention_variants = plan.n_variants();
  nxe::EnginePool::Checkout checkout;
  {
    Tracer::Scope span(tracer, Layer::kEnginePool);
    checkout = engine_pool.Acquire(pool_key, config);
  }
  const nxe::Engine& engine = checkout.engine();

  api::PartialReport partial;
  partial.variant_index = members;
  partial.owns_baseline = owns_baseline;
  api::RunReport& report = partial.report;
  report.backend = "trace";
  if (owns_baseline) {
    Tracer::Scope span(tracer, Layer::kBaseline);
    StatusOr<double> baseline = engine.RunBaseline(*baseline_trace, &checkout.workspace());
    if (!baseline.ok()) {
      return baseline.status();
    }
    report.baseline_time = *baseline;
    counters->baseline_events += baseline_trace->TotalActions();
  }
  for (size_t global : members) {
    report.variant_compute_scale.push_back(plan.specs[global].compute_scale);
  }
  StatusOr<nxe::SyncReport> sync = bunshin::Internal("engine not run");
  {
    Tracer::Scope span(tracer, Layer::kEngine);
    sync = engine.Run(traces, &checkout.workspace());
  }
  counters->engine_events += TotalActions(traces);
  {
    Tracer::Scope span(tracer, Layer::kEnginePool);
    checkout = nxe::EnginePool::Checkout();  // check the engine back in
  }
  {
    Tracer::Scope span(tracer, Layer::kTraceFree);
    traces = {};
    baseline_trace.reset();
  }
  if (!sync.ok()) {
    return sync.status();
  }

  report.total_time = sync->total_time;
  report.variant_finish_time = std::move(sync->variant_finish_time);
  report.aborted_all = sync->aborted_all;
  report.synced_syscalls = sync->synced_syscalls;
  report.ignored_syscalls = sync->ignored_syscalls;
  report.lockstep_barriers = sync->lockstep_barriers;
  report.lock_acquisitions = sync->lock_acquisitions;
  report.avg_syscall_gap = sync->avg_syscall_gap;
  report.max_syscall_gap = sync->max_syscall_gap;
  if (sync->detection.has_value()) {
    report.outcome = api::NvxOutcome::kDetected;
    report.detection =
        api::Detection{sync->detection->variant, sync->detection->thread, sync->detection->detector};
  } else if (sync->divergence.has_value()) {
    const nxe::Divergence& d = *sync->divergence;
    report.outcome = api::NvxOutcome::kDiverged;
    report.divergence = api::Divergence{
        d.variant, d.thread, d.sync_index, d.expected, d.actual,
        "variant " + std::to_string(d.variant) + " expected '" + d.expected + "' got '" +
            d.actual + "'"};
  } else if (!sync->completed) {
    return bunshin::Internal("engine run neither completed nor reported an incident");
  }
  return partial;
}

// One shard group shipped to its affinity executor over a fresh connection,
// exactly as RemoteBackend does it (one attempt; a failure is a failure).
StatusOr<api::PartialReport> RemoteGroup(const api::VariantPlan& plan,
                                         const std::vector<size_t>& members, size_t group,
                                         uint64_t seed, const std::string& cache_key,
                                         const std::string& plan_bytes,
                                         const ServerState& server, Tracer* tracer) {
  const size_t e = (net::AffinityHash(cache_key) + group) % server.endpoints.size();
  net::Frame frame;
  frame.type = net::MessageType::kRunRequest;
  frame.request_id = group + 1;
  {
    Tracer::Scope span(tracer, Layer::kEncode);
    net::RunRequestMsg msg;
    msg.cache_key = cache_key;
    msg.n_variants = plan.n_variants();
    msg.members = members;
    msg.owns_baseline = group == 0;
    msg.request = SeededRequest(seed);
    msg.plan_bytes = plan_bytes;
    frame.payload = net::EncodeRunRequestMsg(msg);
  }
  std::unique_ptr<bunshin::support::Socket> socket;
  {
    Tracer::Scope span(tracer, Layer::kDial);
    StatusOr<std::unique_ptr<bunshin::support::Socket>> dialed = server.endpoints[e].dial();
    if (!dialed.ok()) {
      return dialed.status();
    }
    socket = std::move(*dialed);
    socket->SetRecvTimeout(net::RemoteOptions{}.timeout_ms);
  }
  StatusOr<net::Frame> reply = bunshin::Internal("no reply");
  {
    Tracer::Scope span(tracer, Layer::kRtt);
    Status sent = net::WriteFrame(*socket, frame);
    if (!sent.ok()) {
      return sent;
    }
    reply = net::ReadFrame(*socket);
  }
  {
    Tracer::Scope span(tracer, Layer::kDial);
    socket.reset();  // hang up, as RemoteBackend does after every reply
  }
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->type != net::MessageType::kRunReply || reply->request_id != frame.request_id) {
    return bunshin::InvalidArgument("executor answered with the wrong frame");
  }
  StatusOr<net::RunReplyMsg> decoded = bunshin::Internal("not decoded");
  {
    Tracer::Scope span(tracer, Layer::kDecode);
    decoded = net::DecodeRunReplyMsg(reply->payload, plan.n_variants());
  }
  if (!decoded.ok()) {
    return decoded.status();
  }
  if (!decoded->run_status.ok()) {
    return decoded->run_status;
  }
  api::PartialReport partial = std::move(*decoded->partial);
  if (partial.variant_index != members || partial.owns_baseline != (group == 0)) {
    return bunshin::InvalidArgument("executor answered with different shard coverage");
  }
  return partial;
}

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }  // bit pattern, not value
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    for (double d : v) {
      F64(d);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"local_spec_n8", WorkloadKind::kLocalSpecN8, 1},
      {"local_locks_sharded", WorkloadKind::kLocalLocksSharded, 4},
      {"remote_tcp", WorkloadKind::kRemoteTcp, 1},
      {"attack_replay", WorkloadKind::kAttackReplay, 1},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Request MakeRequest(const Workload& workload, uint64_t run_seed, uint64_t index) {
  // Mix64 is a bijection, so distinct indices always get distinct seeds.
  return {index, Mix64(Mix64(run_seed) + index), ExpectationFor(workload, index)};
}

api::RunRequest SeededRequest(uint64_t seed) {
  api::RunRequest run;
  run.workload_seed = seed;
  return run;
}

Request GoldenRequest(const Workload& workload, uint64_t index) {
  return {index, 1 + index, ExpectationFor(workload, index)};
}

std::string CheckVerdict(const api::RunReport& report, const Expectation& expect) {
  if (report.outcome != expect.outcome) {
    return std::string("expected ") + api::NvxOutcomeName(expect.outcome) + ", got " +
           api::NvxOutcomeName(report.outcome);
  }
  if (expect.outcome == api::NvxOutcome::kDetected &&
      (!report.detection.has_value() || report.detection->variant != expect.variant ||
       report.detection->detector != kDetector)) {
    return "detection not attributed to variant " + std::to_string(expect.variant);
  }
  if (expect.outcome == api::NvxOutcome::kDiverged &&
      (!report.divergence.has_value() || report.divergence->variant != expect.variant)) {
    return "divergence not attributed to variant " + std::to_string(expect.variant);
  }
  return "";
}

ServerState::~ServerState() {
  for (auto& executor : executors) {
    executor->Stop();
  }
}

StatusOr<std::unique_ptr<ServerState>> StartServer(const Workload& workload) {
  auto server = std::make_unique<ServerState>();
  server->plan_cache = std::make_shared<api::PlanCache>(/*capacity=*/16);
  server->engine_pool = std::make_shared<nxe::EnginePool>();
  if (workload.kind == WorkloadKind::kLocalLocksSharded) {
    server->pool = std::make_shared<bunshin::support::ThreadPool>(/*n_workers=*/4);
    server->completions = std::make_unique<api::CompletionQueue>();
  }
  if (IsRemote(workload)) {
    server->socket_counters = std::make_shared<SocketCounters>();
    for (int i = 0; i < 2; ++i) {
      net::ExecutorOptions options;
      options.n_workers = 2;
      auto executor = std::make_shared<net::ExecutorServer>(options);
      Status listening = executor->ListenTcp(0);
      if (!listening.ok()) {
        return listening;
      }
      server->endpoints.push_back(CountingEndpoint(
          net::TcpEndpoint("127.0.0.1", executor->port()), server->socket_counters));
      server->executors.push_back(std::move(executor));
    }
  }
  return server;
}

api::NvxBuilder SessionBuilder(const Workload& workload, const ServerState& server,
                               const Request& request) {
  api::NvxBuilder builder = ServedBuilder(workload, server, request);
  if (IsSharded(workload)) {
    builder.Shards(kShards);
  }
  if (IsRemote(workload)) {
    builder.Remote(server.endpoints);
  }
  return builder;
}

api::NvxBuilder InProcessShardsBuilder(const Workload& workload, const ServerState& server,
                                       const Request& request) {
  api::NvxBuilder builder = ServedBuilder(workload, server, request);
  builder.Shards(kShards);
  return builder;
}

StatusOr<api::RunReport> RealSession(const Workload& workload, ServerState& server,
                                     const Request& request) {
  api::NvxBuilder builder = SessionBuilder(workload, server, request);
  if (server.pool != nullptr) {
    StatusOr<api::AsyncNvxSession> session = builder.BuildAsync(server.pool);
    if (!session.ok()) {
      return session.status();
    }
    return session->Submit(SeededRequest(request.seed)).Wait();
  }
  StatusOr<api::NvxSession> session = builder.Build();
  if (!session.ok()) {
    return session.status();
  }
  return session->Run(SeededRequest(request.seed));
}

StatusOr<api::RunReport> TracedSession(const Workload& workload, ServerState& server,
                                       const Request& request, Tracer* tracer,
                                       TracedCounters* counters) {
  const api::NvxBuilder builder = SessionBuilder(workload, server, request);
  tracer->BeginSession(request.index);
  Tracer::Scope root(tracer, Layer::kSession);

  std::shared_ptr<const api::VariantPlan> plan;
  std::string backend_key;
  std::string plan_bytes;
  {
    Tracer::Scope build(tracer, Layer::kBuild);
    std::string key;
    {
      Tracer::Scope span(tracer, Layer::kPlanKey);
      StatusOr<std::string> computed = builder.PlanCacheKey();
      if (!computed.ok()) {
        return computed.status();
      }
      key = std::move(*computed);
    }
    {
      Tracer::Scope span(tracer, Layer::kPlanLookup);
      StatusOr<std::shared_ptr<const api::VariantPlan>> base = server.plan_cache->GetOrPlan(
          key, [&workload] { return PlanningBuilder(workload).PlanVariants(); });
      if (!base.ok()) {
        return base.status();
      }
      plan = std::move(*base);
    }
    if (IsAttack(workload) && request.expect.outcome != api::NvxOutcome::kOk) {
      Tracer::Scope span(tracer, Layer::kOverlay);
      auto overlaid = std::make_shared<api::VariantPlan>(*plan);
      if (request.expect.outcome == api::NvxOutcome::kDetected) {
        overlaid->detect_injections = {{request.expect.variant, kDetector}};
      } else {
        overlaid->diverge_injections = {{request.expect.variant, kPayload}};
      }
      Tracer::Scope analyze(tracer, Layer::kAnalyze);
      bunshin::analysis::AnalysisReport analysis = bunshin::analysis::AnalyzePlan(*overlaid);
      Status analyzed = analysis.ToStatus("plan analysis");
      overlaid->analysis =
          std::make_shared<const bunshin::analysis::AnalysisReport>(std::move(analysis));
      if (!analyzed.ok()) {
        return analyzed;
      }
      plan = std::move(overlaid);
    }
    {
      Tracer::Scope span(tracer, Layer::kBackendKey);
      backend_key = plan->CacheKey();
    }
    if (IsRemote(workload)) {
      {
        // A synchronous sharded Build() starts (and, with no Async(), drops)
        // the shard pool even though the remote backend never uses it.
        Tracer::Scope span(tracer, Layer::kShardPool);
        bunshin::support::ThreadPool::Options options;
        options.min_workers = 2;
        bunshin::support::ThreadPool pool(options);
      }
      Tracer::Scope span(tracer, Layer::kEncode);
      plan_bytes = net::EncodeVariantPlan(*plan);
    }
  }

  const size_t n = plan->n_variants();
  std::vector<std::vector<size_t>> groups;
  if (IsSharded(workload)) {
    groups = api::ShardMemberGroups(n, kShards);
  } else {
    groups.emplace_back(n);
    std::iota(groups[0].begin(), groups[0].end(), 0);
  }
  std::vector<api::PartialReport> partials;
  for (size_t g = 0; g < groups.size(); ++g) {
    StatusOr<api::PartialReport> partial =
        IsRemote(workload)
            ? RemoteGroup(*plan, groups[g], g, request.seed, backend_key, plan_bytes, server,
                          tracer)
            : LocalGroup(*plan, groups[g], g == 0, request.seed, backend_key,
                         *server.engine_pool, tracer, counters);
    if (!partial.ok()) {
      return partial.status();
    }
    partials.push_back(std::move(*partial));
  }
  if (!IsSharded(workload)) {
    return std::move(partials[0].report);
  }
  Tracer::Scope span(tracer, Layer::kMerge);
  return api::RunReport::Merge(n, partials);
}

uint64_t ReportHash(const api::RunReport& r) {
  Fnv h;
  h.Str(r.backend);
  h.U64(static_cast<uint64_t>(r.outcome));
  h.U64(r.detection.has_value());
  if (r.detection.has_value()) {
    h.U64(r.detection->variant);
    h.U64(r.detection->thread);
    h.Str(r.detection->detector);
  }
  h.U64(r.divergence.has_value());
  if (r.divergence.has_value()) {
    h.U64(r.divergence->variant);
    h.U64(r.divergence->thread);
    h.U64(r.divergence->sync_index);
    h.Str(r.divergence->expected);
    h.Str(r.divergence->actual);
    h.Str(r.divergence->detail);
  }
  h.U64(r.aborted_all);
  h.U64(r.return_value.has_value());
  h.U64(static_cast<uint64_t>(r.return_value.value_or(0)));
  h.F64(r.total_time);
  h.U64(r.baseline_time.has_value());
  h.F64(r.baseline_time.value_or(0.0));
  h.Doubles(r.variant_finish_time);
  h.Doubles(r.variant_standalone_time);
  h.Doubles(r.variant_compute_scale);
  h.U64(r.synced_syscalls);
  h.U64(r.ignored_syscalls);
  h.U64(r.lockstep_barriers);
  h.U64(r.lock_acquisitions);
  h.F64(r.avg_syscall_gap);
  h.U64(r.max_syscall_gap);
  return h.value();
}

uint64_t FoldDigest(const std::vector<uint64_t>& hashes) {
  Fnv h;
  for (uint64_t value : hashes) {
    h.U64(value);
  }
  return h.value();
}

std::string CompareReports(const api::RunReport& a, const api::RunReport& b) {
  auto same_detection = [](const std::optional<api::Detection>& x,
                           const std::optional<api::Detection>& y) {
    return x.has_value() == y.has_value() &&
           (!x.has_value() ||
            (x->variant == y->variant && x->thread == y->thread && x->detector == y->detector));
  };
  auto same_divergence = [](const std::optional<api::Divergence>& x,
                            const std::optional<api::Divergence>& y) {
    return x.has_value() == y.has_value() &&
           (!x.has_value() ||
            (x->variant == y->variant && x->thread == y->thread &&
             x->sync_index == y->sync_index && x->expected == y->expected &&
             x->actual == y->actual && x->detail == y->detail));
  };
  const std::pair<const char*, bool> fields[] = {
      {"backend", a.backend == b.backend},
      {"outcome", a.outcome == b.outcome},
      {"detection", same_detection(a.detection, b.detection)},
      {"divergence", same_divergence(a.divergence, b.divergence)},
      {"aborted_all", a.aborted_all == b.aborted_all},
      {"return_value", a.return_value == b.return_value},
      {"total_time", SameBits(a.total_time, b.total_time)},
      {"baseline_time", a.baseline_time.has_value() == b.baseline_time.has_value() &&
                            SameBits(a.baseline_time.value_or(0.0), b.baseline_time.value_or(0.0))},
      {"variant_finish_time", SameBits(a.variant_finish_time, b.variant_finish_time)},
      {"variant_standalone_time", SameBits(a.variant_standalone_time, b.variant_standalone_time)},
      {"variant_compute_scale", SameBits(a.variant_compute_scale, b.variant_compute_scale)},
      {"synced_syscalls", a.synced_syscalls == b.synced_syscalls},
      {"ignored_syscalls", a.ignored_syscalls == b.ignored_syscalls},
      {"lockstep_barriers", a.lockstep_barriers == b.lockstep_barriers},
      {"lock_acquisitions", a.lock_acquisitions == b.lock_acquisitions},
      {"avg_syscall_gap", SameBits(a.avg_syscall_gap, b.avg_syscall_gap)},
      {"max_syscall_gap", a.max_syscall_gap == b.max_syscall_gap},
  };
  for (const auto& [name, same] : fields) {
    if (!same) {
      return name;
    }
  }
  return "";
}

}  // namespace perfbench
