// The four workloads, the shared server state a session is served from, and
// the two ways the benchmark drives one protected session:
//   * RealSession — the way a server does it (examples/batched_server.cpp):
//     a fresh api::NvxBuilder per request over one shared PlanCache and one
//     shared EnginePool, Build(), then Run() with the request's seed;
//   * TracedSession — the same session decomposed into the public calls of
//     each layer, every call wrapped in a span. Its report must equal the
//     real session's over every simulated field (the drift check).
#ifndef PERFBENCH_SRC_SESSION_H_
#define PERFBENCH_SRC_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/probes.h"
#include "perfbench/src/trace.h"
#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "src/net/executor.h"
#include "src/nxe/engine_pool.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"

namespace perfbench {

enum class WorkloadKind { kLocalSpecN8, kLocalLocksSharded, kRemoteTcp, kAttackReplay };

struct Workload {
  const char* name;
  WorkloadKind kind;
  size_t in_flight;  // sessions the closed-loop client keeps outstanding
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// What a session's verdict must be.
struct Expectation {
  bunshin::api::NvxOutcome outcome = bunshin::api::NvxOutcome::kOk;
  size_t variant = 0;  // the attributed variant for kDetected / kDiverged
};

// One request: its index in the run (which picks the attack overlay), the
// workload seed it carries, and the verdict it must produce.
struct Request {
  uint64_t index = 0;
  uint64_t seed = 0;
  Expectation expect;
};

Request MakeRequest(const Workload& workload, uint64_t run_seed, uint64_t index);
// The recorded-digest replay set: fixed seeds, independent of --seed.
Request GoldenRequest(const Workload& workload, uint64_t index);

// The run request a session of `seed` carries.
bunshin::api::RunRequest SeededRequest(uint64_t seed);

// Empty when `report` matches `expect`, else a one-line reason.
std::string CheckVerdict(const bunshin::api::RunReport& report, const Expectation& expect);

// Server-side state shared by every session of one run: the plan cache, the
// engine pool, the async workload's pool and completion queue, and the
// remote workload's two TCP executors (each dial counted).
struct ServerState {
  std::shared_ptr<bunshin::api::PlanCache> plan_cache;
  std::shared_ptr<bunshin::nxe::EnginePool> engine_pool;
  std::shared_ptr<bunshin::support::ThreadPool> pool;  // kLocalLocksSharded only
  std::unique_ptr<bunshin::api::CompletionQueue> completions;
  std::vector<std::shared_ptr<bunshin::net::ExecutorServer>> executors;
  std::vector<bunshin::net::Endpoint> endpoints;  // counting decorators
  std::shared_ptr<SocketCounters> socket_counters;

  ~ServerState();
};

// Builds the shared state (executors listening on 127.0.0.1 ephemeral ports).
bunshin::StatusOr<std::unique_ptr<ServerState>> StartServer(const Workload& workload);

// The builder a request handler configures: target, variants, strategy,
// lockstep, the request's attack overlay, and the workload's execution
// shape (shards, remote executors) over the shared cache and pool.
bunshin::api::NvxBuilder SessionBuilder(const Workload& workload, const ServerState& server,
                                        const Request& request);

// The same configuration served in-process with Shards(2): the replay every
// remote report must equal.
bunshin::api::NvxBuilder InProcessShardsBuilder(const Workload& workload,
                                                const ServerState& server,
                                                const Request& request);

// Build() + Run() (synchronous workloads) or BuildAsync() + Submit() + Wait()
// (the async workload), as one blocking call.
bunshin::StatusOr<bunshin::api::RunReport> RealSession(const Workload& workload,
                                                       ServerState& server,
                                                       const Request& request);

// Counters the traced decomposition gathers beyond its spans.
struct TracedCounters {
  uint64_t actions_built = 0;    // trace actions constructed (variants + baseline)
  uint64_t engine_events = 0;    // actions handed to Engine::Run
  uint64_t baseline_events = 0;  // actions handed to Engine::RunBaseline
};

// The session decomposed into public layer calls, each inside a span.
bunshin::StatusOr<bunshin::api::RunReport> TracedSession(const Workload& workload,
                                                         ServerState& server,
                                                         const Request& request, Tracer* tracer,
                                                         TracedCounters* counters);

// FNV-1a over every simulated field of a report (outcome, attribution,
// virtual times bit for bit, counters) — not the plan-cache telemetry.
uint64_t ReportHash(const bunshin::api::RunReport& report);
// Folds per-session hashes, in session-index order, into one digest.
uint64_t FoldDigest(const std::vector<uint64_t>& hashes);
// Empty when the simulated fields are identical, else the first that differs.
std::string CompareReports(const bunshin::api::RunReport& a, const bunshin::api::RunReport& b);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SESSION_H_
