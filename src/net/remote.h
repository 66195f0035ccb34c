// Remote(): Shards(k) whose shards run on executor daemons.
//
// NvxBuilder::Remote() builds the same api::ShardedBackend as Shards(k) —
// same groups (api::ShardMemberGroups), pool fan-out and report merge —
// whose shards are RemoteBackends: each Run() ships the encoded plan plus
// its group's member list to an executor and returns the decoded,
// coverage-checked report. So a Remote(loopback) session is bit-identical
// to Shards(k), runs on the same pools and composes with BuildAsync().
//
// Routing is CacheKey-affine: group g of a plan goes to endpoint
// (fnv1a(plan.CacheKey()) + g) % E, so a fleet serving one hot plan sees
// every repeat request for a group land on the same executor's warm plan
// cache. Endpoints that fail are deprioritized for a cooldown and then
// re-probed with real traffic; failures retry on the next endpoint in
// affinity order (bounded by RemoteOptions::max_attempts, with doubling
// backoff). Only transport/decode failures retry — a genuine executor-side
// run error is deterministic and is returned as-is.
#ifndef BUNSHIN_SRC_NET_REMOTE_H_
#define BUNSHIN_SRC_NET_REMOTE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/nvx.h"
#include "src/api/plan.h"
#include "src/net/endpoint.h"
#include "src/net/wire.h"
#include "src/support/status.h"

namespace bunshin {
namespace net {

// FNV-1a over the plan's CacheKey: the affinity hash. Exposed for tests.
uint64_t AffinityHash(std::string_view cache_key);

// Dispatcher-side counters, per endpoint (index-aligned with the endpoint
// list passed to the backend).
struct EndpointStats {
  uint64_t dispatches = 0;  // requests sent (including ones that then failed)
  uint64_t failures = 0;    // transport/decode failures observed
  ExecutorOccupancy last_occupancy;  // from the most recent reply
};

// Dispatcher state shared by every shard group of one Remote() session: the
// encoded plan, cache key, affinity hash, endpoint health and stats, request
// ids. Thread-safe: the session's groups run concurrently on pool workers.
class RemoteSessionState {
 public:
  // `groups` comes from api::ShardMemberGroups; groups[0] owns the baseline.
  RemoteSessionState(std::shared_ptr<const api::VariantPlan> plan,
                     std::vector<std::vector<size_t>> groups, std::vector<Endpoint> endpoints,
                     RemoteOptions options);

  const api::VariantPlan& plan() const { return *plan_; }
  const std::vector<std::vector<size_t>>& groups() const { return groups_; }

  // The endpoint group g is routed to first (before health rotation), for
  // affinity assertions in tests.
  size_t PreferredEndpoint(size_t group) const;

  std::vector<EndpointStats> endpoint_stats() const;

  // One group's run: endpoints in affinity order, retry with backoff on
  // transport/decode failures, and a coverage check on the reply.
  StatusOr<api::RunReport> ExecuteGroup(size_t group, const api::RunRequest& request) const;

 private:
  // Endpoint order for one group's attempts: affinity rotation with healthy
  // endpoints first (unhealthy ones keep their relative order at the end —
  // still reachable, so an all-unhealthy fleet is probed rather than failed).
  std::vector<size_t> AttemptOrder(size_t group) const;
  // One dial + request + reply against endpoint `e`. Failures before a
  // decoded reply are retryable; a decoded reply is definitive.
  StatusOr<api::RunReport> TryEndpoint(size_t e, size_t group,
                                       const api::RunRequest& request) const;
  void MarkFailure(size_t e) const;
  void MarkSuccess(size_t e, const ExecutorOccupancy& occupancy) const;

  std::shared_ptr<const api::VariantPlan> plan_;
  std::vector<std::vector<size_t>> groups_;
  std::vector<Endpoint> endpoints_;
  RemoteOptions options_;

  // Computed once: every Run() of this session ships the same plan bytes and
  // routes by the same key.
  std::string cache_key_;
  std::string plan_bytes_;
  uint64_t affinity_;

  struct Health {
    bool unhealthy = false;
    std::chrono::steady_clock::time_point retry_after;  // cooldown expiry
  };
  mutable std::mutex mu_;  // guards health_, stats_, next_request_id_
  mutable std::vector<Health> health_;
  mutable std::vector<EndpointStats> stats_;
  mutable uint64_t next_request_id_ = 1;
};

// One shard group of a Remote() session: the shard api::ShardedBackend
// dispatches in place of an in-process trace shard.
class RemoteBackend final : public api::Backend {
 public:
  RemoteBackend(std::shared_ptr<const RemoteSessionState> state, size_t group);

  // "trace": a remote shard's report is indistinguishable from the
  // in-process one — that is the equivalence the tests prove.
  const char* name() const override { return "trace"; }
  size_t n_variants() const override { return labels_.size(); }
  const std::vector<std::string>& variant_labels() const override { return labels_; }
  std::vector<size_t> shard_coverage() const override { return state_->groups()[group_]; }
  bool owns_baseline() const override { return group_ == 0; }
  StatusOr<api::RunReport> Run(const api::RunRequest& request) const override;

 private:
  std::shared_ptr<const RemoteSessionState> state_;
  size_t group_;
  std::vector<std::string> labels_;
};

}  // namespace net
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NET_REMOTE_H_
