// ShardedBackend: one session's variants fanned out across engine shards.
//
// The paper's core economics (distributing expensive checks across N
// variants keeps per-variant overhead low) only pays off operationally if
// the monitor's own cost does not grow linearly with N on one executor.
// This backend splits a VariantPlan into K shard groups — shard 0 carries
// the baseline/leader slot, followers are dealt round-robin, and every
// shard replicates the leader for synchronization — then executes the
// groups concurrently and merges their PartialReports through
// RunReport::Merge (outcome lattice, leader-relative attribution,
// session-wide timing/telemetry).
//
// Dispatch runs over a support::ThreadPool via one CompletionQueue, and the
// dispatching thread *claims shards itself* while it waits: a sharded run
// completes even on a fully busy (or absent) pool, so running the backend
// under an AsyncNvxSession on the same pool cannot deadlock.
//
// With PlacementPolicy::kSpread each shard is steered to a fixed pool
// worker (ThreadPool::SubmitTo) — on a pinned pool that means a fixed
// physical core, placed by support::Topology::PlacementOrder(). Shards are
// claimed through per-shard flags: a helper takes its own shard first and
// only then scans for unclaimed ones, so placement is an affinity, never a
// liveness constraint — a stalled worker's shard is still stolen.
//
//   auto session = api::NvxBuilder()
//                      .Benchmark(workload::Spec2006()[0])
//                      .Variants(8)
//                      .DistributeChecks(san::SanitizerId::kASan)
//                      .Shards(4)          // 4 engine shards, merged reports
//                      .BuildAsync(pool);  // or Build(): a private pool
#ifndef BUNSHIN_SRC_API_SHARD_H_
#define BUNSHIN_SRC_API_SHARD_H_

#include <memory>
#include <vector>

#include "src/api/nvx.h"

namespace bunshin {
namespace support {
class ThreadPool;
}  // namespace support

namespace api {

class ShardedBackend final : public Backend {
 public:
  // `shards` are backends over subsets of `plan`'s variants with disjoint
  // slot ownership; shards[0] must own the baseline. `pool` may be null, in
  // which case every shard runs sequentially on the dispatching thread.
  //
  // `owns_pool` decides whether this backend keeps the pool alive. It must
  // be false when the backend can be destroyed *on* a pool worker — the
  // AsyncNvxSession composition, whose in-flight task lambdas can hold the
  // last session reference and release it from a worker; a ThreadPool must
  // never run its own destructor on one of its workers (self-join). In that
  // composition AsyncNvxSession owns the pool and outlives every run.
  ShardedBackend(std::shared_ptr<const VariantPlan> plan,
                 std::vector<std::unique_ptr<Backend>> shards,
                 const std::shared_ptr<support::ThreadPool>& pool, bool owns_pool,
                 PlacementPolicy placement = PlacementPolicy::kNone);
  ~ShardedBackend() override;

  // Reports keep the execution substrate's identity (e.g. "trace").
  const char* name() const override;
  size_t n_variants() const override { return plan_->n_variants(); }
  const std::vector<std::string>& variant_labels() const override { return plan_->labels; }
  const distribution::CheckDistributionPlan* check_plan() const override;
  const std::vector<std::vector<std::string>>* sanitizer_groups() const override;

  // Dispatches every shard (pool workers + the calling thread), collects
  // their partial reports from one completion queue, and merges them. On a
  // shard error the lowest-indexed shard's status is returned.
  StatusOr<RunReport> Run(const RunRequest& request) const override;

  size_t n_shards() const { return shards_.size(); }
  const Backend& shard(size_t i) const { return *shards_[i]; }
  support::ThreadPool* pool() const { return pool_; }

 private:
  struct Dispatch;  // per-run fan-out state, pooled across runs (shard.cc)
  std::shared_ptr<Dispatch> TakeDispatch() const;

  std::shared_ptr<const VariantPlan> plan_;
  std::vector<std::unique_ptr<Backend>> shards_;
  // Each shard's slot coverage, snapshotted once at construction —
  // shard_coverage() returns by value, which would allocate on every run.
  std::vector<std::vector<size_t>> coverage_;
  std::shared_ptr<support::ThreadPool> pool_owner_;  // null when not owning
  support::ThreadPool* pool_ = nullptr;              // the usable view
  PlacementPolicy placement_ = PlacementPolicy::kNone;

  // Warm-run freelist of Dispatch blocks. A block is only reusable once
  // every late-waking pool helper has dropped its reference (use_count 1).
  mutable std::mutex dispatch_mu_;
  mutable std::vector<std::shared_ptr<Dispatch>> dispatch_free_;
};

}  // namespace api
}  // namespace bunshin

#endif  // BUNSHIN_SRC_API_SHARD_H_
