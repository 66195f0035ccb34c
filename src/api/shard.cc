#include "src/api/shard.h"

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "src/api/async.h"
#include "src/support/thread_pool.h"

namespace bunshin {
namespace api {

// Per-run dispatch state, shared with the pool helpers. Helpers hold raw
// Backend views: every dereference belongs to a claimed shard, and the
// dispatching frame drains one completion event per shard before returning,
// so no helper touches a backend after Run() ends — late-waking helpers that
// find every shard claimed only bump the cursor and exit.
//
// Blocks are pooled across runs (the request strings, shard view, collection
// vectors and the completion queue's deque all keep their capacity), but a
// block only re-enters service once every late helper has dropped its
// reference — see TakeDispatch().
struct ShardedBackend::Dispatch {
  RunRequest request;
  std::vector<const Backend*> shards;
  // The next unclaimed shard. Reset at the start of each run; safe because
  // a block is only reused once no helper of its previous run holds it.
  alignas(64) std::atomic<size_t> next_shard{0};
  // Small lane footprint: this queue only ever carries n_shards events per
  // run, one producer per shard helper.
  alignas(64) CompletionQueue done{/*n_lanes=*/4, /*lane_capacity=*/16};
  // Dispatcher-only collection scratch, pooled with the block.
  std::vector<std::optional<StatusOr<RunReport>>> by_shard;
  std::vector<PartialReport> partials;

  // Claims shards until every one is taken, so a busy pool never strands a
  // shard. Returns immediately when all are already claimed.
  void ClaimShards() {
    for (;;) {
      const size_t s = next_shard.fetch_add(1);
      if (s >= shards.size()) {
        return;
      }
      done.AddProducer();
      StatusOr<RunReport> report = shards[s]->Run(request);
      done.Push(CompletionEvent{s, std::move(report)});
      done.RemoveProducer();
    }
  }
};

ShardedBackend::ShardedBackend(std::shared_ptr<const VariantPlan> plan,
                               std::vector<std::unique_ptr<Backend>> shards,
                               support::ThreadPool* pool)
    : plan_(std::move(plan)), shards_(std::move(shards)), pool_(pool) {
  // Snapshot each shard's coverage once: shard_coverage() returns by value,
  // and re-fetching it per run would put an allocation on the warm path.
  coverage_.reserve(shards_.size());
  for (const auto& shard : shards_) {
    coverage_.push_back(shard->shard_coverage());
  }
}

ShardedBackend::~ShardedBackend() = default;

const char* ShardedBackend::name() const { return shards_.front()->name(); }

const distribution::CheckDistributionPlan* ShardedBackend::check_plan() const {
  return plan_->check_plan.get();
}

const std::vector<std::vector<std::string>>* ShardedBackend::sanitizer_groups() const {
  return plan_->sanitizer_groups.empty() ? nullptr : &plan_->sanitizer_groups;
}

std::shared_ptr<ShardedBackend::Dispatch> ShardedBackend::TakeDispatch() const {
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    for (auto& slot : dispatch_free_) {
      // use_count() == 1 means every helper from the block's previous run
      // has exited its claim loop; only then is reuse race-free. Helpers
      // that still hold a reference leave the block parked for next time.
      if (slot.use_count() == 1) {
        std::shared_ptr<Dispatch> dispatch = std::move(slot);
        slot = std::move(dispatch_free_.back());
        dispatch_free_.pop_back();
        return dispatch;
      }
    }
  }
  auto dispatch = std::make_shared<Dispatch>();
  dispatch->shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    dispatch->shards.push_back(shard.get());
  }
  return dispatch;
}

StatusOr<RunReport> ShardedBackend::Run(const RunRequest& request) const {
  const size_t n_shards = shards_.size();

  std::shared_ptr<Dispatch> dispatch = TakeDispatch();
  dispatch->request = request;  // copy-assign: a warm block keeps capacity
  dispatch->next_shard.store(0);

  // Park the block for reuse on every exit path (including shard errors).
  struct DispatchReturn {
    const ShardedBackend* backend;
    std::shared_ptr<Dispatch>& dispatch;
    ~DispatchReturn() {
      static constexpr size_t kMaxFree = 8;
      std::lock_guard<std::mutex> lock(backend->dispatch_mu_);
      if (backend->dispatch_free_.size() < kMaxFree) {
        backend->dispatch_free_.push_back(std::move(dispatch));
      }
    }
  } dispatch_return{this, dispatch};

  if (pool_ != nullptr) {
    // One helper per extra shard; surplus helpers find nothing to claim.
    for (size_t h = 1; h < n_shards; ++h) {
      pool_->Submit([dispatch] { dispatch->ClaimShards(); });
    }
  }
  // The dispatcher claims too: a sharded run completes even when every pool
  // worker is busy dispatching other sharded runs (or there is no pool).
  dispatch->ClaimShards();

  // Collect into shard order so merging (and error reporting) is
  // deterministic regardless of completion order.
  dispatch->by_shard.clear();
  dispatch->by_shard.resize(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    CompletionEvent event = dispatch->done.Wait();
    dispatch->by_shard[event.token].emplace(std::move(event.report));
  }

  dispatch->partials.resize(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    StatusOr<RunReport>& report = *dispatch->by_shard[i];
    if (!report.ok()) {
      return report.status();
    }
    PartialReport& partial = dispatch->partials[i];
    partial.variant_index = coverage_[i];  // copy-assign into warm capacity
    partial.owns_baseline = shards_[i]->owns_baseline();
    partial.report = std::move(*report);
  }
  StatusOr<RunReport> merged = RunReport::Merge(plan_->n_variants(), dispatch->partials);
  // Merge copied what it needed; hand the shard reports' arenas back to the
  // freelist the shard backends draw from.
  for (PartialReport& partial : dispatch->partials) {
    RecycleReport(std::move(partial.report));
  }
  return merged;
}

}  // namespace api
}  // namespace bunshin
