#include "src/net/remote.h"

#include <thread>
#include <utility>

namespace bunshin {
namespace net {

uint64_t AffinityHash(std::string_view cache_key) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : cache_key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

RemoteSessionState::RemoteSessionState(std::shared_ptr<const api::VariantPlan> plan,
                                       std::vector<std::vector<size_t>> groups,
                                       std::vector<Endpoint> endpoints, RemoteOptions options)
    : plan_(std::move(plan)),
      groups_(std::move(groups)),
      endpoints_(std::move(endpoints)),
      options_(options),
      cache_key_(plan_->CacheKey()),
      plan_bytes_(EncodeVariantPlan(*plan_)),
      affinity_(AffinityHash(cache_key_)),
      health_(endpoints_.size()),
      stats_(endpoints_.size()) {}

size_t RemoteSessionState::PreferredEndpoint(size_t group) const {
  return (affinity_ + group) % endpoints_.size();
}

std::vector<size_t> RemoteSessionState::AttemptOrder(size_t group) const {
  const size_t n = endpoints_.size();
  const size_t start = PreferredEndpoint(group);
  std::vector<size_t> healthy;
  std::vector<size_t> unhealthy;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    const size_t e = (start + i) % n;
    // An expired cooldown re-admits the endpoint to the healthy rotation:
    // the next real request is its probe.
    if (health_[e].unhealthy && now < health_[e].retry_after) {
      unhealthy.push_back(e);
    } else {
      healthy.push_back(e);
    }
  }
  healthy.insert(healthy.end(), unhealthy.begin(), unhealthy.end());
  return healthy;
}

void RemoteSessionState::MarkFailure(size_t e) const {
  std::lock_guard<std::mutex> lock(mu_);
  stats_[e].failures++;
  health_[e].unhealthy = true;
  health_[e].retry_after = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(options_.unhealthy_cooldown_ms);
}

void RemoteSessionState::MarkSuccess(size_t e, const ExecutorOccupancy& occupancy) const {
  std::lock_guard<std::mutex> lock(mu_);
  health_[e].unhealthy = false;
  stats_[e].last_occupancy = occupancy;
}

std::vector<EndpointStats> RemoteSessionState::endpoint_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StatusOr<api::RunReport> RemoteSessionState::TryEndpoint(
    size_t e, size_t group, const api::RunRequest& request) const {
  uint64_t request_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_[e].dispatches++;
    request_id = next_request_id_++;
  }

  StatusOr<std::unique_ptr<support::Socket>> dialed = endpoints_[e].dial();
  if (!dialed.ok()) {
    return dialed.status();
  }
  const std::unique_ptr<support::Socket>& socket = *dialed;
  socket->SetRecvTimeout(options_.timeout_ms);

  RunRequestMsg msg;
  msg.cache_key = cache_key_;
  msg.n_variants = plan_->n_variants();
  msg.members = groups_[group];
  msg.owns_baseline = group == 0;
  msg.request = request;
  msg.plan_bytes = plan_bytes_;

  Frame frame;
  frame.type = MessageType::kRunRequest;
  frame.request_id = request_id;
  frame.payload = EncodeRunRequestMsg(msg);
  Status sent = WriteFrame(*socket, frame);
  if (!sent.ok()) {
    return sent;
  }

  StatusOr<Frame> reply = ReadFrame(*socket);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply->type != MessageType::kRunReply) {
    return InvalidArgument("wire: expected a run reply, got message type " +
                           std::to_string(static_cast<int>(reply->type)));
  }
  if (reply->request_id != request_id) {
    return InvalidArgument("wire: reply for request " + std::to_string(reply->request_id) +
                           ", expected " + std::to_string(request_id));
  }
  StatusOr<RunReplyMsg> decoded = DecodeRunReplyMsg(reply->payload, plan_->n_variants());
  if (!decoded.ok()) {
    return decoded.status();
  }
  MarkSuccess(e, decoded->occupancy);

  if (!decoded->run_status.ok()) {
    // A genuine executor-side run error: deterministic, so retrying it on
    // another executor cannot succeed. Wrap under kInternal so the caller
    // (and the retry loop) can tell it from a transport failure.
    return Status(StatusCode::kInternal, "executor " + endpoints_[e].name + " run failed: " +
                                             decoded->run_status.ToString());
  }

  // The executor echoed a valid partial — but for the *right* work? A buggy
  // or stale executor answering with different coverage must not reach
  // Merge looking like success.
  api::PartialReport& partial = *decoded->partial;
  if (partial.variant_index != groups_[group] || partial.owns_baseline != (group == 0)) {
    return InvalidArgument("wire: executor " + endpoints_[e].name +
                           " answered with different shard coverage than requested");
  }
  return std::move(partial.report);
}

StatusOr<api::RunReport> RemoteSessionState::ExecuteGroup(
    size_t group, const api::RunRequest& request) const {
  Status last_error = Unavailable("no endpoints");
  int attempt = 0;
  // Rebuilt per attempt round: health marks from this group's own failures
  // (and concurrent groups') reorder later attempts away from dead peers.
  while (attempt < options_.max_attempts) {
    const std::vector<size_t> order = AttemptOrder(group);
    for (size_t e : order) {
      if (attempt >= options_.max_attempts) {
        break;
      }
      if (attempt > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.backoff_ms << (attempt - 1)));
      }
      ++attempt;
      StatusOr<api::RunReport> result = TryEndpoint(e, group, request);
      if (result.ok()) {
        return result;
      }
      if (result.status().code() == StatusCode::kInternal) {
        // Executor-side run error: definite, not retryable.
        return result.status();
      }
      MarkFailure(e);
      last_error = result.status();
    }
  }
  return Status(last_error.code(),
                "shard group " + std::to_string(group) + " failed after " +
                    std::to_string(attempt) + " attempt(s); last error: " + last_error.message());
}

RemoteBackend::RemoteBackend(std::shared_ptr<const RemoteSessionState> state, size_t group)
    : state_(std::move(state)), group_(group) {
  for (size_t global : state_->groups()[group_]) {
    labels_.push_back(state_->plan().labels[global]);
  }
}

StatusOr<api::RunReport> RemoteBackend::Run(const api::RunRequest& request) const {
  return state_->ExecuteGroup(group_, request);
}

}  // namespace net
}  // namespace bunshin
