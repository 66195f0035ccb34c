#include "src/nxe/weakdet.h"

namespace bunshin {
namespace nxe {

SynccallRuntime::SynccallRuntime(size_t n_followers) : cursor_(n_followers, 0) {}

void SynccallRuntime::LeaderAcquire(uint32_t egid) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(egid);
  }
  cv_.notify_all();
}

size_t SynccallRuntime::FollowerAcquire(size_t follower, uint32_t egid) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return cursor_[follower] < order_.size() && order_[cursor_[follower]] == egid;
  });
  const size_t consumed = cursor_[follower]++;
  // Consuming an entry may make the next entry's owner runnable.
  cv_.notify_all();
  return consumed;
}

bool SynccallRuntime::FollowerTryAcquire(size_t follower, uint32_t egid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cursor_[follower] < order_.size() && order_[cursor_[follower]] == egid) {
    ++cursor_[follower];
    cv_.notify_all();
    return true;
  }
  return false;
}

std::vector<uint32_t> SynccallRuntime::Order() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

size_t SynccallRuntime::OrderSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_.size();
}

}  // namespace nxe
}  // namespace bunshin
