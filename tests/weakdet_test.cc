// Real-thread tests for the weak-determinism (synccall) runtime: follower
// variants must observe the leader's lock-acquisition total order.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/nxe/weakdet.h"
#include "src/support/rng.h"

namespace bunshin {
namespace {

TEST(WeakDetTest, OrderRecordedByLeader) {
  nxe::SynccallRuntime runtime(1);
  runtime.LeaderAcquire(2);
  runtime.LeaderAcquire(0);
  runtime.LeaderAcquire(1);
  EXPECT_EQ(runtime.Order(), (std::vector<uint32_t>{2, 0, 1}));
}

TEST(WeakDetTest, FollowerTryAcquireRespectsOrder) {
  nxe::SynccallRuntime runtime(1);
  runtime.LeaderAcquire(1);
  runtime.LeaderAcquire(0);
  EXPECT_FALSE(runtime.FollowerTryAcquire(0, 0));  // 1 must go first
  EXPECT_TRUE(runtime.FollowerTryAcquire(0, 1));
  EXPECT_TRUE(runtime.FollowerTryAcquire(0, 0));
}

// The core property (§3.3): whatever interleaving the leader's threads
// produce, every follower replays the same total order of acquisitions.
TEST(WeakDetTest, FollowersReplayLeaderOrder) {
  constexpr size_t kThreads = 4;
  constexpr size_t kAcquisitionsPerThread = 200;
  constexpr size_t kFollowers = 2;

  nxe::SynccallRuntime runtime(kFollowers);

  // Leader: each thread acquires with its own EGID many times, racing.
  {
    std::vector<std::thread> leader_threads;
    for (size_t t = 0; t < kThreads; ++t) {
      leader_threads.emplace_back([&, t] {
        Rng rng(t + 1);
        for (size_t i = 0; i < kAcquisitionsPerThread; ++i) {
          runtime.LeaderAcquire(static_cast<uint32_t>(t));
          // Unsynchronized busy work to shuffle the interleaving.
          volatile uint64_t x = rng.NextBounded(200);
          while (x > 0) {
            x = x - 1;
          }
        }
      });
    }
    for (auto& t : leader_threads) {
      t.join();
    }
  }
  const std::vector<uint32_t> order = runtime.Order();
  ASSERT_EQ(order.size(), kThreads * kAcquisitionsPerThread);

  // Followers: per-thread acquisition counts must be consumable exactly in
  // the recorded order. Each follower runs kThreads real threads that only
  // know "I am EGID t and I acquire N times". Each acquisition records the
  // order index it consumed (fixed under the runtime's lock): appending after
  // FollowerAcquire returns would race the next entry's owner.
  constexpr uint32_t kUnconsumed = UINT32_MAX;
  for (size_t f = 0; f < kFollowers; ++f) {
    std::vector<uint32_t> replayed(order.size(), kUnconsumed);
    std::atomic<size_t> out_of_range{0};
    std::vector<std::thread> follower_threads;
    for (size_t t = 0; t < kThreads; ++t) {
      follower_threads.emplace_back([&, t] {
        for (size_t i = 0; i < kAcquisitionsPerThread; ++i) {
          const size_t index = runtime.FollowerAcquire(f, static_cast<uint32_t>(t));
          if (index >= replayed.size() || replayed[index] != kUnconsumed) {
            ++out_of_range;  // consumed twice, or past the recorded order
            continue;
          }
          replayed[index] = static_cast<uint32_t>(t);
        }
      });
    }
    for (auto& t : follower_threads) {
      t.join();
    }
    EXPECT_EQ(out_of_range.load(), 0u) << "follower " << f;
    EXPECT_EQ(replayed, order) << "follower " << f << " diverged from leader order";
  }
}

TEST(WeakDetTest, DetMutexEnforcesLeaderOrderAcrossFollowerThreads) {
  nxe::SynccallRuntime runtime(1);
  nxe::DetMutex mu_a(&runtime, 0);
  nxe::DetMutex mu_b(&runtime, 1);

  // Leader acquires B then A.
  mu_b.LockAsLeader();
  mu_b.Unlock();
  mu_a.LockAsLeader();
  mu_a.Unlock();

  // Follower threads try A-first and B-first concurrently; the runtime must
  // force B before A regardless of scheduling. Each thread records its mutex
  // at the order index its acquisition consumed: appending after the lock
  // returns would race the other thread, which may already hold its mutex.
  std::vector<int> sequence(2, -1);
  std::thread ta([&] {
    sequence[mu_a.LockAsFollower(0)] = 0;
    mu_a.Unlock();
  });
  std::thread tb([&] {
    sequence[mu_b.LockAsFollower(0)] = 1;
    mu_b.Unlock();
  });
  ta.join();
  tb.join();
  EXPECT_EQ(sequence, (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace bunshin
