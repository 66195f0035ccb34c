// Stress and unit coverage for the concurrency substrate: LaneQueue
// FIFO-per-producer under 16 producers x 4 consumers (the TSan acceptance
// workload), the CompletionQueue producer-registration assert, ThreadPool
// work stealing, and the plan cache's counters under concurrent lookups.
// This suite runs under ThreadSanitizer and ASan+UBSan in CI alongside the
// async/shard suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/api/async.h"
#include "src/api/nvx.h"
#include "src/api/plan_cache.h"
#include "src/support/lanes.h"
#include "src/support/thread_pool.h"

namespace bunshin {
namespace {

using api::CompletionQueue;
using api::PlanCache;
using api::PlanCacheStats;
using api::RunReport;
using support::LaneQueue;
using support::ThreadPool;

// ---------------------------------------------------------------------------
// LaneQueue stress: FIFO per producer, exactly-once delivery.
// ---------------------------------------------------------------------------

constexpr size_t kProducers = 16;
constexpr size_t kConsumers = 4;
constexpr size_t kEventsPerProducer = 10'000;
constexpr size_t kTotalEvents = kProducers * kEventsPerProducer;

uint64_t Encode(size_t producer, size_t seq) {
  return (static_cast<uint64_t>(producer) << 32) | static_cast<uint64_t>(seq);
}

// Serialized pops observe strict FIFO per producer: with pops externally
// ordered (one mutex across all consumers), every producer's events must
// come out in exactly push order, whatever lanes and overflow did inside.
TEST(LaneQueueStressTest, FifoPerProducerUnderSerializedPops) {
  LaneQueue<uint64_t> queue(/*n_lanes=*/8, /*lane_capacity=*/64);  // small rings: overflow exercised

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (size_t s = 0; s < kEventsPerProducer; ++s) {
        queue.Push(Encode(p, s));
      }
    });
  }

  std::mutex pop_mu;  // serializes pops, making global FIFO-per-producer observable
  std::vector<uint64_t> next_seq(kProducers, 0);
  std::atomic<size_t> popped{0};
  std::atomic<bool> order_ok{true};
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::lock_guard<std::mutex> lock(pop_mu);
        if (popped.load(std::memory_order_relaxed) == kTotalEvents) {
          return;
        }
        uint64_t item = 0;
        if (!queue.TryPop(&item)) {
          continue;
        }
        popped.fetch_add(1, std::memory_order_relaxed);
        const size_t producer = item >> 32;
        const uint64_t seq = item & 0xffffffffu;
        if (seq != next_seq[producer]) {
          order_ok.store(false, std::memory_order_relaxed);
        }
        next_seq[producer] = seq + 1;
      }
    });
  }

  for (auto& thread : producers) {
    thread.join();
  }
  for (auto& thread : consumers) {
    thread.join();
  }
  EXPECT_TRUE(order_ok.load()) << "a producer's events were reordered";
  EXPECT_EQ(popped.load(), kTotalEvents);
  for (size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kEventsPerProducer) << "producer " << p;
  }
  EXPECT_EQ(queue.size(), 0u);
}

// Free-running consumers (blocking Pop, no external order) still see each
// producer monotonically — a consumer's sequential pops can never observe
// producer P's event k after k+1 — and every event exactly once.
TEST(LaneQueueStressTest, ExactlyOnceDeliveryUnderConcurrentConsumers) {
  LaneQueue<uint64_t> queue(/*n_lanes=*/8, /*lane_capacity=*/64);

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (size_t s = 0; s < kEventsPerProducer; ++s) {
        queue.Push(Encode(p, s));
      }
    });
  }

  // Exactly kTotalEvents blocking pops are handed out across consumers, so
  // every Pop() has an item to wait for and the queue drains completely.
  std::atomic<size_t> tickets{0};
  std::vector<std::vector<uint64_t>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (tickets.fetch_add(1, std::memory_order_relaxed) < kTotalEvents) {
        seen[c].push_back(queue.Pop());
      }
    });
  }

  for (auto& thread : producers) {
    thread.join();
  }
  for (auto& thread : consumers) {
    thread.join();
  }

  std::set<uint64_t> all;
  for (size_t c = 0; c < kConsumers; ++c) {
    std::vector<uint64_t> last(kProducers, 0);
    std::vector<bool> started(kProducers, false);
    for (uint64_t item : seen[c]) {
      const size_t producer = item >> 32;
      const uint64_t seq = item & 0xffffffffu;
      if (started[producer]) {
        EXPECT_GT(seq, last[producer]) << "consumer " << c << " saw producer "
                                       << producer << " out of order";
      }
      started[producer] = true;
      last[producer] = seq;
      all.insert(item);
    }
  }
  EXPECT_EQ(all.size(), kTotalEvents) << "events lost or duplicated";
  EXPECT_EQ(queue.size(), 0u);
}

// The CompletionQueue API path: report payloads (not just integers) moving
// through lanes, with TryNext/Wait/size intact.
TEST(CompletionQueueTest, ShardedLanesCarryReportsFifoPerProducer) {
  CompletionQueue queue;
  constexpr size_t kThreads = 8;
  constexpr size_t kEach = 500;

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&queue, p] {
      queue.AddProducer();
      for (size_t s = 0; s < kEach; ++s) {
        RunReport report;
        report.synced_syscalls = s;  // payload round-trip check
        queue.Push(api::CompletionEvent{Encode(p, s), StatusOr<RunReport>(std::move(report))});
      }
      queue.RemoveProducer();
    });
  }
  for (auto& thread : producers) {
    thread.join();
  }

  std::vector<uint64_t> next_seq(kThreads, 0);
  for (size_t i = 0; i < kThreads * kEach; ++i) {
    api::CompletionEvent event = queue.Wait();
    const size_t producer = event.token >> 32;
    const uint64_t seq = event.token & 0xffffffffu;
    EXPECT_EQ(seq, next_seq[producer]) << "producer " << producer;
    next_seq[producer] = seq + 1;
    ASSERT_TRUE(event.report.ok());
    EXPECT_EQ(event.report->synced_syscalls, seq);
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.TryNext().has_value());
  EXPECT_EQ(queue.registered_producers(), 0u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(CompletionQueueDeathTest, DestructionWithRegisteredProducersAsserts) {
  EXPECT_DEATH(
      {
        CompletionQueue queue;
        queue.AddProducer();  // simulated in-flight submit, never delivered
      },
      "registered producers");
}
#endif

// ---------------------------------------------------------------------------
// ThreadPool: work stealing.
// ---------------------------------------------------------------------------

// On a fresh 2-worker pool the round-robin cursor deals tasks to workers 0,
// 1, 0: the third task waits behind the blocked first one on worker 0's
// queue, so it can only run if worker 1 steals it.
TEST(ThreadPoolStealTest, IdleWorkerStealsFromTargetedQueue) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> stolen_ran{false};

  pool.Submit([&] {
    blocker_started.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!blocker_started.load()) {
    std::this_thread::yield();
  }
  pool.Submit([] {});
  pool.Submit([&] { stolen_ran.store(true); });
  while (!stolen_ran.load()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(stolen_ran.load());
  release.store(true);
  pool.WaitIdle();
}

// The first task holds its worker until every other task has run, and a
// third of those were dealt to that worker's queue: WaitIdle only returns
// once the other workers have stolen them and the blocker has finished. The
// deadline turns a stealing bug into a failure instead of a hang.
TEST(ThreadPoolStealTest, WaitIdleDrainsTargetedAndRoundRobinWork) {
  constexpr size_t kTasks = 128;
  ThreadPool pool(3);
  std::atomic<size_t> ran{0};
  std::atomic<bool> drained_while_blocked{false};
  pool.Submit([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ran.load() < kTasks - 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    drained_while_blocked.store(ran.load() == kTasks - 1);
    ran.fetch_add(1);
  });
  for (size_t i = 1; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_TRUE(drained_while_blocked.load());
}

// ---------------------------------------------------------------------------
// Plan cache under concurrent lookups.
// ---------------------------------------------------------------------------

TEST(SegmentedCacheTest, CountersStayCoherentUnderConcurrentLookups) {
  PlanCache cache(/*capacity=*/32);
  constexpr size_t kThreads = 8;
  constexpr size_t kLookups = 2'000;
  constexpr size_t kKeys = 16;

  std::atomic<bool> stop_polling{false};
  // Telemetry poller: stats() must be safe (and lock-free) against the
  // lookup traffic — this is the TSan half of the relaxed-counter satellite.
  std::thread poller([&] {
    while (!stop_polling.load()) {
      const PlanCacheStats stats = cache.stats();
      EXPECT_LE(stats.entries, 32u);
    }
  });

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (size_t i = 0; i < kLookups; ++i) {
        const std::string key = "plan" + std::to_string((i + t) % kKeys);
        auto plan = cache.GetOrPlan(key, [] { return api::VariantPlan(); });
        EXPECT_TRUE(plan.ok());
      }
    });
  }
  for (auto& thread : workers) {
    thread.join();
  }
  stop_polling.store(true);
  poller.join();

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kLookups);
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  // Single-flight: with no evictions each key is planned exactly once, however
  // many threads miss it concurrently.
  EXPECT_EQ(stats.misses, kKeys);
}

}  // namespace
}  // namespace bunshin
