// Stress and unit coverage for the topology-aware concurrency substrate:
// LaneQueue FIFO-per-producer under 16 producers x 4 consumers (the TSan
// acceptance workload), the CompletionQueue producer-registration assert,
// Topology fakes and placement order, ThreadPool work stealing/pinning, and
// the plan cache's counters under concurrent lookups. This
// suite runs under ThreadSanitizer in CI alongside the async/shard suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
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
#include "src/support/topology.h"

namespace bunshin {
namespace {

using api::CompletionQueue;
using api::NvxBuilder;
using api::PlacementPolicy;
using api::PlanCache;
using api::PlanCacheStats;
using api::RunReport;
using support::LaneQueue;
using support::ThreadPool;
using support::Topology;

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
// Topology fakes and placement order.
// ---------------------------------------------------------------------------

TEST(TopologyTest, FlatIsOneThreadPerCore) {
  const Topology topology = Topology::Flat(4);
  EXPECT_EQ(topology.n_cpus(), 4u);
  EXPECT_EQ(topology.n_physical_cores(), 4u);
  EXPECT_FALSE(topology.has_smt());
  EXPECT_EQ(topology.PlacementOrder(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(TopologyTest, FakeCountsCoresAndSiblings) {
  const Topology topology = Topology::Fake(/*packages=*/2, /*cores_per_package=*/4,
                                           /*smt=*/2, /*llc_groups_per_package=*/2);
  EXPECT_EQ(topology.n_cpus(), 16u);
  EXPECT_EQ(topology.n_physical_cores(), 8u);
  EXPECT_TRUE(topology.has_smt());
}

TEST(TopologyTest, PlacementSpreadsLlcGroupsThenFillsSiblingsLast) {
  // 1 package x 4 cores x SMT2, two LLC groups: cores {0,1} share one cache,
  // {2,3} the other. CPU ids are sibling-major (0..3 primary, 4..7 sibling).
  const Topology topology = Topology::Fake(1, 4, 2, 2);
  // Primaries first, dealt across the two LLC groups (0,2 then 1,3); the
  // SMT siblings (+4) follow in the same core order.
  EXPECT_EQ(topology.PlacementOrder(), (std::vector<int>{0, 2, 1, 3, 4, 6, 5, 7}));
}

TEST(TopologyTest, PlacementCoversEveryCpuExactlyOnce) {
  const Topology topology = Topology::Fake(2, 3, 2, 3);
  const std::vector<int> order = topology.PlacementOrder();
  ASSERT_EQ(order.size(), topology.n_cpus());
  std::set<int> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), topology.n_cpus());
  // The first n_physical entries must all be distinct physical cores.
  std::map<int, int> cpu_core;
  for (const Topology::Cpu& cpu : topology.cpus) {
    cpu_core[cpu.id] = cpu.core;
  }
  std::set<int> first_cores;
  for (size_t i = 0; i < topology.n_physical_cores(); ++i) {
    first_cores.insert(cpu_core[order[i]]);
  }
  EXPECT_EQ(first_cores.size(), topology.n_physical_cores())
      << "an SMT sibling was placed before all physical cores were used";
}

TEST(TopologyTest, DetectReturnsAConsistentMachine) {
  const Topology topology = Topology::Detect();  // sysfs or the Flat fallback
  ASSERT_FALSE(topology.empty());
  EXPECT_GE(topology.n_physical_cores(), 1u);
  EXPECT_EQ(topology.PlacementOrder().size(), topology.n_cpus());
}

// ---------------------------------------------------------------------------
// ThreadPool: stealing, targeted submission, pinning plan.
// ---------------------------------------------------------------------------

TEST(ThreadPoolStealTest, IdleWorkerStealsFromTargetedQueue) {
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> stolen_ran{false};

  // Occupy worker 0, then target more work at its queue: an idle worker
  // must steal it while worker 0 is still blocked.
  pool.SubmitTo(0, [&] {
    blocker_started.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (!blocker_started.load()) {
    std::this_thread::yield();
  }
  pool.SubmitTo(0, [&] { stolen_ran.store(true); });
  while (!stolen_ran.load()) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(stolen_ran.load());
  release.store(true);
  pool.WaitIdle();
}

TEST(ThreadPoolStealTest, WaitIdleDrainsTargetedAndRoundRobinWork) {
  ThreadPool pool(3);
  std::atomic<size_t> ran{0};
  for (size_t i = 0; i < 64; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
    pool.SubmitTo(i, [&ran] { ran.fetch_add(1); });  // any index: wraps mod n
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 128u);
}

TEST(ThreadPoolPinTest, PlanFollowsPlacementOrderAndWraps) {
  const Topology topology = Topology::Fake(1, 4, 2, 2);
  const std::vector<int> order = topology.PlacementOrder();
  const std::vector<int> plan = ThreadPool::PlanWorkerCpus(topology, 10);
  ASSERT_EQ(plan.size(), 10u);
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i], order[i % order.size()]) << "worker " << i;
  }
}

TEST(ThreadPoolPinTest, EmptyTopologyPlansUnpinned) {
  const std::vector<int> plan = ThreadPool::PlanWorkerCpus(Topology{}, 3);
  EXPECT_EQ(plan, (std::vector<int>{-1, -1, -1}));
}

TEST(ThreadPoolPinTest, PinnedPoolReportsPlannedCpuOrMinusOne) {
  ThreadPool::Options options;
  options.n_workers = 2;
  options.pin_threads = true;
  options.topology = Topology::Detect();
  const std::vector<int> plan = ThreadPool::PlanWorkerCpus(options.topology, 2);
  ThreadPool pool(options);
  pool.WaitIdle();  // workers started; pinning happened before their loop
  for (size_t i = 0; i < pool.n_workers(); ++i) {
    const int cpu = pool.pinned_cpu(i);
    // Best-effort contract: the planned CPU when affinity stuck, -1 when the
    // host refused (containers with restricted affinity masks).
    EXPECT_TRUE(cpu == -1 || cpu == plan[i]) << "worker " << i << " got " << cpu;
  }
  std::atomic<size_t> ran{0};
  for (size_t i = 0; i < 16; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 16u);
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

// ---------------------------------------------------------------------------
// Placement changes scheduling, never results.
// ---------------------------------------------------------------------------

// Same shard decomposition, so every merged field must match exactly: kSpread
// only moves which worker/core runs each shard.
void ExpectReportsBitIdentical(const RunReport& got, const RunReport& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.aborted_all, want.aborted_all);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.variant_finish_time, want.variant_finish_time);
  EXPECT_EQ(got.variant_compute_scale, want.variant_compute_scale);
  EXPECT_EQ(got.synced_syscalls, want.synced_syscalls);
  EXPECT_EQ(got.ignored_syscalls, want.ignored_syscalls);
  EXPECT_EQ(got.lockstep_barriers, want.lockstep_barriers);
  EXPECT_EQ(got.lock_acquisitions, want.lock_acquisitions);
  EXPECT_EQ(got.max_syscall_gap, want.max_syscall_gap);
  EXPECT_EQ(got.avg_syscall_gap, want.avg_syscall_gap);
}

TEST(PlacementEquivalenceTest, SpreadPlacementIsBitIdenticalToUnplaced) {
  auto configure = [](NvxBuilder& builder) {
    builder.Benchmark(workload::Spec2006()[0])
        .Variants(8)
        .DistributeChecks(san::SanitizerId::kASan)
        .Seed(21)
        .Shards(4);
  };
  NvxBuilder plain;
  configure(plain);
  auto reference_session = plain.Build();
  ASSERT_TRUE(reference_session.ok()) << reference_session.status().ToString();
  auto reference = reference_session->Run();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  NvxBuilder placed;
  configure(placed);
  auto session = placed.Placement(PlacementPolicy::kSpread).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (int repeat = 0; repeat < 3; ++repeat) {
    SCOPED_TRACE("pinned sharded run " + std::to_string(repeat));
    auto report = session->Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectReportsBitIdentical(*report, *reference);
  }
}

// Against the unsharded session, kSpread upholds the same equivalence level
// tests/shard_test.cc pins for unplaced sharding: outcome, attribution,
// baseline, and per-variant sanitizer load (per-shard telemetry like barrier
// counts is legitimately per-decomposition).
TEST(PlacementEquivalenceTest, PinnedSpreadShardsMatchUnshardedOutcome) {
  auto configure = [](NvxBuilder& builder) {
    builder.Benchmark(workload::Spec2006()[0])
        .Variants(8)
        .DistributeChecks(san::SanitizerId::kASan)
        .Seed(21);
  };
  NvxBuilder plain;
  configure(plain);
  auto reference_session = plain.Build();
  ASSERT_TRUE(reference_session.ok()) << reference_session.status().ToString();
  auto reference = reference_session->Run();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  NvxBuilder sharded;
  configure(sharded);
  auto session = sharded.Shards(4).Placement(PlacementPolicy::kSpread).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, reference->outcome);
  EXPECT_EQ(report->aborted_all, reference->aborted_all);
  ASSERT_EQ(report->detection.has_value(), reference->detection.has_value());
  if (reference->detection.has_value()) {
    EXPECT_EQ(report->detection->variant, reference->detection->variant);
    EXPECT_EQ(report->detection->detector, reference->detection->detector);
  }
  ASSERT_EQ(report->baseline_time.has_value(), reference->baseline_time.has_value());
  if (reference->baseline_time.has_value()) {
    EXPECT_DOUBLE_EQ(*report->baseline_time, *reference->baseline_time);
  }
  EXPECT_EQ(report->variant_compute_scale, reference->variant_compute_scale);
}

}  // namespace
}  // namespace bunshin
