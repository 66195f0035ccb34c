// Tests for the N-version execution engine: synchronization semantics,
// divergence detection, sanitizer-syscall filtering, lockstep modes, weak
// determinism, and the cost model.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

using nxe::ActionKind;
using nxe::Engine;
using nxe::EngineConfig;
using nxe::LockstepMode;
using nxe::ThreadAction;
using nxe::VariantTrace;

sc::SyscallRecord MakeWrite(const std::string& payload) {
  sc::SyscallRecord rec;
  rec.no = sc::Sysno::kWrite;
  rec.args = {1, static_cast<int64_t>(payload.size()), 0, 0, 0, 0};
  rec.payload_digest = sc::DigestString(payload);
  return rec;
}

sc::SyscallRecord MakeRead() {
  sc::SyscallRecord rec;
  rec.no = sc::Sysno::kRead;
  rec.args = {0, 128, 0, 0, 0, 0};
  return rec;
}

// A test-side action with its operand inline; SetThread lowers it into a
// trace's compact actions and side tables.
struct Step {
  ThreadAction action;
  std::optional<sc::SyscallRecord> syscall;
  std::string detector;
};
Step Compute(double cycles) { return {ThreadAction::Compute(cycles)}; }
Step Syscall(const sc::SyscallRecord& rec) { return {ThreadAction{ActionKind::kSyscall}, rec}; }
Step Detect(std::string detector) {
  return {ThreadAction{ActionKind::kDetect}, std::nullopt, std::move(detector)};
}
Step Barrier(uint32_t id) { return {ThreadAction::Barrier(id)}; }
Step Exit() { return {ThreadAction::Exit()}; }

void SetThread(VariantTrace* trace, size_t t, const std::vector<Step>& steps) {
  auto& actions = trace->threads[t].actions;
  actions.clear();
  for (const Step& step : steps) {
    if (step.syscall.has_value()) {
      actions.push_back(trace->AddSyscall(*step.syscall));
    } else if (step.action.kind == ActionKind::kDetect) {
      actions.push_back(trace->AddDetect(step.detector));
    } else {
      actions.push_back(step.action);
    }
  }
}

VariantTrace SimpleVariant(const std::string& name, double scale, std::vector<Step> steps) {
  VariantTrace trace;
  trace.name = name;
  trace.compute_scale = scale;
  trace.threads.resize(1);
  steps.push_back(Exit());
  SetThread(&trace, 0, steps);
  return trace;
}

TEST(EngineTest, IdenticalVariantsComplete) {
  const std::vector<Step> actions = {
      Compute(100), Syscall(MakeRead()),
      Compute(50), Syscall(MakeWrite("hello"))};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, actions),
                                        SimpleVariant("b", 1.0, actions),
                                        SimpleVariant("c", 1.0, actions)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_FALSE(report->divergence.has_value());
  EXPECT_EQ(report->synced_syscalls, 2u);
}

TEST(EngineTest, ArgumentDivergenceDetected) {
  const std::vector<Step> good = {Compute(10), Syscall(MakeWrite("normal"))};
  const std::vector<Step> evil = {Compute(10), Syscall(MakeWrite("leaked-secret"))};
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 1.0, good),
                                        SimpleVariant("follower", 1.0, evil)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->divergence.has_value());
  EXPECT_EQ(report->divergence->variant, 1u);
  EXPECT_TRUE(report->aborted_all);
}

TEST(EngineTest, SequenceDivergenceDetected) {
  const std::vector<Step> two = {Syscall(MakeRead()), Syscall(MakeWrite("x"))};
  const std::vector<Step> one = {Syscall(MakeRead())};
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 1.0, two),
                                        SimpleVariant("follower", 1.0, one)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->divergence.has_value());
}

TEST(EngineTest, DetectionAbortsAllVariants) {
  const std::vector<Step> protected_v = {Compute(10), Detect("__asan_report_store")};
  const std::vector<Step> unprotected_v = {Compute(10), Syscall(MakeWrite("pwned"))};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, protected_v),
                                        SimpleVariant("b", 1.0, unprotected_v)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->detection.has_value());
  EXPECT_EQ(report->detection->detector, "__asan_report_store");
  EXPECT_TRUE(report->aborted_all);
  EXPECT_FALSE(report->completed);
}

TEST(EngineTest, SanitizerMemoryManagementSyscallsIgnored) {
  // Variant b issues extra mmap/madvise (sanitizer metadata management);
  // no false alarm may result (§3.3).
  sc::SyscallRecord mmap_rec;
  mmap_rec.no = sc::Sysno::kMmap;
  mmap_rec.args = {0, 4096, 0, 0, 0, 0};
  const std::vector<Step> plain = {Compute(10), Syscall(MakeWrite("ok"))};
  const std::vector<Step> with_mm = {
      Syscall(mmap_rec), Compute(10),
      Syscall(mmap_rec), Syscall(MakeWrite("ok"))};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, plain),
                                        SimpleVariant("b", 1.2, with_mm)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->ignored_syscalls, 2u);
}

TEST(EngineTest, PreMainAndPostExitSyscallsIgnored) {
  const std::vector<Step> actions = {Compute(10), Syscall(MakeWrite("ok"))};
  std::vector<VariantTrace> variants = {SimpleVariant("asan", 1.5, actions),
                                        SimpleVariant("plain", 1.0, actions)};
  // The ASan variant reads /proc/self before main and writes a report at exit.
  variants[0].pre_main = {sc::ParseIntroducedSyscall("open:/proc/self/maps"),
                          sc::ParseIntroducedSyscall("read:/proc/self/maps")};
  variants[0].post_exit = {sc::ParseIntroducedSyscall("write:report")};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(report->ignored_syscalls, 3u);
}

TEST(EngineTest, SelectiveFasterThanStrict) {
  const auto& bench = workload::Spec2006()[0];  // perlbench: syscall-heavy
  auto variants = workload::BuildIdenticalVariants(bench, 3, 42);

  EngineConfig strict;
  strict.mode = LockstepMode::kStrict;
  strict.cache_sensitivity = bench.cache_sensitivity;
  EngineConfig selective = strict;
  selective.mode = LockstepMode::kSelective;

  Engine strict_engine(strict);
  Engine selective_engine(selective);
  auto strict_report = strict_engine.Run(variants);
  auto selective_report = selective_engine.Run(variants);
  ASSERT_TRUE(strict_report.ok());
  ASSERT_TRUE(selective_report.ok());
  EXPECT_TRUE(strict_report->completed);
  EXPECT_TRUE(selective_report->completed);
  EXPECT_LT(selective_report->total_time, strict_report->total_time);
}

TEST(EngineTest, OverheadGrowsWithVariantCount) {
  const auto& bench = workload::Spec2006()[1];  // bzip2
  Engine engine(EngineConfig{});
  const double baseline = *engine.RunBaseline(workload::BuildIdenticalVariants(bench, 1, 7)[0]);
  double prev_overhead = -1.0;
  for (size_t n : {2, 4, 8}) {
    EngineConfig config;
    config.cost.cores = 12;
    config.cache_sensitivity = bench.cache_sensitivity;
    Engine scaled(config);
    auto report = scaled.Run(workload::BuildIdenticalVariants(bench, n, 7));
    ASSERT_TRUE(report.ok());
    auto overhead_or = report->OverheadVs(baseline);
    ASSERT_TRUE(overhead_or.ok());
    const double overhead = *overhead_or;
    EXPECT_GT(overhead, prev_overhead) << "n=" << n;
    prev_overhead = overhead;
  }
}

TEST(EngineTest, SelectiveModeReportsSyscallGap) {
  const auto& bench = workload::Spec2006()[0];
  auto variants = workload::BuildIdenticalVariants(bench, 3, 11);
  EngineConfig config;
  config.mode = LockstepMode::kSelective;
  Engine engine(config);
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_GT(report->max_syscall_gap, 0u);
  EXPECT_GE(report->avg_syscall_gap, 0.0);
  // Ring capacity bounds the gap.
  EXPECT_LE(report->max_syscall_gap, config.ring_capacity);
}

TEST(EngineTest, MultithreadedIdenticalVariantsComplete) {
  const auto& bench = workload::Splash2x()[0];  // barnes, 4 threads + locks
  auto variants = workload::BuildIdenticalVariants(bench, 3, 21);
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
  EXPECT_GT(report->lock_acquisitions, 0u);
}

TEST(EngineTest, MultithreadedOverheadIncludesLockOrdering) {
  const auto& mt = workload::Splash2x()[9];  // radiosity: lock heavy
  const auto& st = workload::Spec2006()[1];
  Engine engine(EngineConfig{});
  auto mt_variants = workload::BuildIdenticalVariants(mt, 3, 5);
  auto st_variants = workload::BuildIdenticalVariants(st, 3, 5);
  const double mt_base = *engine.RunBaseline(mt_variants[0]);
  const double st_base = *engine.RunBaseline(st_variants[0]);
  auto mt_report = engine.Run(mt_variants);
  auto st_report = engine.Run(st_variants);
  ASSERT_TRUE(mt_report.ok());
  ASSERT_TRUE(st_report.ok());
  ASSERT_TRUE(mt_report->completed);
  EXPECT_GT(*mt_report->OverheadVs(mt_base), *st_report->OverheadVs(st_base));
}

TEST(EngineTest, VariantFinishTimesTrackComputeScale) {
  const std::vector<Step> actions = {Compute(1000), Syscall(MakeWrite("done"))};
  std::vector<VariantTrace> variants = {SimpleVariant("slow", 2.0, actions),
                                        SimpleVariant("fast", 1.0, actions)};
  Engine engine(EngineConfig{});
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->completed);
  // Strict lockstep: everyone finishes with the slowest (leader waits too).
  EXPECT_NEAR(report->variant_finish_time[0], report->variant_finish_time[1],
              report->total_time * 0.05);
}

TEST(EngineTest, RejectsEmptyAndMismatchedInput) {
  Engine engine(EngineConfig{});
  EXPECT_FALSE(engine.Run({}).ok());

  VariantTrace one_thread = SimpleVariant("a", 1.0, {});
  VariantTrace two_threads = SimpleVariant("b", 1.0, {});
  two_threads.threads.resize(2);
  EXPECT_FALSE(engine.Run({one_thread, two_threads}).ok());
}

// The scheduler packs (variant, thread) into one 32-bit word; a wider
// session is an error, not a silent detour to another scheduler. The threads
// here are simulated trace threads — the test starts no OS threads.
TEST(EngineTest, RejectsSessionsWiderThanTheSchedulerPacks) {
  Engine engine(EngineConfig{});
  const std::vector<VariantTrace> many_variants(nxe::kMaxSessionWidth + 1,
                                                SimpleVariant("v", 1.0, {}));
  auto report = engine.Run(many_variants);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  VariantTrace many_threads = SimpleVariant("t", 1.0, {});
  many_threads.threads.resize(nxe::kMaxSessionWidth + 1, many_threads.threads[0]);
  report = engine.Run({many_threads});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, SingleCoreSerializesCompute) {
  const auto& bench = workload::Spec2006()[1];
  auto variants = workload::BuildIdenticalVariants(bench, 2, 3);
  EngineConfig config;
  config.cost.cores = 1;
  Engine engine(config);
  const double baseline = *engine.RunBaseline(variants[0]);
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok());
  // Roughly doubles: two variants time-share one core (§5.7: 103.1%).
  EXPECT_GT(*report->OverheadVs(baseline), 0.8);
}

TEST(EngineTest, LockstepConsumeTimesUseFollowerFetchClock) {
  // Regression: in the strict/IO lockstep path the follower's consume time
  // was recorded as the leader's done_time instead of the follower's actual
  // post-fetch clock (done_time + result_fetch + wakeup). In a selective run
  // that mixes IO-write lockstep syscalls, that skewed both the §5.3 gap
  // metric and the ring free time the next publish stalls on.
  EngineConfig config;
  config.mode = LockstepMode::kSelective;
  config.ring_capacity = 1;
  config.cost.wait_wakeup = 10.0;  // make the follower's wakeup clearly visible
  const nxe::CostModel& cm = config.cost;

  // Leader (scale 2) arrives last at the write, so the follower sleeps there
  // and fetches the result only at done_time + result_fetch + wakeup. The
  // leader's next (ring) syscall reuses the only slot and must stall until
  // that real fetch time.
  const std::vector<Step> actions = {
      Compute(100), Syscall(MakeWrite("w")),
      Compute(0.1), Syscall(MakeRead())};
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 2.0, actions),
                                        SimpleVariant("follower", 1.0, actions)};
  Engine engine(config);
  auto report = engine.Run(variants);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->completed);

  const double factor = cm.LlcMultiplier(2, config.cache_sensitivity);
  const double leader_arrival = 2.0 * 100 * factor + cm.trap_hook;
  const double done_time = leader_arrival + cm.sync_slot + cm.kernel_syscall;
  const double follower_fetch = done_time + cm.result_fetch + cm.WakeupCost();
  // The leader's ring publish stalls until the follower's real fetch time —
  // with the bug it restarted at done_time and finished well before this.
  EXPECT_GT(report->variant_finish_time[0], follower_fetch);
  const double expected_leader_finish =
      follower_fetch + cm.sync_slot + cm.kernel_syscall + cm.sync_slot + cm.WakeupCost();
  EXPECT_NEAR(report->variant_finish_time[0], expected_leader_finish, 1e-9);
  // At each publish instant the follower has not yet fetched that slot:
  // gap 1 at both syscalls. The bug counted the lockstep slot as already
  // consumed at its own publish time (gap 0 there, avg 0.5).
  EXPECT_NEAR(report->avg_syscall_gap, 1.0, 1e-9);
}

TEST(EngineTest, MalformedBarrierTraceConsistentAcrossRunAndBaseline) {
  // Thread 1 exits without ever reaching the barrier thread 0 waits at. Both
  // entry points must call this out as a malformed trace rather than
  // releasing a partial barrier (RunBaseline) or deadlocking (Run).
  VariantTrace trace;
  trace.name = "partial-barrier";
  trace.threads.resize(2);
  SetThread(&trace, 0, {Compute(10), Barrier(0), Exit()});
  SetThread(&trace, 1, {Compute(5), Exit()});

  Engine engine(EngineConfig{});
  auto baseline = engine.RunBaseline(trace);
  ASSERT_FALSE(baseline.ok());
  EXPECT_EQ(baseline.status().code(), StatusCode::kInvalidArgument);

  auto report = engine.Run({trace, trace});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ThreadMayExitAfterItsLastBarrier) {
  // Exiting is fine as long as no barrier is skipped: thread 1 finishes right
  // after the shared barrier while thread 0 keeps running and syncing.
  VariantTrace trace;
  trace.name = "early-exit";
  trace.threads.resize(2);
  SetThread(&trace, 0, {Barrier(0), Compute(50), Syscall(MakeWrite("tail")), Exit()});
  SetThread(&trace, 1, {Barrier(0), Exit()});

  Engine engine(EngineConfig{});
  auto baseline = engine.RunBaseline(trace);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(*baseline, 0.0);
  auto report = engine.Run({trace, trace});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->completed);
}

TEST(EngineTest, BaselineDetectAbortsWholeProcess) {
  // A firing check kills the standalone process: time-to-abort is the
  // detecting thread's clock, whichever thread index carries the check; the
  // other thread's remaining work (and its pending barrier) never happens
  // and must not be billed or flagged as malformed.
  for (const size_t detect_thread : {0u, 1u}) {
    VariantTrace trace;
    trace.name = "standalone-detect";
    trace.threads.resize(2);
    SetThread(&trace, detect_thread, {Compute(10), Detect("__asan_report_store")});
    SetThread(&trace, 1 - detect_thread, {Compute(1000), Barrier(0), Exit()});
    Engine engine(EngineConfig{});
    auto baseline = engine.RunBaseline(trace);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_DOUBLE_EQ(*baseline, 10.0) << "detect in thread " << detect_thread;
  }
}

TEST(EngineTest, TinyRingThrottlesLeaderToFollowerPace) {
  // ring_capacity back-pressure: with a slow follower and a tiny ring the
  // leader stalls on each slot's free time and is held to the follower's
  // pace; with a ring larger than the stream it runs ahead unthrottled.
  std::vector<Step> actions;
  for (int i = 0; i < 20; ++i) {
    actions.push_back(Compute(10));
    actions.push_back(Syscall(MakeRead()));
  }
  std::vector<VariantTrace> variants = {SimpleVariant("leader", 1.0, actions),
                                        SimpleVariant("slow-follower", 4.0, actions)};

  EngineConfig small;
  small.mode = LockstepMode::kSelective;
  small.ring_capacity = 2;
  EngineConfig big = small;
  big.ring_capacity = 64;

  auto small_report = Engine(small).Run(variants);
  auto big_report = Engine(big).Run(variants);
  ASSERT_TRUE(small_report.ok()) << small_report.status().ToString();
  ASSERT_TRUE(big_report.ok()) << big_report.status().ToString();
  EXPECT_TRUE(small_report->completed);
  EXPECT_TRUE(big_report->completed);

  // The ring bounds the attack window exactly; the big ring lets it grow.
  EXPECT_EQ(small_report->max_syscall_gap, 2u);
  EXPECT_GT(big_report->max_syscall_gap, 2u);
  EXPECT_LE(big_report->max_syscall_gap, big.ring_capacity);

  // free_time bookkeeping: the throttled leader finishes near the follower,
  // the unthrottled one far ahead of it.
  const double small_leader = small_report->variant_finish_time[0];
  const double small_follower = small_report->variant_finish_time[1];
  const double big_leader = big_report->variant_finish_time[0];
  const double big_follower = big_report->variant_finish_time[1];
  EXPECT_GT(small_leader, 1.5 * big_leader);
  EXPECT_GT(small_leader, 0.8 * small_follower);
  EXPECT_LT(big_leader, 0.5 * big_follower);
  // Back-pressure delays the leader, never the total (the follower is the
  // critical path in both runs).
  EXPECT_NEAR(small_follower, big_follower, 0.05 * big_follower);
}

TEST(EngineTest, SelectiveModeRejectsZeroRingCapacity) {
  const std::vector<Step> actions = {Syscall(MakeRead())};
  std::vector<VariantTrace> variants = {SimpleVariant("a", 1.0, actions),
                                        SimpleVariant("b", 1.0, actions)};
  EngineConfig config;
  config.mode = LockstepMode::kSelective;
  config.ring_capacity = 0;
  auto report = Engine(config).Run(variants);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  config.mode = LockstepMode::kStrict;  // strict mode never touches the ring
  EXPECT_TRUE(Engine(config).Run(variants).ok());
}

TEST(CostModelTest, LlcMultiplierMonotone) {
  nxe::CostModel cm;
  double prev = 0.0;
  for (size_t n = 1; n <= 8; ++n) {
    const double mult = cm.LlcMultiplier(n, 1.0);
    EXPECT_GE(mult, 1.0);
    EXPECT_GE(mult, prev);
    prev = mult;
  }
}

TEST(CostModelTest, LoadInflatesWakeups) {
  nxe::CostModel idle;
  idle.background_load = 0.02;
  nxe::CostModel busy;
  busy.background_load = 0.99;
  EXPECT_GT(busy.WakeupCost(), idle.WakeupCost());
}

}  // namespace
}  // namespace bunshin
