// Tests for the workload catalog and trace generation invariants.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "src/nxe/engine.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace {

TEST(WorkloadCatalogTest, SuitesMatchThePaper) {
  EXPECT_EQ(workload::Spec2006().size(), 19u);     // the 19 C/C++ SPEC programs
  EXPECT_EQ(workload::Splash2x().size(), 13u);     // all of SPLASH-2x
  EXPECT_EQ(workload::Parsec().size(), 13u);       // all of PARSEC
  EXPECT_EQ(workload::ParsecSupported().size(), 6u);  // §5.1: six run
}

TEST(WorkloadCatalogTest, CalibratedAveragesNearPaper) {
  double asan_sum = 0.0;
  double ubsan_sum = 0.0;
  for (const auto& spec : workload::Spec2006()) {
    asan_sum += spec.overheads.asan;
    ubsan_sum += spec.overheads.ubsan;
  }
  EXPECT_NEAR(asan_sum / 19.0, 1.07, 0.05);   // §5.4: 107%
  EXPECT_NEAR(ubsan_sum / 19.0, 2.28, 0.10);  // §5.5: 228%
}

TEST(WorkloadCatalogTest, OutliersAndExceptionsPresent) {
  EXPECT_GT(workload::FindBenchmark("hmmer")->hottest_share, 0.9);
  EXPECT_GT(workload::FindBenchmark("lbm")->hottest_share, 0.9);
  EXPECT_FALSE(workload::FindBenchmark("gcc")->overheads.msan_supported);
  EXPECT_EQ(workload::FindBenchmark("nonexistent"), nullptr);
}

// The N-version invariant: all variants of a benchmark must issue the same
// sync-relevant syscall sequence regardless of scale/jitter/sanitizers.
TEST(TracegenTest, SyncRelevantSequenceIdenticalAcrossVariants) {
  const auto& bench = workload::Spec2006()[0];
  workload::VariantSpec a;
  a.jitter_seed = 1;
  workload::VariantSpec b;
  b.jitter_seed = 99;
  b.compute_scale = 2.5;
  b.sanitizers = {san::SanitizerId::kASan};

  const auto ta = workload::BuildTrace(bench, a, 5);
  const auto tb = workload::BuildTrace(bench, b, 5);
  ASSERT_EQ(ta.threads.size(), tb.threads.size());
  for (size_t t = 0; t < ta.threads.size(); ++t) {
    std::vector<sc::SyscallRecord> sa;
    std::vector<sc::SyscallRecord> sb;
    for (const auto& act : ta.threads[t].actions) {
      if (act.kind == nxe::ActionKind::kSyscall && sc::IsSyncRelevant(ta.SyscallOf(act).no)) {
        sa.push_back(ta.SyscallOf(act));
      }
    }
    for (const auto& act : tb.threads[t].actions) {
      if (act.kind == nxe::ActionKind::kSyscall && sc::IsSyncRelevant(tb.SyscallOf(act).no)) {
        sb.push_back(tb.SyscallOf(act));
      }
    }
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_TRUE(sa[i].SameRequest(sb[i])) << "thread " << t << " index " << i;
    }
  }
}

TEST(TracegenTest, SanitizerVariantsCarryRuntimeSyscalls) {
  const auto& bench = workload::Spec2006()[1];
  workload::VariantSpec plain;
  workload::VariantSpec asan;
  asan.sanitizers = {san::SanitizerId::kASan};
  const auto tp = workload::BuildTrace(bench, plain, 5);
  const auto ta = workload::BuildTrace(bench, asan, 5);
  EXPECT_TRUE(tp.pre_main.empty());
  EXPECT_FALSE(ta.pre_main.empty());
  EXPECT_FALSE(ta.post_exit.empty());
  // The ASan variant has extra in-execution mmap/madvise actions.
  EXPECT_GT(ta.TotalActions(), tp.TotalActions());
}

TEST(TracegenTest, SameSeedSameTrace) {
  const auto& bench = workload::Splash2x()[0];
  workload::VariantSpec spec;
  const auto a = workload::BuildTrace(bench, spec, 5);
  const auto b = workload::BuildTrace(bench, spec, 5);
  ASSERT_EQ(a.TotalActions(), b.TotalActions());
  EXPECT_DOUBLE_EQ(a.TotalComputeCost(), b.TotalComputeCost());
}

TEST(TracegenTest, JitterSeedChangesOnlyCompute) {
  const auto& bench = workload::Spec2006()[2];
  workload::VariantSpec a;
  a.jitter_seed = 1;
  workload::VariantSpec b;
  b.jitter_seed = 2;
  const auto ta = workload::BuildTrace(bench, a, 5);
  const auto tb = workload::BuildTrace(bench, b, 5);
  EXPECT_EQ(ta.TotalActions(), tb.TotalActions());
  EXPECT_NE(ta.TotalComputeCost(), tb.TotalComputeCost());
}

TEST(TracegenTest, MultithreadedTraceHasLocksAndBarriers) {
  const auto& bench = workload::Splash2x()[9];  // radiosity
  workload::VariantSpec spec;
  const auto trace = workload::BuildTrace(bench, spec, 5);
  ASSERT_EQ(trace.threads.size(), 4u);
  size_t locks = 0;
  size_t barriers = 0;
  for (const auto& thread : trace.threads) {
    for (const auto& act : thread.actions) {
      locks += act.kind == nxe::ActionKind::kLockAcquire ? 1 : 0;
      barriers += act.kind == nxe::ActionKind::kBarrier ? 1 : 0;
    }
  }
  EXPECT_GT(locks, 0u);
  EXPECT_EQ(barriers, bench.barriers * trace.threads.size());
}

TEST(TracegenTest, ServerTraceRequestStructure) {
  workload::ServerSpec server;
  server.requests = 8;
  server.file_kb = 1024;
  workload::VariantSpec spec;
  const auto trace = workload::BuildServerTrace(server, spec, 5);
  size_t writes = 0;
  size_t accepts = 0;
  for (const auto& act : trace.threads[0].actions) {
    if (act.kind != nxe::ActionKind::kSyscall) {
      continue;
    }
    writes += trace.SyscallOf(act).no == sc::Sysno::kWrite ? 1 : 0;
    accepts += trace.SyscallOf(act).no == sc::Sysno::kAccept ? 1 : 0;
  }
  EXPECT_EQ(accepts, 8u);
  EXPECT_EQ(writes, 8u * 16u);  // 16 chunks per 1MB response
}

TEST(TracegenTest, IdenticalVariantsRunCleanUnderEngine) {
  // Property sweep: every supported benchmark must complete with no false
  // positives under both modes (the §5.1 robustness experiment).
  nxe::Engine strict(nxe::EngineConfig{});
  nxe::EngineConfig sel_config;
  sel_config.mode = nxe::LockstepMode::kSelective;
  nxe::Engine selective(sel_config);
  auto check = [&](const workload::BenchmarkSpec& spec) {
    auto variants = workload::BuildIdenticalVariants(spec, 3, 8);
    auto r1 = strict.Run(variants);
    auto r2 = selective.Run(variants);
    ASSERT_TRUE(r1.ok()) << spec.name;
    ASSERT_TRUE(r2.ok()) << spec.name;
    EXPECT_TRUE(r1->completed) << spec.name;
    EXPECT_TRUE(r2->completed) << spec.name;
  };
  for (const auto& spec : workload::Spec2006()) {
    check(spec);
  }
  for (const auto& spec : workload::Splash2x()) {
    check(spec);
  }
  for (const auto& spec : workload::ParsecSupported()) {
    check(spec);
  }
}

// Resolved, field-by-field equality of two traces (operands looked up in
// each trace's own tables).
void ExpectSameTrace(const nxe::VariantTrace& a, const nxe::VariantTrace& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.compute_scale, b.compute_scale);
  EXPECT_EQ(a.pre_main.size(), b.pre_main.size());
  EXPECT_EQ(a.post_exit.size(), b.post_exit.size());
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (size_t t = 0; t < a.threads.size(); ++t) {
    const auto& xs = a.threads[t].actions;
    const auto& ys = b.threads[t].actions;
    ASSERT_EQ(xs.size(), ys.size()) << "thread " << t;
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(xs[i].kind, ys[i].kind) << "thread " << t << " action " << i;
      EXPECT_EQ(xs[i].cost, ys[i].cost) << "thread " << t << " action " << i;
      if (xs[i].kind == nxe::ActionKind::kSyscall) {
        const sc::SyscallRecord& x = a.SyscallOf(xs[i]);
        const sc::SyscallRecord& y = b.SyscallOf(ys[i]);
        EXPECT_TRUE(x.SameRequest(y) && x.result == y.result) << "thread " << t << " action " << i;
      } else {
        EXPECT_EQ(xs[i].index, ys[i].index) << "thread " << t << " action " << i;
      }
    }
  }
}

// Deriving into a trace that already holds another variant (the warm
// path's reuse of capacity) must leave nothing of the old one behind.
TEST(TracegenTest, DeriveIntoReusedTraceMatchesFreshDerive) {
  const auto& radiosity = *workload::FindBenchmark("radiosity");
  const auto& perlbench = *workload::FindBenchmark("perlbench");
  workload::VariantSpec asan;
  asan.name = "asan";
  asan.compute_scale = 2.1;
  asan.jitter_seed = 3;
  asan.sanitizers = {san::SanitizerId::kASan, san::SanitizerId::kUBSan};
  workload::VariantSpec plain;
  plain.name = "plain";

  nxe::VariantTrace reused =
      workload::DeriveTrace(workload::BuildTemplate(radiosity, 9), asan);
  reused.AddDetect("__asan_report_store");
  workload::DeriveTrace(workload::BuildTemplate(perlbench, 4), plain, &reused);
  ExpectSameTrace(reused, workload::BuildTrace(perlbench, plain, 4));
  EXPECT_TRUE(reused.detectors.empty());

  workload::DeriveTrace(workload::BuildTemplate(radiosity, 9), asan, &reused);
  ExpectSameTrace(reused, workload::BuildTrace(radiosity, asan, 9));
}

// PlaceSplices' final positions against the sequential vector::insert calls
// they replace, over random thread lengths and splice counts, positions at
// both ends included.
TEST(TracegenTest, PlaceSplicesMatchesSequentialInsert) {
  std::mt19937_64 rng(20261017);
  for (int round = 0; round < 2000; ++round) {
    const size_t base_size = rng() % 40;
    const size_t n_splices = rng() % 16;
    // Base actions are tagged -1 - i, splice i is tagged i.
    std::vector<int64_t> expected;
    for (size_t i = 0; i < base_size; ++i) {
      expected.push_back(-1 - static_cast<int64_t>(i));
    }
    std::vector<workload::Splice> splices;
    for (size_t i = 0; i < n_splices; ++i) {
      const size_t size = base_size + i;
      size_t position = rng() % (size + 1);
      switch (rng() % 4) {
        case 0:
          position = 0;
          break;
        case 1:
          position = size;  // append
          break;
        default:
          break;
      }
      expected.insert(expected.begin() + static_cast<std::ptrdiff_t>(position),
                      static_cast<int64_t>(i));
      workload::Splice splice;
      splice.position = position;
      splice.record.args[0] = static_cast<int64_t>(i);
      splices.push_back(splice);
    }
    workload::PlaceSplices(&splices);
    // Fill the final thread the way DeriveTrace does: splices at their
    // positions, base actions in order around them.
    std::vector<int64_t> merged;
    auto splice = splices.begin();
    size_t from = 0;
    for (size_t o = 0; o < base_size + n_splices; ++o) {
      if (splice != splices.end() && splice->position == o) {
        merged.push_back(splice->record.args[0]);
        ++splice;
      } else {
        merged.push_back(-1 - static_cast<int64_t>(from++));
      }
    }
    ASSERT_EQ(splice, splices.end()) << "round " << round;
    ASSERT_EQ(merged, expected) << "round " << round;
  }
}

}  // namespace
}  // namespace bunshin
