// Tests for the static plan & trace analyzer (src/analysis/) and its three
// trust boundaries. The load-bearing property is *soundness of the safe
// verdicts*: over the seeded adversarial corpus, an analyzer "deadlock-free"
// verdict must never precede an engine Status error, and a "full coverage"
// verdict must imply injected detections are caught. False alarms cost a
// re-plan; false-safe verdicts are asserted to be zero. The suite also
// proves the wire boundary: every hostile plan mutant is rejected by
// net::ExecutorServer with a structured diagnostic before it reaches the
// executor's plan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/corpus.h"
#include "src/analysis/diagnostics.h"
#include "src/analysis/ir_analyzer.h"
#include "src/analysis/plan_analyzer.h"
#include "src/analysis/trace_analyzer.h"
#include "src/api/nvx.h"
#include "src/core/bunshin.h"
#include "src/ir/verifier.h"
#include "src/net/executor.h"
#include "src/net/wire.h"
#include "src/nxe/engine.h"
#include "src/nxe/trace.h"
#include "src/profile/profiler.h"
#include "src/sanitizer/sanitizer.h"
#include "src/support/rng.h"
#include "src/syscall/syscall.h"
#include "src/workload/funcprofile.h"
#include "src/workload/tracegen.h"
#include "src/workload/workload.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

using analysis::AnalysisReport;
using analysis::AnalyzePlan;
using analysis::AnalyzeTraces;
using analysis::GenerateCase;
using analysis::RandomCase;
using api::DistributionStrategy;
using api::NvxBuilder;
using api::NvxOutcome;
using api::VariantPlan;

// ---------------------------------------------------------------------------
// Diagnostics: the report container and its verdicts.
// ---------------------------------------------------------------------------

TEST(DiagnosticsTest, CountsVerdictsAndSummary) {
  AnalysisReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.well_formed());
  EXPECT_TRUE(report.coverage_complete());
  EXPECT_TRUE(report.deadlock_free());
  EXPECT_TRUE(report.ToStatus("ctx").ok());

  report.AddError("coverage/gap", "subset 1", "gap", "cover it");
  report.AddWarning("liveness/lock-order-cycle", "variant 0", "cycle", "order locks");
  report.AddNote("analysis/expected-detection", "variant 2", "will fire");

  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.notes(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("coverage/gap"));
  EXPECT_TRUE(report.HasRule("analysis/expected-detection"));
  EXPECT_FALSE(report.HasRule("coverage"));  // exact match, not prefix
  EXPECT_TRUE(report.HasErrorWithPrefix("coverage/"));
  EXPECT_FALSE(report.HasErrorWithPrefix("liveness/"));  // warning, not error

  EXPECT_TRUE(report.well_formed());         // no plan/* error
  EXPECT_FALSE(report.coverage_complete());  // coverage/gap is an error
  EXPECT_TRUE(report.deadlock_free());       // lock cycle is only a warning

  const Status status = report.ToStatus("plan analysis");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("plan analysis"), std::string::npos);
  EXPECT_NE(status.message().find("coverage/gap"), std::string::npos);
  EXPECT_NE(report.Render().find("(fix: cover it)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace analyzer rules, each cross-checked against a real engine run.
// ---------------------------------------------------------------------------

sc::SyscallRecord SyncRecord(int64_t arg0) {
  sc::SyscallRecord rec;
  rec.no = sc::Sysno::kRead;
  rec.args = {arg0, 64, 0, 0, 0, 0};
  return rec;
}

// `n` structurally identical variants: per thread, a compute/syscall mix
// with one barrier episode when `with_barrier`.
std::vector<nxe::VariantTrace> IdenticalVariants(size_t n, size_t threads, bool with_barrier) {
  std::vector<nxe::VariantTrace> variants(n);
  for (size_t v = 0; v < n; ++v) {
    variants[v].name = "v" + std::to_string(v);
    variants[v].threads.resize(threads);
    for (size_t t = 0; t < threads; ++t) {
      auto& actions = variants[v].threads[t].actions;
      actions.push_back(nxe::ThreadAction::Compute(5.0));
      actions.push_back(variants[v].AddSyscall(SyncRecord(1)));
      if (with_barrier) {
        actions.push_back(nxe::ThreadAction::Barrier(0));
      }
      actions.push_back(variants[v].AddSyscall(SyncRecord(2)));
      actions.push_back(nxe::ThreadAction::Exit());
    }
  }
  return variants;
}

TEST(TraceAnalyzerTest, CleanSessionProvedDeadlockFreeAndEngineAgrees) {
  const nxe::EngineConfig config;
  const auto variants = IdenticalVariants(3, 2, /*with_barrier=*/true);
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_TRUE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->completed);
}

TEST(TraceAnalyzerTest, FlagsEmptySessionLikeTheEngine) {
  const nxe::EngineConfig config;
  AnalysisReport report;
  AnalyzeTraces(config, {}, &report);
  EXPECT_TRUE(report.HasRule("liveness/no-variants"));
  EXPECT_FALSE(report.deadlock_free());
  EXPECT_FALSE(nxe::Engine(config).Run({}).ok());
}

TEST(TraceAnalyzerTest, FlagsUnequalThreadCountsLikeTheEngine) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 2, false);
  variants[1].threads.pop_back();
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/variant-thread-count"));
  EXPECT_FALSE(report.deadlock_free());
  EXPECT_FALSE(nxe::Engine(config).Run(variants).ok());
}

TEST(TraceAnalyzerTest, FlagsSelectiveModeWithoutRingLikeTheEngine) {
  nxe::EngineConfig config;
  config.mode = nxe::LockstepMode::kSelective;
  config.ring_capacity = 0;
  const auto variants = IdenticalVariants(2, 1, false);
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/ring-capacity"));
  EXPECT_FALSE(report.deadlock_free());
  EXPECT_FALSE(nxe::Engine(config).Run(variants).ok());
}

TEST(TraceAnalyzerTest, FlagsSkippedBarrierAsTheMalformedTraceItIs) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 2, /*with_barrier=*/true);
  // Variant 1 thread 1 exits before the barrier its sibling waits at.
  auto& actions = variants[1].threads[1].actions;
  actions.clear();
  actions.push_back(nxe::ThreadAction::Compute(5.0));
  actions.push_back(variants[1].AddSyscall(SyncRecord(1)));
  actions.push_back(nxe::ThreadAction::Exit());
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/barrier-participation")) << report.Render();
  EXPECT_FALSE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("malformed trace"), std::string::npos);
}

TEST(TraceAnalyzerTest, FlagsSkeletonMismatchConservatively) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 1, false);
  // The follower acquires a lock the leader never does: its replay waits for
  // a leader acquisition that never comes.
  auto& actions = variants[1].threads[0].actions;
  actions.insert(actions.begin() + 1, nxe::ThreadAction::Lock(0));
  actions.insert(actions.begin() + 2, nxe::ThreadAction::Unlock(0));
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/skeleton-mismatch")) << report.Render();
  EXPECT_FALSE(report.deadlock_free());
}

TEST(TraceAnalyzerTest, TruncatedFollowerIsAWarningAndRunsToDivergence) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 1, false);
  // Drop the follower's trailing syscall: an S-only suffix, which the engine
  // reports as a sequence divergence — an incident, not an error.
  auto& actions = variants[1].threads[0].actions;
  actions.erase(actions.end() - 2);  // the SyncRecord(2) before Exit
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/sequence-truncated")) << report.Render();
  EXPECT_TRUE(report.HasRule("analysis/expected-divergence"));
  EXPECT_TRUE(report.ok());  // warning + note, no error
  EXPECT_TRUE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // An incident, exactly as predicted. (The engine attributes the incident
  // to whichever side it caught waiting, so only its presence is asserted.)
  EXPECT_TRUE(run->divergence.has_value());
}

TEST(TraceAnalyzerTest, LockOrderCycleIsADeploymentWarningNotAnError) {
  const nxe::EngineConfig config;
  nxe::VariantTrace trace;
  trace.name = "cycle";
  trace.threads.resize(2);
  // Thread 0 holds lock 0 while taking lock 1; thread 1 the reverse. The
  // engine's serialized replay survives this; a preemptive scheduler can't.
  auto& t0 = trace.threads[0].actions;
  t0.push_back(nxe::ThreadAction::Lock(0));
  t0.push_back(nxe::ThreadAction::Lock(1));
  t0.push_back(nxe::ThreadAction::Unlock(1));
  t0.push_back(nxe::ThreadAction::Unlock(0));
  t0.push_back(nxe::ThreadAction::Exit());
  auto& t1 = trace.threads[1].actions;
  t1.push_back(nxe::ThreadAction::Lock(1));
  t1.push_back(nxe::ThreadAction::Lock(0));
  t1.push_back(nxe::ThreadAction::Unlock(0));
  t1.push_back(nxe::ThreadAction::Unlock(1));
  t1.push_back(nxe::ThreadAction::Exit());
  const std::vector<nxe::VariantTrace> variants = {trace};
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("liveness/lock-order-cycle")) << report.Render();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.deadlock_free());
  EXPECT_TRUE(nxe::Engine(config).Run(variants).ok());
}

TEST(TraceAnalyzerTest, PredictsInjectedDetections) {
  const nxe::EngineConfig config;
  auto variants = IdenticalVariants(2, 1, false);
  auto& actions = variants[1].threads[0].actions;
  actions.insert(actions.begin() + 1, variants[1].AddDetect("__asan_report_store"));
  AnalysisReport report;
  AnalyzeTraces(config, variants, &report);
  EXPECT_TRUE(report.HasRule("analysis/expected-detection"));
  EXPECT_TRUE(report.deadlock_free());
  const auto run = nxe::Engine(config).Run(variants);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->detection.has_value());
  EXPECT_EQ(run->detection->variant, 1u);
}

// ---------------------------------------------------------------------------
// The oracle: 400 seeded adversarial sessions, zero false-safe verdicts.
// ---------------------------------------------------------------------------

TEST(AnalyzerOracleTest, NoFalseSafeVerdictOverSeededCorpus) {
  size_t engine_errors = 0;
  size_t analyzer_unsafe = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const RandomCase c = GenerateCase(seed);
    AnalysisReport report;
    AnalyzeTraces(c.config, c.variants, &report);
    if (!report.deadlock_free()) {
      ++analyzer_unsafe;
    }
    const auto run = nxe::Engine(c.config).Run(c.variants);
    if (!run.ok()) {
      ++engine_errors;
      // THE soundness property: the analyzer may be conservative, but a
      // "deadlock-free" verdict followed by an engine error is a false-safe
      // verdict — the one thing the static gate must never produce.
      ASSERT_FALSE(report.deadlock_free())
          << "seed " << seed << " (" << c.label << "): analyzer said deadlock-free, engine said "
          << run.status().ToString() << "\n"
          << report.Render();
    }
  }
  // The corpus actually exercises both sides of the verdict.
  EXPECT_GT(engine_errors, 0u);
  EXPECT_GT(analyzer_unsafe, 0u);
  EXPECT_GE(analyzer_unsafe, engine_errors);
}

// ---------------------------------------------------------------------------
// Plan analyzer: builder plans are clean; every mutation is caught.
// ---------------------------------------------------------------------------

VariantPlan PlanOrDie(NvxBuilder& builder) {
  auto plan = builder.PlanVariants();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

TEST(PlanAnalyzerTest, BuilderPlansAnalyzeCleanAcrossStrategies) {
  const workload::BenchmarkSpec& bench = *workload::FindBenchmark("mcf");
  std::vector<std::pair<std::string, VariantPlan>> plans;
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(3).Seed(5);
    plans.emplace_back("none", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(4).DistributeChecks(san::SanitizerId::kASan).Seed(5);
    plans.emplace_back("check", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(3).Seed(5).DistributeSanitizers(
        {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
    plans.emplace_back("sanitizer", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Benchmark(bench).Variants(4).DistributeUbsanSubSanitizers().Seed(5);
    plans.emplace_back("ubsan-sub", PlanOrDie(b));
  }
  {
    NvxBuilder b;
    b.Server(workload::ServerSpec{}).Variants(2).Seed(5);
    plans.emplace_back("server", PlanOrDie(b));
  }
  for (const auto& [label, plan] : plans) {
    // The builder attached its own report at plan time...
    ASSERT_NE(plan.analysis, nullptr) << label;
    EXPECT_TRUE(plan.analysis->ok()) << label << ": " << plan.analysis->Render();
    // ...and a fresh analysis agrees on every verdict.
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.ok()) << label << ": " << report.Render();
    EXPECT_TRUE(report.well_formed()) << label;
    EXPECT_TRUE(report.coverage_complete()) << label;
    EXPECT_TRUE(report.deadlock_free()) << label;
  }
}

VariantPlan CheckPlanFixture() {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("mcf"))
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(5);
  return PlanOrDie(b);
}

// The engine rejects sessions wider than nxe::kMaxSessionWidth variants or
// threads; the analyzer must say so before any trace of that width is built.
TEST(PlanAnalyzerTest, FlagsSessionsWiderThanTheEngineAccepts) {
  VariantPlan wide_threads = CheckPlanFixture();
  wide_threads.benchmark->threads = nxe::kMaxSessionWidth + 1;
  AnalysisReport report = AnalyzePlan(wide_threads);
  EXPECT_TRUE(report.HasRule("plan/too-wide")) << report.Render();
  EXPECT_FALSE(report.well_formed());

  NvxBuilder b;
  b.Server(workload::ServerSpec{}).Variants(2).Seed(5);
  VariantPlan wide_variants = PlanOrDie(b);
  wide_variants.specs.resize(nxe::kMaxSessionWidth + 1, wide_variants.specs.back());
  wide_variants.labels.resize(wide_variants.specs.size(), wide_variants.labels.back());
  report = AnalyzePlan(wide_variants);
  EXPECT_TRUE(report.HasRule("plan/too-wide")) << report.Render();
  EXPECT_FALSE(report.well_formed());

  EXPECT_FALSE(AnalyzePlan(CheckPlanFixture()).HasRule("plan/too-wide"));
}

TEST(PlanAnalyzerTest, FlagsCoverageGap) {
  VariantPlan plan = CheckPlanFixture();
  for (auto& subset : api::MutableCheckPlan(&plan).protected_functions) {
    if (!subset.empty()) {
      subset.pop_back();
      break;
    }
  }
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/gap")) << report.Render();
  EXPECT_FALSE(report.coverage_complete());
  EXPECT_TRUE(report.well_formed());  // the defect is coverage, not shape
}

TEST(PlanAnalyzerTest, FlagsCoverageOverlapAndUnknownFunction) {
  VariantPlan plan = CheckPlanFixture();
  auto& subsets = api::MutableCheckPlan(&plan).protected_functions;
  ASSERT_GE(subsets.size(), 2u);
  ASSERT_FALSE(subsets[0].empty());
  subsets[1].push_back(subsets[0].front());
  subsets[0].push_back("__no_such_function");
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/overlap")) << report.Render();
  EXPECT_TRUE(report.HasRule("coverage/unknown-function"));
  EXPECT_FALSE(report.coverage_complete());
}

// ---------------------------------------------------------------------------
// coverage/* for check distribution, held against the string-set rule that
// the index-based rule replaced.
// ---------------------------------------------------------------------------

// The check-distribution coverage rule as it was before it checked by
// function index: re-synthesize the planner's profile, load its names into a
// set, and look every protected name up in it. For a planner-built plan whose
// only defects were put into its subsets or its n_functions, this is the
// whole report AnalyzePlan must give.
AnalysisReport OracleCoverageReport(const VariantPlan& plan) {
  const auto subset_loc = [](size_t v) { return "subset " + std::to_string(v); };
  const auto name_list = [](const std::vector<std::string>& names) {
    std::string out;
    const size_t shown = std::min<size_t>(names.size(), 8);
    for (size_t i = 0; i < shown; ++i) {
      out += (i == 0 ? "" : ", ") + names[i];
    }
    if (names.size() > shown) {
      out += " ... and " + std::to_string(names.size() - shown) + " more";
    }
    return out;
  };
  const profile::OverheadProfile profile =
      workload::SynthesizeFunctionProfile(*plan.benchmark, plan.check_sanitizer, plan.seed);
  std::set<std::string> ground;
  for (const profile::FunctionOverhead& fn : profile.functions) {
    ground.insert(fn.function);
  }
  AnalysisReport report;
  std::map<std::string, size_t> owner;
  std::vector<std::string> unknown;
  const auto& subsets = plan.check_plan->protected_functions;
  for (size_t v = 0; v < subsets.size(); ++v) {
    for (const std::string& name : subsets[v]) {
      if (ground.count(name) == 0) {
        unknown.push_back(name + " (" + subset_loc(v) + ")");
        continue;
      }
      const auto [it, inserted] = owner.emplace(name, v);
      if (!inserted) {
        report.AddError("coverage/overlap", subset_loc(v),
                        "function '" + name + "' is already protected by " +
                            subset_loc(it->second) +
                            "; overlapping checks double-pay overhead and break the "
                            "disjointness claim",
                        "assign every function to exactly one variant");
      }
    }
  }
  if (!unknown.empty()) {
    report.AddError("coverage/unknown-function", "",
                    "subset(s) protect function(s) absent from the profiled set: " +
                        name_list(unknown),
                    "partition exactly the profiled functions");
  }
  std::vector<std::string> gaps;
  for (const std::string& name : ground) {
    if (owner.count(name) == 0) {
      gaps.push_back(name);
    }
  }
  if (!gaps.empty()) {
    report.AddError("coverage/gap", "",
                    "profiled function(s) protected by no variant: " + name_list(gaps) +
                        "; an attack on them is invisible to every variant",
                    "the subsets must cover the full profiled function set");
  }
  return report;
}

VariantPlan CheckPlanFor(const char* benchmark, size_t n) {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark(benchmark))
      .Variants(n)
      .DistributeChecks(san::SanitizerId::kASan)
      .Seed(5);
  return PlanOrDie(b);
}

// Names on the edge of the "<bench>::fn<index>" scheme: each must be judged
// exactly as the string-set lookup judges it.
std::vector<std::string> EdgeNames(const workload::BenchmarkSpec& bench) {
  const std::string prefix = bench.name + "::fn";
  const std::string other = bench.name == "mcf" ? "perlbench::fn1" : "mcf::fn1";
  return {prefix + "007",
          prefix + "00",
          prefix + "+1",
          prefix + "-1",
          prefix,
          prefix + "123456789012345678901234567890",
          prefix + "18446744073709551615",  // SIZE_MAX
          prefix + "18446744073709551616",  // SIZE_MAX + 1: wraps to 0 unchecked
          prefix + std::to_string(bench.n_functions),
          prefix + std::to_string(std::max<size_t>(1, bench.n_functions) - 1),
          other,
          bench.name + "::f1",
          "fn1",
          prefix + "1 ",
          " " + prefix + "1",
          prefix + std::string("1\0", 2),
          prefix + std::string("1\0" "2", 3),
          std::string(1, '\0') + prefix + "1"};
}

// One seeded defect in a check plan: a dropped, duplicated or moved name, an
// emptied subset, an edge-case name, or a different n_functions.
void MutateCheckPlan(Rng& rng, VariantPlan* plan) {
  auto& subsets = api::MutableCheckPlan(plan).protected_functions;
  std::vector<std::string>& from = subsets[rng.NextBounded(subsets.size())];
  std::vector<std::string>& to = subsets[rng.NextBounded(subsets.size())];
  const size_t at = from.empty() ? 0 : rng.NextBounded(from.size());
  switch (rng.NextBounded(6)) {
    case 0:  // dropped
      if (!from.empty()) {
        from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
      }
      break;
    case 1:  // duplicated, possibly within its own subset
      if (!from.empty()) {
        to.push_back(from[at]);
      }
      break;
    case 2:  // moved: still a partition unless another mutation breaks it
      if (!from.empty() && &from != &to) {
        to.push_back(from[at]);
        from.erase(from.begin() + static_cast<std::ptrdiff_t>(at));
      }
      break;
    case 3:
      from.clear();
      break;
    case 4: {
      const std::vector<std::string> names = EdgeNames(*plan->benchmark);
      to.push_back(names[rng.NextBounded(names.size())]);
      break;
    }
    default: {
      const size_t n = plan->benchmark->n_functions;
      const size_t choices[] = {0, 1, n > 1 ? n - 1 : 2, n + 1};
      plan->benchmark->n_functions = choices[rng.NextBounded(4)];
      break;
    }
  }
}

TEST(PlanAnalyzerTest, IndexCoverageMatchesStringSetOracleOverSeededMutations) {
  struct Target {
    const char* benchmark;
    size_t variants;
  };
  for (const Target& target : {Target{"mcf", 4}, Target{"perlbench", 8}}) {
    const VariantPlan base = CheckPlanFor(target.benchmark, target.variants);
    ASSERT_EQ(AnalyzePlan(base).Render(), "") << target.benchmark;
    size_t clean = 0;
    size_t overlap = 0;
    size_t unknown = 0;
    size_t gap = 0;
    for (uint64_t seed = 0; seed < 150; ++seed) {
      Rng rng(seed);
      VariantPlan plan = base;
      for (uint64_t m = 1 + rng.NextBounded(3); m > 0; --m) {
        MutateCheckPlan(rng, &plan);
      }
      const AnalysisReport oracle = OracleCoverageReport(plan);
      EXPECT_EQ(AnalyzePlan(plan).Render(), oracle.Render())
          << target.benchmark << " seed " << seed;
      clean += oracle.ok() ? 1 : 0;
      overlap += oracle.HasRule("coverage/overlap") ? 1 : 0;
      unknown += oracle.HasRule("coverage/unknown-function") ? 1 : 0;
      gap += oracle.HasRule("coverage/gap") ? 1 : 0;
    }
    // The mutator reaches every verdict, so agreement is not vacuous.
    EXPECT_GT(clean, 0u) << target.benchmark;
    EXPECT_GT(overlap, 0u) << target.benchmark;
    EXPECT_GT(unknown, 0u) << target.benchmark;
    EXPECT_GT(gap, 0u) << target.benchmark;
  }
}

TEST(PlanAnalyzerTest, IndexCoverageMatchesOracleOnEveryEdgeName) {
  for (const char* benchmark : {"mcf", "perlbench"}) {
    const VariantPlan base = CheckPlanFor(benchmark, 4);
    for (const std::string& name : EdgeNames(*base.benchmark)) {
      VariantPlan plan = base;
      api::MutableCheckPlan(&plan).protected_functions[1].push_back(name);
      EXPECT_EQ(AnalyzePlan(plan).Render(), OracleCoverageReport(plan).Render())
          << benchmark << " name '" << name << "'";
    }
  }
}

TEST(PlanAnalyzerTest, IndexCoverageMatchesOracleAtZeroFunctions) {
  // n_functions 0 still profiles one function, "<bench>::fn0".
  VariantPlan plan = CheckPlanFor("mcf", 4);
  plan.benchmark->n_functions = 0;
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_EQ(report.Render(), OracleCoverageReport(plan).Render());
  EXPECT_TRUE(report.HasRule("coverage/unknown-function"));
  EXPECT_FALSE(report.HasRule("coverage/gap"));  // mcf::fn0 is still protected

  auto& subsets = api::MutableCheckPlan(&plan).protected_functions;
  subsets.assign(plan.specs.size(), {});
  subsets[2] = {"mcf::fn0"};
  EXPECT_EQ(AnalyzePlan(plan).Render(), "");
  subsets[2].clear();
  EXPECT_EQ(AnalyzePlan(plan).Render(), OracleCoverageReport(plan).Render());
  EXPECT_TRUE(AnalyzePlan(plan).HasRule("coverage/gap"));
}

TEST(PlanAnalyzerTest, GapListKeepsNameOrder) {
  VariantPlan plan = CheckPlanFor("mcf", 4);
  for (auto& subset : api::MutableCheckPlan(&plan).protected_functions) {
    std::erase_if(subset, [](const std::string& name) {
      return name == "mcf::fn2" || name == "mcf::fn10" || name == "mcf::fn31";
    });
  }
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_EQ(report.Render(), OracleCoverageReport(plan).Render());
  EXPECT_NE(report.Render().find("protected by no variant: mcf::fn10, mcf::fn2, mcf::fn31;"),
            std::string::npos)
      << report.Render();
}

TEST(PlanAnalyzerTest, ImplausibleFunctionCountIsCountedNotEnumerated) {
  // Six named functions against perlbench's 1800: far past what the subsets
  // could cover, so the gap is stated as counts. Overlap and unknown-name
  // diagnostics are unchanged.
  VariantPlan plan = CheckPlanFor("perlbench", 4);
  auto& subsets = api::MutableCheckPlan(&plan).protected_functions;
  subsets[0].resize(6);
  for (size_t v = 1; v < subsets.size(); ++v) {
    subsets[v].clear();
  }
  subsets[1].push_back(subsets[0][2]);
  subsets[1].push_back("perlbench::fn1800");
  subsets[2].push_back(subsets[0][2]);
  const AnalysisReport report = AnalyzePlan(plan);
  const AnalysisReport oracle = OracleCoverageReport(plan);
  ASSERT_EQ(report.diagnostics().size(), oracle.diagnostics().size()) << report.Render();
  for (size_t i = 0; i < report.diagnostics().size(); ++i) {
    const analysis::Diagnostic& got = report.diagnostics()[i];
    if (got.rule == "coverage/gap") {
      EXPECT_EQ(oracle.diagnostics()[i].rule, "coverage/gap");
      EXPECT_NE(got.message.find("1794 of 1800 profiled function(s) protected by no variant "
                                 "(the subsets name 9;"),
                std::string::npos)
          << got.message;
    } else {
      EXPECT_EQ(got.ToString(), oracle.diagnostics()[i].ToString());
    }
  }

  // A wire plan can claim any count. The rule allocates nothing sized by it
  // (under ASan a table of 2^40 entries aborts the test) and does not throw.
  // At these counts perlbench::fn1800 names a real function too.
  for (const size_t n : {size_t{1} << 40, size_t{1} << 61, SIZE_MAX}) {
    plan.benchmark->n_functions = n;
    const AnalysisReport hostile = AnalyzePlan(plan);
    EXPECT_TRUE(hostile.HasRule("coverage/gap")) << n;
    EXPECT_TRUE(hostile.HasRule("coverage/overlap")) << n;
    EXPECT_NE(hostile.Render().find(std::to_string(n - 7) + " of " + std::to_string(n)),
              std::string::npos)
        << hostile.Render();
  }
}

TEST(PlanAnalyzerTest, FlagsConflictingSanitizerGroup) {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("bzip2")).Variants(3).Seed(5).DistributeSanitizers(
      {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
  VariantPlan plan = PlanOrDie(b);
  // ASan and MSan claim clashing low-memory layouts (§3.1); force them into
  // one variant and duplicate ubsan across two.
  plan.sanitizer_groups.clear();
  plan.sanitizer_groups.push_back({"asan", "msan", "ubsan"});
  plan.sanitizer_groups.push_back({"ubsan"});
  const AnalysisReport report = AnalyzePlan(plan);
  EXPECT_TRUE(report.HasRule("coverage/group-conflict")) << report.Render();
  EXPECT_TRUE(report.HasRule("coverage/group-duplicate"));
  EXPECT_FALSE(report.coverage_complete());
}

TEST(PlanAnalyzerTest, FlagsStructuralDefects) {
  {
    VariantPlan plan = CheckPlanFixture();
    plan.server = workload::ServerSpec{};  // dual target + server distribution
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/dual-target")) << report.Render();
    EXPECT_TRUE(report.HasRule("plan/server-distribution"));
    EXPECT_FALSE(report.well_formed());
  }
  {
    VariantPlan plan = CheckPlanFixture();
    plan.detect_injections.push_back({99, "__asan_report_load"});
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/injection-range")) << report.Render();
    EXPECT_FALSE(report.well_formed());
  }
  {
    VariantPlan plan = CheckPlanFixture();
    plan.specs.back().compute_scale = 0.0;
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("plan/compute-scale")) << report.Render();
    EXPECT_FALSE(report.well_formed());
  }
  {
    VariantPlan plan = CheckPlanFixture();
    plan.engine_config.mode = nxe::LockstepMode::kSelective;
    plan.engine_config.ring_capacity = 0;
    const AnalysisReport report = AnalyzePlan(plan);
    EXPECT_TRUE(report.HasRule("liveness/ring-capacity")) << report.Render();
    EXPECT_FALSE(report.deadlock_free());
  }
}

TEST(PlanAnalyzerTest, BuilderRefusesDeadlockShapedPlanAtPlanTime) {
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("bzip2"))
      .Variants(2)
      .Lockstep(nxe::LockstepMode::kSelective)
      .RingCapacity(0)
      .Seed(5);
  const auto plan = b.PlanVariants();
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("liveness/ring-capacity"), std::string::npos)
      << plan.status().ToString();
  EXPECT_FALSE(b.Build().ok());
}

TEST(PlanAnalyzerTest, FullCoverageVerdictImpliesInjectedDetectionCaught) {
  // The acceptance cross-check at plan level: a kCheck plan whose analysis
  // says coverage-complete must catch a spliced mid-run detection.
  NvxBuilder b;
  b.Benchmark(*workload::FindBenchmark("mcf"))
      .Variants(4)
      .DistributeChecks(san::SanitizerId::kASan)
      .InjectDetection(2, "__asan_report_store")
      .Seed(5);
  auto session = b.Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const auto plan = b.PlanVariants();
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->analysis, nullptr);
  EXPECT_TRUE(plan->analysis->coverage_complete()) << plan->analysis->Render();
  EXPECT_TRUE(plan->analysis->HasRule("analysis/expected-detection"));
  const auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, NvxOutcome::kDetected);
  ASSERT_TRUE(report->detection.has_value());
  EXPECT_EQ(report->detection->variant, 2u);
  EXPECT_EQ(report->detection->detector, "__asan_report_store");
}

// ---------------------------------------------------------------------------
// Attack overlays: a cached base's analysis, finished per overlay, must give
// exactly the report AnalyzePlan gives the overlaid plan.
// ---------------------------------------------------------------------------

void ExpectSameReport(const AnalysisReport& overlay, const AnalysisReport& full,
                      const std::string& context) {
  EXPECT_EQ(overlay.Render(), full.Render()) << context;
  EXPECT_EQ(overlay.errors(), full.errors()) << context;
  EXPECT_EQ(overlay.warnings(), full.warnings()) << context;
  EXPECT_EQ(overlay.ToStatus("plan analysis").ToString(),
            full.ToStatus("plan analysis").ToString())
      << context;
}

enum class Attack { kDetect, kDiverge, kBoth };

void Inject(Attack attack, size_t slot, NvxBuilder* builder) {
  if (attack != Attack::kDiverge) {
    builder->InjectDetection(slot, "__asan_report_store");
  }
  if (attack != Attack::kDetect) {
    builder->InjectDivergence(slot, "exfiltrated-" + std::to_string(slot));
  }
}

// Every attack on every slot of `configured` (an injection-free builder),
// through a PlanCache; the uncached path once per attack.
void ExpectOverlaysMatchFullAnalysis(const NvxBuilder& configured, const std::string& name) {
  NvxBuilder cached = configured;
  cached.WithPlanCache(std::make_shared<api::PlanCache>(4));
  const StatusOr<VariantPlan> base = cached.PlanVariants();
  ASSERT_TRUE(base.ok()) << name << ": " << base.status().ToString();
  ASSERT_NE(base->base_analysis, nullptr) << name;
  // Overlays share the check plan by pointer; only kCheck plans carry one.
  EXPECT_EQ(base->check_plan != nullptr, base->strategy == DistributionStrategy::kCheck)
      << name;
  const size_t n = base->n_variants();
  for (const Attack attack : {Attack::kDetect, Attack::kDiverge, Attack::kBoth}) {
    for (size_t slot = 0; slot < n; ++slot) {
      for (const bool use_cache : {true, false}) {
        if (!use_cache && slot + 1 != n) {
          continue;
        }
        const std::string context = name + " attack " +
                                    std::to_string(static_cast<int>(attack)) + " slot " +
                                    std::to_string(slot) + (use_cache ? " cached" : " uncached");
        NvxBuilder builder = use_cache ? cached : configured;
        Inject(attack, slot, &builder);
        const StatusOr<VariantPlan> overlay = builder.PlanVariants();
        ASSERT_TRUE(overlay.ok()) << context << ": " << overlay.status().ToString();
        ASSERT_NE(overlay->analysis, nullptr) << context;
        ExpectSameReport(*overlay->analysis, AnalyzePlan(*overlay), context);
        if (use_cache) {
          EXPECT_EQ(overlay->check_plan.get(), base->check_plan.get()) << context;
        }
      }
    }
  }
}

TEST(OverlayAnalysisTest, MatchesFullAnalysisOnEveryCatalogBenchmark) {
  std::vector<workload::BenchmarkSpec> catalog = workload::Spec2006();
  catalog.insert(catalog.end(), workload::Splash2x().begin(), workload::Splash2x().end());
  catalog.insert(catalog.end(), workload::Parsec().begin(), workload::Parsec().end());
  for (const workload::BenchmarkSpec& bench : catalog) {
    NvxBuilder check;
    check.Benchmark(bench).Variants(3).DistributeChecks(san::SanitizerId::kASan).Seed(5);
    ExpectOverlaysMatchFullAnalysis(check, bench.name + " check");
    NvxBuilder sanitizers;
    sanitizers.Benchmark(bench).Variants(3).Seed(5).DistributeSanitizers(
        {san::SanitizerId::kASan, san::SanitizerId::kMSan, san::SanitizerId::kUBSan});
    ExpectOverlaysMatchFullAnalysis(sanitizers, bench.name + " sanitizer");
    NvxBuilder ubsan;
    ubsan.Benchmark(bench).Variants(3).DistributeUbsanSubSanitizers().Seed(5);
    ExpectOverlaysMatchFullAnalysis(ubsan, bench.name + " ubsan-sub");
    NvxBuilder clones;
    clones.Benchmark(bench).Variants(3).Seed(5);
    ExpectOverlaysMatchFullAnalysis(clones, bench.name + " none");
  }
  NvxBuilder server;
  server.Server(workload::ServerSpec{}).Variants(3).Seed(5);
  ExpectOverlaysMatchFullAnalysis(server, "server");
}

TEST(OverlayAnalysisTest, InjectionSiteErrorMatchesFullAnalysis) {
  // Fewer requests than threads leaves every thread without a syscall, so a
  // divergence has nowhere to splice.
  workload::ServerSpec idle;
  idle.requests = 0;
  NvxBuilder configured;
  configured.Server(idle).Variants(3).Seed(5);
  NvxBuilder cached = configured;
  cached.WithPlanCache(std::make_shared<api::PlanCache>(4));
  const StatusOr<VariantPlan> base = cached.PlanVariants();
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  VariantPlan overlaid = *base;
  overlaid.diverge_injections = {{1, "exfiltrated-secret"}};
  const AnalysisReport full = AnalyzePlan(overlaid);
  ASSERT_TRUE(full.HasRule("plan/injection-site")) << full.Render();
  const analysis::BaseAnalysis& base_analysis = base->base_analysis->Get(*base);
  ExpectSameReport(analysis::AnalyzeOverlay(base_analysis, overlaid), full, "injection-site");
  for (NvxBuilder builder : {cached, configured}) {
    builder.InjectDivergence(1, "exfiltrated-secret");
    const StatusOr<VariantPlan> overlay = builder.PlanVariants();
    ASSERT_FALSE(overlay.ok());
    EXPECT_EQ(overlay.status().ToString(), full.ToStatus("plan analysis").ToString());
  }

  // An out-of-range injection, which the builder rejects before analysis, is
  // analyzed in full.
  overlaid.diverge_injections = {{7, "exfiltrated-secret"}};
  ExpectSameReport(analysis::AnalyzeOverlay(base_analysis, overlaid), AnalyzePlan(overlaid),
                   "injection-range");
}

// ---------------------------------------------------------------------------
// IR cross-check: sliced variants vs an independent re-instrumentation.
// ---------------------------------------------------------------------------

TEST(IrAnalyzerTest, SlicedVariantsPassTheCrossCheck) {
  // End to end through the builder: BuildIrBackend runs VerifyModule plus
  // AnalyzeCheckDistribution on the sliced system; a clean Build() means the
  // slicer's output matched the independent re-instrumentation.
  auto module = testutil::BuildBufferProgram();
  auto session = NvxBuilder()
                     .Module(*module)
                     .Variants(2)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .ProfilingWorkload({{"main", {0}}, {"main", {3}}})
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto report = session->Run(api::Call("main", {2}));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, NvxOutcome::kOk);
}

TEST(IrAnalyzerTest, FlagsUnslicedVariantAsRetentionDefect) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto system = core::IrNvxSystem::CreateCheckDistributed(
      *baseline, san::SanitizerId::kASan, {{"main", {10}}, {"main", {3}}},
      core::Options{.n_variants = 2});
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  // Genuine sliced variants pass.
  {
    AnalysisReport report;
    std::vector<const ir::Module*> variants;
    for (size_t v = 0; v < system->n_variants(); ++v) {
      variants.push_back(&system->variant(v));
    }
    analysis::AnalyzeCheckDistribution(*baseline, san::SanitizerId::kASan,
                                       system->check_plan(), variants, &report);
    EXPECT_TRUE(report.ok()) << report.Render();
  }
  // The *uninstrumented baseline* passed off as every variant: protected
  // functions carry none of their checks and no metadata maintenance.
  {
    AnalysisReport report;
    std::vector<const ir::Module*> variants(system->n_variants(), baseline.get());
    analysis::AnalyzeCheckDistribution(*baseline, san::SanitizerId::kASan,
                                       system->check_plan(), variants, &report);
    EXPECT_TRUE(report.HasRule("ir/check-retention")) << report.Render();
    EXPECT_TRUE(report.HasRule("ir/metadata-maintenance"));
    EXPECT_FALSE(report.coverage_complete());
  }
  // Wrong arity: one module for two subsets.
  {
    AnalysisReport report;
    analysis::AnalyzeCheckDistribution(*baseline, san::SanitizerId::kASan,
                                       system->check_plan(), {baseline.get()}, &report);
    EXPECT_TRUE(report.HasRule("ir/plan-arity"));
  }
}

TEST(IrAnalyzerTest, BuilderVerifyGateRejectsMalformedModule) {
  // Satellite: ir::VerifyModule wired into the builder's IR path. A block
  // without a terminator must fail Build() before instrumentation runs.
  ir::Module module;
  ir::Function* fn = module.AddFunction("main", 0);
  const ir::BlockId entry = fn->AddBlock("entry");
  ir::IrBuilder b(fn);
  b.SetInsertPoint(entry);
  b.Add(ir::Value::Const(1), ir::Value::Const(2));  // no terminator
  ASSERT_FALSE(ir::VerifyModule(module).ok());

  auto session = NvxBuilder()
                     .Module(module)
                     .Variants(2)
                     .DistributeChecks(san::SanitizerId::kASan)
                     .ProfilingWorkload({{"main", {0}}})
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("IR verification"), std::string::npos)
      << session.status().ToString();
}

// ---------------------------------------------------------------------------
// The wire trust boundary: hostile plans die before the executor plan cache.
// ---------------------------------------------------------------------------

net::RunReplyMsg RoundTrip(net::ExecutorServer& server, const VariantPlan& plan) {
  auto socket = server.ConnectLoopback();
  EXPECT_TRUE(socket.ok());
  net::RunRequestMsg msg;
  msg.cache_key = plan.CacheKey();
  msg.n_variants = plan.n_variants();
  msg.members.resize(plan.n_variants());
  for (size_t i = 0; i < plan.n_variants(); ++i) {
    msg.members[i] = i;
  }
  msg.owns_baseline = true;
  msg.plan_bytes = net::EncodeVariantPlan(plan);
  net::Frame frame;
  frame.type = net::MessageType::kRunRequest;
  frame.request_id = 1;
  frame.payload = net::EncodeRunRequestMsg(msg);
  EXPECT_TRUE(net::WriteFrame(**socket, frame).ok());
  auto reply = net::ReadFrame(**socket);
  EXPECT_TRUE(reply.ok());
  auto decoded = net::DecodeRunReplyMsg(reply->payload, plan.n_variants());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(*decoded);
}

TEST(ExecutorAnalysisTest, RejectsEveryHostilePlanBeforeThePlanCache) {
  const VariantPlan base = CheckPlanFixture();

  std::vector<std::pair<std::string, VariantPlan>> mutants;
  {
    VariantPlan m = base;
    for (auto& subset : api::MutableCheckPlan(&m).protected_functions) {
      if (!subset.empty()) {
        subset.pop_back();
        break;
      }
    }
    mutants.emplace_back("coverage-gap", std::move(m));
  }
  {
    VariantPlan m = base;
    auto& subsets = api::MutableCheckPlan(&m).protected_functions;
    subsets[1].push_back(subsets[0].front());
    mutants.emplace_back("coverage-overlap", std::move(m));
  }
  {
    VariantPlan m = base;
    m.detect_injections.push_back({99, "__asan_report_load"});
    mutants.emplace_back("injection-range", std::move(m));
  }
  {
    VariantPlan m = base;
    m.engine_config.mode = nxe::LockstepMode::kSelective;
    m.engine_config.ring_capacity = 0;
    mutants.emplace_back("ring-zero", std::move(m));
  }
  {
    VariantPlan m = base;
    m.specs.front().compute_scale = -1.0;
    mutants.emplace_back("compute-scale", std::move(m));
  }
  // n_functions is one 8-byte field; the analyzer must reject these without
  // a profile or an owner table of that size (2^61 used to throw
  // std::length_error, which surfaced as "planner threw").
  for (const int shift : {40, 61}) {
    VariantPlan m = base;
    m.benchmark->n_functions = size_t{1} << shift;
    mutants.emplace_back("n-functions-2^" + std::to_string(shift), std::move(m));
  }

  net::ExecutorServer server;
  uint64_t expected_rejects = 0;
  for (const auto& [label, mutant] : mutants) {
    const net::RunReplyMsg reply = RoundTrip(server, mutant);
    EXPECT_FALSE(reply.run_status.ok()) << label;
    EXPECT_NE(reply.run_status.message().find("rejected by static analysis"), std::string::npos)
        << label << ": " << reply.run_status.ToString();
    EXPECT_EQ(reply.run_status.message().find("planner threw"), std::string::npos) << label;
    ++expected_rejects;
    EXPECT_EQ(server.stats().analysis_rejects, expected_rejects) << label;
    // A plan that decodes fine is an analysis reject only, never also a
    // decode error.
    EXPECT_EQ(server.stats().decode_errors, 0u) << label;
    // A rejected plan never occupies a cache slot.
    EXPECT_EQ(server.plan_cache_stats().entries, 0u) << label;
  }

  // The untampered plan sails through the same raw-wire path and is cached.
  const net::RunReplyMsg reply = RoundTrip(server, base);
  EXPECT_TRUE(reply.run_status.ok()) << reply.run_status.ToString();
  ASSERT_TRUE(reply.partial.has_value());
  EXPECT_EQ(server.stats().analysis_rejects, expected_rejects);
  EXPECT_EQ(expected_rejects, 7u);
  EXPECT_EQ(server.stats().decode_errors, 0u);
  EXPECT_EQ(server.plan_cache_stats().entries, 1u);
}

TEST(ExecutorAnalysisTest, RemoteSessionsStillRunCleanPlans) {
  // Regression guard for the analyzer gate: a normal remote session (the
  // dispatcher encodes the builder's analyzed plan) must be unaffected.
  auto server = std::make_shared<net::ExecutorServer>();
  NvxBuilder builder;
  builder.Benchmark(*workload::FindBenchmark("bzip2")).Variants(3).Seed(41);
  auto session = builder.Remote({net::LoopbackEndpoint(server, "solo")}).Build();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Run().ok());
  EXPECT_EQ(server->stats().analysis_rejects, 0u);
  EXPECT_EQ(server->plan_cache_stats().entries, 1u);
}

}  // namespace
}  // namespace bunshin
