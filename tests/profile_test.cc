// Tests for the overhead profiler (IR path and synthesized path).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/profile/profiler.h"
#include "src/sanitizer/asan_pass.h"
#include "src/workload/funcprofile.h"
#include "src/workload/workload.h"
#include "tests/testutil.h"

namespace bunshin {
namespace {

TEST(ProfilerTest, MeasuresPerFunctionOverhead) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());

  auto profile = profile::ProfileCheckDistribution(
      *baseline, *instrumented, {{"main", {30}}, {"main", {10}}});
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();

  EXPECT_GT(profile->TotalOverhead(), 0.0);
  EXPECT_EQ(profile->functions.size(), 4u);  // hot, warm, cold, main

  // The loop-heavy, memory-heavy function must dominate the deltas.
  uint64_t hot_delta = 0;
  uint64_t cold_delta = 0;
  for (const auto& fn : profile->functions) {
    if (fn.function == "hot") {
      hot_delta = fn.Delta();
    }
    if (fn.function == "cold") {
      cold_delta = fn.Delta();
    }
  }
  EXPECT_GT(hot_delta, cold_delta);
}

TEST(ProfilerTest, WeightsAlignWithFunctions) {
  auto baseline = testutil::BuildMultiFunctionProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());
  auto profile =
      profile::ProfileCheckDistribution(*baseline, *instrumented, {{"main", {20}}});
  ASSERT_TRUE(profile.ok());
  const auto weights = profile->DistributableWeights();
  ASSERT_EQ(weights.size(), profile->functions.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(weights[i], static_cast<double>(profile->functions[i].Delta()));
  }
}

TEST(ProfilerTest, RejectsEmptyWorkload) {
  auto module = testutil::BuildMultiFunctionProgram();
  EXPECT_FALSE(profile::ProfileCheckDistribution(*module, *module, {}).ok());
}

TEST(ProfilerTest, RejectsCrashingWorkload) {
  auto baseline = testutil::BuildArithProgram();
  auto profile =
      profile::ProfileCheckDistribution(*baseline, *baseline, {{"main", {1, 0}}});  // div 0
  EXPECT_FALSE(profile.ok());
}

TEST(ProfilerTest, WholeProgramOverheadMatchesCostRatio) {
  auto baseline = testutil::BuildBufferProgram();
  auto instrumented = baseline->Clone();
  san::AsanPass pass;
  ASSERT_TRUE(pass.Run(instrumented.get()).ok());
  auto overhead = profile::ProfileWholeProgram(*baseline, *instrumented, {{"main", {2}}});
  ASSERT_TRUE(overhead.ok());
  EXPECT_GT(*overhead, 0.0);
  EXPECT_LT(*overhead, 10.0);  // sanity bound
}

TEST(SynthesizedProfileTest, MatchesCalibratedTotals) {
  for (const auto& bench : workload::Spec2006()) {
    const auto profile =
        workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 1);
    EXPECT_EQ(profile.functions.size(), bench.n_functions) << bench.name;
    // Total overhead ~= calibrated whole-program number (rounding slack).
    EXPECT_NEAR(profile.TotalOverhead(), bench.overheads.asan, 0.05) << bench.name;
    // Hottest share is honored.
    EXPECT_NEAR(profile.HottestFunctionShare(), bench.hottest_share, 0.03) << bench.name;
  }
}

TEST(SynthesizedProfileTest, DeterministicInSeed) {
  const auto& bench = workload::Spec2006()[0];
  const auto a = workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 9);
  const auto b = workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 9);
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (size_t i = 0; i < a.functions.size(); ++i) {
    EXPECT_EQ(a.functions[i].instrumented_cost, b.functions[i].instrumented_cost);
  }
}

TEST(SynthesizedProfileTest, FunctionNamesRoundTripThroughTheirIndex) {
  std::vector<workload::BenchmarkSpec> catalog = workload::Spec2006();
  for (const auto* suite : {&workload::Splash2x(), &workload::Parsec()}) {
    catalog.insert(catalog.end(), suite->begin(), suite->end());
  }
  for (const workload::BenchmarkSpec& spec : catalog) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{10}, size_t{11}, spec.n_functions}) {
      workload::BenchmarkSpec bench = spec;
      bench.n_functions = n;
      const auto profile = workload::SynthesizeFunctionProfile(bench, san::SanitizerId::kASan, 1);
      ASSERT_EQ(profile.functions.size(), std::max<size_t>(1, n)) << bench.name;
      for (size_t i = 0; i < profile.functions.size(); ++i) {
        const std::string& name = profile.functions[i].function;
        EXPECT_EQ(name, workload::ProfiledFunctionName(bench, i)) << bench.name;
        EXPECT_EQ(workload::ProfiledFunctionIndex(bench, name), std::optional<size_t>(i))
            << name;
      }
      const std::string past_end = workload::ProfiledFunctionName(bench, profile.functions.size());
      EXPECT_EQ(workload::ProfiledFunctionIndex(bench, past_end), std::nullopt) << past_end;
    }
  }
}

TEST(SynthesizedProfileTest, FunctionIndexRejectsNonCanonicalNames) {
  workload::BenchmarkSpec bench = *workload::FindBenchmark("mcf");
  bench.n_functions = 40;
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn0"), std::optional<size_t>(0));
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn39"), std::optional<size_t>(39));
  for (const std::string& name :
       {std::string("mcf::fn40"), std::string("mcf::fn007"), std::string("mcf::fn00"),
        std::string("mcf::fn+1"), std::string("mcf::fn-1"), std::string("mcf::fn"),
        std::string("mcf::fn1 "), std::string("mcf::f1"), std::string("mcf:fn1"),
        std::string("bzip2::fn1"), std::string("fn1"), std::string(""),
        std::string("mcf::fn1\0", 9), std::string("mcf::fn18446744073709551615"),
        std::string("mcf::fn18446744073709551616"),
        std::string("mcf::fn123456789012345678901234567890")}) {
    EXPECT_EQ(workload::ProfiledFunctionIndex(bench, name), std::nullopt) << name;
  }
  bench.n_functions = SIZE_MAX;
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn18446744073709551614"),
            std::optional<size_t>(SIZE_MAX - 1));
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn18446744073709551615"), std::nullopt);
  EXPECT_EQ(workload::ProfiledFunctionIndex(bench, "mcf::fn18446744073709551616"), std::nullopt);
}

TEST(SynthesizedProfileTest, ResidualFractionSaneForAllSanitizers) {
  for (const auto& info : san::AllSanitizers()) {
    const double r = workload::ResidualFraction(info.id);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 0.5);
  }
}

}  // namespace
}  // namespace bunshin
