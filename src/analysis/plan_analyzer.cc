#include "src/analysis/plan_analyzer.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/trace_analyzer.h"
#include "src/distribution/distribution.h"
#include "src/nxe/engine.h"
#include "src/sanitizer/sanitizer.h"
#include "src/workload/funcprofile.h"
#include "src/workload/tracegen.h"

namespace bunshin {
namespace analysis {
namespace {

std::string SpecLoc(size_t v) { return "spec " + std::to_string(v); }
std::string SubsetLoc(size_t v) { return "subset " + std::to_string(v); }
std::string GroupLoc(size_t v) { return "group " + std::to_string(v); }

// Renders up to `max_shown` names, then "... and N more" — coverage rules
// report one diagnostic per defect class, not one per function.
std::string NameList(const std::vector<std::string>& names, size_t max_shown = 8) {
  std::string out;
  const size_t shown = names.size() < max_shown ? names.size() : max_shown;
  for (size_t i = 0; i < shown; ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += names[i];
  }
  if (names.size() > shown) {
    out += " ... and " + std::to_string(names.size() - shown) + " more";
  }
  return out;
}

std::optional<san::SanitizerId> SanitizerIdByName(const std::string& name) {
  for (const san::SanitizerInfo& info : san::AllSanitizers()) {
    if (info.name == name) {
      return info.id;
    }
  }
  return std::nullopt;
}

// Whether the plan's sessions exceed what one engine Run() accepts (the
// thread count is the trace generator's: the spec's, at least 1).
bool TooWide(const api::VariantPlan& plan) {
  const size_t threads = plan.benchmark.has_value() ? plan.benchmark->threads
                         : plan.server.has_value()  ? plan.server->threads
                                                    : 1;
  return plan.specs.size() > nxe::kMaxSessionWidth || threads > nxe::kMaxSessionWidth;
}

// --- plan/* well-formedness --------------------------------------------------

void CheckWellFormedness(const api::VariantPlan& plan, AnalysisReport* report) {
  const bool has_bench = plan.benchmark.has_value();
  const bool has_server = plan.server.has_value();
  if (!has_bench && !has_server) {
    report->AddError("plan/no-target", "", "plan has neither a benchmark nor a server target",
                     "set exactly one of VariantPlan::benchmark / VariantPlan::server");
  }
  if (has_bench && has_server) {
    report->AddError("plan/dual-target", "",
                     "plan has both a benchmark and a server target; trace construction is "
                     "ambiguous",
                     "set exactly one of VariantPlan::benchmark / VariantPlan::server");
  }
  if (plan.specs.empty()) {
    report->AddError("plan/no-variants", "", "plan has no variant specs",
                     "plan at least one variant");
  }
  if (plan.labels.size() != plan.specs.size()) {
    report->AddError("plan/labels-mismatch", "",
                     std::to_string(plan.labels.size()) + " label(s) for " +
                         std::to_string(plan.specs.size()) +
                         " spec(s); backends index labels by variant slot",
                     "emit exactly one label per spec");
  }
  if (has_server && plan.strategy != api::DistributionStrategy::kNone) {
    report->AddError("plan/server-distribution", "",
                     "server targets support identical clones only (no distribution)",
                     "use DistributionStrategy::kNone for server targets");
  }
  if (TooWide(plan)) {
    report->AddError("plan/too-wide", "",
                     "the plan exceeds " + std::to_string(nxe::kMaxSessionWidth) +
                         " variants or threads per variant; the engine rejects such sessions",
                     "plan fewer variants, or a target with fewer threads");
  }
  if (plan.requested_variants != 0 && plan.specs.size() > plan.requested_variants) {
    report->AddWarning("plan/requested-variants", "",
                       "plan carries " + std::to_string(plan.specs.size()) +
                           " specs but only " + std::to_string(plan.requested_variants) +
                           " were requested; planners only ever clamp downward",
                       "regenerate the plan or fix requested_variants");
  }
  for (size_t v = 0; v < plan.specs.size(); ++v) {
    const double scale = plan.specs[v].compute_scale;
    if (scale <= 0.0) {
      report->AddError("plan/compute-scale", SpecLoc(v),
                       "compute_scale " + api::CacheKeyDouble(scale) +
                           " is not positive; the engine's virtual clock would stall or run "
                           "backwards",
                       "compute scales are 1.0 + overhead fractions, always >= 1.0");
    } else if (scale < 1.0) {
      report->AddWarning("plan/compute-scale", SpecLoc(v),
                         "compute_scale " + api::CacheKeyDouble(scale) +
                             " < 1.0 claims an instrumented variant outruns the baseline",
                         "compute scales are 1.0 + overhead fractions, always >= 1.0");
    }
  }
  for (const api::DetectInjection& injection : plan.detect_injections) {
    if (injection.variant >= plan.specs.size()) {
      report->AddError("plan/injection-range", "detect injection",
                       "variant index " + std::to_string(injection.variant) +
                           " out of range (have " + std::to_string(plan.specs.size()) +
                           " variants)",
                       "target an existing variant slot");
    }
  }
  for (const api::DivergeInjection& injection : plan.diverge_injections) {
    if (injection.variant >= plan.specs.size()) {
      report->AddError("plan/injection-range", "diverge injection",
                       "variant index " + std::to_string(injection.variant) +
                           " out of range (have " + std::to_string(plan.specs.size()) +
                           " variants)",
                       "target an existing variant slot");
    }
  }
  if (plan.engine_config.contention_variants != 0 &&
      plan.engine_config.contention_variants < plan.specs.size()) {
    report->AddWarning("plan/contention-width", "",
                       "contention_variants " +
                           std::to_string(plan.engine_config.contention_variants) +
                           " is below the plan's " + std::to_string(plan.specs.size()) +
                           " variants; the engine silently widens it, so the configured value "
                           "misleads",
                       "set contention_variants to 0 (auto) or >= n_variants");
  }
}

// --- coverage/* for check distribution (§3.2) --------------------------------

void CheckCheckDistribution(const api::VariantPlan& plan, AnalysisReport* report) {
  if (plan.check_plan == nullptr) {
    report->AddError("coverage/missing-plan", "",
                     "strategy is check-distribution but the plan carries no "
                     "CheckDistributionPlan",
                     "plan with NvxBuilder or attach the distribution output");
    return;
  }
  const distribution::CheckDistributionPlan& cp = *plan.check_plan;
  if (cp.protected_functions.size() != plan.specs.size()) {
    report->AddError("coverage/partition-arity", "",
                     std::to_string(cp.protected_functions.size()) +
                         " protected-function subset(s) for " +
                         std::to_string(plan.specs.size()) + " variant(s)",
                     "one subset per variant, in slot order");
    return;
  }
  if (!plan.benchmark.has_value()) {
    return;  // plan/no-target or plan/server-distribution already reported
  }
  // The ground-truth function set is the planner's profile, whose functions
  // are named by index (workload::ProfiledFunctionName); ProfiledFunctionIndex
  // accepts exactly those names, so coverage is checked per index without
  // re-synthesizing the profile.
  const workload::BenchmarkSpec& bench = *plan.benchmark;
  const size_t n_profiled = std::max<size_t>(1, bench.n_functions);
  size_t n_named = 0;
  for (const std::vector<std::string>& subset : cp.protected_functions) {
    n_named += subset.size();
  }
  // n_functions is one unchecked wire field: index the owner table by
  // function only while the subsets could come near covering it. Past that,
  // the table holds just the named indices (sorted) and the gap is counted,
  // not enumerated — memory stays bounded by the decoded plan.
  constexpr size_t kEnumerableSlack = 64;
  const bool enumerable = n_profiled <= 2 * n_named + kEnumerableSlack;
  std::vector<size_t> named;  // !enumerable: the distinct named indices
  if (!enumerable) {
    for (const std::vector<std::string>& subset : cp.protected_functions) {
      for (const std::string& name : subset) {
        if (const std::optional<size_t> index = workload::ProfiledFunctionIndex(bench, name)) {
          named.push_back(*index);
        }
      }
    }
    std::sort(named.begin(), named.end());
    named.erase(std::unique(named.begin(), named.end()), named.end());
  }
  const auto slot = [&](size_t index) -> size_t {
    return enumerable ? index
                      : static_cast<size_t>(std::lower_bound(named.begin(), named.end(), index) -
                                            named.begin());
  };
  constexpr size_t kNoOwner = SIZE_MAX;
  std::vector<size_t> owner(enumerable ? n_profiled : named.size(), kNoOwner);
  std::vector<std::string> unknown;
  for (size_t v = 0; v < cp.protected_functions.size(); ++v) {
    for (const std::string& name : cp.protected_functions[v]) {
      const std::optional<size_t> index = workload::ProfiledFunctionIndex(bench, name);
      if (!index.has_value()) {
        unknown.push_back(name + " (" + SubsetLoc(v) + ")");
        continue;
      }
      size_t& first = owner[slot(*index)];
      if (first == kNoOwner) {
        first = v;
        continue;
      }
      report->AddError("coverage/overlap", SubsetLoc(v),
                       "function '" + name + "' is already protected by " + SubsetLoc(first) +
                           "; overlapping checks double-pay overhead and break the "
                           "disjointness claim",
                       "assign every function to exactly one variant");
    }
  }
  if (!unknown.empty()) {
    report->AddError("coverage/unknown-function", "",
                     "subset(s) protect function(s) absent from the profiled set: " +
                         NameList(unknown),
                     "partition exactly the profiled functions");
  }
  if (!enumerable) {
    report->AddError("coverage/gap", "",
                     std::to_string(n_profiled - named.size()) + " of " +
                         std::to_string(n_profiled) +
                         " profiled function(s) protected by no variant (the subsets name " +
                         std::to_string(n_named) +
                         "; too few to enumerate the gap); an attack on them is invisible to "
                         "every variant",
                     "the subsets must cover the full profiled function set");
    return;
  }
  std::vector<std::string> gaps;
  for (size_t i = 0; i < n_profiled; ++i) {
    if (owner[i] == kNoOwner) {
      gaps.push_back(workload::ProfiledFunctionName(bench, i));
    }
  }
  if (!gaps.empty()) {
    std::sort(gaps.begin(), gaps.end());  // name order: "fn10" sorts before "fn2"
    report->AddError("coverage/gap", "",
                     "profiled function(s) protected by no variant: " + NameList(gaps) +
                         "; an attack on them is invisible to every variant",
                     "the subsets must cover the full profiled function set");
  }
}

// --- coverage/* for sanitizer / UBSan-sub distribution -----------------------

void CheckGroupDuplicates(const std::vector<std::vector<std::string>>& groups,
                          AnalysisReport* report) {
  std::map<std::string, size_t> owner;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const std::string& name : groups[g]) {
      const auto [it, inserted] = owner.emplace(name, g);
      if (!inserted) {
        report->AddError("coverage/group-duplicate", GroupLoc(g),
                         "'" + name + "' already appears in " + GroupLoc(it->second),
                         "each protection unit belongs to exactly one group");
      }
    }
  }
}

void CheckSanitizerDistribution(const api::VariantPlan& plan, AnalysisReport* report) {
  if (plan.sanitizer_groups.empty()) {
    report->AddError("coverage/missing-plan", "",
                     "strategy is sanitizer-distribution but the plan carries no groups",
                     "plan with NvxBuilder or attach the distribution output");
    return;
  }
  CheckGroupDuplicates(plan.sanitizer_groups, report);
  std::set<std::string> covered;
  for (size_t g = 0; g < plan.sanitizer_groups.size(); ++g) {
    std::vector<san::SanitizerId> ids;
    for (const std::string& name : plan.sanitizer_groups[g]) {
      const std::optional<san::SanitizerId> id = SanitizerIdByName(name);
      if (!id.has_value()) {
        report->AddError("coverage/unknown-sanitizer", GroupLoc(g),
                         "'" + name + "' is not in the sanitizer catalog",
                         "groups name catalog sanitizers");
        continue;
      }
      covered.insert(name);
      ids.push_back(*id);
    }
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = a + 1; b < ids.size(); ++b) {
        if (san::Conflicts(ids[a], ids[b])) {
          report->AddError("coverage/group-conflict", GroupLoc(g),
                           std::string(san::SanitizerName(ids[a])) + " and " +
                               san::SanitizerName(ids[b]) +
                               " claim clashing address-space layouts and cannot share a "
                               "variant (§3.1)",
                           "move one of them to another group");
        }
      }
    }
  }
  // Every requested sanitizer the target supports must be covered somewhere.
  std::vector<std::string> missing;
  for (const san::SanitizerId id : plan.sanitizers) {
    if (id == san::SanitizerId::kMSan && plan.benchmark.has_value() &&
        !plan.benchmark->overheads.msan_supported) {
      continue;  // the planner legitimately drops MSan here (gcc case)
    }
    const std::string name = san::SanitizerName(id);
    if (covered.find(name) == covered.end()) {
      missing.push_back(name);
    }
  }
  if (!missing.empty()) {
    report->AddError("coverage/sanitizer-gap", "",
                     "requested sanitizer(s) enforced by no group: " + NameList(missing),
                     "distribute every supported requested sanitizer");
  }
}

void CheckUbsanDistribution(const api::VariantPlan& plan, AnalysisReport* report) {
  if (plan.sanitizer_groups.empty()) {
    report->AddError("coverage/missing-plan", "",
                     "strategy is ubsan-sub-distribution but the plan carries no groups",
                     "plan with NvxBuilder or attach the distribution output");
    return;
  }
  CheckGroupDuplicates(plan.sanitizer_groups, report);
  std::set<std::string> catalog;
  for (const san::SubSanitizer& sub : san::UBSanSubSanitizers()) {
    catalog.insert(sub.name);
  }
  std::set<std::string> covered;
  for (size_t g = 0; g < plan.sanitizer_groups.size(); ++g) {
    for (const std::string& name : plan.sanitizer_groups[g]) {
      if (catalog.find(name) == catalog.end()) {
        report->AddError("coverage/unknown-sanitizer", GroupLoc(g),
                         "'" + name + "' is not a UBSan sub-sanitizer",
                         "groups name the 19 catalog sub-sanitizers");
        continue;
      }
      covered.insert(name);
    }
  }
  std::vector<std::string> missing;
  for (const std::string& name : catalog) {
    if (covered.find(name) == covered.end()) {
      missing.push_back(name);
    }
  }
  if (!missing.empty()) {
    report->AddError("coverage/ubsan-gap", "",
                     "sub-sanitizer(s) enforced by no variant: " + NameList(missing) +
                         "; undefined behavior of those classes goes undetected",
                     "distribute all 19 sub-sanitizers (§5.5)");
  }
}

void CheckCoverage(const api::VariantPlan& plan, AnalysisReport* report) {
  switch (plan.strategy) {
    case api::DistributionStrategy::kNone:
      break;  // identical clones claim no distributed coverage
    case api::DistributionStrategy::kCheck:
      CheckCheckDistribution(plan, report);
      break;
    case api::DistributionStrategy::kSanitizer:
      CheckSanitizerDistribution(plan, report);
      break;
    case api::DistributionStrategy::kUbsanSub:
      CheckUbsanDistribution(plan, report);
      break;
  }
  // Independent of strategy: the sanitizer set each spec actually carries
  // (which drives its runtime's introduced syscalls) must be collectively
  // enforceable — a wire plan whose specs pair conflicting sanitizers could
  // not exist as a real binary.
  for (size_t v = 0; v < plan.specs.size(); ++v) {
    if (!san::CollectivelyEnforceable(plan.specs[v].sanitizers)) {
      report->AddError("coverage/enforceable", SpecLoc(v),
                       "the spec's sanitizer set is not collectively enforceable "
                       "(conflicting address-space claims)",
                       "split conflicting sanitizers across variants");
    }
  }
}

// The rule passes: everything AnalyzePlan reports before it builds traces.
void CheckRules(const api::VariantPlan& plan, AnalysisReport* report) {
  CheckWellFormedness(plan, report);
  CheckCoverage(plan, report);
}

// Liveness needs the concrete traces; it is skipped when the plan is
// structurally unable to build them, or too wide to build them at a bounded
// cost (the plan/* rules already reject it).
bool LivenessApplies(const api::VariantPlan& plan) {
  const bool one_target = plan.benchmark.has_value() != plan.server.has_value();
  return one_target && !plan.specs.empty() && !TooWide(plan);
}

std::vector<size_t> AllMembers(const api::VariantPlan& plan) {
  std::vector<size_t> members(plan.specs.size());
  std::iota(members.begin(), members.end(), size_t{0});
  return members;
}

void ReportInjectionSite(const Status& status, AnalysisReport* report) {
  report->AddError("plan/injection-site", "", "trace construction fails: " + status.message(),
                   "inject divergences only into variants with sync-relevant syscalls");
}

// The liveness pass runs under the session-wide contention width.
nxe::EngineConfig LivenessConfig(const api::VariantPlan& plan) {
  nxe::EngineConfig config = plan.engine_config;
  config.contention_variants = plan.n_variants();
  return config;
}

bool InjectionsInRange(const api::VariantPlan& plan) {
  for (const api::DetectInjection& injection : plan.detect_injections) {
    if (injection.variant >= plan.specs.size()) {
      return false;
    }
  }
  for (const api::DivergeInjection& injection : plan.diverge_injections) {
    if (injection.variant >= plan.specs.size()) {
      return false;
    }
  }
  return true;
}

// The base analysis of a base plan: AnalyzeOverlay(AnalyzeBase(plan), plan)
// == AnalyzePlan(plan).
BaseAnalysis AnalyzeBase(const api::VariantPlan& plan) {
  BaseAnalysis base;
  CheckRules(plan, &base.rules);
  if (LivenessApplies(plan)) {
    const workload::TraceTemplate tmpl = api::BuildPlanTemplate(plan, plan.seed);
    base.traces.resize(plan.specs.size());
    for (size_t v = 0; v < plan.specs.size(); ++v) {
      workload::DeriveTrace(tmpl, plan.specs[v], &base.traces[v]);
    }
  }
  return base;
}

}  // namespace

AnalysisReport AnalyzePlan(const api::VariantPlan& plan,
                           std::optional<uint64_t> workload_seed) {
  AnalysisReport report;
  CheckRules(plan, &report);
  if (!LivenessApplies(plan)) {
    return report;
  }
  auto traces = api::BuildPlanTraces(plan, AllMembers(plan), workload_seed.value_or(plan.seed));
  if (!traces.ok()) {
    ReportInjectionSite(traces.status(), &report);
    return report;
  }
  AnalyzeTraces(LivenessConfig(plan), *traces, &report);
  return report;
}

AnalysisReport AnalyzeOverlay(const BaseAnalysis& base, const api::VariantPlan& overlay) {
  // base.rules lacks plan/injection-range, and a base of another shape has
  // no trace to read for some slot: analyze such an overlay in full.
  const size_t n_traces = LivenessApplies(overlay) ? overlay.specs.size() : 0;
  if (!InjectionsInRange(overlay) || base.traces.size() != n_traces) {
    return AnalyzePlan(overlay);
  }
  AnalysisReport report = base.rules;
  if (n_traces == 0) {
    return report;
  }
  std::vector<const nxe::VariantTrace*> view;
  view.reserve(base.traces.size());
  for (const nxe::VariantTrace& trace : base.traces) {
    view.push_back(&trace);
  }
  // Each targeted variant is copied once, however many injections it takes.
  std::vector<size_t> targeted;
  for (const api::DetectInjection& injection : overlay.detect_injections) {
    targeted.push_back(injection.variant);
  }
  for (const api::DivergeInjection& injection : overlay.diverge_injections) {
    targeted.push_back(injection.variant);
  }
  std::sort(targeted.begin(), targeted.end());
  targeted.erase(std::unique(targeted.begin(), targeted.end()), targeted.end());
  std::vector<nxe::VariantTrace> spliced(targeted.size());
  for (size_t i = 0; i < targeted.size(); ++i) {
    spliced[i] = base.traces[targeted[i]];
    Status status = api::SpliceInjections(overlay, targeted[i], &spliced[i]);
    if (!status.ok()) {
      ReportInjectionSite(status, &report);
      return report;
    }
    view[targeted[i]] = &spliced[i];
  }
  AnalyzeTracesInPlace(LivenessConfig(overlay), view, &report);
  return report;
}

const BaseAnalysis& LazyBaseAnalysis::Get(const api::VariantPlan& plan) const {
  std::call_once(once_, [this, &plan] { base_ = AnalyzeBase(plan); });
  return base_;
}

}  // namespace analysis
}  // namespace bunshin
