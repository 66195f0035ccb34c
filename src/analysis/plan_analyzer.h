// Static analysis over api::VariantPlan — the trust-boundary gate.
//
// AnalyzePlan runs the full rule catalog against one plan:
//
//   * plan/*      — well-formedness: exactly one target, variants present,
//                   labels aligned, injections in range, compute scales sane,
//                   strategy/target consistency, contention width, session
//                   width within the engine's limit.
//   * coverage/*  — the §3.2 security claim: under kCheck the distribution
//                   subsets partition the *recomputed* profiled function set
//                   exactly (no gap, no overlap, no unknown name); under
//                   kSanitizer/kUbsanSub the groups are duplicate-free,
//                   conflict-free, and cover every requested unit; every
//                   spec's sanitizer set is collectively enforceable.
//   * liveness/*  — the plan's concrete traces (built by api::BuildPlanTraces,
//                   the exact trace construction backends execute, injections
//                   included) pass the trace analyzer's deadlock-freedom
//                   proof.
//   * analysis/*  — predicted run outcomes for the oracle suite.
//
// Callers at the three trust boundaries:
//   * NvxBuilder analyzes at plan time and caches the report with the plan
//     (VariantPlan::analysis); errors fail Build(). A cached base plan also
//     keeps its injection-free half (LazyBaseAnalysis, filled by its first
//     overlay), from which each attack overlay's report is finished
//     (AnalyzeOverlay) instead of re-analyzed.
//   * net::ExecutorServer analyzes every decoded wire plan before it reaches
//     the plan cache; errors reject the request with the rendered report.
//   * tools/nvx_analyze lints plan files / corpora offline.
#ifndef BUNSHIN_SRC_ANALYSIS_PLAN_ANALYZER_H_
#define BUNSHIN_SRC_ANALYSIS_PLAN_ANALYZER_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/api/plan.h"
#include "src/nxe/trace.h"

namespace bunshin {
namespace analysis {

// Analyzes `plan` end to end. `workload_seed` overrides the plan's seed for
// trace construction (mirror of api::RunRequest::workload_seed, so a trust
// boundary can analyze the traces a specific request will actually run);
// nullopt analyzes at the plan's own seed.
//
// Structural plan errors (no/dual target, no variants, label misalignment)
// make trace construction impossible; the liveness rules are then skipped and
// the report carries the plan/* errors — use well_formed() && deadlock_free(),
// not deadlock_free() alone, as the "engine will not error" verdict.
AnalysisReport AnalyzePlan(const api::VariantPlan& plan,
                           std::optional<uint64_t> workload_seed = std::nullopt);

// The part of AnalyzePlan(plan) that no injection changes: the plan/* and
// coverage/* rules (whose one injection rule, plan/injection-range, never
// fires on in-range injections) and every variant's trace at plan.seed with
// no injection spliced.
struct BaseAnalysis {
  AnalysisReport rules;
  std::vector<nxe::VariantTrace> traces;  // one per spec; empty when liveness is skipped
};

// AnalyzePlan(overlay), finished from `base`, the base analysis of the plan
// `overlay` copies with only its injections changed. The rules report is
// reused as is; only the variants an injection targets are copied out of
// base.traces and spliced (api::SpliceInjections), the rest are read in
// place. An overlay with an out-of-range injection is analyzed in full.
AnalysisReport AnalyzeOverlay(const BaseAnalysis& base, const api::VariantPlan& overlay);

// A base (injection-free) plan's base analysis, computed on first use from
// one rules pass and one template, then kept: NvxBuilder attaches one to
// each base plan it caches (VariantPlan::base_analysis), so a configuration
// that never sees an attack overlay never holds the traces. Thread-safe;
// concurrent first callers compute it once.
class LazyBaseAnalysis {
 public:
  // `plan` must be the plan this is attached to.
  const BaseAnalysis& Get(const api::VariantPlan& plan) const;

 private:
  mutable std::once_flag once_;
  mutable BaseAnalysis base_;
};

}  // namespace analysis
}  // namespace bunshin

#endif  // BUNSHIN_SRC_ANALYSIS_PLAN_ANALYZER_H_
