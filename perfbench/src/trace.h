// In-memory span recorder for the traced run.
//
// The traced run drives each session itself, one layer call at a time, on
// the calling thread; every call is wrapped in a span (name, start, end,
// parent, session id, allocations while open). Spans nest strictly and run
// serially, so a span's self time is its duration minus its direct
// children's durations, and the self times of one session's spans sum to
// the session root's wall time.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// One span name per layer call the traced run makes.
enum class Layer : uint8_t {
  kSession,        // root: one protected session, Build() start to verdict
  kBuild,          // api: the traced equivalent of NvxBuilder::Build()
  kPlanKey,        // api: NvxBuilder::PlanCacheKey()
  kPlanLookup,     // api: PlanCache::GetOrPlan()
  kOverlay,        // api: copy-on-write injection overlay of the cached plan
  kAnalyze,        // analysis: analysis::AnalyzePlan()
  kBackendKey,     // api: the plan CacheKey() a backend pools engines under
  kTraceBuild,     // workload: api::BuildPlanTraces()
  kBaselineTrace,  // workload: workload::BuildTrace() of the uninstrumented baseline
  kTraceFree,      // workload: releasing the built traces (a real session does it
                   // when the session is destroyed, after the verdict)
  kEnginePool,     // nxe: EnginePool::Acquire() and the check-in after the run
  kBaseline,       // nxe: Engine::RunBaseline()
  kEngine,         // nxe: Engine::Run()
  kMerge,          // api: RunReport::Merge()
  kEncode,         // net: EncodeVariantPlan() / EncodeRunRequestMsg()
  kDial,           // net: Endpoint::dial() and the hang-up after the reply
  kRtt,            // net: WriteFrame() + ReadFrame() (includes the executor's run)
  kDecode,         // net: DecodeRunReplyMsg()
  kShardPool,      // support: the ThreadPool a synchronous sharded Build() starts and drops
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer;
  uint32_t parent;  // index into the span list; kNoParent for a root
  uint64_t session;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t allocs;  // operator new calls while the span was open (all threads)
};

inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

class Tracer {
 public:
  // RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    uint32_t index_;
    uint32_t saved_parent_;
  };

  void BeginSession(uint64_t session) { session_ = session; }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

  // Writes every span as one tab-separated line; false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint32_t open_ = kNoParent;
  uint64_t session_ = 0;
};

// Per-session self and inclusive time (ns), allocations and calls for each layer,
// derived from one session's contiguous run of spans.
struct SessionBreakdown {
  int64_t wall_ns = 0;  // the root span's duration
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> self_ns{};
  std::array<int64_t, static_cast<size_t>(Layer::kCount)> total_ns{};  // inclusive
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> allocs{};
  std::array<uint32_t, static_cast<size_t>(Layer::kCount)> calls{};
};

// Splits `spans` into sessions (each begins at a root span).
std::vector<SessionBreakdown> Breakdown(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
