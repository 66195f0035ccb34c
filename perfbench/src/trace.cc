#include "perfbench/src/trace.h"

#include <cstdio>

#include "perfbench/src/probes.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {
      "session",
      "api.build",
      "api.plan_key",
      "api.plan_lookup",
      "api.overlay",
      "analysis.analyze",
      "api.backend_key",
      "workload.trace_build",
      "workload.baseline_trace",
      "workload.trace_free",
      "nxe.pool",
      "nxe.baseline",
      "nxe.engine",
      "api.merge",
      "net.encode",
      "net.dial",
      "net.rtt",
      "net.decode",
      "support.pool",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<size_t>(layer)];
}

Tracer::Scope::Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
  index_ = static_cast<uint32_t>(tracer_->spans_.size());
  saved_parent_ = tracer_->open_;
  tracer_->spans_.push_back(
      Span{layer, tracer_->open_, tracer_->session_, 0, 0, AllocCount()});
  tracer_->open_ = index_;
  tracer_->spans_[index_].start_ns = NowNs();  // last, so bookkeeping is not timed
}

Tracer::Scope::~Scope() {
  Span& span = tracer_->spans_[index_];
  span.end_ns = NowNs();
  span.allocs = AllocCount() - span.allocs;
  tracer_->open_ = saved_parent_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "index\tsession\tparent\tname\tstart_ns\tend_ns\tallocs\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%llu\t%lld\t%s\t%lld\t%lld\t%llu\n", i,
                 static_cast<unsigned long long>(s.session),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 LayerName(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.allocs));
  }
  return std::fclose(out) == 0;
}

std::vector<SessionBreakdown> Breakdown(const std::vector<Span>& spans) {
  std::vector<SessionBreakdown> sessions;
  for (const Span& span : spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    if (span.parent == kNoParent) {
      sessions.push_back(SessionBreakdown{});
      sessions.back().wall_ns = duration;
    }
    SessionBreakdown& current = sessions.back();
    const auto layer = static_cast<size_t>(span.layer);
    current.self_ns[layer] += duration;
    current.total_ns[layer] += duration;
    current.allocs[layer] += span.allocs;
    current.calls[layer] += 1;
    if (span.parent != kNoParent) {
      current.self_ns[static_cast<size_t>(spans[span.parent].layer)] -= duration;
    }
  }
  return sessions;
}

}  // namespace perfbench
