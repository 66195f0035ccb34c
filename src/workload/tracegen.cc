#include "src/workload/tracegen.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string_view>

#include "src/support/rng.h"

namespace bunshin {
namespace workload {
namespace {

// The digest of a tag such as "req#3/17#chunk2", built in place: the same
// value sc::DigestString gives the concatenated string, without building it.
class TagDigest {
 public:
  TagDigest& operator<<(std::string_view text) {
    std::memcpy(buf_ + size_, text.data(), text.size());
    size_ += text.size();
    return *this;
  }
  TagDigest& operator<<(uint64_t n) {
    size_ = static_cast<size_t>(std::to_chars(buf_ + size_, buf_ + sizeof(buf_), n).ptr - buf_);
    return *this;
  }
  uint64_t Digest() const { return sc::DigestBytes(buf_, size_); }

 private:
  char buf_[80];  // the longest tag below: "req#", "/", "#chunk" and three 20-digit numbers
  size_t size_ = 0;
};

// Benign syscall record for slot `i` of the template, honoring the IO mix.
sc::SyscallRecord TemplateSyscall(size_t i, double io_write_frac, Rng* rng) {
  sc::SyscallRecord rec;
  if (rng->NextBool(io_write_frac)) {
    rec.no = sc::Sysno::kWrite;
    rec.args = {1, static_cast<int64_t>(64 + rng->NextBounded(4032)), 0, 0, 0, 0};
    rec.payload_digest = (TagDigest() << "out#" << i).Digest();
  } else {
    switch (rng->NextBounded(4)) {
      case 0:
        rec.no = sc::Sysno::kRead;
        rec.args = {3, static_cast<int64_t>(rng->NextBounded(8192)), 0, 0, 0, 0};
        break;
      case 1:
        rec.no = sc::Sysno::kOpen;
        rec.payload_digest = (TagDigest() << "file#" << rng->NextBounded(32)).Digest();
        break;
      case 2:
        rec.no = sc::Sysno::kFstat;
        rec.args = {3, 0, 0, 0, 0, 0};
        break;
      default:
        rec.no = sc::Sysno::kClose;
        rec.args = {3, 0, 0, 0, 0, 0};
        break;
    }
  }
  return rec;
}

// Applies the variant's scheduling jitter to a template compute cost. OS
// noise behaves like a random walk over the segment, so the absolute
// deviation grows with sqrt(cost): long compute bursts between syscalls
// absorb proportionally less jitter than dense syscall bursts. `sigma` is
// that deviation at scale 1 (the template computes it once per segment).
// `scale` is the variant's sanitizer slowdown: the engine multiplies every
// compute cost by it, but OS jitter is a property of wall-clock time, not of
// the instrumentation, so the deviation is divided out here to be
// scale-invariant after the engine's multiplication.
double Jitter(double cost, double sigma, double scale, Rng* rng) {
  const double sigma_abs = sigma / std::max(1.0, scale);
  double jittered = std::max(0.05 * cost, cost + rng->NextGaussian(0.0, sigma_abs));
  // Occasionally the OS preempts the process for a scheduling quantum — a
  // heavy-tailed burst that lets the leader run several syscalls ahead of a
  // follower in selective mode (the §5.3 gap measurements).
  if (rng->NextBool(0.004)) {
    jittered += (60.0 + rng->NextExponential(50.0)) / std::max(1.0, scale);
  }
  return jittered;
}

// A sanitizer runtime's introduced syscalls (§3.3), parsed from the catalog
// once per process rather than once per derived trace.
struct RuntimeSyscalls {
  std::vector<sc::SyscallRecord> pre_main;
  std::vector<sc::SyscallRecord> post_exit;
  size_t memory_calls_per_thread = 0;  // mmap/madvise calls placed in each thread
};

const RuntimeSyscalls& ParsedRuntimeSyscalls(san::SanitizerId id) {
  static const auto* parsed = [] {
    auto* table = new std::vector<RuntimeSyscalls>();
    for (const san::SanitizerInfo& info : san::AllSanitizers()) {
      const auto slot = static_cast<size_t>(info.id);
      table->resize(std::max(table->size(), slot + 1));
      RuntimeSyscalls& runtime = (*table)[slot];
      for (const auto& entry : info.introduced.pre_launch) {
        runtime.pre_main.push_back(sc::ParseIntroducedSyscall(entry));
      }
      for (const auto& entry : info.introduced.post_exit) {
        runtime.post_exit.push_back(sc::ParseIntroducedSyscall(entry));
      }
      runtime.memory_calls_per_thread = info.introduced.in_execution.size() * 3;
    }
    return table;
  }();
  return (*parsed)[static_cast<size_t>(id)];
}

// Appends actions to one thread of a template under construction.
class ThreadWriter {
 public:
  ThreadWriter(TraceTemplate* tmpl, size_t t, double jitter_coeff)
      : tmpl_(tmpl), thread_(&tmpl->threads[t]), jitter_coeff_(jitter_coeff) {}

  void Syscall(const sc::SyscallRecord& rec) {
    Push(nxe::ThreadAction::Syscall(static_cast<uint32_t>(tmpl_->syscalls.size())));
    tmpl_->syscalls.push_back(rec);
  }
  // A compute segment every variant re-draws with its own scheduling noise
  // (an empty segment stays empty and draws nothing).
  void JitteredCompute(double cost) {
    if (cost > 0.0) {
      thread_->jittered.push_back(
          {static_cast<uint32_t>(thread_->actions.size()), jitter_coeff_ * std::sqrt(cost)});
    }
    Push(nxe::ThreadAction::Compute(cost));
  }
  void Push(nxe::ThreadAction action) { thread_->actions.push_back(action); }
  void Reserve(size_t actions, size_t jittered) {
    thread_->actions.reserve(actions);
    thread_->jittered.reserve(jittered);
  }

 private:
  TraceTemplate* tmpl_;
  TraceTemplate::Thread* thread_;
  double jitter_coeff_;
};

// N clones "v0".."v<n-1>" of one binary, jitter seeds jitter_base + v.
std::vector<nxe::VariantTrace> IdenticalVariants(const TraceTemplate& tmpl, size_t n,
                                                 uint64_t jitter_base) {
  std::vector<nxe::VariantTrace> variants(n);
  for (size_t v = 0; v < n; ++v) {
    VariantSpec spec;
    spec.name = "v" + std::to_string(v);
    spec.jitter_seed = jitter_base + v;
    DeriveTrace(tmpl, spec, &variants[v]);
  }
  return variants;
}

}  // namespace

TraceTemplate BuildTemplate(const BenchmarkSpec& bench, uint64_t workload_seed) {
  TraceTemplate tmpl;
  tmpl.jitter_salt = 17;
  tmpl.runtime_memory_management = true;

  const size_t threads = std::max<size_t>(1, bench.threads);
  tmpl.threads.resize(threads);

  const double compute_per_thread = bench.total_compute / static_cast<double>(threads);
  const size_t syscalls_per_thread = std::max<size_t>(1, bench.n_syscalls / threads);
  const size_t locks_per_thread =
      static_cast<size_t>(bench.locks_per_kilo * compute_per_thread / 1000.0);
  const size_t barriers = bench.barriers;
  tmpl.syscalls.reserve(threads * syscalls_per_thread);
  std::vector<sc::SyscallRecord> records;
  records.reserve(syscalls_per_thread);

  // Segment layout per thread: syscalls, locks, and barriers interleaved with
  // compute. The template decides positions; both structure and records must
  // match across variants, so all structural draws come from per-thread
  // streams seeded by the workload seed alone.
  for (size_t t = 0; t < threads; ++t) {
    Rng struct_rng = Rng(workload_seed ^ (0x5DEECE66DULL * (t + 1)));
    ThreadWriter thread(&tmpl, t, bench.noise_rel_sigma);

    // Build the ordered list of sync events for this thread. A syscall
    // event's id indexes `records`, which hold generation order; the
    // template's table is filled in action order below.
    struct Ev {
      enum class Type { kSyscall, kLock, kBarrier } type;
      uint32_t id;
    };
    std::vector<Ev> events;
    events.reserve(syscalls_per_thread + locks_per_thread + barriers);
    records.clear();
    for (size_t i = 0; i < syscalls_per_thread; ++i) {
      events.push_back({Ev::Type::kSyscall, static_cast<uint32_t>(records.size())});
      records.push_back(TemplateSyscall(t * 100000 + i, bench.io_write_frac, &struct_rng));
    }
    for (size_t i = 0; i < locks_per_thread; ++i) {
      events.push_back({Ev::Type::kLock, static_cast<uint32_t>(struct_rng.NextBounded(8))});
    }
    // Shuffle syscalls and locks deterministically (Fisher-Yates).
    for (size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[struct_rng.NextBounded(i)]);
    }
    // Barriers are global rendezvous: same positions (relative) in every
    // thread — append at evenly spaced indices.
    if (barriers > 0) {
      const size_t stride = events.size() / (barriers + 1) + 1;
      size_t inserted = 0;
      for (size_t b = 0; b < barriers; ++b) {
        const size_t pos = std::min(events.size(), (b + 1) * stride + inserted);
        events.insert(events.begin() + static_cast<long>(pos),
                      {Ev::Type::kBarrier, static_cast<uint32_t>(b)});
        ++inserted;
      }
    }

    thread.Reserve(2 * events.size() + 2 * locks_per_thread + 2, events.size() + 1);
    const double mean_segment =
        compute_per_thread / static_cast<double>(events.size() + 1);
    for (const auto& ev : events) {
      // Template segment cost, jittered per variant (scheduling noise).
      thread.JitteredCompute(mean_segment * (0.5 + struct_rng.NextDouble()));
      switch (ev.type) {
        case Ev::Type::kSyscall:
          thread.Syscall(records[ev.id]);
          break;
        case Ev::Type::kLock:
          thread.Push(nxe::ThreadAction::Lock(ev.id));
          thread.Push(nxe::ThreadAction::Compute(mean_segment * 0.05));
          thread.Push(nxe::ThreadAction::Unlock(ev.id));
          break;
        case Ev::Type::kBarrier:
          thread.Push(nxe::ThreadAction::Barrier(ev.id));
          break;
      }
    }
    thread.JitteredCompute(mean_segment);
    thread.Push(nxe::ThreadAction::Exit());
  }
  return tmpl;
}

TraceTemplate BuildServerTemplate(const ServerSpec& server, uint64_t workload_seed) {
  TraceTemplate tmpl;
  tmpl.jitter_salt = 29;
  tmpl.threads.resize(std::max<size_t>(1, server.threads));
  // Queueing pressure from concurrent connections: more in-flight requests
  // means noisier scheduling around each request.
  const double queue_sigma =
      server.noise_rel_sigma * (1.0 + static_cast<double>(server.concurrency) / 2048.0);

  const bool large = server.file_kb >= 1024;
  const size_t chunks = large ? 16 : 1;
  // Calibrated so baseline per-request times land near Table 2's
  // microsecond figures (1KB ~10us, 1MB ~960us at 0.1us/cycle).
  const double parse_compute = large ? 160.0 : 55.0;
  const double read_compute = large ? 9200.0 : 18.0;

  for (size_t t = 0; t < tmpl.threads.size(); ++t) {
    Rng struct_rng = Rng(workload_seed ^ (0xC0FFEEULL * (t + 1)));
    ThreadWriter thread(&tmpl, t, queue_sigma);
    const size_t reqs = server.requests / tmpl.threads.size();
    for (size_t r = 0; r < reqs; ++r) {
      sc::SyscallRecord accept;
      accept.no = sc::Sysno::kAccept;
      accept.args = {4, 0, 0, 0, 0, 0};
      thread.Syscall(accept);

      thread.JitteredCompute(parse_compute);

      sc::SyscallRecord open;
      open.no = sc::Sysno::kOpen;
      open.payload_digest = (TagDigest() << "www/file" << struct_rng.NextBounded(8)).Digest();
      thread.Syscall(open);

      sc::SyscallRecord read;
      read.no = sc::Sysno::kRead;
      read.args = {5, static_cast<int64_t>(server.file_kb * 1024), 0, 0, 0, 0};
      thread.Syscall(read);
      thread.JitteredCompute(read_compute);

      for (size_t c = 0; c < chunks; ++c) {
        sc::SyscallRecord write;
        write.no = sc::Sysno::kWrite;
        write.args = {6, static_cast<int64_t>(server.file_kb * 1024 / chunks), 0, 0, 0, 0};
        write.payload_digest =
            (TagDigest() << "req#" << t << "/" << r << "#chunk" << c).Digest();
        thread.Syscall(write);
        if (large) {
          thread.JitteredCompute(34.0);
        }
      }

      sc::SyscallRecord close;
      close.no = sc::Sysno::kClose;
      close.args = {6, 0, 0, 0, 0, 0};
      thread.Syscall(close);
    }
    thread.Push(nxe::ThreadAction::Exit());
  }
  return tmpl;
}

void PlaceSplices(std::vector<Splice>* splices) {
  std::vector<Splice>& s = *splices;
  // Each splice pushes every earlier one at or past its position one slot
  // right; what remains is each splice's index in the final thread. Splices
  // are few (a dozen per thread), so the quadratic pass is the cheap part.
  for (size_t i = 1; i < s.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (s[j].position >= s[i].position) {
        ++s[j].position;
      }
    }
  }
  std::sort(s.begin(), s.end(),
            [](const Splice& a, const Splice& b) { return a.position < b.position; });
}

void DeriveTrace(const TraceTemplate& tmpl, const VariantSpec& variant, nxe::VariantTrace* out) {
  out->name = variant.name;
  out->compute_scale = variant.compute_scale;
  out->pre_main.clear();
  out->post_exit.clear();
  out->syscalls.clear();
  out->detectors.clear();
  out->threads.resize(tmpl.threads.size());

  Rng jitter_rng(variant.jitter_seed * 0x9E3779B97F4A7C15ULL + tmpl.jitter_salt);
  // Forking draws from the parent stream, so only templates that place
  // runtime syscalls fork.
  Rng mm_rng(0);
  size_t mm_per_thread = 0;
  if (tmpl.runtime_memory_management) {
    mm_rng = jitter_rng.Fork(0xABCD);
    // These are *not* in the template — each variant has different ones —
    // which is exactly why the NXE must ignore them (§3.3).
    for (san::SanitizerId id : variant.sanitizers) {
      mm_per_thread += ParsedRuntimeSyscalls(id).memory_calls_per_thread;
    }
  }
  out->syscalls.reserve(tmpl.syscalls.size() + mm_per_thread * tmpl.threads.size());

  std::vector<Splice> splices;
  splices.reserve(mm_per_thread);
  for (size_t t = 0; t < tmpl.threads.size(); ++t) {
    const TraceTemplate::Thread& src = tmpl.threads[t];
    splices.clear();
    for (size_t i = 0; i < mm_per_thread; ++i) {
      Splice s;
      s.record.no = (mm_rng.NextBounded(2) == 0) ? sc::Sysno::kMmap : sc::Sysno::kMadvise;
      s.record.args = {static_cast<int64_t>(mm_rng.NextBounded(1 << 20)), 4096, 0, 0, 0, 0};
      s.position = mm_rng.NextBounded(src.actions.size() + i);
      splices.push_back(s);
    }
    PlaceSplices(&splices);

    // One front-to-back pass: template actions in order with the splices
    // between them, each template segment jittered and each syscall record
    // appended to the table as its action is written.
    std::vector<nxe::ThreadAction>& dst = out->threads[t].actions;
    dst.resize(src.actions.size() + splices.size());
    auto splice = splices.begin();
    auto jittered = src.jittered.begin();
    size_t from = 0;
    for (size_t o = 0; o < dst.size(); ++o) {
      if (splice != splices.end() && splice->position == o) {
        dst[o] = out->AddSyscall(splice->record);
        ++splice;
        continue;
      }
      nxe::ThreadAction a = src.actions[from];
      if (a.kind == nxe::ActionKind::kSyscall) {
        a = out->AddSyscall(tmpl.syscalls[a.index]);
      } else if (jittered != src.jittered.end() && jittered->position == from) {
        a.cost = Jitter(a.cost, jittered->sigma, variant.compute_scale, &jitter_rng);
        ++jittered;
      }
      dst[o] = a;
      ++from;
    }
  }

  for (san::SanitizerId id : variant.sanitizers) {
    const RuntimeSyscalls& runtime = ParsedRuntimeSyscalls(id);
    out->pre_main.insert(out->pre_main.end(), runtime.pre_main.begin(), runtime.pre_main.end());
    out->post_exit.insert(out->post_exit.end(), runtime.post_exit.begin(),
                          runtime.post_exit.end());
  }
}

nxe::VariantTrace DeriveTrace(const TraceTemplate& tmpl, const VariantSpec& variant) {
  nxe::VariantTrace trace;
  DeriveTrace(tmpl, variant, &trace);
  return trace;
}

nxe::VariantTrace BuildTrace(const BenchmarkSpec& bench, const VariantSpec& variant,
                             uint64_t workload_seed) {
  return DeriveTrace(BuildTemplate(bench, workload_seed), variant);
}

std::vector<nxe::VariantTrace> BuildIdenticalVariants(const BenchmarkSpec& bench, size_t n,
                                                      uint64_t workload_seed) {
  return IdenticalVariants(BuildTemplate(bench, workload_seed), n, 1000);
}

nxe::VariantTrace BuildServerTrace(const ServerSpec& server, const VariantSpec& variant,
                                   uint64_t workload_seed) {
  return DeriveTrace(BuildServerTemplate(server, workload_seed), variant);
}

std::vector<nxe::VariantTrace> BuildIdenticalServerVariants(const ServerSpec& server, size_t n,
                                                            uint64_t workload_seed) {
  return IdenticalVariants(BuildServerTemplate(server, workload_seed), n, 2000);
}

}  // namespace workload
}  // namespace bunshin
