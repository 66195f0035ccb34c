// Deterministic trace generation from benchmark specs.
//
// The *template* (benign syscall records, compute segmentation, lock/barrier
// structure) is a pure function of the target and workload seed, so every
// variant of a benchmark issues exactly the same sync-relevant syscall
// sequence — the N-version invariant. It is built once per (target, seed) as
// an immutable TraceTemplate; DeriveTrace() then produces each variant from
// it. Per-variant differences are:
//   * compute_scale (the sanitizer slowdown the variant carries),
//   * scheduling jitter (a per-variant multiplicative noise stream — clones
//     of one binary do not run in perfectly identical time),
//   * sanitizer-introduced syscalls (pre-main, in-execution memory
//     management, post-exit) taken from the sanitizer catalog.
#ifndef BUNSHIN_SRC_WORKLOAD_TRACEGEN_H_
#define BUNSHIN_SRC_WORKLOAD_TRACEGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nxe/trace.h"
#include "src/sanitizer/sanitizer.h"
#include "src/workload/workload.h"

namespace bunshin {
namespace workload {

struct VariantSpec {
  std::string name = "v";
  double compute_scale = 1.0;
  // Seed of this variant's scheduling-noise stream. Different seeds model OS
  // jitter between clones; equal seeds give bit-identical timing.
  uint64_t jitter_seed = 1;
  // Sanitizers whose runtime syscalls this variant carries.
  std::vector<san::SanitizerId> sanitizers;
};

// A server's request-processing loop (Table 2).
struct ServerSpec {
  std::string name = "lighttpd";
  size_t threads = 1;          // nginx runs 4 worker threads
  size_t requests = 64;        // requests simulated per run
  size_t file_kb = 1;          // 1 (1KB) or 1024 (1MB)
  size_t concurrency = 64;     // concurrent connections (64/512/1024)
  double noise_rel_sigma = 0.18;
};

// --- Templates ---------------------------------------------------------------

// The seed-determined half of every variant's trace, built once per
// (target, seed) and shared read-only by every variant derived from it.
struct TraceTemplate {
  // A compute segment each variant re-draws with its own scheduling noise.
  struct Jittered {
    uint32_t position = 0;  // index in Thread::actions
    double sigma = 0.0;     // noise coefficient * sqrt(template cost)
  };
  struct Thread {
    // Actions at template cost; kSyscall indices select `syscalls`.
    std::vector<nxe::ThreadAction> actions;
    std::vector<Jittered> jittered;  // ascending positions
  };
  std::vector<Thread> threads;
  std::vector<sc::SyscallRecord> syscalls;  // in action order, thread by thread
  uint64_t jitter_salt = 0;                 // offsets each variant's jitter-stream seed
  // Benchmarks only: a sanitizer runtime's mmap/madvise calls land at
  // random points of every thread.
  bool runtime_memory_management = false;
};

// The template of `bench` for one seed: syscalls, locks, and barriers
// interleaved with compute segments.
TraceTemplate BuildTemplate(const BenchmarkSpec& bench, uint64_t workload_seed);

// The template of `server`'s loop for one seed. Each request is
// accept/open/read/write.../close with parse compute; 1MB responses issue 16
// chunked writes. Concurrency adds queueing jitter.
TraceTemplate BuildServerTemplate(const ServerSpec& server, uint64_t workload_seed);

// Derives one variant's trace from the template: jitters the template's
// compute costs with the variant's noise stream and places its sanitizer
// runtime's syscalls (compute_scale is recorded, and applied by the engine).
// The syscall table is filled in action order. `out` is overwritten in place,
// reusing its capacity.
void DeriveTrace(const TraceTemplate& tmpl, const VariantSpec& variant, nxe::VariantTrace* out);
nxe::VariantTrace DeriveTrace(const TraceTemplate& tmpl, const VariantSpec& variant);

// A syscall spliced into a thread at `position`, counted in the thread as it
// stands after every earlier splice.
struct Splice {
  size_t position = 0;
  sc::SyscallRecord record;
};

// Rewrites each splice's position to its index in the thread once all of
// them are in, as successive vector::insert calls would place them, and
// sorts the splices by it. DeriveTrace then writes each thread in one pass.
void PlaceSplices(std::vector<Splice>* splices);

// --- One-shot builders -------------------------------------------------------

// Builds the trace of one variant of `bench` (its template, then the variant).
// Two calls with the same workload_seed produce the same sync-relevant
// syscall sequence regardless of the VariantSpec.
nxe::VariantTrace BuildTrace(const BenchmarkSpec& bench, const VariantSpec& variant,
                             uint64_t workload_seed);

// Convenience: N clones of the benchmark (identical binary, distinct jitter),
// as used in the NXE-efficiency experiments (§5.1/§5.2).
std::vector<nxe::VariantTrace> BuildIdenticalVariants(const BenchmarkSpec& bench, size_t n,
                                                      uint64_t workload_seed);

// Builds one variant of the server request-processing loop.
nxe::VariantTrace BuildServerTrace(const ServerSpec& server, const VariantSpec& variant,
                                   uint64_t workload_seed);

std::vector<nxe::VariantTrace> BuildIdenticalServerVariants(const ServerSpec& server, size_t n,
                                                            uint64_t workload_seed);

}  // namespace workload
}  // namespace bunshin

#endif  // BUNSHIN_SRC_WORKLOAD_TRACEGEN_H_
