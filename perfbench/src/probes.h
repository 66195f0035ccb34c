// Outside-in probes: everything the benchmark observes about the program
// without changing it — a clock, the process's CPU and memory accounting,
// /proc fd and thread counts, a global allocation counter, and a counting
// socket decorator for executor endpoints.
#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/endpoint.h"
#include "src/support/socket.h"

namespace perfbench {

// Monotonic nanoseconds.
int64_t NowNs();

// Process user+sys CPU time, all threads, in nanoseconds.
int64_t ProcessCpuNs();

// Peak resident set size of this process, in MiB (VmHWM; getrusage as a
// fallback).
double PeakRssMb();

// Entries in /proc/self/fd and /proc/self/task.
long OpenFdCount();
long ThreadCount();

// Moves the whole process over windows of `width` consecutive CPUs of those
// it may run on, one window after another, and gives every thread back all
// of them when released or destroyed. On a shared host each vCPU has its own
// co-tenant spells; a process that visits every window in turn has quiet
// slices in a run even when some vCPUs are busy the whole time. Width 0
// never moves anything. Threads started while the process is pinned inherit
// the window, so a server's threads are best started after Release().
class CpuRotor {
 public:
  explicit CpuRotor(size_t width);
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  // Pins every thread to the next window.
  void Next();
  // Gives every thread back every CPU the process started with.
  void Release();

 private:
  std::vector<int> cpus_;
  size_t width_ = 0;
  size_t next_ = 0;
};

// The global operator new hook (alloc_hook.cc). Counting is off unless
// enabled, so untraced phases pay one relaxed load per allocation.
void SetAllocCounting(bool on);
uint64_t AllocCount();

// Dial and byte counters shared by every socket one endpoint hands out.
struct SocketCounters {
  std::atomic<uint64_t> dials{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_recv{0};
};

// Wraps `inner`'s dial so every socket it returns counts into `counters`.
bunshin::net::Endpoint CountingEndpoint(bunshin::net::Endpoint inner,
                                        std::shared_ptr<SocketCounters> counters);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
