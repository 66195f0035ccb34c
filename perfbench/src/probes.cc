#include "perfbench/src/probes.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PeakRssMb() {
  // VmHWM is the peak RSS of this process image. getrusage's ru_maxrss is
  // the same high-water mark but survives exec, so it would also report
  // the RSS of whatever process forked this one (e.g. perfbench/run.py).
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

long CountDirEntries(const char* path) {
  DIR* dir = opendir(path);
  if (dir == nullptr) {
    return -1;
  }
  long n = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++n;
    }
  }
  closedir(dir);
  return n;
}

class CountingSocket final : public bunshin::support::Socket {
 public:
  CountingSocket(std::unique_ptr<bunshin::support::Socket> inner,
                 std::shared_ptr<SocketCounters> counters)
      : inner_(std::move(inner)), counters_(std::move(counters)) {}

  bunshin::Status SendAll(const void* data, size_t n) override {
    bunshin::Status status = inner_->SendAll(data, n);
    if (status.ok()) {
      counters_->bytes_sent.fetch_add(n, std::memory_order_relaxed);
    }
    return status;
  }
  bunshin::Status RecvAll(void* data, size_t n) override {
    bunshin::Status status = inner_->RecvAll(data, n);
    if (status.ok()) {
      counters_->bytes_recv.fetch_add(n, std::memory_order_relaxed);
    }
    return status;
  }
  void SetRecvTimeout(int timeout_ms) override { inner_->SetRecvTimeout(timeout_ms); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<bunshin::support::Socket> inner_;
  std::shared_ptr<SocketCounters> counters_;
};

}  // namespace

namespace {

// Sets the affinity of every thread of this process.
void PinProcess(const cpu_set_t& set) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return;
  }
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      sched_setaffinity(static_cast<pid_t>(std::atoi(entry->d_name)), sizeof(set), &set);
    }
  }
  closedir(dir);
}

}  // namespace

CpuRotor::CpuRotor(size_t width) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
  width_ = std::min(width, cpus_.size());
}

CpuRotor::~CpuRotor() { Release(); }

void CpuRotor::Release() {
  if (width_ == 0) {
    return;
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (int cpu : cpus_) {
    CPU_SET(cpu, &allowed);
  }
  PinProcess(allowed);
}

void CpuRotor::Next() {
  if (width_ == 0 || width_ == cpus_.size()) {
    return;
  }
  cpu_set_t window;
  CPU_ZERO(&window);
  for (size_t i = 0; i < width_; ++i) {
    CPU_SET(cpus_[(next_ + i) % cpus_.size()], &window);
  }
  next_ = (next_ + 1) % cpus_.size();
  PinProcess(window);
}

long OpenFdCount() {
  // The directory stream itself holds one descriptor while it is listed.
  const long n = CountDirEntries("/proc/self/fd");
  return n < 0 ? n : n - 1;
}

long ThreadCount() { return CountDirEntries("/proc/self/task"); }

bunshin::net::Endpoint CountingEndpoint(bunshin::net::Endpoint inner,
                                        std::shared_ptr<SocketCounters> counters) {
  bunshin::net::Endpoint endpoint;
  endpoint.name = inner.name;
  endpoint.dial = [dial = std::move(inner.dial), counters = std::move(counters)]()
      -> bunshin::StatusOr<std::unique_ptr<bunshin::support::Socket>> {
    auto socket = dial();
    if (!socket.ok()) {
      return socket.status();
    }
    counters->dials.fetch_add(1, std::memory_order_relaxed);
    return std::unique_ptr<bunshin::support::Socket>(
        new CountingSocket(std::move(*socket), counters));
  };
  return endpoint;
}

}  // namespace perfbench
