// Variant execution traces.
//
// A simulated variant process is described by the sequence of actions each of
// its threads performs: compute bursts (with a cost in abstract cycles),
// syscalls (with full argument records), and pthreads-style synchronization
// operations. The workload generators (src/workload) build one immutable
// template per (target, seed); each variant's trace is derived from it by
// jittering compute costs, placing the sanitizer runtime's syscalls, and (in
// api::BuildPlanTraces) splicing in attack behavior.
//
// Layout: a ThreadAction is a 16-byte {kind, index, cost} record, so the
// engine walks dense arrays. Operands that do not fit in a word live in side
// tables on the VariantTrace:
//   * kSyscall: `index` selects the record in VariantTrace::syscalls;
//   * kDetect: `index` selects the handler name in VariantTrace::detectors;
//   * kLockAcquire/kLockRelease/kBarrier: `index` is the sync id itself.
// Every index must name a slot of its own trace's table (AddSyscall and
// AddDetect hand out only such actions), and each slot is referenced by
// exactly one action, so rewriting a record (a divergence splice) changes
// that one syscall only. Derived traces fill the syscall table in action
// order, thread by thread, so a scheduler walking a thread reads its records
// front to back. A trace is self-contained: tables are never shared between
// traces, and copying a VariantTrace copies its tables.
#ifndef BUNSHIN_SRC_NXE_TRACE_H_
#define BUNSHIN_SRC_NXE_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/syscall/syscall.h"

namespace bunshin {
namespace nxe {

enum class ActionKind : uint8_t {
  kCompute,      // burn `cost` cycles
  kSyscall,      // trap with the record syscalls[index]
  kLockAcquire,  // pthread_mutex_lock-style primitive on sync id `index`
  kLockRelease,
  kBarrier,      // pthread_barrier_wait on sync id `index` (all threads of variant)
  kDetect,       // sanitizer check detectors[index] fired (variant aborts with report)
  kExit,         // thread finishes
};

struct ThreadAction {
  ActionKind kind = ActionKind::kCompute;
  uint32_t index = 0;  // table slot or sync id (see the header comment)
  double cost = 0.0;   // kCompute: cycles

  static ThreadAction Compute(double cycles) { return {ActionKind::kCompute, 0, cycles}; }
  static ThreadAction Syscall(uint32_t slot) { return {ActionKind::kSyscall, slot, 0.0}; }
  static ThreadAction Lock(uint32_t id) { return {ActionKind::kLockAcquire, id, 0.0}; }
  static ThreadAction Unlock(uint32_t id) { return {ActionKind::kLockRelease, id, 0.0}; }
  static ThreadAction Barrier(uint32_t id) { return {ActionKind::kBarrier, id, 0.0}; }
  static ThreadAction Detect(uint32_t slot) { return {ActionKind::kDetect, slot, 0.0}; }
  static ThreadAction Exit() { return {ActionKind::kExit, 0, 0.0}; }
};
static_assert(sizeof(ThreadAction) == 16, "ThreadAction must stay a 16-byte record");

struct ThreadTrace {
  std::vector<ThreadAction> actions;
};

struct VariantTrace {
  std::string name;
  // Multiplier on every compute cost — the sanitizer slowdown this variant
  // carries (1.0 == uninstrumented speed).
  double compute_scale = 1.0;
  // Syscalls the sanitizer runtime issues before main() and after exit();
  // the engine must not compare them (§3.3: sync starts at main, stops at
  // the first exit handler).
  std::vector<sc::SyscallRecord> pre_main;
  std::vector<sc::SyscallRecord> post_exit;
  std::vector<ThreadTrace> threads;
  // Side tables the actions index (see the header comment).
  std::vector<sc::SyscallRecord> syscalls;
  std::vector<std::string> detectors;

  // Appends an operand to its table and returns the action that uses it.
  ThreadAction AddSyscall(const sc::SyscallRecord& record) {
    syscalls.push_back(record);
    return ThreadAction::Syscall(static_cast<uint32_t>(syscalls.size() - 1));
  }
  ThreadAction AddDetect(std::string detector) {
    detectors.push_back(std::move(detector));
    return ThreadAction::Detect(static_cast<uint32_t>(detectors.size() - 1));
  }

  // An action's operands.
  const sc::SyscallRecord& SyscallOf(const ThreadAction& a) const { return syscalls[a.index]; }
  const std::string& DetectorOf(const ThreadAction& a) const { return detectors[a.index]; }
  static uint32_t SyncIdOf(const ThreadAction& a) { return a.index; }

  size_t TotalActions() const {
    size_t n = 0;
    for (const auto& t : threads) {
      n += t.actions.size();
    }
    return n;
  }
  // Sum of compute cost at scale 1 across all threads (baseline work).
  double TotalComputeCost() const {
    double total = 0.0;
    for (const auto& t : threads) {
      for (const auto& a : t.actions) {
        if (a.kind == ActionKind::kCompute) {
          total += a.cost;
        }
      }
    }
    return total;
  }
  // Critical-path compute (slowest single thread) at the variant's scale.
  double CriticalPathCost() const {
    double worst = 0.0;
    for (const auto& t : threads) {
      double sum = 0.0;
      for (const auto& a : t.actions) {
        if (a.kind == ActionKind::kCompute) {
          sum += a.cost;
        }
      }
      worst = worst < sum ? sum : worst;
    }
    return worst * compute_scale;
  }
};

}  // namespace nxe
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NXE_TRACE_H_
