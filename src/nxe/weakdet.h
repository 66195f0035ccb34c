// Weak-determinism runtime (Bunshin §4.2 "Pthreads locking primitives").
//
// The real system hooks pthreads primitives via an LD_PRELOAD library and a
// `synccall` kernel hook (the unimplemented tuxcall): the leader atomically
// appends its execution-group id to a kernel-side order_list and wakes any
// follower threads waiting on that EGID; a follower checks whether the next
// order_list entry matches its EGID and sleeps on a variant-specific wait
// queue otherwise.
//
// This class is that protocol implemented with real std::thread primitives —
// it is used by the real-thread tests and examples (the discrete-event engine
// models the same protocol in virtual time).
#ifndef BUNSHIN_SRC_NXE_WEAKDET_H_
#define BUNSHIN_SRC_NXE_WEAKDET_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace bunshin {
namespace nxe {

class SynccallRuntime {
 public:
  // `n_followers` follower variants replay the leader's order.
  explicit SynccallRuntime(size_t n_followers);

  // Leader side: called *before* the leader executes a locking primitive.
  // Appends `egid` to the total order and wakes waiting followers.
  void LeaderAcquire(uint32_t egid);

  // Follower side: blocks until the next unconsumed order entry for
  // `follower` equals `egid`, then consumes it. Returns the consumed entry's
  // index in the order — decided under the runtime's lock, so a caller can
  // record its replay position without racing the next entry's owner.
  size_t FollowerAcquire(size_t follower, uint32_t egid);

  // Non-blocking probe used by tests/telemetry.
  bool FollowerTryAcquire(size_t follower, uint32_t egid);

  // Snapshot of the recorded total order.
  std::vector<uint32_t> Order() const;
  size_t OrderSize() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint32_t> order_;
  std::vector<size_t> cursor_;  // per-follower replay position
};

// A mutex whose lock order is recorded (leader) or replayed (follower) via a
// shared SynccallRuntime — the patched pthread_mutex_lock of the paper.
class DetMutex {
 public:
  DetMutex(SynccallRuntime* runtime, uint32_t egid) : runtime_(runtime), egid_(egid) {}

  void LockAsLeader() {
    runtime_->LeaderAcquire(egid_);
    mu_.lock();
  }
  // Returns the order index this acquisition consumed (see FollowerAcquire).
  size_t LockAsFollower(size_t follower) {
    const size_t consumed = runtime_->FollowerAcquire(follower, egid_);
    mu_.lock();
    return consumed;
  }
  void Unlock() { mu_.unlock(); }

 private:
  SynccallRuntime* runtime_;
  uint32_t egid_;
  std::mutex mu_;
};

}  // namespace nxe
}  // namespace bunshin

#endif  // BUNSHIN_SRC_NXE_WEAKDET_H_
