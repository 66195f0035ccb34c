// A worker pool with per-worker task queues and work stealing.
//
// This is the execution substrate of the async session layer (src/api/async)
// and the shard dispatcher (src/api/shard): one pool serves many sessions,
// so a server keeps a bounded number of synchronization workers no matter
// how many requests are in flight. Each worker owns its own task deque —
// Submit() deals tasks round-robin, and an idle worker steals from its
// neighbours so no queue can strand work behind a busy worker. The old
// single-mutex queue made every submit and every dequeue serialize on one
// lock; here submitters only touch one worker's queue lock, and workers in
// the steady state pop from their own.
//
// Tasks submitted before destruction are always drained — the destructor
// joins only after every queue is empty, so completions are never silently
// dropped. Tasks on one worker's queue start in submission order, but with
// stealing there is no global start-order guarantee; callers needing
// ordering must sequence it themselves. A pool must never be destroyed on
// one of its own workers (the join would wait on itself). Blocking rules for
// tasks that dispatch onto their own pool are documented in
// docs/concurrency.md (the nested-dispatch sizing rule).
#ifndef BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_
#define BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bunshin {
namespace support {

class ThreadPool {
 public:
  struct Options {
    // 0 picks the hardware concurrency (at least 1). The resolved size is
    // then clamped to at least min_workers — the shared shard-dispatch pool
    // passes 2 (the nested-dispatch sizing rule, docs/concurrency.md).
    size_t n_workers = 0;
    size_t min_workers = 1;
  };

  explicit ThreadPool(const Options& options);
  explicit ThreadPool(size_t n_workers, size_t min_workers = 1)
      : ThreadPool(Options{n_workers, min_workers}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t n_workers() const { return workers_.size(); }

  // Enqueues a task on the next worker's queue (round-robin). Tasks must
  // not block on work that can only run on this same pool.
  void Submit(std::function<void()> task);

  // Blocks until every queue is empty and every worker is idle.
  void WaitIdle();

 private:
  struct Worker {
    alignas(64) std::mutex mu;
    std::deque<std::function<void()>> queue;
    std::thread thread;
  };

  void WorkerLoop(size_t id);
  bool TryPop(size_t id, std::function<void()>* task);

  // Workers are held by unique_ptr so the vector never moves a live mutex.
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<size_t> next_worker_{0};  // round-robin submit cursor
  std::atomic<size_t> unfinished_{0};   // queued + running tasks

  // Sleep/wake coordination. Workers with nothing to run (own queue and all
  // steal victims empty) park on work_cv_; submitters notify only when a
  // sleeper is registered, so the steady state never touches this mutex.
  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  std::atomic<size_t> sleepers_{0};
  std::atomic<bool> stopping_{false};

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;  // WaitIdle waits for unfinished_ == 0
};

}  // namespace support
}  // namespace bunshin

#endif  // BUNSHIN_SRC_SUPPORT_THREAD_POOL_H_
