#include "src/support/thread_pool.h"

#include <algorithm>
#include <utility>

namespace bunshin {
namespace support {

ThreadPool::ThreadPool(const Options& options) {
  size_t n_workers = options.n_workers;
  if (n_workers == 0) {
    n_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  n_workers = std::max(n_workers, std::max<size_t>(1, options.min_workers));

  // Every Worker exists before any thread starts: threads index workers_
  // freely (steal sweeps), so the vector must never grow under them.
  workers_.reserve(n_workers);
  for (size_t i = 0; i < n_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t i = 0; i < n_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_seq_cst);
  // The empty critical section orders the store against sleepers already
  // holding sleep_mu_ between their drain recheck and wait().
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    worker->thread.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  // Counted before it is visible in any queue, so WaitIdle can never observe
  // "no unfinished work" while a task is mid-push.
  unfinished_.fetch_add(1, std::memory_order_seq_cst);
  {
    Worker& target =
        *workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size()];
    std::lock_guard<std::mutex> lock(target.mu);
    target.queue.push_back(std::move(task));
  }
  // Dekker pairing with the sleep path: a worker registers as a sleeper
  // (seq_cst) *before* its final drain sweep, and this push (queue mutex)
  // happened after that sweep read the queue empty — so this load must see
  // the registration, and the notify below cannot be missed (the sleeper
  // holds sleep_mu_ from registration until wait()).
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    work_cv_.notify_one();
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this] { return unfinished_.load(std::memory_order_acquire) == 0; });
}

bool ThreadPool::TryPop(size_t id, std::function<void()>* task) {
  const size_t n = workers_.size();
  {
    Worker& own = *workers_[id];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      *task = std::move(own.queue.front());
      own.queue.pop_front();
      return true;
    }
  }
  // Steal newest-first from the victim's back: the front of a queue stays
  // with its own worker as long as possible.
  for (size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(id + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.queue.empty()) {
      *task = std::move(victim.queue.back());
      victim.queue.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t id) {
  std::function<void()> task;
  for (;;) {
    while (TryPop(id, &task)) {
      task();
      task = nullptr;
      if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(idle_mu_);
        idle_cv_.notify_all();
      }
    }

    // Nothing to run or steal: park. sleep_mu_ is held from registration
    // through wait(), so a submitter that saw sleepers_ > 0 can only
    // deliver its notify while this worker is actually waiting — the
    // recheck/wait gap is closed by the mutex, not by timing.
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (TryPop(id, &task)) {  // final drain sweep, paired with Enqueue above
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      lock.unlock();
      task();
      task = nullptr;
      if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> idle_lock(idle_mu_);
        idle_cv_.notify_all();
      }
      continue;
    }
    if (stopping_.load(std::memory_order_seq_cst)) {
      // Stopping and every queue drained (the sweep above ran under
      // sleep_mu_, after stopping_ was published): done. A task that still
      // submits work does so from a live worker, which re-sweeps after it.
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    work_cv_.wait(lock);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace support
}  // namespace bunshin
