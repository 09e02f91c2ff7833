// Work-stealing thread pool for coarse-grained batch work.
//
// The bulk-flow engine (pipeline/bulk_runner.h) runs whole pass pipelines —
// milliseconds to seconds each — over many circuits, so the pool is tuned
// for coarse tasks: every worker owns a deque protected by its own mutex,
// submit() distributes round-robin (or onto the submitting worker's own
// queue), workers pop LIFO from their own deque and steal FIFO from a
// victim when empty. A single pool-wide mutex/condvar pair handles only
// sleeping, wakeups and wait_idle() bookkeeping, never task hand-off, so
// the fast path touches one small lock per task.
//
// Tasks must not throw — an escaping exception would terminate the worker
// thread (and the process). Wrap fallible work in TaskGroup::run, which
// captures the first exception and rethrows it from wait().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcrt {

/// The most workers a user-given count may ask for: `mcrt bulk --jobs` and
/// `retime-windowed(window-jobs=N)` reject larger counts before any pool
/// exists, since each worker is an operating-system thread.
inline constexpr std::size_t kMaxWorkerThreads = 1024;

class ThreadPool {
 public:
  /// `workers == 0` uses default_worker_count().
  explicit ThreadPool(std::size_t workers = 0);
  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Enqueues `task` for execution on some worker. Safe to call from any
  /// thread, including from inside a running task (nested submission goes
  /// to the submitting worker's own queue). `task` must not throw.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far (including tasks those tasks
  /// submitted) has finished.
  void wait_idle();

  /// std::thread::hardware_concurrency(), at least 1.
  [[nodiscard]] static std::size_t default_worker_count() noexcept;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self) noexcept;
  /// Pops from `self`'s deque (LIFO), else steals from a victim (FIFO).
  bool try_pop(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;  ///< guards pending_/queued_/next_queue_/stop_
  std::condition_variable work_cv_;  ///< workers sleep here
  std::condition_variable idle_cv_;  ///< wait_idle() sleeps here
  std::size_t pending_ = 0;  ///< submitted and not yet finished
  std::size_t queued_ = 0;   ///< submitted and not yet popped
  std::size_t next_queue_ = 0;
  bool stop_ = false;
};

/// Tracks one batch of tasks on a pool: run() submits, wait() blocks until
/// the batch is done and rethrows the first exception a task threw.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) noexcept : pool_(pool) {}
  /// Waits, but swallows a pending exception — call wait() explicitly if
  /// the batch can fail.
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void run(std::function<void()> task);
  void wait();

 private:
  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace mcrt
