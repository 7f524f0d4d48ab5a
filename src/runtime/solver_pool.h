// Background solver threads for the replan drivers (DESIGN.md §11, §13).
//
// A deliberately small worker pool: tasks are whole LP solves (tens of
// milliseconds to seconds), so there is nothing to gain from lock-free
// cleverness — one mutex, one condvar, FIFO order. Each submission returns
// a future: it is the hand-off of the finished solve from the solver thread
// to the serving thread, which waits on (or polls) it before adopting.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace flowtime::runtime {

class SolverPool {
 public:
  /// Starts `threads` workers (clamped to >= 1).
  explicit SolverPool(int threads = 1);
  /// Drains queued tasks and joins the workers.
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Enqueues a task; FIFO per pool. The future becomes ready when the
  /// task has run: everything the task wrote is then visible to whoever
  /// waited on it, and an exception the task threw is rethrown by get().
  /// After shutdown() the task is dropped and get() reports a broken
  /// promise.
  std::future<void> submit(std::function<void()> task);

  /// Runs every queued task to completion, then joins all workers.
  /// Idempotent.
  void shutdown();

  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::packaged_task<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace flowtime::runtime
