// The background solver thread of the concurrent runtime (DESIGN.md §11).
//
// A deliberately small worker: tasks are whole LP solves, so there is
// nothing to gain from lock-free cleverness — one thread, one mutex, one
// condvar, FIFO order. Each submission returns a future: it is the hand-off
// of the finished solve from the solver thread to the serving thread, which
// waits on (or polls) it before adopting.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

namespace flowtime::runtime {

class SolverPool {
 public:
  /// Starts the one worker thread.
  SolverPool();
  /// Drains queued tasks and joins the worker.
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  /// Enqueues a task; tasks run one at a time, in submission order. The
  /// future becomes ready when the task has run: everything the task wrote
  /// is then visible to whoever waited on it, and an exception the task
  /// threw is rethrown by get(). After shutdown() the task is dropped and
  /// get() reports a broken promise.
  std::future<void> submit(std::function<void()> task);

  /// Runs every queued task to completion, then joins the worker.
  /// Idempotent.
  void shutdown();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<std::packaged_task<void()>> tasks_;
  bool stopping_ = false;
  std::thread worker_;  // last: it starts once every member above exists
};

}  // namespace flowtime::runtime
