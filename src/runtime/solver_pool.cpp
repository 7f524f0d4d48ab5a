#include "runtime/solver_pool.h"

#include <algorithm>
#include <utility>

namespace flowtime::runtime {

SolverPool::SolverPool(int threads) : threads_(std::max(threads, 1)) {}

SolverPool::~SolverPool() { shutdown(); }

std::future<void> SolverPool::submit(std::function<void()> task) {
  std::packaged_task<void()> job(std::move(task));
  std::future<void> done = job.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return done;  // `job` dies unrun: broken promise
    if (workers_.empty()) {
      // First task: start the workers. They block on mu_ until this
      // submit releases it. Started before the task is queued, so a
      // thread that fails to start leaves nothing queued behind the
      // exception: the caller never sees a future, and no task runs.
      workers_.reserve(static_cast<std::size_t>(threads_));
      for (int i = 0; i < threads_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    }
    tasks_.push_back(std::move(job));
  }
  work_ready_.notify_one();
  return done;
}

void SolverPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void SolverPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        // stopping_ and no work left: drain semantics — queued tasks still
        // run before the worker exits.
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace flowtime::runtime
