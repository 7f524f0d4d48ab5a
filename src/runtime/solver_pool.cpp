#include "runtime/solver_pool.h"

#include <utility>

namespace flowtime::runtime {

SolverPool::SolverPool() : worker_([this] { worker_loop(); }) {}

SolverPool::~SolverPool() { shutdown(); }

std::future<void> SolverPool::submit(std::function<void()> task) {
  std::packaged_task<void()> job(std::move(task));
  std::future<void> done = job.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return done;  // `job` dies unrun: broken promise
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
  worker_.join();
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
