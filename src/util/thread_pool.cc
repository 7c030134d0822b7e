#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace emsim {

namespace {
// Set while a pool worker (or a caller inside Run) is executing tasks, to
// reject reentrant Run() calls that would deadlock the pool.
thread_local bool t_inside_pool_task = false;
}  // namespace

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> workers;
  {
    util::MutexLock lock(&mu_);
    stop_ = true;
    // Swap the workers out so the joins below run unlocked: a worker's last
    // act before exiting is re-checking stop_ under mu_, and joining while
    // holding it would deadlock.
    workers.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers) {
    worker.join();
  }
}

int ThreadPool::WorkersSpawned() const {
  util::MutexLock lock(&mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::EnsureWorkers(int count) {
  util::MutexLock lock(&mu_);
  while (static_cast<int>(workers_.size()) < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::RunTasks(Job& job) {
  t_inside_pool_task = true;
  for (;;) {
    int index = job.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.total) {
      break;
    }
    (*job.task)(index);
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job.total) {
      // Wake the Run() caller. The lock round trip orders the notify against
      // the caller's wait-predicate check.
      { util::MutexLock lock(&mu_); }
      done_cv_.NotifyAll();
    }
  }
  t_inside_pool_task = false;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      util::MutexLock lock(&mu_);
      while (!stop_ && job_generation_ == seen_generation) {
        work_cv_.Wait(lock);
      }
      if (stop_) {
        return;
      }
      seen_generation = job_generation_;
      job = job_;
    }
    if (job != nullptr &&
        job->worker_entrants.fetch_add(1, std::memory_order_relaxed) <
            job->max_extra_workers) {
      RunTasks(*job);
    }
  }
}

void ThreadPool::Run(int parallelism, int num_tasks,
                     const std::function<void(int)>& task) {
  EMSIM_CHECK(num_tasks >= 0);
  EMSIM_CHECK(!t_inside_pool_task && "ThreadPool::Run is not reentrant");
  if (num_tasks == 0) {
    return;
  }
  int threads = std::min(parallelism, num_tasks);
  if (threads <= 1) {
    t_inside_pool_task = true;
    for (int i = 0; i < num_tasks; ++i) {
      task(i);
    }
    t_inside_pool_task = false;
    return;
  }
  EnsureWorkers(threads - 1);
  auto job = std::make_shared<Job>();
  job->task = &task;
  job->total = num_tasks;
  job->max_extra_workers = threads - 1;
  {
    util::MutexLock lock(&mu_);
    job_ = job;
    ++job_generation_;
  }
  work_cv_.NotifyAll();
  RunTasks(*job);
  {
    util::MutexLock lock(&mu_);
    while (job->completed.load(std::memory_order_acquire) != job->total) {
      done_cv_.Wait(lock);
    }
    job_.reset();
  }
}

}  // namespace emsim
