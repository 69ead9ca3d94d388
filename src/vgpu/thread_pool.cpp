#include "vgpu/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/env.hpp"

namespace mps::vgpu {

ThreadPool::ThreadPool(unsigned num_threads) {
  unsigned n = num_threads ? num_threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // The calling thread participates, so spawn n-1 workers.
  for (unsigned i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    closing_ = true;  // admission closed: try_post now returns false
    // Drain: every task accepted before admission closed still runs.
    done_cv_.wait(lock, [&] { return tasks_.empty() && tasks_running_ == 0; });
    stop_ = true;
    to_join.swap(workers_);  // parallel_for falls back to inline from here
  }
  cv_.notify_all();
  for (auto& w : to_join) w.join();
}

bool ThreadPool::try_post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_) return false;
    if (!workers_.empty()) {
      tasks_.push_back(std::move(task));
      cv_.notify_one();
      return true;
    }
  }
  // No spawned workers: the posting thread is the executor.
  task();
  return true;
}

void ThreadPool::run_job(Job& job) {
  // Claims are chunks of consecutive indices; a failure stops further
  // claims (indices already running finish), and the rest of the failing
  // chunk is skipped.
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::size_t lo =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (lo >= job.n) break;
    const std::size_t hi = std::min(job.n, lo + job.chunk);
    try {
      for (std::size_t i = lo; i < hi; ++i) (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.failed.exchange(true)) job.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return stop_ || !tasks_.empty() || (current_ && generation_ != seen);
      });
      if (current_ && generation_ != seen) {
        seen = generation_;
        job = current_;
        job->in_flight += 1;
      } else if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
        tasks_running_ += 1;
      } else if (stop_) {
        return;
      } else {
        continue;
      }
    }
    if (job) {
      run_job(*job);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        job->in_flight -= 1;
      }
      done_cv_.notify_all();
    } else {
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_running_ -= 1;
      }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::size_t threads;
  {
    // workers_ is mutated under mutex_ (shutdown swaps it out), so its
    // size must be read under the lock.  Inline covers single-iteration
    // launches, zero-worker pools, and pools already shut down.
    std::lock_guard<std::mutex> lock(mutex_);
    threads = workers_.size() + 1;
  }
  if (threads == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  Job job;
  job.n = n;
  // About eight claims per thread: one atomic per chunk, not per index,
  // while the last chunks still even out uneven iterations.
  job.chunk = std::max<std::size_t>(1, n / (8 * threads));
  job.body = &body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = &job;
    ++generation_;
  }
  cv_.notify_all();
  // The calling thread participates; when its run_job returns every index
  // has been claimed, but workers may still be finishing theirs.
  run_job(job);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    current_ = nullptr;  // no new worker may pick the job up
    done_cv_.wait(lock, [&] { return job.in_flight == 0; });
  }
  if (job.failed.load()) std::rethrow_exception(job.error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(static_cast<unsigned>(util::env_int("MPS_THREADS", 0)));
  return pool;
}

}  // namespace mps::vgpu
