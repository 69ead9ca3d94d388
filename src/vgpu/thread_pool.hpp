#pragma once
// Persistent host thread pool used to execute CTAs in parallel.
//
// The pool exists only to make *functional* execution fast on multi-core
// hosts; all *timing* comes from the analytic model, so results are
// byte-identical regardless of worker count (every CTA writes disjoint
// output and counters are indexed by CTA id).
//
// Two execution modes share the workers:
//
//   * parallel_for — the fork/join mode every kernel launch uses.  The
//     calling thread participates, so it works even on a pool with zero
//     spawned workers.
//   * try_post     — one-off tasks (the serving engine's batch dispatch,
//     src/serve).  Tasks run on spawned workers; on a pool with no
//     workers the task runs inline on the posting thread.
//
// Shutdown ordering contract (the serving engine's drain semantics are
// built on it): shutdown() first closes admission — every try_post that
// starts after shutdown() began returns false, decided under the pool
// mutex, never by racing the worker join — then drains every task that
// was already accepted, and only then joins the workers.  A task is thus
// always either (a) rejected at post time or (b) run to completion;
// nothing is silently dropped on the floor during destruction.
// parallel_for on a shut-down pool degrades to inline serial execution.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mps::vgpu {

class ThreadPool {
 public:
  /// `num_threads == 0` selects std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run body(i) for every i in [0, n).  Threads claim chunks of
  /// max(1, n / (8 * num_threads())) consecutive indices from a shared
  /// counter, so a launch pays one atomic per chunk, not per index.
  /// Blocks until all iterations complete.  Exceptions thrown by `body`
  /// are captured and the first one is rethrown on the calling thread;
  /// indices not yet run when it is thrown may be skipped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Enqueue a one-off task for a worker thread.  Returns false — and
  /// does not take the task — once shutdown() has begun; the decision is
  /// made under the pool mutex so posting never races the worker join.
  /// Tasks must not throw (the serving engine routes failures through
  /// per-request promises).  On a pool with no spawned workers the task
  /// runs inline before try_post returns.
  bool try_post(std::function<void()> task);

  /// Stop accepting tasks, run every already-accepted task to
  /// completion, then join the workers.  Idempotent; called by the
  /// destructor.  parallel_for afterwards runs inline.
  void shutdown();

  /// True once shutdown() has begun (tasks are being rejected).
  bool stopping() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closing_;
  }

 private:
  struct Job {
    std::size_t n = 0;
    std::size_t chunk = 1;  ///< indices per claim
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    /// Workers currently inside run_job for this job; guarded by mutex_.
    int in_flight = 0;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  void worker_loop();
  void run_job(Job& job);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Job* current_ = nullptr;
  std::uint64_t generation_ = 0;
  std::deque<std::function<void()>> tasks_;  ///< accepted one-off tasks
  int tasks_running_ = 0;                    ///< popped but not yet finished
  bool closing_ = false;  ///< admission closed; accepted tasks still drain
  bool stop_ = false;     ///< workers may exit once tasks_ is empty
};

/// Process-wide pool sized from MPS_THREADS (default hardware concurrency).
ThreadPool& global_pool();

}  // namespace mps::vgpu
