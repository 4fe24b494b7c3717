// Fixed-size work-stealing-free thread pool used by parallel_for and the
// federated-learning simulator (one task per worker per round). Pool
// workers, and any thread inside an InlineScope, run nested parallel_for
// regions serially.
//
// Design notes (cf. C++ Core Guidelines CP.*): the pool owns its threads
// (RAII — the destructor joins), tasks are type-erased move-only callables,
// and all cross-thread communication goes through one mutex + condvar; at
// the task granularity used here (whole matmul tiles / whole local training
// passes) queue contention is negligible.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace fifl::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task and get a future for its result.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... captured = std::forward<Args>(args)]() mutable -> R {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Process-wide shared pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

  /// True when the calling thread runs data-parallel regions inline: it is
  /// one of *any* pool's workers, or it holds an InlineScope. Nested
  /// regions (e.g. a matmul inside a per-worker training task) use this
  /// to degrade to serial execution instead of submitting chunks that no
  /// free thread could ever run (deadlock avoidance).
  static bool in_worker_thread() noexcept;

  /// Marks the calling thread, for the scope's lifetime, as running
  /// parallel_for regions inline, as the pool's own workers do. A thread
  /// that already owns one unit of a parallel fan-out (a co-located
  /// worker node's training thread) opens one so its regions stop
  /// queueing behind everyone else's on the shared pool. Scopes nest;
  /// each restores the state it found.
  class InlineScope {
   public:
    InlineScope() noexcept;
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    bool previous_;
  };

 private:
  void worker_loop();

  // `workers_` is main-thread-only (filled in the ctor, joined in the
  // dtor after the stop flag is published), so it stays unguarded.
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  // CV-paired, so this stays std::mutex (std::unique_lock is invisible
  // to Clang TSA); fifl-lint R7/R8 are the checkers for this pair.
  std::mutex mutex_;  // lock-order: thread_pool; guards queue_, stopping_
  std::condition_variable cv_;  // lock-order: thread_pool
  bool stopping_ = false;
};

}  // namespace fifl::util
