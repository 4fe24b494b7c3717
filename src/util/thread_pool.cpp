#include "util/thread_pool.hpp"

#include <algorithm>

namespace fifl::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {
thread_local bool t_runs_inline = false;
}  // namespace

bool ThreadPool::in_worker_thread() noexcept { return t_runs_inline; }

ThreadPool::InlineScope::InlineScope() noexcept : previous_(t_runs_inline) {
  t_runs_inline = true;
}

ThreadPool::InlineScope::~InlineScope() { t_runs_inline = previous_; }

void ThreadPool::worker_loop() {
  t_runs_inline = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fifl::util
