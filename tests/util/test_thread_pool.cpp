#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel_for.hpp"

namespace fifl::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, TaskArgumentsAreForwarded) {
  ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a + b; }, 40, 2);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, InWorkerThreadFlag) {
  ThreadPool pool(2);
  EXPECT_FALSE(ThreadPool::in_worker_thread());
  auto f = pool.submit([] { return ThreadPool::in_worker_thread(); });
  EXPECT_TRUE(f.get());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  std::vector<int> hits(3, 0);
  parallel_for(0, 3, [&](std::size_t i) { hits[i] = 1; }, 1024);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelFor, NestedCallFromWorkerRunsInline) {
  // A parallel_for inside a pool task must not deadlock.
  auto& pool = ThreadPool::global();
  std::vector<std::future<void>> futures;
  std::atomic<int> total{0};
  for (std::size_t t = 0; t < pool.size() + 2; ++t) {
    futures.push_back(pool.submit([&total] {
      parallel_for(0, 10000, [&](std::size_t) { ++total; }, 1);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), static_cast<int>((pool.size() + 2) * 10000));
}

TEST(ParallelFor, ExceptionInBodyPropagates) {
  EXPECT_THROW(
      parallel_for(0, 10000,
                   [](std::size_t i) {
                     if (i == 4321) throw std::runtime_error("bad index");
                   },
                   1),
      std::runtime_error);
}

/// The id of the thread that ran each index of a 10,000-index region
/// split into grain-1 chunks (as many as the pool has threads).
std::vector<std::thread::id> region_thread_ids() {
  std::vector<std::thread::id> ids(10000);
  parallel_for(0, ids.size(),
               [&](std::size_t i) { ids[i] = std::this_thread::get_id(); }, 1);
  return ids;
}

TEST(InlineScope, RegionRunsEveryIndexOnTheCallingThread) {
  const ThreadPool::InlineScope scope;
  EXPECT_TRUE(ThreadPool::in_worker_thread());
  const std::vector<std::thread::id> ids = region_thread_ids();
  const std::thread::id self = std::this_thread::get_id();
  EXPECT_TRUE(std::all_of(ids.begin(), ids.end(),
                          [&](std::thread::id id) { return id == self; }));
}

TEST(InlineScope, ScopesNestAndEachRestoresThePreviousState) {
  EXPECT_FALSE(ThreadPool::in_worker_thread());
  {
    const ThreadPool::InlineScope outer;
    EXPECT_TRUE(ThreadPool::in_worker_thread());
    {
      const ThreadPool::InlineScope inner;
      EXPECT_TRUE(ThreadPool::in_worker_thread());
    }
    EXPECT_TRUE(ThreadPool::in_worker_thread());
  }
  EXPECT_FALSE(ThreadPool::in_worker_thread());
  // A pool worker already runs regions inline; its own scope leaves it so.
  auto f = ThreadPool::global().submit([] {
    { const ThreadPool::InlineScope scope; }
    return ThreadPool::in_worker_thread();
  });
  EXPECT_TRUE(f.get());
  // Unwinding through a scope restores the state too.
  EXPECT_THROW(
      {
        const ThreadPool::InlineScope scope;
        throw std::runtime_error("unwind");
      },
      std::runtime_error);
  EXPECT_FALSE(ThreadPool::in_worker_thread());
}

TEST(InlineScope, OutsideAScopeRegionsReachThePool) {
  if (ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "a one-thread pool runs every region serially";
  }
  { const ThreadPool::InlineScope scope; }
  // The region fans out as pool tasks; the caller only waits for them.
  const std::vector<std::thread::id> ids = region_thread_ids();
  const std::thread::id self = std::this_thread::get_id();
  EXPECT_TRUE(std::none_of(ids.begin(), ids.end(),
                           [&](std::thread::id id) { return id == self; }));
}

TEST(InlineScope, ExceptionInBodyPropagates) {
  const ThreadPool::InlineScope scope;
  std::size_t ran = 0;
  EXPECT_THROW(parallel_for(0, 10000,
                            [&](std::size_t i) {
                              ++ran;
                              if (i == 4321) throw std::runtime_error("bad");
                            },
                            1),
               std::runtime_error);
  // Serial: the indices before the throwing one ran, none after it.
  EXPECT_EQ(ran, 4322u);
  EXPECT_TRUE(ThreadPool::in_worker_thread());
}

}  // namespace
}  // namespace fifl::util
