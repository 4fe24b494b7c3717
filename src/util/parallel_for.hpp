// Blocked parallel-for on top of ThreadPool, in the style of an OpenMP
// `parallel for schedule(static)`: the index range is split into one
// contiguous chunk per pool thread, so per-chunk work stays cache-friendly
// and false sharing across chunk boundaries is minimal.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "util/thread_pool.hpp"

namespace fifl::util {

/// Runs body(i) for i in [begin, end) across the global pool, or serially
/// on the calling thread when that is a pool worker or holds a
/// ThreadPool::InlineScope. `grain` is the minimum chunk size below which
/// we run serially.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 1024) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t max_chunks = std::max<std::size_t>(1, pool.size());
  const std::size_t chunks =
      std::min(max_chunks, std::max<std::size_t>(1, n / std::max<std::size_t>(1, grain)));
  if (chunks <= 1 || ThreadPool::in_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    futures.push_back(pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fifl::util
