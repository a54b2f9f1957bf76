#include "exec/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "exec/thread_pool.hpp"
#include "util/config.hpp"

namespace railcorr::exec {

namespace {

std::atomic<std::size_t> g_default_threads{0};  // 0 = auto

// Set while the calling thread runs chunk 0 of a multi-chunk region;
// pool workers are covered by ThreadPool::on_worker_thread().
thread_local bool t_caller_in_region = false;

std::size_t env_thread_count() {
  static const std::size_t cached = [] {
    // Unset, garbage and out-of-range values all mean automatic.
    const char* env = std::getenv("RAILCORR_THREADS");
    if (env == nullptr) return std::size_t{0};
    return parse_thread_count(env).value_or(0);
  }();
  return cached;
}

// Shared pool registry. The pool is grown (never shrunk) to serve the
// largest concurrency any caller has requested; growing swaps in a new
// pool after the old one drains, so in-flight jobs complete normally.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool>& pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

struct Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::size_t chunks = 0;

  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending = 0;
  std::exception_ptr error;

  void run_chunk(std::size_t chunk) noexcept {
    const std::size_t begin = chunk * n / chunks;
    const std::size_t end = (chunk + 1) * n / chunks;
    try {
      for (std::size_t i = begin; i < end; ++i) (*body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
    }
  }

  void finish_chunk() {
    std::lock_guard<std::mutex> lock(mutex);
    if (--pending == 0) done.notify_all();
  }
};

}  // namespace

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  std::size_t n = 0;
  if (!util::parse_whole(text, n) || n > kMaxThreadCount) return std::nullopt;
  return n;
}

std::size_t hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t default_thread_count() {
  const std::size_t overridden = g_default_threads.load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  const std::size_t env = env_thread_count();
  if (env > 0) return env;
  return hardware_thread_count();
}

void set_default_thread_count(std::size_t n) {
  g_default_threads.store(n, std::memory_order_relaxed);
}

bool in_parallel_region() {
  return t_caller_in_region || ThreadPool::on_worker_thread();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  const std::size_t resolved = default_thread_count();
  const std::size_t threads = std::min(resolved, n);

  // Sequential fast path: one chunk, or we are already a participant of
  // an enclosing region (nested region): a worker must not wait on the
  // pool it occupies, and the caller's chunk must not hand its inner
  // work to workers busy with their own chunks.
  if (threads <= 1 || in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->n = n;
  batch->chunks = threads;
  batch->pending = threads - 1;

  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    auto& pool = pool_slot();
    if (!pool || pool->size() < threads - 1) {
      // Size new pools for the full resolved concurrency, not just this
      // region's chunk count: a small first region (e.g. a 4-task batch)
      // must not cap the pool and force a drain-and-join rebuild when a
      // wider nested region follows.
      pool.reset();  // drain + join the old pool before growing
      pool = std::make_unique<ThreadPool>(resolved - 1);
    }
    for (std::size_t chunk = 1; chunk < threads; ++chunk) {
      pool->submit([batch, chunk] {
        batch->run_chunk(chunk);
        batch->finish_chunk();
      });
    }
  }

  // The caller participates; run_chunk is noexcept, so the flag always
  // clears again.
  t_caller_in_region = true;
  batch->run_chunk(0);
  t_caller_in_region = false;
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->pending == 0; });
    if (batch->error) std::rethrow_exception(batch->error);
  }
}

}  // namespace railcorr::exec
