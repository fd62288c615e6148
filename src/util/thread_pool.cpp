#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace tero::util {

/// One parallel_for call. It lives on the caller's stack: safe because the
/// caller returns only after taking it off open_ and seeing no visitor left,
/// and no thread can pick it up once it is off the list.
struct ThreadPool::Job {
  Job(std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t)>& fn)
      : begin(begin),
        end(end),
        grain(grain),
        chunks((end - begin + grain - 1) / grain),
        fn(fn) {}

  const std::size_t begin;
  const std::size_t end;
  const std::size_t grain;
  const std::size_t chunks;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};  ///< next unclaimed chunk
  /// Set by the first throw; nobody claims a chunk after seeing it.
  std::atomic<bool> failed{false};
  /// Written only by the thread that set `failed`, read after the join.
  std::exception_ptr error;
  std::size_t error_chunk = 0;
  std::size_t visitors = 0;  ///< guarded by mutex_: workers holding the job
  std::condition_variable left;  ///< signalled when visitors drops to 0
};

std::size_t ThreadPool::resolve(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) : size_(resolve(threads)) {
  threads_.reserve(size_ - 1);
  for (std::size_t i = 1; i < size_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  Stats stats;
  stats.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  stats.parks = parks_.load(std::memory_order_relaxed);
  stats.parallel_for_calls =
      parallel_for_calls_.load(std::memory_order_relaxed);
  stats.parallel_for_failures =
      parallel_for_failures_.load(std::memory_order_relaxed);
  stats.last_failed_chunk = last_failed_chunk_.load(std::memory_order_relaxed);
  return stats;
}

void ThreadPool::run_chunks(Job& job) {
  std::uint64_t ran = 0;
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) break;
    const std::size_t chunk_begin = job.begin + c * job.grain;
    const std::size_t chunk_end = std::min(job.end, chunk_begin + job.grain);
    ++ran;
    try {
      for (std::size_t i = chunk_begin; i < chunk_end; ++i) job.fn(i);
    } catch (...) {
      if (!job.failed.exchange(true, std::memory_order_relaxed)) {
        job.error = std::current_exception();
        job.error_chunk = c;
      }
    }
  }
  tasks_run_.fetch_add(ran, std::memory_order_relaxed);
}

void ThreadPool::unlist(const Job& job) {
  const auto it = std::find(open_.begin(), open_.end(), &job);
  if (it != open_.end()) open_.erase(it);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (open_.empty()) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      wake_.wait(lock, [this] { return stop_ || !open_.empty(); });
      continue;
    }
    Job& job = *open_.back();
    ++job.visitors;
    lock.unlock();
    run_chunks(job);
    lock.lock();
    unlist(job);  // claimed out or failed: let nobody else pick it up
    if (--job.visitors == 0) job.left.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  Job job(begin, end, std::max<std::size_t>(1, grain), fn);
  // Wake no more workers than there are chunks beyond the caller's first.
  const std::size_t helpers = std::min(threads_.size(), job.chunks - 1);
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&job);
    }
    for (std::size_t k = 0; k < helpers; ++k) wake_.notify_one();
  }
  run_chunks(job);
  if (helpers > 0) {
    // Every chunk is claimed (or the job failed), so only chunks already
    // running on a visitor are left to wait for.
    std::unique_lock<std::mutex> lock(mutex_);
    unlist(job);
    job.left.wait(lock, [&job] { return job.visitors == 0; });
  }
  if (job.failed.load(std::memory_order_relaxed)) {
    parallel_for_failures_.fetch_add(1, std::memory_order_relaxed);
    last_failed_chunk_.store(static_cast<std::int64_t>(job.error_chunk),
                             std::memory_order_relaxed);
    std::rethrow_exception(job.error);
  }
}

void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(0, n, grain, fn);
}

}  // namespace tero::util
