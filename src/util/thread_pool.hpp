#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tero::util {

/// Fork-join thread pool behind the pipeline's parallel stages.
///
/// Architecture: parallel_for() publishes one job on a mutex-guarded list of
/// open jobs and wakes the idle workers. The caller and every woken worker
/// then claim the job's chunks with one fetch_add on its atomic chunk
/// counter until none are left. A worker counts itself as a visitor of the
/// job while it holds it, and the caller returns once it has taken the job
/// off the list and no visitor is left. Nested and concurrent calls each
/// publish their own job; workers serve the newest open job first.
///
/// `threads` counts the *total* parallelism including the calling thread:
/// a pool of size N spawns N-1 background workers, and the calling thread
/// runs chunks of its own job. A pool of size 1 spawns no workers at all;
/// a job with no worker to share it (or a single chunk) is never published,
/// so the caller runs it alone — the deterministic fast path.
///
/// Determinism contract: the pool never promises any execution *order*;
/// callers obtain bit-identical results for any thread count by (1) deriving
/// all randomness from the task index (Rng::indexed / mix_seed) and
/// (2) writing results into pre-sized output slots indexed by task id.
/// parallel_map() implements (2) directly.
class ThreadPool {
 public:
  /// threads == 0 resolves to hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (background workers + the calling thread).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Observational scheduling statistics, accumulated since construction
  /// with relaxed atomics (never consulted by the pool itself — scheduling
  /// stays oblivious to them, preserving the determinism contract). Exported
  /// into an obs::MetricsRegistry by obs::record_pool_stats().
  struct Stats {
    /// Chunks whose body ran, on any thread, the one that threw included.
    std::uint64_t tasks_run = 0;
    std::uint64_t parks = 0;  ///< times a worker blocked waiting for a job
    std::uint64_t parallel_for_calls = 0;
    std::uint64_t parallel_for_failures = 0;  ///< calls that rethrew
    /// Chunk index whose fn() threw in the most recent failing
    /// parallel_for, -1 if none ever failed. Chunks are numbered from 0 in
    /// range order, so callers can map it back to [begin + chunk * grain,
    /// ...) and surface it as a metric label.
    std::int64_t last_failed_chunk = -1;
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Resolve a user-facing thread knob: 0 -> hardware_concurrency, else n.
  [[nodiscard]] static std::size_t resolve(std::size_t threads) noexcept;

  /// Run fn(i) for every i in [begin, end), splitting the range into chunks
  /// of `grain` indices. Blocks until every index has been processed.
  /// The first exception thrown by fn is rethrown here (chunks that have not
  /// started yet are skipped). Nested calls from inside fn are supported:
  /// the inner caller runs its own job's chunks and waits only for chunks
  /// another thread is already running, so it cannot deadlock the pool.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Job;

  void run_chunks(Job& job);
  void unlist(const Job& job);  ///< requires mutex_
  void worker_loop();

  std::size_t size_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable wake_;  ///< idle workers wait here for a job
  std::vector<Job*> open_;        ///< guarded by mutex_, newest last
  bool stop_ = false;             ///< guarded by mutex_

  // Scheduling statistics (see Stats). All relaxed: they order nothing.
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> parallel_for_calls_{0};
  std::atomic<std::uint64_t> parallel_for_failures_{0};
  std::atomic<std::int64_t> last_failed_chunk_{-1};
};

/// parallel_for over an optional pool: a null pool runs the loop inline on
/// the calling thread, with no chunking and no statistics.
void parallel_for(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn);

/// Deterministic parallel map: results[i] = fn(i), written into a pre-sized
/// vector indexed by task id, so the output is identical for any thread
/// count. The result type must be default-constructible.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool* pool, std::size_t n,
                                std::size_t grain, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{}))>> {
  using Result = std::decay_t<decltype(fn(std::size_t{}))>;
  std::vector<Result> results(n);
  parallel_for(pool, n, grain,
               [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace tero::util
