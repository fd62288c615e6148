#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tero::util {
namespace {

TEST(ThreadPool, ResolveZeroMeansHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve(0), 1u);
  EXPECT_EQ(ThreadPool::resolve(1), 1u);
  EXPECT_EQ(ThreadPool::resolve(7), 7u);
}

TEST(ThreadPool, SizeOneRunsInlineWithNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(0, 4, 1, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, EmptyRangeDoesNothing) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, 0, 1, [&](std::size_t) { ++calls; });
  pool.parallel_for(5, 5, 8, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, 1, [&](std::size_t) { ++calls; });  // begin > end
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, OneElementRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<std::size_t> seen{999};
  pool.parallel_for(3, 4, 16, [&](std::size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 3u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  for (std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{256},
                            std::size_t{20'000}}) {
    for (auto& h : hits) h = 0;
    pool.parallel_for(0, kN, grain, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ThreadPool, ExceptionPropagatesFromParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1,
                        [](std::size_t i) {
                          if (i == 437) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives an exception and keeps executing work.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 100);
}

TEST(ThreadPool, ExceptionInInlineFastPathPropagatesToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 10, 1,
                                 [](std::size_t) {
                                   throw std::invalid_argument("inline");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t) {
    pool.parallel_for(0, 32, 1, [&](std::size_t) { ++inner_calls; });
  });
  EXPECT_EQ(inner_calls, 8 * 32);
}

TEST(ThreadPool, StressManySmallTasks) {
  ThreadPool pool(0);  // all cores
  constexpr std::size_t kN = 200'000;
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, kN, 1, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ThreadPool, ConcurrentCallersGetTheirOwnJobs) {
  // Two outside threads share one pool: one nests an inner parallel_for in
  // every index, the other throws at a fixed index. The ranges are disjoint,
  // so a chunk run with the other caller's body shows up as a stray index.
  ThreadPool pool(4);
  constexpr int kRounds = 50;
  constexpr std::size_t kOuter = 32;
  constexpr std::size_t kInner = 16;
  constexpr std::size_t kFlatBegin = 10'000;
  constexpr std::size_t kFlatEnd = 12'000;
  constexpr std::size_t kGrain = 4;
  constexpr std::size_t kThrowAt = 11'234;  // chunk [11'232, 11'236)
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::atomic<int>> nested_hits(kOuter * kInner);
    std::vector<std::atomic<int>> flat_hits(kFlatEnd - kFlatBegin);
    std::atomic<int> strays{0};
    std::exception_ptr nested_error;
    std::exception_ptr flat_error;
    std::thread nester([&] {
      try {
        pool.parallel_for(0, kOuter, 1, [&](std::size_t i) {
          if (i >= kOuter) {
            ++strays;
            return;
          }
          pool.parallel_for(0, kInner, 1, [&, i](std::size_t j) {
            if (j >= kInner) {
              ++strays;
              return;
            }
            ++nested_hits[i * kInner + j];
          });
        });
      } catch (...) {
        nested_error = std::current_exception();
      }
    });
    std::thread thrower([&] {
      try {
        pool.parallel_for(kFlatBegin, kFlatEnd, kGrain, [&](std::size_t i) {
          if (i < kFlatBegin || i >= kFlatEnd) {
            ++strays;
            return;
          }
          if (i == kThrowAt) throw std::out_of_range("flat");
          ++flat_hits[i - kFlatBegin];
        });
      } catch (...) {
        flat_error = std::current_exception();
      }
    });
    nester.join();
    thrower.join();

    ASSERT_EQ(strays, 0) << "round " << round;
    ASSERT_FALSE(nested_error) << "round " << round;
    for (std::size_t k = 0; k < nested_hits.size(); ++k) {
      ASSERT_EQ(nested_hits[k], 1) << "round " << round << " index " << k;
    }
    ASSERT_TRUE(flat_error) << "round " << round;
    EXPECT_THROW(std::rethrow_exception(flat_error), std::out_of_range);
    // Fail-fast skips unstarted chunks, so apart from the failing chunk the
    // thrower's coverage is "at most once"; that chunk ran up to the throw.
    for (std::size_t k = 0; k < flat_hits.size(); ++k) {
      ASSERT_LE(flat_hits[k], 1) << "round " << round << " index " << k;
    }
    EXPECT_EQ(flat_hits[kThrowAt - 2 - kFlatBegin], 1);
    EXPECT_EQ(flat_hits[kThrowAt - 1 - kFlatBegin], 1);
    EXPECT_EQ(flat_hits[kThrowAt - kFlatBegin], 0);
    EXPECT_EQ(flat_hits[kThrowAt + 1 - kFlatBegin], 0);
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_failures, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.last_failed_chunk,
            static_cast<std::int64_t>((kThrowAt - kFlatBegin) / kGrain));
}

TEST(ParallelMap, ResultsLandInTaskOrder) {
  ThreadPool pool(4);
  const auto squares = parallel_map(&pool, 1000, 3, [](std::size_t i) {
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, NullPoolRunsInline) {
  const auto doubled =
      parallel_map(nullptr, 16, 4, [](std::size_t i) { return 2 * i; });
  ASSERT_EQ(doubled.size(), 16u);
  EXPECT_EQ(doubled[15], 30u);
}

TEST(ParallelMap, SizeOnePoolRunsThroughThePool) {
  // Only a null pool bypasses the pool; a size-1 pool runs inline but still
  // counts the call and its chunks.
  ThreadPool pool(1);
  const auto doubled =
      parallel_map(&pool, 16, 4, [](std::size_t i) { return 2 * i; });
  ASSERT_EQ(doubled.size(), 16u);
  EXPECT_EQ(doubled[15], 30u);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 1u);
  EXPECT_EQ(stats.tasks_run, 4u);
}

TEST(ParallelMap, IndexedRngMakesResultsThreadCountInvariant) {
  // The determinism recipe used by the pipeline: randomness derived from
  // (seed, task index), results in slots indexed by task id. Any two pools
  // must produce bit-identical output.
  auto draw = [](std::size_t i) {
    Rng rng = Rng::indexed(42, i);
    return rng.normal() + rng.uniform();
  };
  ThreadPool serial(1);
  ThreadPool wide(8);
  const auto a = parallel_map(&serial, 5000, 1, draw);
  const auto b = parallel_map(&wide, 5000, 1, draw);
  const auto c = parallel_map(&wide, 5000, 64, draw);  // different grain too
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << i;  // bitwise: EQ on doubles is intentional
    ASSERT_EQ(a[i], c[i]) << i;
  }
}

TEST(ThreadPoolStats, CountsInlineParallelFor) {
  ThreadPool pool(1);
  pool.parallel_for(0, 100, 10, [](std::size_t) {});
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 1u);
  EXPECT_EQ(stats.tasks_run, 10u);  // one per chunk, even on the inline path
  EXPECT_EQ(stats.parallel_for_failures, 0u);
  EXPECT_EQ(stats.last_failed_chunk, -1);
}

TEST(ThreadPoolStats, CountsPooledParallelFor) {
  ThreadPool pool(4);
  pool.parallel_for(0, 100, 10, [](std::size_t) {});
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 1u);
  EXPECT_EQ(stats.tasks_run, 10u);  // every chunk executed exactly once
}

TEST(ThreadPoolStats, RecordsFailingChunkIndexInline) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 100, 10,
                                 [](std::size_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_failures, 1u);
  EXPECT_EQ(stats.last_failed_chunk, 5);  // i == 57 lives in chunk [50, 60)
}

TEST(ThreadPoolStats, RecordsFailingChunkIndexPooled) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 1000, 1,
                                 [](std::size_t i) {
                                   if (i == 437) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_failures, 1u);
  // grain 1 -> chunk index == element index; 437 is the only chunk that can
  // throw, so fail-fast ordering cannot report anything else.
  EXPECT_EQ(stats.last_failed_chunk, 437);
}

TEST(ThreadPoolStats, InlineTasksRunCountsTheThrowingChunk) {
  ThreadPool pool(1);
  int calls = 0;
  EXPECT_THROW(pool.parallel_for(0, 100, 10,
                                 [&](std::size_t i) {
                                   ++calls;
                                   if (i == 57) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(calls, 58);  // indices 0..57; chunks [60, 100) never start
  EXPECT_EQ(pool.stats().tasks_run, 6u);  // chunks 0..5, the thrower included
}

TEST(ThreadPoolStats, PooledTasksRunCountsOnlyChunksThatRan) {
  // grain 1: one body call per chunk, so tasks_run must equal the calls
  // made, the throwing one included and the skipped chunks not.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> calls{0};
  EXPECT_THROW(pool.parallel_for(0, 1000, 1,
                                 [&](std::size_t i) {
                                   ++calls;
                                   if (i == 437) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_GE(calls.load(), 1u);
  EXPECT_LE(calls.load(), 1000u);
  EXPECT_EQ(pool.stats().tasks_run, calls.load());
}

TEST(ThreadPoolStats, RegistryStaysConsistentAfterMidChunkThrow) {
  ThreadPool pool(2);
  obs::MetricsRegistry registry;
  ThreadPool::Stats baseline;
  obs::record_pool_stats(pool.stats(), registry, "tero.pool", &baseline);

  EXPECT_THROW(pool.parallel_for(0, 40, 10,
                                 [](std::size_t i) {
                                   if (i == 35) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool keeps working after the throw, and the registry export stays
  // consistent: deltas only, failure surfaced with its chunk label.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 50, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 50);
  obs::record_pool_stats(pool.stats(), registry, "tero.pool", &baseline);

  EXPECT_EQ(registry.counter("tero.pool.parallel_for_calls").value(), 2u);
  EXPECT_EQ(registry.counter("tero.pool.parallel_for_failures").value(), 1u);
  const std::string labeled = obs::MetricsRegistry::labeled(
      "tero.pool.parallel_for_failures", {{"chunk", "3"}});
  EXPECT_EQ(registry.counter(labeled).value(), 1u);

  // A second snapshot with no new work adds nothing (delta accounting).
  obs::record_pool_stats(pool.stats(), registry, "tero.pool", &baseline);
  EXPECT_EQ(registry.counter("tero.pool.parallel_for_calls").value(), 2u);
  EXPECT_EQ(registry.counter(labeled).value(), 1u);
}

TEST(MixSeed, SpreadsNearbyInputs) {
  // Adjacent (seed, index) pairs must land far apart; a quick sanity check
  // that the seed-splitting scheme does not correlate neighbouring tasks.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 4; ++s) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      seen.push_back(mix_seed(s, i));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace tero::util
