#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace tero::obs {

/// Export a ThreadPool's scheduling statistics into `registry` under
/// `prefix` (counters tero.pool.tasks_run, .parks, .parallel_for_calls and
/// .parallel_for_failures).
/// ThreadPool::Stats counters accumulate since pool construction, so the
/// registry counters are bumped by the *delta* against the previous call
/// with the same registry+prefix — track the previous snapshot in `last`.
///
/// A failed parallel_for additionally records a labeled counter,
/// `<prefix>.parallel_for_failures{chunk=<index>}`, so the failing chunk of
/// the most recent error is visible in the export.
void record_pool_stats(const util::ThreadPool::Stats& stats,
                       MetricsRegistry& registry,
                       std::string_view prefix = "tero.pool",
                       util::ThreadPool::Stats* last = nullptr);

}  // namespace tero::obs
