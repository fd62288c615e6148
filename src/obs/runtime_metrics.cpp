#include "obs/runtime_metrics.hpp"

#include <algorithm>

namespace tero::obs {

void record_pool_stats(const util::ThreadPool::Stats& stats,
                       MetricsRegistry& registry, std::string_view prefix,
                       util::ThreadPool::Stats* last) {
  const util::ThreadPool::Stats base =
      last != nullptr ? *last : util::ThreadPool::Stats{};
  const std::string p(prefix);
  auto bump = [&](const char* name, std::uint64_t now, std::uint64_t before) {
    registry.counter(p + name).add(now >= before ? now - before : 0);
  };
  bump(".tasks_run", stats.tasks_run, base.tasks_run);
  bump(".parks", stats.parks, base.parks);
  bump(".parallel_for_calls", stats.parallel_for_calls,
       base.parallel_for_calls);
  bump(".parallel_for_failures", stats.parallel_for_failures,
       base.parallel_for_failures);
  if (stats.parallel_for_failures > base.parallel_for_failures &&
      stats.last_failed_chunk >= 0) {
    registry
        .counter(MetricsRegistry::labeled(
            p + ".parallel_for_failures",
            {{"chunk", std::to_string(stats.last_failed_chunk)}}))
        .add(1);
  }
  if (last != nullptr) *last = stats;
}

}  // namespace tero::obs
