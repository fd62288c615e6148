#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace tero::serve {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  if (!cdf_.empty()) cdf_.back() = 1.0;  // close the interval exactly
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  if (cdf_.empty()) return 0;
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

std::vector<Query> generate_queries(const Snapshot& snapshot,
                                    const LoadGenConfig& config) {
  const auto entries = snapshot.entries();
  const ZipfSampler zipf(entries.size(), config.zipf_s);
  std::vector<Query> queries(config.queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Everything about query i comes from (seed, i): thread- and
    // order-independent by construction.
    util::Rng rng = util::Rng::indexed(config.seed, i);
    Query& query = queries[i];
    query.trace_id = i + 1;  // nonzero span id shared by trace + exemplars
    if (entries.empty()) {
      query.kind = QueryKind::kCount;
      continue;  // served as kNotFound; keeps the stream well-defined
    }
    const SnapshotEntry& entry = entries[zipf.sample(rng)];
    query.location = entry.location;
    query.game = entry.game;
    if (rng.bernoulli(config.p_topk)) {
      query.kind = QueryKind::kTopK;
      query.k = config.topk;
      continue;
    }
    const double u = rng.uniform();
    if (u < config.p_percentile) {
      query.kind = QueryKind::kPercentile;
      // A small palette of round percentiles, the way real dashboards ask
      // (everyone asks for p50/p95/p99).
      static constexpr double kPercentiles[] = {5, 25, 50, 75, 90, 95, 99};
      query.param = kPercentiles[rng.uniform_int(0, 6)];
    } else if (u < config.p_percentile + (1.0 - config.p_percentile) / 3.0) {
      query.kind = QueryKind::kMean;
    } else if (u <
               config.p_percentile + 2.0 * (1.0 - config.p_percentile) / 3.0) {
      query.kind = QueryKind::kCount;
    } else {
      query.kind = QueryKind::kEcdf;
      query.param = std::floor(rng.uniform(
          std::min(entry.box.p5, entry.box.p95),
          std::max(entry.box.p5, entry.box.p95) + 1.0));
    }
  }
  return queries;
}

LoadTestReport run_loadtest(QueryService& service,
                            const LoadGenConfig& config,
                            util::ThreadPool* pool) {
  LoadTestReport report;
  report.issued = config.queries;
  const SnapshotPtr snapshot = service.snapshot();
  if (snapshot == nullptr) {
    report.no_snapshot = config.queries;
    return report;
  }
  const std::vector<Query> queries = generate_queries(*snapshot, config);

  // Open loop: shed decisions happen *serially in arrival order* against
  // virtual time, so they depend only on (arrival times, bucket config) —
  // never on scheduling. Execution of admitted queries then fans out.
  std::vector<char> admitted(queries.size(), 1);
  if (config.offered_qps > 0.0) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double arrival_s =
          static_cast<double>(i) / config.offered_qps;
      admitted[i] = service.try_admit(arrival_s) ? 1 : 0;
    }
  }

  struct Outcome {
    QueryStatus status = QueryStatus::kNoSnapshot;
    bool stale = false;
    std::uint64_t hash = 0;
  };
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Outcome> outcomes = util::parallel_map(
      pool, queries.size(), 64, [&](std::size_t i) -> Outcome {
        QueryResponse response;
        if (admitted[i] == 0) {
          response.status = QueryStatus::kShed;
        } else {
          response = service.query_admitted(queries[i]);
        }
        return Outcome{response.status, response.stale,
                       hash_response(i, response)};
      });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  report.wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  if (report.wall_ms > 0.0) {
    report.achieved_qps =
        static_cast<double>(queries.size()) / (report.wall_ms / 1e3);
  }

  // Serial virtual-time replay (DESIGN.md §13): accounting, loadgen-owned
  // telemetry and timeline scraping all walk the deterministic outcomes in
  // arrival order. The closed loop has no offered rate, so it synthesizes
  // arrivals on a 1000 qps nominal clock purely to give the timeline a
  // time axis. tero.loadgen.latency_ms records a *synthetic* latency — a
  // pure function of (seed, i, outcome), never the wall clock — which is
  // what makes timeline snapshots, SLO verdicts, and exemplar selections
  // bit-identical across thread counts.
  obs::Counter* sent_counter = nullptr;
  obs::Counter* ok_counter = nullptr;
  obs::Counter* not_found_counter = nullptr;
  obs::Counter* shed_counter = nullptr;
  obs::Counter* stale_counter = nullptr;
  obs::Counter* unavailable_counter = nullptr;
  obs::Counter* brownout_counter = nullptr;
  obs::Histogram* latency_hist = nullptr;
  if (config.metrics != nullptr) {
    auto& registry = *config.metrics;
    sent_counter = &registry.counter("tero.loadgen.queries");
    ok_counter = &registry.counter("tero.loadgen.ok");
    not_found_counter = &registry.counter("tero.loadgen.not_found");
    shed_counter = &registry.counter("tero.loadgen.shed");
    stale_counter = &registry.counter("tero.loadgen.stale");
    unavailable_counter = &registry.counter("tero.loadgen.unavailable");
    brownout_counter = &registry.counter("tero.loadgen.brownout");
    latency_hist = &registry.histogram("tero.loadgen.latency_ms");
    if (config.exemplar_seed != 0) {
      latency_hist->enable_exemplars(config.exemplar_seed);
    }
  }
  const double virtual_qps =
      config.offered_qps > 0.0 ? config.offered_qps : 1000.0;
  const std::uint64_t latency_seed = util::mix_seed(config.seed, 0x6c67);

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    const auto arrival_ms = static_cast<std::uint64_t>(
        static_cast<double>(i) * 1000.0 / virtual_qps);
    if (config.timeline != nullptr) config.timeline->advance_to(arrival_ms);

    report.checksum ^= outcome.hash;
    if (outcome.stale) ++report.stale;
    switch (outcome.status) {
      case QueryStatus::kOk: ++report.ok; break;
      case QueryStatus::kNotFound: ++report.not_found; break;
      case QueryStatus::kShed: ++report.shed; break;
      case QueryStatus::kNoSnapshot: ++report.no_snapshot; break;
      case QueryStatus::kUnavailable: ++report.unavailable; break;
      case QueryStatus::kBrownout: ++report.brownout; break;
    }
    if (config.metrics == nullptr) continue;
    sent_counter->add();
    if (outcome.stale) stale_counter->add();
    switch (outcome.status) {
      case QueryStatus::kOk: ok_counter->add(); break;
      case QueryStatus::kNotFound: not_found_counter->add(); break;
      case QueryStatus::kShed: shed_counter->add(); break;
      case QueryStatus::kUnavailable: unavailable_counter->add(); break;
      case QueryStatus::kBrownout: brownout_counter->add(); break;
      case QueryStatus::kNoSnapshot: break;
    }
    // Synthetic service time: a light-tailed base draw, stretched by the
    // outcome (degraded answers are slow, sheds are a fast rejection).
    util::Rng rng = util::Rng::indexed(latency_seed, i);
    double virtual_ms = 0.2 + rng.exponential(2.0);
    switch (outcome.status) {
      case QueryStatus::kOk:
        if (outcome.stale) virtual_ms = 2.0 + 4.0 * virtual_ms;
        break;
      case QueryStatus::kShed: virtual_ms = 0.05; break;
      case QueryStatus::kBrownout: virtual_ms = 0.05; break;
      case QueryStatus::kUnavailable: virtual_ms = 25.0 + virtual_ms; break;
      case QueryStatus::kNotFound:
      case QueryStatus::kNoSnapshot: break;
    }
    latency_hist->record(virtual_ms, static_cast<std::uint64_t>(i) + 1);
  }
  if (config.timeline != nullptr && !outcomes.empty()) {
    config.timeline->flush(static_cast<std::uint64_t>(
        static_cast<double>(outcomes.size()) * 1000.0 / virtual_qps));
  }

  if (const obs::Histogram* latency = service.latency_histogram();
      latency != nullptr && latency->count() > 0) {
    report.p50_ms = latency->quantile(0.50);
    report.p95_ms = latency->quantile(0.95);
    report.p99_ms = latency->quantile(0.99);
  }
  return report;
}

}  // namespace tero::serve
