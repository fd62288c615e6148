#include "tero/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <tuple>

#include "analysis/outlier_rejection.hpp"
#include "fault/fault.hpp"
#include "nlp/combine.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "obs/trace.hpp"
#include "store/consistent_hash.hpp"
#include "util/strings.hpp"

namespace tero::core {

geo::Location truncate_location(const geo::Location& location,
                                geo::Granularity granularity) {
  switch (granularity) {
    case geo::Granularity::kCountry:
      return geo::Location{"", "", location.country};
    case geo::Granularity::kRegion:
      return geo::Location{"", location.region, location.country};
    case geo::Granularity::kCity:
      return location;
  }
  return location;
}

const LocationGameAggregate* Dataset::find_aggregate(
    const geo::Location& location, std::string_view game) const {
  for (const auto& aggregate : aggregates) {
    if (aggregate.location == location &&
        util::iequals(aggregate.game, game)) {
      return &aggregate;
    }
  }
  return nullptr;
}

namespace {

/// Stage salts for the seed-splitting scheme: every parallel task draws from
/// util::Rng::indexed(mix_seed(seed, salt), task_index), so no draw sequence
/// ever crosses a task boundary and results are bit-identical for any thread
/// count.
constexpr std::uint64_t kExtractionSalt = 0x7e20cafe0001ULL;

/// Resolve a stage's wall-time histogram; null when observability is off,
/// so every ScopedTimer downstream is a single branch.
obs::Histogram* stage_histogram(obs::MetricsRegistry* metrics,
                                const char* stage) {
  if (metrics == nullptr) return nullptr;
  return &metrics->histogram(std::string("tero.stage.") + stage + ".ms");
}

obs::Histogram* task_histogram(obs::MetricsRegistry* metrics,
                               const char* stage) {
  if (metrics == nullptr) return nullptr;
  return &metrics->histogram(std::string("tero.task.") + stage + ".ms");
}

}  // namespace

LocatedWorld locate_streamers(const synth::World& world,
                              util::ThreadPool* pool) {
  LocatedWorld out;
  const social::Locator locator(world.twitter(), world.steam());
  const std::size_t n = world.streamers().size();
  const std::vector<social::LocatorResult> results =
      util::parallel_map(pool, n, 1, [&](std::size_t i) {
        return locator.locate(world.streamers()[i].twitch);
      });
  out.located.resize(n);
  out.sources.resize(n);
  out.located_after.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.located[i] = results[i].location;
    out.sources[i] = results[i].source;
    if (results[i].located()) ++out.streamers_located;
  }

  // §3.1.1: multiple locations per streamer. A relocated streamer advertises
  // the new location; Tero re-geoparses the updated profile and keeps each
  // {streamer, location} tuple as a distinct end-point. Epoch 0 = before the
  // move, epoch 1 = after.
  for (std::size_t i = 0; i < world.streamers().size(); ++i) {
    const auto& streamer = world.streamers()[i];
    if (!streamer.relocation.has_value() || !out.located[i].has_value()) {
      continue;
    }
    out.located_after[i] = nlp::combine_twitter_location(
        streamer.relocation->new_twitter_location, locator.tools());
  }
  return out;
}

int stream_epoch(const synth::World& world, const LocatedWorld& located,
                 const synth::TrueStream& stream) {
  const auto& streamer = world.streamers()[stream.streamer_index];
  if (!streamer.relocation.has_value() ||
      !located.located_after[stream.streamer_index].has_value() ||
      stream.points.empty()) {
    return 0;
  }
  const double move_time = streamer.relocation->day * 86400.0;
  return stream.points.front().t >= move_time ? 1 : 0;
}

store::Pseudonymizer make_pseudonymizer(std::uint64_t config_seed) {
  return store::Pseudonymizer(config_seed ^ 0x7e40deadbeefULL);
}

std::uint64_t extraction_stream_seed(std::uint64_t config_seed,
                                     std::uint64_t stream_index) {
  return util::mix_seed(util::mix_seed(config_seed, kExtractionSalt),
                        stream_index);
}

ThumbnailExtraction extract_thumbnail(const ExtractionChannel& channel,
                                      const ocr::GameUiSpec& spec,
                                      const synth::TruePoint& point,
                                      double p_latency_visible,
                                      std::uint64_t stream_seed,
                                      std::uint64_t point_index) {
  ThumbnailExtraction out;
  util::Rng rng = util::Rng::indexed(stream_seed, point_index);
  if (!rng.bernoulli(p_latency_visible)) return out;
  out.visible = true;
  out.measurement = channel.extract(point, spec, rng);
  return out;
}

bool extraction_quarantined(const fault::FaultPoint* point,
                            std::uint64_t streamer_index,
                            const fault::RetryPolicy& retry) {
  if (point == nullptr) return false;
  const std::uint32_t last_attempt =
      retry.max_attempts == 0 ? 0 : retry.max_attempts - 1;
  // Quarantined iff the fault outlasts every retry: transient rules (fewer
  // failing attempts than the budget) return kNone here, so those streamers
  // extract normally and the dataset matches the fault-free run exactly.
  return static_cast<bool>(point->decide(streamer_index, last_attempt));
}

std::size_t count_quarantined_streamers(
    const LocatedWorld& located, std::span<const synth::TrueStream> streams,
    const fault::FaultPoint* point, const fault::RetryPolicy& retry) {
  if (point == nullptr) return 0;
  std::set<std::size_t> quarantined;
  for (const auto& stream : streams) {
    if (!located.located[stream.streamer_index].has_value()) continue;
    if (extraction_quarantined(point, stream.streamer_index, retry)) {
      quarantined.insert(stream.streamer_index);
    }
  }
  return quarantined.size();
}

namespace {

/// Running FNV/mix digest over heterogeneous fields. Doubles go in by bit
/// pattern (bit_cast), strings by content hash — no formatting, no rounding.
class Digest {
 public:
  void u64(std::uint64_t v) noexcept { h_ = util::mix_seed(h_, v); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    u64(util::fnv1a64({s.data(), s.size()}));
  }
  void clusters(const std::vector<analysis::LatencyCluster>& cs) {
    u64(cs.size());
    for (const auto& c : cs) {
      u64(static_cast<std::uint64_t>(c.min_ms));
      u64(static_cast<std::uint64_t>(c.max_ms));
      f64(c.weight);
      u64(c.point_count);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x7e20da7a5e7ULL;  // arbitrary non-zero start
};

}  // namespace

std::uint64_t dataset_digest(const Dataset& dataset) {
  Digest d;
  d.u64(dataset.funnel.streamers_total);
  d.u64(dataset.funnel.streamers_located);
  d.u64(dataset.funnel.quarantined);
  d.u64(dataset.funnel.thumbnails);
  d.u64(dataset.funnel.visible);
  d.u64(dataset.funnel.ocr_ok);
  d.u64(dataset.funnel.retained);
  d.u64(dataset.funnel.clustered);

  d.u64(dataset.entries.size());
  for (const auto& entry : dataset.entries) {
    d.str(entry.pseudonym);
    d.str(entry.game);
    d.str(entry.location.to_string());
    d.str(entry.true_location.to_string());
    d.u64(static_cast<std::uint64_t>(entry.location_source));
    d.u64((entry.is_static ? 1u : 0u) | (entry.high_quality ? 2u : 0u) |
          (entry.location_outlier ? 4u : 0u) |
          (entry.possible_location_change ? 8u : 0u));
    const auto& clean = entry.clean;
    d.u64(clean.points_in);
    d.u64(clean.points_retained);
    d.u64(clean.points_corrected);
    d.u64(clean.points_discarded);
    d.u64(clean.spike_points);
    d.u64(clean.glitch_segments);
    d.u64(clean.retained.size());
    for (const auto& stream : clean.retained) {
      d.str(stream.streamer);
      d.str(stream.game);
      d.u64(stream.points.size());
      for (const auto& point : stream.points) {
        d.f64(point.time_s);
        d.u64(static_cast<std::uint64_t>(point.latency_ms));
        d.u64(point.alternative_ms
                  ? static_cast<std::uint64_t>(*point.alternative_ms) + 1
                  : 0);
      }
    }
    d.u64(clean.spikes.size());
    for (const auto& spike : clean.spikes) {
      d.f64(spike.start_s);
      d.f64(spike.end_s);
      d.u64(static_cast<std::uint64_t>(spike.peak_latency_ms));
      d.u64(static_cast<std::uint64_t>(spike.baseline_ms));
    }
    d.clusters(entry.clusters);
    d.u64(entry.endpoint_changes.size());
    for (const auto& change : entry.endpoint_changes) {
      d.f64(change.time_s);
      d.u64(change.same_stream ? 1 : 0);
      d.u64(static_cast<std::uint64_t>(change.from_cluster + 1));
      d.u64(static_cast<std::uint64_t>(change.to_cluster + 1));
    }
  }

  d.u64(dataset.aggregates.size());
  for (const auto& agg : dataset.aggregates) {
    d.str(agg.location.to_string());
    d.str(agg.game);
    d.u64(agg.streamers);
    d.clusters(agg.clusters);
    d.u64(agg.distribution.size());
    for (const double v : agg.distribution) d.f64(v);
    if (agg.box) {
      d.f64(agg.box->p5);
      d.f64(agg.box->p25);
      d.f64(agg.box->p50);
      d.f64(agg.box->p75);
      d.f64(agg.box->p95);
    } else {
      d.u64(0);
    }
    d.f64(agg.avg_corrected_distance_km);
    d.str(agg.server_city);
    d.u64(agg.shared.anomalies.size());
    d.f64(agg.shared.spike_probability);
    d.u64(agg.shared.sufficient_data ? 1 : 0);
  }
  return d.value();
}

std::optional<StreamerGameEntry> analyze_streamer_group(
    const synth::World& world, const LocatedWorld& located,
    const store::Pseudonymizer& pseudonymizer, std::size_t streamer_index,
    std::string game, int epoch, std::vector<analysis::Stream> streams,
    const analysis::AnalysisConfig& config) {
  const auto& streamer = world.streamers()[streamer_index];
  StreamerGameEntry entry;
  entry.pseudonym = pseudonymizer.pseudonym(streamer.id);
  entry.game = std::move(game);
  if (epoch == 1) {
    entry.location = *located.located_after[streamer_index];
    entry.true_location = streamer.relocation->new_location;
  } else {
    entry.location = *located.located[streamer_index];
    entry.true_location = streamer.home_location;
  }
  entry.location_source = located.sources[streamer_index];
  entry.clean = analysis::clean_streamer_game(std::move(streams), config);
  if (entry.clean.discarded_entirely) return std::nullopt;
  entry.clusters = analysis::cluster_streamer(entry.clean, config);
  entry.is_static = analysis::is_static_streamer(entry.clusters, config);
  entry.high_quality = entry.clean.spike_fraction() <= config.max_spikes;
  return entry;
}

Pipeline::Pipeline(TeroConfig config) : config_(std::move(config)) {
  channel_ = config_.use_full_ocr
                 ? make_ocr_channel(config_.thumbnails)
                 : make_noise_channel(config_.noise);
  if (util::ThreadPool::resolve(config_.threads) > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }
}

Dataset Pipeline::run(const synth::World& world,
                      std::span<const synth::TrueStream> streams) {
  obs::MetricsRegistry* const metrics = config_.metrics;
  obs::TraceRecorder* const trace = config_.trace;
  const obs::ScopedSpan run_span(trace, "pipeline.run");
  const obs::ScopedTimer run_timer(stage_histogram(metrics, "run"));

  Dataset dataset;
  const store::Pseudonymizer pseudonymizer = make_pseudonymizer(config_.seed);

  // ---- Location module (§3.1) ------------------------------------------------
  LocatedWorld located;
  {
    const obs::ScopedSpan stage_span(trace, "stage.location", "stage");
    const obs::ScopedTimer stage_timer(stage_histogram(metrics, "location"));
    located = locate_streamers(world, pool_.get());
    dataset.funnel.streamers_total = world.streamers().size();
    dataset.funnel.streamers_located = located.streamers_located;
  }
  dataset.funnel.quarantined = count_quarantined_streamers(
      located, streams,
      fault::FaultInjector::maybe_point(config_.injector, "extract.stream"),
      config_.extraction_retry);

  // ---- Image-processing module (§3.2) ----------------------------------------
  // Hot stage (a): per-stream thumbnail rendering + OCR / noise-channel
  // extraction, parallel over ground-truth streams. Thumbnail p of stream i
  // draws from Rng::indexed(extraction_stream_seed(seed, i), p) — a pure
  // function of (seed, i, p) shared with the streaming path — and stream i
  // is written into slot i, so the result does not depend on scheduling.
  // Grouping and counter accumulation stay serial.
  struct ExtractedStream {
    analysis::Stream stream;
    std::size_t thumbnails = 0;
    std::size_t visible = 0;
    std::size_t extracted = 0;
  };
  const ExtractionChannel& channel = *channel_;
  obs::Histogram* const extraction_task_ms =
      task_histogram(metrics, "extraction");
  const fault::FaultPoint* const extract_fault =
      fault::FaultInjector::maybe_point(config_.injector, "extract.stream");
  // Costliest streams first: a stream claimed last runs alone while the
  // other threads idle. The cost estimate is thumbnails times latency-crop
  // pixels, since rendering and OCR touch only the crop: in the
  // 40-streamer, 2-day world one stream takes 18% of the stage's time, and
  // a Call of Duty crop is 150 pixels wide where most are 96 or 100.
  std::vector<std::size_t> cost(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const image::Rect& crop = ocr::ui_spec_for(streams[i].game).latency_region;
    cost[i] = streams[i].points.size() * static_cast<std::size_t>(crop.w) *
              static_cast<std::size_t>(crop.h);
  }
  std::vector<std::size_t> longest_first(streams.size());
  std::iota(longest_first.begin(), longest_first.end(), std::size_t{0});
  std::stable_sort(
      longest_first.begin(), longest_first.end(),
      [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  std::vector<ExtractedStream> extracted(streams.size());
  {
    const obs::ScopedSpan stage_span(trace, "stage.extraction", "stage");
    const obs::ScopedTimer stage_timer(
        stage_histogram(metrics, "extraction"));
    auto by_length = util::parallel_map(
        pool_.get(), streams.size(), 1, [&](std::size_t k) {
          const std::size_t i = longest_first[k];
          const obs::ScopedSpan task_span(trace, "extraction.task", "task");
          const obs::ScopedTimer task_timer(extraction_task_ms);
          ExtractedStream out;
          const auto& true_stream = streams[i];
          if (!located.located[true_stream.streamer_index].has_value()) {
            return out;
          }
          const std::uint64_t stream_seed =
              extraction_stream_seed(config_.seed, i);
          if (extraction_quarantined(extract_fault,
                                     true_stream.streamer_index,
                                     config_.extraction_retry)) {
            // Quarantined: thumbnails were downloaded, extraction keeps
            // faulting — count the volume, extract nothing.
            out.thumbnails = true_stream.points.size();
            return out;
          }
          const auto& spec = ocr::ui_spec_for(true_stream.game);
          out.stream.streamer = pseudonymizer.pseudonym(
              world.streamers()[true_stream.streamer_index].id);
          out.stream.game = true_stream.game;
          for (std::size_t p = 0; p < true_stream.points.size(); ++p) {
            ++out.thumbnails;
            auto result = extract_thumbnail(channel, spec,
                                            true_stream.points[p],
                                            config_.p_latency_visible,
                                            stream_seed, p);
            if (!result.visible) continue;
            ++out.visible;
            if (result.measurement.has_value()) {
              out.stream.points.push_back(*result.measurement);
              ++out.extracted;
            }
          }
          return out;
        });
    for (std::size_t k = 0; k < streams.size(); ++k) {
      extracted[longest_first[k]] = std::move(by_length[k]);
    }
  }

  // One analysis::Stream per ground-truth stream, grouped by
  // {streamer, game, location-epoch} in stream order.
  std::map<std::tuple<std::size_t, std::string, int>,
           std::vector<analysis::Stream>>
      grouped;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    dataset.funnel.thumbnails += extracted[i].thumbnails;
    dataset.funnel.visible += extracted[i].visible;
    dataset.funnel.ocr_ok += extracted[i].extracted;
    if (extracted[i].stream.points.empty()) continue;
    grouped[{streams[i].streamer_index, streams[i].game,
             stream_epoch(world, located, streams[i])}]
        .push_back(std::move(extracted[i].stream));
  }

  // ---- Data-analysis module (§3.3) --------------------------------------------
  // Hot stage (b): per-{streamer, game, epoch} clean -> segment -> cluster,
  // parallel over groups. The map's iteration order fixes the task order;
  // each task owns its group's streams and its output slot.
  std::vector<std::map<std::tuple<std::size_t, std::string, int>,
                       std::vector<analysis::Stream>>::iterator>
      group_iters;
  group_iters.reserve(grouped.size());
  for (auto it = grouped.begin(); it != grouped.end(); ++it) {
    group_iters.push_back(it);
  }
  obs::Histogram* const analysis_task_ms = task_histogram(metrics, "analysis");
  std::vector<std::optional<StreamerGameEntry>> analyzed;
  {
    const obs::ScopedSpan stage_span(trace, "stage.analysis", "stage");
    const obs::ScopedTimer stage_timer(stage_histogram(metrics, "analysis"));
    analyzed = util::parallel_map(
        pool_.get(), group_iters.size(), 1,
        [&](std::size_t i) -> std::optional<StreamerGameEntry> {
          const obs::ScopedSpan task_span(trace, "analysis.task", "task");
          const obs::ScopedTimer task_timer(analysis_task_ms);
          const auto& key = group_iters[i]->first;
          const auto& [streamer_index, game, epoch] = key;
          return analyze_streamer_group(world, located, pseudonymizer,
                                        streamer_index, game, epoch,
                                        std::move(group_iters[i]->second),
                                        config_.analysis);
        });
  }
  for (auto& entry : analyzed) {
    if (!entry.has_value()) continue;
    dataset.funnel.retained += entry->clean.points_retained;
    dataset.entries.push_back(std::move(*entry));
  }

  dataset.aggregates = aggregate_entries(dataset.entries, config_.analysis,
                                         config_.aggregate_granularity,
                                         config_.reject_location_outliers,
                                         pool_.get(), metrics, trace);
  for (const auto& aggregate : dataset.aggregates) {
    dataset.funnel.clustered += aggregate.distribution.size();
  }

  if (metrics != nullptr) {
    dataset.funnel.record(*metrics);
    // Pool counters accumulate for the pool's lifetime; export this run's
    // delta. A serial pipeline (no pool) still exports the zero-valued
    // counters so sinks always contain the full key set.
    obs::record_pool_stats(
        pool_ != nullptr ? pool_->stats() : util::ThreadPool::Stats{},
        *metrics, "tero.pool", &pool_stats_baseline_);
  }
  if (config_.on_dataset) {
    const obs::ScopedSpan publish_span(trace, "stage.publish", "stage");
    const obs::ScopedTimer publish_timer(stage_histogram(metrics, "publish"));
    config_.on_dataset(dataset);
  }
  return dataset;
}

std::vector<LocationGameAggregate> aggregate_entries(
    std::vector<StreamerGameEntry>& entries,
    const analysis::AnalysisConfig& config, geo::Granularity granularity,
    bool reject_location_outliers, util::ThreadPool* pool,
    obs::MetricsRegistry* metrics, obs::TraceRecorder* trace) {
  const obs::ScopedSpan stage_span(trace, "stage.aggregation", "stage");
  const obs::ScopedTimer stage_timer(stage_histogram(metrics, "aggregation"));

  // Group entry indices by {truncated location, game}.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      groups;
  std::map<std::pair<std::string, std::string>, geo::Location> keys;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!entries[i].high_quality) continue;  // MaxSpikes filter (§3.3.3)
    const geo::Location truncated =
        truncate_location(entries[i].location, granularity);
    const auto key = std::make_pair(truncated.to_string(), entries[i].game);
    groups[key].push_back(i);
    keys.emplace(key, truncated);
  }

  // Resolving these singletons *before* the parallel region keeps their
  // one-time construction out of the workers.
  const auto& catalog = geo::GameCatalog::builtin();
  const auto& gazetteer = geo::Gazetteer::world();

  // Hot stage (c): per-{location, game} aggregation, parallel over groups in
  // map order. The index groups partition `entries`, so each task mutates a
  // disjoint set of entries (endpoint changes, outlier flags) and writes its
  // aggregate into slot g — no cross-task state.
  std::vector<const std::pair<const std::pair<std::string, std::string>,
                              std::vector<std::size_t>>*>
      group_ptrs;
  group_ptrs.reserve(groups.size());
  for (const auto& group : groups) group_ptrs.push_back(&group);

  obs::Histogram* const aggregation_task_ms =
      task_histogram(metrics, "aggregation");
  return util::parallel_map(pool, group_ptrs.size(), 1, [&](std::size_t g) {
    const obs::ScopedSpan task_span(trace, "aggregation.task", "task");
    const obs::ScopedTimer task_timer(aggregation_task_ms);
    const auto& [key, indices] = *group_ptrs[g];
    LocationGameAggregate aggregate;
    aggregate.location = keys.at(key);
    aggregate.game = key.second;

    // Step 3: location-level clusters from static streamers.
    std::vector<std::vector<analysis::LatencyCluster>> static_clusters;
    for (std::size_t i : indices) {
      if (entries[i].is_static) static_clusters.push_back(entries[i].clusters);
    }
    aggregate.clusters = analysis::cluster_location(static_clusters, config);

    // Step 4: end-point changes for mobile streamers.
    for (std::size_t i : indices) {
      auto& entry = entries[i];
      if (entry.is_static) continue;
      entry.endpoint_changes = analysis::detect_endpoint_changes(
          entry.clean, aggregate.clusters, config);
      entry.possible_location_change = std::any_of(
          entry.endpoint_changes.begin(), entry.endpoint_changes.end(),
          [](const analysis::EndpointChange& change) {
            return !change.same_stream;
          });
    }

    // Optional §3.1.2 step: flag streamers whose latency is inconsistent
    // with the location's clusters (likely mislocated).
    if (reject_location_outliers) {
      for (std::size_t i : indices) {
        entries[i].location_outlier =
            !analysis::streamer_consistent_with_location(
                entries[i].clusters, aggregate.clusters, config);
      }
    }

    // Latency distribution (§3.3.3 final step).
    analysis::DistributionBuilder builder;
    for (std::size_t i : indices) {
      const auto& entry = entries[i];
      if (entry.location_outlier) continue;
      if (entry.is_static) {
        builder.add_static(entry.clean);
      } else if (!entry.possible_location_change) {
        builder.add_mobile(entry.clean, entry.clusters, config);
      }
    }
    aggregate.distribution = builder.values();
    aggregate.streamers = builder.streamers();
    if (!aggregate.distribution.empty()) {
      aggregate.box = stats::boxplot(aggregate.distribution);
    }

    // Shared anomalies over all high-quality streamers of the aggregate.
    std::vector<analysis::StreamerActivity> activities;
    for (std::size_t i : indices) {
      analysis::StreamerActivity activity;
      activity.streamer = entries[i].pseudonym;
      for (const auto& stream : entries[i].clean.retained) {
        for (const auto& point : stream.points) {
          activity.measurement_times.push_back(point.time_s);
        }
      }
      activity.spikes = entries[i].clean.spikes;
      activities.push_back(std::move(activity));
    }
    aggregate.shared = analysis::find_shared_anomalies(activities, config);

    // Corrected distance to the primary server (for distance
    // normalization and the figure annotations).
    const geo::Game* game_info = catalog.find(aggregate.game);
    if (game_info != nullptr && game_info->servers_known()) {
      const geo::GameServer* server =
          catalog.primary_server(*game_info, aggregate.location);
      if (server != nullptr) {
        aggregate.server_city = server->city;
        double total = 0.0;
        std::size_t counted = 0;
        for (std::size_t i : indices) {
          const geo::Place* place = gazetteer.resolve(entries[i].location);
          if (place == nullptr) continue;
          total += geo::corrected_distance_km(
              place->center, place->mean_radius_km, server->center);
          ++counted;
        }
        if (counted > 0) {
          aggregate.avg_corrected_distance_km =
              total / static_cast<double>(counted);
        }
      }
    }
    return aggregate;
  });
}

}  // namespace tero::core
