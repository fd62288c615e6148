#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/anomalies.hpp"
#include "analysis/clusters.hpp"
#include "analysis/distributions.hpp"
#include "analysis/shared.hpp"
#include "analysis/types.hpp"
#include "fault/policy.hpp"
#include "geo/servers.hpp"
#include "social/locator.hpp"
#include "stats/descriptive.hpp"
#include "store/consistent_hash.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/channel.hpp"
#include "tero/funnel.hpp"
#include "util/thread_pool.hpp"

namespace tero::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace tero::obs

namespace tero::fault {
class FaultInjector;
class FaultPoint;
}  // namespace tero::fault

namespace tero::core {

struct Dataset;

/// Top-level configuration: Table 1 parameters plus pipeline choices.
struct TeroConfig {
  analysis::AnalysisConfig analysis;
  /// Fraction of thumbnails whose latency is visible on screen at all.
  double p_latency_visible = 0.35;
  /// true: rasterize thumbnails and run full OCR (slow, exact code path);
  /// false: calibrated noise channel (fast, same error behaviour).
  bool use_full_ocr = false;
  synth::ThumbnailConfig thumbnails;
  NoiseChannelConfig noise;
  /// Granularity at which {location, game} aggregates are keyed.
  geo::Granularity aggregate_granularity = geo::Granularity::kRegion;
  /// §3.1.2's proposed-but-not-taken error-reduction step: drop streamers
  /// whose latency falls outside their location's clusters. Off by
  /// default, like the paper; bench_ablations measures the effect.
  bool reject_location_outliers = false;
  std::uint64_t seed = 1234;
  /// Worker threads for the parallel pipeline stages (extraction,
  /// per-streamer analysis, per-{location, game} aggregation).
  /// 0 = hardware_concurrency, 1 = fully serial. The output is bit-identical
  /// for every value: all randomness is derived from (seed, task index) and
  /// results land in slots indexed by task id (see DESIGN.md, "Concurrency
  /// model").
  std::size_t threads = 0;
  /// Optional observability sinks (not owned; may be null — the default).
  /// Observational only: the pipeline writes stage timings, per-task latency
  /// histograms, funnel counters, and trace spans, but never reads them, so
  /// output stays bit-identical with or without sinks (DESIGN.md §8).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Optional fault injection (not owned; may be null — the default).
  /// Arms the "extract.stream" point, keyed by streamer index, which
  /// simulates repeatedly-faulting extraction: a streamer whose faults
  /// outlast `extraction_retry.max_attempts` is quarantined — thumbnails
  /// counted, nothing extracted, tero.funnel.quarantined bumped — instead
  /// of aborting the run. Keyed decisions are pure functions of (plan seed,
  /// point, streamer index), so output stays bit-identical for any thread
  /// count, and transient faults (fewer failing attempts than the retry
  /// budget) leave the dataset bit-identical to a fault-free run.
  fault::FaultInjector* injector = nullptr;
  fault::RetryPolicy extraction_retry;
  /// Publish hook, called with the finished dataset at the very end of
  /// run() (after funnel/pool accounting, before run() returns). The
  /// serving layer attaches serve::publish_hook() here so every pipeline
  /// run atomically publishes a fresh snapshot epoch (DESIGN.md §9). The
  /// callback must not mutate the dataset; like the sinks it is
  /// observational and never changes pipeline output.
  std::function<void(const Dataset&)> on_dataset;
};

/// Everything Tero derived for one {streamer, game} pair.
struct StreamerGameEntry {
  std::string pseudonym;
  std::string game;
  geo::Location location;           ///< where Tero believes they are
  geo::Location true_location;      ///< ground truth (evaluation only)
  social::LocationSource location_source = social::LocationSource::kNone;
  analysis::CleanResult clean;
  std::vector<analysis::LatencyCluster> clusters;
  bool is_static = false;
  bool high_quality = false;
  /// Set by aggregation when §3.1.2 rejection is enabled and this
  /// streamer's latency is inconsistent with the location's clusters.
  bool location_outlier = false;
  /// End-point changes against the location clusters (filled during
  /// aggregation).
  std::vector<analysis::EndpointChange> endpoint_changes;
  bool possible_location_change = false;
};

/// The {location, game} product the paper's figures are drawn from.
struct LocationGameAggregate {
  geo::Location location;  ///< truncated to the aggregate granularity
  std::string game;
  std::size_t streamers = 0;
  std::vector<analysis::LatencyCluster> clusters;
  std::vector<double> distribution;
  std::optional<stats::Boxplot> box;
  double avg_corrected_distance_km = -1.0;
  std::string server_city;
  analysis::SharedAnomalyResult shared;
};

struct Dataset {
  std::vector<StreamerGameEntry> entries;
  std::vector<LocationGameAggregate> aggregates;

  /// Volume counters (§5.1-style accounting): thumbnails -> visible ->
  /// ocr_ok -> retained -> clustered, plus streamer totals.
  Funnel funnel;

  [[nodiscard]] const LocationGameAggregate* find_aggregate(
      const geo::Location& location, std::string_view game) const;
};

/// The end-to-end system: location module -> image processing ->
/// data analysis, over a synthetic world and its ground-truth streams.
class Pipeline {
 public:
  explicit Pipeline(TeroConfig config);

  [[nodiscard]] Dataset run(const synth::World& world,
                            std::span<const synth::TrueStream> streams);

  [[nodiscard]] const TeroConfig& config() const noexcept { return config_; }

 private:
  TeroConfig config_;
  std::unique_ptr<ExtractionChannel> channel_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads resolve to 1
  /// Snapshot at the end of the previous run(), so repeated runs export
  /// per-run deltas of the pool's cumulative counters.
  util::ThreadPool::Stats pool_stats_baseline_;
};

/// Output of the location module (§3.1) over a whole world: Tero's belief
/// about each streamer's location, the social source it came from, and the
/// re-geoparsed post-relocation location (§3.1.1). Shared by the batch
/// pipeline and the streaming ingestion path so both resolve locations
/// identically.
struct LocatedWorld {
  std::vector<std::optional<geo::Location>> located;
  std::vector<social::LocationSource> sources;
  std::vector<std::optional<geo::Location>> located_after;
  std::size_t streamers_located = 0;
};

/// Run the location module over every streamer in the world.
[[nodiscard]] LocatedWorld locate_streamers(const synth::World& world);

/// Location epoch of a ground-truth stream: 0 before the streamer's
/// relocation takes effect, 1 after (only when the relocation was observed
/// through the re-geoparsed profile).
[[nodiscard]] int stream_epoch(const synth::World& world,
                               const LocatedWorld& located,
                               const synth::TrueStream& stream);

/// The pseudonymizer every pipeline path must use, derived from the config
/// seed so batch and streaming runs of the same scenario agree on names.
[[nodiscard]] store::Pseudonymizer make_pseudonymizer(
    std::uint64_t config_seed);

/// Seed for ground-truth stream `stream_index`'s extraction randomness.
/// Thumbnail `p` of that stream draws from
/// Rng::indexed(extraction_stream_seed(seed, stream_index), p) — a pure
/// function of (config seed, stream index, point index), so batch and
/// streaming extraction produce bit-identical measurements regardless of
/// scheduling, thread count, or arrival order.
[[nodiscard]] std::uint64_t extraction_stream_seed(std::uint64_t config_seed,
                                                   std::uint64_t stream_index);

/// One thumbnail through the image-processing module: visibility draw
/// followed by channel extraction (§3.2). `visible` is false when the
/// latency overlay was not on screen; `measurement` is empty when it was
/// visible but extraction failed.
struct ThumbnailExtraction {
  bool visible = false;
  std::optional<analysis::Measurement> measurement;
};

/// Extract one thumbnail deterministically under the per-stream seed
/// (see extraction_stream_seed).
[[nodiscard]] ThumbnailExtraction extract_thumbnail(
    const ExtractionChannel& channel, const ocr::GameUiSpec& spec,
    const synth::TruePoint& point, double p_latency_visible,
    std::uint64_t stream_seed, std::uint64_t point_index);

/// Order-sensitive fingerprint of everything Pipeline::run produced:
/// funnel counters, every entry (pseudonym, locations, clean results,
/// retained measurements, spikes, clusters, flags) and every aggregate
/// (location, game, distribution, boxplot, anomaly stats). Doubles are
/// hashed by bit pattern, so two datasets share a digest iff they are
/// bit-identical on this surface — the equality check behind the chaos
/// harness's "transient faults leave the dataset untouched" criterion.
[[nodiscard]] std::uint64_t dataset_digest(const Dataset& dataset);

/// True when the "extract.stream" fault point (null = off) faults streamer
/// `streamer_index` beyond the retry budget — i.e. the fault still fires on
/// the final attempt, so the streamer is quarantined. Pure in (plan seed,
/// point, streamer index, policy); shared by the batch and streaming
/// extraction stages so both quarantine exactly the same streamers.
[[nodiscard]] bool extraction_quarantined(const fault::FaultPoint* point,
                                          std::uint64_t streamer_index,
                                          const fault::RetryPolicy& retry);

/// How many located streamers the plan quarantines across `streams` —
/// counted identically by the batch pipeline and the streaming sink so
/// tero.funnel.quarantined can never diverge between the two paths.
[[nodiscard]] std::size_t count_quarantined_streamers(
    const LocatedWorld& located, std::span<const synth::TrueStream> streams,
    const fault::FaultPoint* point, const fault::RetryPolicy& retry);

/// The per-{streamer, game, location-epoch} analysis stage (§3.3): clean ->
/// cluster -> static/quality classification. Returns nullopt when the
/// cleaner discards the group entirely. Pure given its inputs; shared by the
/// batch pipeline and the streaming cleaning stage.
[[nodiscard]] std::optional<StreamerGameEntry> analyze_streamer_group(
    const synth::World& world, const LocatedWorld& located,
    const store::Pseudonymizer& pseudonymizer, std::size_t streamer_index,
    std::string game, int epoch, std::vector<analysis::Stream> streams,
    const analysis::AnalysisConfig& config);

/// Re-aggregate entries at a different granularity (e.g. country for
/// Fig. 9/11, region for Fig. 10) without re-running extraction. A non-null
/// pool parallelizes the per-{location, game} group computation; the result
/// is identical either way. Optional observability sinks record per-task
/// latency and spans (observational only, like TeroConfig::metrics).
[[nodiscard]] std::vector<LocationGameAggregate> aggregate_entries(
    std::vector<StreamerGameEntry>& entries,
    const analysis::AnalysisConfig& config, geo::Granularity granularity,
    bool reject_location_outliers = false,
    util::ThreadPool* pool = nullptr,
    obs::MetricsRegistry* metrics = nullptr,
    obs::TraceRecorder* trace = nullptr);

/// Truncate a location tuple to a granularity.
[[nodiscard]] geo::Location truncate_location(const geo::Location& location,
                                              geo::Granularity granularity);

}  // namespace tero::core
