#include <gtest/gtest.h>

#include "analysis/anomalies.hpp"
#include "analysis/clusters.hpp"
#include "analysis/distributions.hpp"
#include "analysis/segmentation.hpp"
#include "analysis/shared.hpp"
#include "util/rng.hpp"

namespace tero::analysis {
namespace {

constexpr double kSpacing = 300.0;  // 5-minute thumbnails

Stream make_stream(const std::vector<int>& latencies, double t0 = 0.0) {
  Stream stream;
  stream.streamer = "u1";
  stream.game = "League of Legends";
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    Measurement m;
    m.time_s = t0 + static_cast<double>(i) * kSpacing;
    m.latency_ms = latencies[i];
    stream.points.push_back(m);
  }
  return stream;
}

AnalysisConfig config_with(double lat_gap = 15.0, double stable_min = 30.0) {
  AnalysisConfig config;
  config.lat_gap_ms = lat_gap;
  config.stable_len_minutes = stable_min;
  return config;
}

TEST(Segmentation, SplitsOnLatGap) {
  const Stream stream = make_stream({40, 42, 41, 80, 81, 82});
  const auto segments = segment_stream(stream, config_with());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].last, 2u);
  EXPECT_EQ(segments[1].first, 3u);
  EXPECT_EQ(segments[0].min_latency, 40);
  EXPECT_EQ(segments[1].max_latency, 82);
}

TEST(Segmentation, StableRequiresStableLenPoints) {
  // StableLen 30 min at 5-min spacing = 6 points.
  const Stream stream =
      make_stream({40, 41, 42, 40, 41, 42, 90, 91, 92});
  const auto segments = segment_stream(stream, config_with());
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_TRUE(segments[0].stable);   // 6 points
  EXPECT_FALSE(segments[1].stable);  // 3 points
}

TEST(Segmentation, EmptyStream) {
  EXPECT_TRUE(segment_stream(Stream{}, config_with()).empty());
}

TEST(Segmentation, RangesWithinGap) {
  EXPECT_TRUE(ranges_within_gap(40, 50, 55, 60, 15.0));
  EXPECT_FALSE(ranges_within_gap(40, 50, 65, 70, 15.0));
  EXPECT_TRUE(ranges_within_gap(40, 50, 45, 60, 1.0));  // overlap
}

// ---- Fig. 1 scenarios ---------------------------------------------------------

TEST(Anomalies, GlitchDetectedAndDiscardedWithoutAlternative) {
  // Stable 45s, a single 5 (digit drop), stable 45s (Fig. 1a).
  std::vector<int> latencies(6, 45);
  latencies.push_back(5);
  for (int i = 0; i < 6; ++i) latencies.push_back(45);
  const auto result = clean_stream(make_stream(latencies), config_with());
  EXPECT_EQ(result.glitch_segments, 1u);
  EXPECT_EQ(result.points_discarded, 1u);
  EXPECT_EQ(result.points_retained, 12u);
  EXPECT_TRUE(result.spikes.empty());
}

TEST(Anomalies, GlitchCorrectedFromAlternative) {
  std::vector<int> latencies(6, 45);
  latencies.push_back(5);
  for (int i = 0; i < 6; ++i) latencies.push_back(45);
  Stream stream = make_stream(latencies);
  stream.points[6].alternative_ms = 45;  // the dissenting engine was right
  const auto result = clean_stream(std::move(stream), config_with());
  EXPECT_EQ(result.points_corrected, 1u);
  EXPECT_EQ(result.points_retained, 13u);
  EXPECT_EQ(result.points_discarded, 0u);
}

TEST(Anomalies, SpikeDetectedAndRecorded) {
  // Stable 45s, two elevated points, stable 45s (Fig. 1b).
  std::vector<int> latencies(6, 45);
  latencies.push_back(110);
  latencies.push_back(112);
  for (int i = 0; i < 6; ++i) latencies.push_back(45);
  const auto result = clean_stream(make_stream(latencies), config_with());
  ASSERT_EQ(result.spikes.size(), 1u);
  EXPECT_EQ(result.spikes[0].peak_latency_ms, 112);
  EXPECT_EQ(result.spikes[0].baseline_ms, 45);
  EXPECT_NEAR(result.spikes[0].magnitude_ms(), 67.0, 1e-9);
  EXPECT_EQ(result.spike_points, 2u);
  // Spike points are excluded from the retained data.
  EXPECT_EQ(result.points_retained, 12u);
}

TEST(Anomalies, StaircaseSpikePropagation) {
  // A spike that rises in two unstable steps: the second iteration flags
  // the lower shoulder next to the already-flagged peak (Fig. 1b).
  std::vector<int> latencies(6, 40);
  latencies.push_back(70);   // shoulder: above left stable by 30
  latencies.push_back(120);  // peak
  latencies.push_back(121);
  for (int i = 0; i < 6; ++i) latencies.push_back(40);
  const auto result = clean_stream(make_stream(latencies), config_with());
  ASSERT_GE(result.spikes.size(), 1u);
  // All three elevated points end up inside merged spikes.
  EXPECT_EQ(result.spike_points, 3u);
}

TEST(Anomalies, AbsorbedSegmentKept) {
  // An unstable tail within LatGap of its stable neighbour is kept
  // (green square in Fig. 1d).
  std::vector<int> latencies(6, 45);
  latencies.push_back(50);
  latencies.push_back(52);
  const auto result = clean_stream(make_stream(latencies), config_with());
  EXPECT_EQ(result.points_retained, 8u);
  EXPECT_EQ(result.points_discarded, 0u);
}

TEST(Anomalies, FarUnstableSegmentDiscarded) {
  // Unstable and far from both stable neighbours (red cross in Fig. 1d):
  // below the stable level but not by a full LatGap on both sides.
  std::vector<int> latencies(6, 45);
  latencies.push_back(25);  // 20 below: glitch? needs max+gap <= min: 25+15 <= 45 yes ->
  // make it NOT a glitch: use 35 (within gap of 45) on one side test below.
  latencies.back() = 100;  // way above, single point -> spike actually.
  const auto result = clean_stream(make_stream(latencies), config_with());
  // A trailing point 55 above the stable segment is flagged as a spike.
  EXPECT_EQ(result.spikes.size(), 1u);
}

TEST(Anomalies, AllUnstableStreamerDiscardedEntirely) {
  const auto result =
      clean_stream(make_stream({40, 80, 120, 60, 20, 140}), config_with());
  EXPECT_TRUE(result.discarded_entirely);
  EXPECT_EQ(result.points_retained, 0u);
  EXPECT_EQ(result.points_discarded, 6u);
}

TEST(Anomalies, SpikeFractionComputed) {
  std::vector<int> latencies(12, 45);
  latencies.push_back(120);
  const auto result = clean_stream(make_stream(latencies), config_with());
  ASSERT_EQ(result.spikes.size(), 1u);
  EXPECT_NEAR(result.spike_fraction(), 1.0 / 13.0, 1e-9);
}

TEST(Anomalies, StitchingAcrossStreams) {
  // Two short streams; stitched they form one long stable run, so neither
  // is discarded even though each alone is below StableLen.
  std::vector<Stream> streams;
  streams.push_back(make_stream({45, 46, 47}, 0.0));
  streams.push_back(make_stream({45, 44, 46}, 3 * kSpacing));
  const auto result = clean_streamer_game(std::move(streams), config_with());
  EXPECT_FALSE(result.discarded_entirely);
  EXPECT_EQ(result.points_retained, 6u);
  ASSERT_EQ(result.retained.size(), 2u);
  EXPECT_EQ(result.retained[0].points.size(), 3u);
  EXPECT_EQ(result.retained[1].points.size(), 3u);
}

class LatGapSweep : public ::testing::TestWithParam<double> {};

TEST_P(LatGapSweep, SmallerGapSplitsMore) {
  const double gap = GetParam();
  const Stream stream =
      make_stream({40, 44, 48, 52, 56, 60, 64, 68, 72, 76});
  const auto segments = segment_stream(stream, config_with(gap));
  // Total points conserved.
  std::size_t total = 0;
  for (const auto& segment : segments) total += segment.size();
  EXPECT_EQ(total, stream.points.size());
  if (gap <= 8.0) {
    EXPECT_GE(segments.size(), 3u);
  } else if (gap >= 25.0) {
    EXPECT_LE(segments.size(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Gaps, LatGapSweep,
                         ::testing::Values(8.0, 15.0, 25.0));

// ---- Shared anomalies (App. F) -------------------------------------------------

StreamerActivity activity_with_spike(const std::string& name, double center,
                                     std::size_t measurements,
                                     int extra_isolated_spikes = 0) {
  StreamerActivity activity;
  activity.streamer = name;
  for (std::size_t i = 0; i < measurements; ++i) {
    activity.measurement_times.push_back(static_cast<double>(i) * kSpacing);
  }
  SpikeEvent spike;
  spike.start_s = center - 60;
  spike.end_s = center + 60;
  spike.peak_latency_ms = 120;
  spike.baseline_ms = 45;
  activity.spikes.push_back(spike);
  // Isolated background spikes far from the shared event (these raise p_e
  // enough to satisfy the Eq. 2 significance prerequisite).
  for (int i = 0; i < extra_isolated_spikes; ++i) {
    SpikeEvent extra = spike;
    extra.start_s = center + 40000.0 + i * 5000.0;
    extra.end_s = extra.start_s + 120.0;
    activity.spikes.push_back(extra);
  }
  return activity;
}

TEST(SharedAnomalies, ConcurrentSpikesFlagged) {
  std::vector<StreamerActivity> activities;
  // 8 streamers, 5 of them spiking around t=30000, lots of quiet data.
  for (int i = 0; i < 8; ++i) {
    if (i < 5) {
      activities.push_back(
          activity_with_spike("s" + std::to_string(i), 30000.0, 400,
                              /*extra_isolated_spikes=*/2));
    } else {
      StreamerActivity quiet;
      quiet.streamer = "q" + std::to_string(i);
      for (int j = 0; j < 400; ++j) {
        quiet.measurement_times.push_back(j * kSpacing);
      }
      activities.push_back(quiet);
    }
  }
  const auto result = find_shared_anomalies(activities, AnalysisConfig{});
  EXPECT_TRUE(result.sufficient_data);
  ASSERT_GE(result.anomalies.size(), 1u);
  EXPECT_GE(result.anomalies[0].streamers.size(), 5u);
  EXPECT_LE(result.anomalies[0].probability, 1e-4);
}

TEST(SharedAnomalies, LoneSpikeNotShared) {
  std::vector<StreamerActivity> activities;
  activities.push_back(activity_with_spike("s0", 30000.0, 400));
  for (int i = 1; i < 8; ++i) {
    StreamerActivity quiet;
    quiet.streamer = "q" + std::to_string(i);
    for (int j = 0; j < 400; ++j) {
      quiet.measurement_times.push_back(j * kSpacing);
    }
    activities.push_back(quiet);
  }
  const auto result = find_shared_anomalies(activities, AnalysisConfig{});
  EXPECT_TRUE(result.anomalies.empty());
}

TEST(SharedAnomalies, InsufficientDataGuard) {
  // Eq. 2: tiny aggregates must not report anomalies at all.
  std::vector<StreamerActivity> activities;
  activities.push_back(activity_with_spike("s0", 1000.0, 5));
  activities.push_back(activity_with_spike("s1", 1000.0, 5));
  const auto result = find_shared_anomalies(activities, AnalysisConfig{});
  EXPECT_FALSE(result.sufficient_data);
  EXPECT_TRUE(result.anomalies.empty());
}

// ---- Clustering (§3.3.3) -------------------------------------------------------

TEST(Clusters, MergeRespectsGap) {
  std::vector<ClusterInput> inputs = {
      {40, 50, 10}, {52, 60, 10}, {90, 95, 5}};
  const auto clusters = merge_clusters(inputs, 15.0);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].min_ms, 40);
  EXPECT_EQ(clusters[0].max_ms, 60);
  EXPECT_NEAR(clusters[0].weight, 0.8, 1e-9);
  EXPECT_NEAR(clusters[1].weight, 0.2, 1e-9);
}

TEST(Clusters, SortedByWeightDescending) {
  std::vector<ClusterInput> inputs = {{10, 12, 2}, {100, 105, 30}};
  const auto clusters = merge_clusters(inputs, 15.0);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_GT(clusters[0].weight, clusters[1].weight);
  EXPECT_EQ(clusters[0].min_ms, 100);
}

TEST(Clusters, StreamerStaticWhenOneClusterDominates) {
  std::vector<int> latencies(20, 45);
  const auto clean = clean_stream(make_stream(latencies), config_with());
  const auto clusters = cluster_streamer(clean, config_with());
  ASSERT_FALSE(clusters.empty());
  EXPECT_TRUE(is_static_streamer(clusters, config_with()));
}

TEST(Clusters, MobileStreamerTwoClusters) {
  // Half the time at 40 ms, half at 110 ms (server hopping).
  std::vector<int> latencies;
  for (int i = 0; i < 10; ++i) latencies.push_back(40);
  for (int i = 0; i < 10; ++i) latencies.push_back(110);
  const auto clean = clean_stream(make_stream(latencies), config_with());
  const auto clusters = cluster_streamer(clean, config_with());
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_FALSE(is_static_streamer(clusters, config_with()));
}

TEST(Clusters, LocationClustersWeighStreamers) {
  std::vector<std::vector<LatencyCluster>> per_streamer;
  for (int i = 0; i < 3; ++i) {
    per_streamer.push_back({LatencyCluster{40, 50, 1.0, 100}});
  }
  per_streamer.push_back({LatencyCluster{100, 110, 1.0, 100}});
  const auto location = cluster_location(per_streamer, config_with());
  ASSERT_EQ(location.size(), 2u);
  EXPECT_NEAR(location[0].weight, 0.75, 1e-9);
}

TEST(Clusters, EndpointChangesDetected) {
  // One stream at 40 ms, the next at 110 ms: a possible location change
  // (different streams).
  std::vector<Stream> streams;
  streams.push_back(make_stream(std::vector<int>(8, 40), 0.0));
  streams.push_back(make_stream(std::vector<int>(8, 110), 86400.0));
  const auto clean =
      clean_streamer_game(std::move(streams), config_with());
  const std::vector<LatencyCluster> location_clusters = {
      {35, 55, 0.6, 10}, {100, 120, 0.4, 10}};
  const auto changes =
      detect_endpoint_changes(clean, location_clusters, config_with());
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_FALSE(changes[0].same_stream);  // spans streams -> location change
}

TEST(Clusters, ServerChangeWithinStream) {
  std::vector<int> latencies;
  for (int i = 0; i < 8; ++i) latencies.push_back(40);
  for (int i = 0; i < 8; ++i) latencies.push_back(110);
  const auto clean = clean_stream(make_stream(latencies), config_with());
  const std::vector<LatencyCluster> location_clusters = {
      {35, 55, 0.6, 10}, {100, 120, 0.4, 10}};
  const auto changes =
      detect_endpoint_changes(clean, location_clusters, config_with());
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_TRUE(changes[0].same_stream);  // same stream -> server change
}

TEST(Distribution, StaticAndMobileContributions) {
  DistributionBuilder builder;
  const auto static_clean =
      clean_stream(make_stream(std::vector<int>(10, 45)), config_with());
  builder.add_static(static_clean);
  EXPECT_EQ(builder.values().size(), 10u);
  EXPECT_EQ(builder.streamers(), 1u);

  // Mobile streamer: only the heaviest cluster's values count.
  std::vector<int> latencies;
  for (int i = 0; i < 12; ++i) latencies.push_back(46);
  for (int i = 0; i < 6; ++i) latencies.push_back(110);
  const auto mobile_clean =
      clean_stream(make_stream(latencies), config_with());
  const auto clusters = cluster_streamer(mobile_clean, config_with());
  builder.add_mobile(mobile_clean, clusters, config_with());
  EXPECT_EQ(builder.streamers(), 2u);
  EXPECT_EQ(builder.values().size(), 22u);  // 10 + the 12 low-cluster points
  const auto box = builder.boxplot();
  EXPECT_LE(box.p95, 60.0);  // the 110s never made it in
}

}  // namespace
}  // namespace tero::analysis

// ---- Property tests: invariants over random inputs -----------------------------

namespace property {

using namespace tero::analysis;

class RandomStreamInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RandomStreamInvariants, AccountingAndPartitioning) {
  tero::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // A random latency series with level shifts, spikes, and glitches.
  Stream stream;
  stream.streamer = "p";
  stream.game = "g";
  int level = static_cast<int>(rng.uniform_int(20, 120));
  for (int i = 0; i < 200; ++i) {
    if (rng.bernoulli(0.02)) {
      level = static_cast<int>(rng.uniform_int(20, 160));
    }
    Measurement m;
    m.time_s = i * 300.0;
    m.latency_ms = level + static_cast<int>(rng.normal(0, 3));
    if (rng.bernoulli(0.03)) m.latency_ms += 60 + static_cast<int>(rng.uniform_int(0, 80));
    if (rng.bernoulli(0.02)) m.latency_ms = std::max(1, m.latency_ms - 100);
    m.latency_ms = std::max(1, m.latency_ms);
    if (rng.bernoulli(0.1)) m.alternative_ms = level;
    stream.points.push_back(m);
  }
  const AnalysisConfig config;

  // Segmentation partitions the stream exactly.
  const auto segments = segment_stream(stream, config);
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    if (s > 0) {
      EXPECT_EQ(segments[s].first, prev_end + 1);
    }
    EXPECT_LE(segments[s].first, segments[s].last);
    // All values inside the segment within LatGap of each other.
    EXPECT_LE(segments[s].max_latency - segments[s].min_latency,
              config.lat_gap_ms);
    covered += segments[s].size();
    prev_end = segments[s].last;
  }
  EXPECT_EQ(covered, stream.points.size());

  // Cleaning conserves points across its outcome classes.
  const auto clean = clean_stream(stream, config);
  EXPECT_EQ(clean.points_in, stream.points.size());
  EXPECT_EQ(clean.points_in,
            clean.points_retained + clean.points_discarded +
                clean.spike_points);
  // Retained points are a subset of the input timestamps.
  for (const auto& retained : clean.retained) {
    for (const auto& point : retained.points) {
      bool found = false;
      for (const auto& original : stream.points) {
        if (original.time_s == point.time_s) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
  // Spike events are time-ordered with positive magnitude.
  for (std::size_t i = 0; i < clean.spikes.size(); ++i) {
    EXPECT_LE(clean.spikes[i].start_s, clean.spikes[i].end_s);
    EXPECT_GT(clean.spikes[i].magnitude_ms(), 0.0);
    if (i > 0) {
      EXPECT_GT(clean.spikes[i].start_s, clean.spikes[i - 1].end_s);
    }
  }
  // Spike fraction is a valid proportion.
  EXPECT_GE(clean.spike_fraction(), 0.0);
  EXPECT_LE(clean.spike_fraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStreamInvariants,
                         ::testing::Range(1, 13));

class RandomClusterInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RandomClusterInvariants, WeightsSumToOneAndClustersSeparated) {
  tero::util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97);
  std::vector<ClusterInput> inputs;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
  for (std::size_t i = 0; i < n; ++i) {
    const int lo = static_cast<int>(rng.uniform_int(10, 200));
    inputs.push_back(ClusterInput{
        lo, lo + static_cast<int>(rng.uniform_int(0, 14)),
        static_cast<std::size_t>(rng.uniform_int(1, 50))});
  }
  const double gap = 15.0;
  const auto clusters = merge_clusters(inputs, gap);
  double weight_sum = 0.0;
  std::size_t point_sum = 0;
  for (const auto& cluster : clusters) {
    weight_sum += cluster.weight;
    point_sum += cluster.point_count;
    EXPECT_LE(cluster.min_ms, cluster.max_ms);
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
  std::size_t input_points = 0;
  for (const auto& input : inputs) input_points += input.points;
  EXPECT_EQ(point_sum, input_points);
  // Any two clusters are separated by at least the merge gap.
  for (std::size_t a = 0; a < clusters.size(); ++a) {
    for (std::size_t b = a + 1; b < clusters.size(); ++b) {
      const double separation = std::max(
          {0.0,
           static_cast<double>(clusters[a].min_ms - clusters[b].max_ms),
           static_cast<double>(clusters[b].min_ms - clusters[a].max_ms)});
      EXPECT_GE(separation, gap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomClusterInvariants,
                         ::testing::Range(1, 11));

}  // namespace property
