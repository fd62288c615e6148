#include <gtest/gtest.h>

#include "anomaly/detector.hpp"
#include "anomaly/iqr.hpp"
#include "anomaly/pelt.hpp"
#include "util/rng.hpp"

namespace tero::anomaly {
namespace {

/// A latency-like series: base level with noise and planted outliers.
std::vector<double> series_with_outliers(std::vector<std::size_t> outlier_at,
                                         double base = 45.0,
                                         double outlier = 140.0,
                                         std::size_t n = 200) {
  util::Rng rng(17);
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) series[i] = base + rng.normal(0.0, 2.0);
  for (std::size_t i : outlier_at) series[i] = outlier;
  return series;
}

TEST(Iqr, FlagsTailsOnly) {
  const auto series = series_with_outliers({50, 120});
  const auto flags = iqr_outliers(series, 1.5);
  EXPECT_TRUE(flags[50]);
  EXPECT_TRUE(flags[120]);
  int flagged = 0;
  for (bool flag : flags) {
    if (flag) ++flagged;
  }
  EXPECT_LE(flagged, 8);
}

TEST(Iqr, TinyInputNeverFlags) {
  const std::vector<double> tiny = {1.0, 100.0};
  for (bool flag : iqr_outliers(tiny)) EXPECT_FALSE(flag);
}

/// One detector under test. Cases print and are named as detector->name(),
/// so test ids are the same in every build (gtest would otherwise print the
/// factory's bytes, pointers included).
struct DetectorCase {
  std::function<std::unique_ptr<AnomalyDetector>()> make;
  friend void PrintTo(const DetectorCase& c, std::ostream* os) {
    *os << c.make()->name();
  }
};

class DetectorTest : public ::testing::TestWithParam<DetectorCase> {};

TEST_P(DetectorTest, FindsPlantedOutliers) {
  const auto detector = GetParam().make();
  const auto series = series_with_outliers({30, 31, 150});
  const auto flags = detector->detect(series);
  ASSERT_EQ(flags.size(), series.size());
  EXPECT_TRUE(flags[30]) << detector->name();
  EXPECT_TRUE(flags[150]) << detector->name();
}

TEST_P(DetectorTest, QuietOnCleanSeries) {
  const auto detector = GetParam().make();
  const auto series = series_with_outliers({});
  const auto flags = detector->detect(series);
  int flagged = 0;
  for (bool flag : flags) {
    if (flag) ++flagged;
  }
  // A handful of borderline flags is tolerable; mass false positives not.
  EXPECT_LE(flagged, static_cast<int>(series.size() / 10)) << detector->name();
}

TEST_P(DetectorTest, HandlesDegenerateInputs) {
  const auto detector = GetParam().make();
  EXPECT_TRUE(detector->detect(std::vector<double>{}).empty());
  const std::vector<double> constant(20, 42.0);
  const auto flags = detector->detect(constant);
  for (bool flag : flags) EXPECT_FALSE(flag) << detector->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorTest,
    ::testing::Values(DetectorCase{[] { return make_lof(); }},
                      DetectorCase{[] { return make_iforest(); }},
                      DetectorCase{[] { return make_mcd(); }}),
    [](const ::testing::TestParamInfo<DetectorCase>& info) {
      return info.param.make()->name();
    });

TEST(Lof, KControlsSensitivity) {
  // A tight pair of outliers: with K=1 each outlier has a near neighbour
  // (the other outlier) and is considered normal; larger K catches them.
  auto series = series_with_outliers({});
  series[10] = 140.0;
  series[11] = 141.0;
  const auto lenient = make_lof(1)->detect(series);
  const auto strict = make_lof(8)->detect(series);
  EXPECT_FALSE(lenient[10]);
  EXPECT_TRUE(strict[10]);
}

TEST(Mcd, RobustToHalfContaminationLess) {
  // 30% contamination at a high level: the classic mean/σ would shift, the
  // MCD estimate stays at the clean mode.
  util::Rng rng(5);
  std::vector<double> series;
  for (int i = 0; i < 140; ++i) series.push_back(40.0 + rng.normal(0, 1.5));
  for (int i = 0; i < 60; ++i) series.push_back(200.0 + rng.normal(0, 1.5));
  const auto flags = make_mcd(0.05)->detect(series);
  int high_flagged = 0;
  for (int i = 140; i < 200; ++i) {
    if (flags[i]) ++high_flagged;
  }
  EXPECT_EQ(high_flagged, 60);
  int low_flagged = 0;
  for (int i = 0; i < 140; ++i) {
    if (flags[i]) ++low_flagged;
  }
  EXPECT_LT(low_flagged, 10);
}

TEST(Pelt, FindsSingleChangepoint) {
  util::Rng rng(3);
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(40.0 + rng.normal(0, 2));
  for (int i = 0; i < 100; ++i) series.push_back(80.0 + rng.normal(0, 2));
  const auto changepoints = pelt_changepoints(series, 20.0);
  ASSERT_FALSE(changepoints.empty());
  bool near_100 = false;
  for (std::size_t cp : changepoints) {
    if (cp >= 95 && cp <= 105) near_100 = true;
  }
  EXPECT_TRUE(near_100);
}

TEST(Pelt, NoChangepointOnStationarySeries) {
  util::Rng rng(4);
  std::vector<double> series;
  for (int i = 0; i < 200; ++i) series.push_back(40.0 + rng.normal(0, 2));
  EXPECT_LE(pelt_changepoints(series, 50.0).size(), 1u);
}

TEST(Pelt, FindsMultipleLevels) {
  util::Rng rng(6);
  std::vector<double> series;
  for (int level : {40, 90, 40}) {
    for (int i = 0; i < 80; ++i) {
      series.push_back(level + rng.normal(0, 2));
    }
  }
  const auto changepoints = pelt_changepoints(series, 20.0);
  EXPECT_GE(changepoints.size(), 2u);
}

TEST(Pelt, ShortSeriesSafe) {
  EXPECT_TRUE(pelt_changepoints(std::vector<double>{1, 2}).empty());
}

}  // namespace
}  // namespace tero::anomaly
