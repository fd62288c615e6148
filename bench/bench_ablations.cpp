// Ablations of the design choices DESIGN.md calls out:
//
//  A) §3.1.2 cluster-outlier rejection (proposed in the paper, not taken):
//     how many mislocated streamers does it remove from the distributions,
//     at what cost in correctly-located streamers?
//  B) 2-of-3 OCR voting vs the best single engine: error rate of what
//     enters the data set.
//  C) The cleanup-discard step (Fig. 1d): how many image-processing errors
//     leak into the retained data when unexplained unstable segments are
//     kept instead of discarded?
//  D) The game-UI crop (§3.2 step 1): extraction with the right spec vs a
//     generic full-frame guess (the game-mislabeling failure mode).

#include <iostream>

#include "analysis/anomalies.hpp"
#include "bench/common.hpp"
#include "ocr/extractor.hpp"
#include "synth/sessions.hpp"
#include "synth/thumbnail.hpp"
#include "tero/channel.hpp"
#include "util/table.hpp"

using namespace tero;

namespace {

void ablation_outlier_rejection() {
  bench::header("Ablation A: cluster-outlier rejection (Sec. 3.1.2)");
  // Controlled mislocation: a well-populated Bolivia aggregate (~120 ms)
  // receives streamers who actually play from Illinois (~18 ms) — the
  // streamers-advertising-false-locations case the paper cannot measure.
  const synth::World world(bench::focus_world(
      {geo::Location{"", "", "Bolivia"},
       geo::Location{"", "Illinois", "United States"}},
      50));
  synth::BehaviorConfig behavior;
  behavior.days = 8;
  synth::SessionGenerator generator(world, behavior, 91);
  const auto streams = generator.generate();
  auto config = bench::fast_pipeline(92);
  core::Pipeline pipeline(config);
  auto dataset = pipeline.run(world, streams);

  // Mislocate a slice of Illinois streamers into Bolivia.
  const geo::Location bolivia{"", "", "Bolivia"};
  int planted = 0;
  for (auto& entry : dataset.entries) {
    if (planted >= 8) break;
    if (entry.true_location.region == "Illinois" &&
        entry.location.compatible_with(entry.true_location)) {
      entry.location = bolivia;
      ++planted;
    }
  }

  util::Table table({"rejection", "Bolivia contributors",
                     "planted liars included", "median [ms]"});
  for (bool reject : {false, true}) {
    auto entries = dataset.entries;  // aggregation mutates flags
    const auto aggregates = core::aggregate_entries(
        entries, config.analysis, geo::Granularity::kCountry, reject);
    for (const auto& aggregate : aggregates) {
      if (aggregate.location != bolivia) continue;
      std::size_t liars = 0;
      for (const auto& entry : entries) {
        if (entry.location == bolivia && !entry.location_outlier &&
            entry.high_quality &&
            entry.true_location.region == "Illinois") {
          ++liars;
        }
      }
      table.add_row(
          {reject ? "on" : "off (paper default)",
           std::to_string(aggregate.streamers), std::to_string(liars),
           aggregate.box ? util::fmt_double(aggregate.box->p50, 0) : "-"});
    }
  }
  table.print(std::cout);
  bench::note(
      "With rejection on, the planted Illinois streamers' ~18 ms clusters "
      "fall outside Bolivia's ~120 ms clusters and are dropped, restoring "
      "the distribution. Scattered liars in thin aggregates remain "
      "undetectable — the location's own clusters must exist first, which "
      "is why the paper leaves this step to data-set users.");
}

void ablation_voting() {
  bench::header("Ablation B: 2-of-3 voting vs best single OCR engine");
  const auto& spec = ocr::ui_spec_for("League of Legends");
  const synth::ThumbnailRenderer renderer;
  const ocr::LatencyExtractor extractor;
  util::Rng rng(93);
  constexpr int kThumbs = 1200;
  struct Count {
    int extracted = 0;
    int wrong = 0;
  };
  std::vector<Count> engines(3);
  Count voted;
  for (int i = 0; i < kThumbs; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(8, 299));
    const auto thumb = renderer.render_with(
        spec, truth, synth::roll_corruption(renderer.config(), rng), rng);
    for (std::size_t e = 0; e < 3; ++e) {
      if (const auto v = extractor.extract_with_engine(thumb.image, spec, e)) {
        ++engines[e].extracted;
        if (*v != truth) ++engines[e].wrong;
      }
    }
    if (const auto v = extractor.extract(thumb.image, spec).primary) {
      ++voted.extracted;
      if (*v != truth) ++voted.wrong;
    }
  }
  util::Table table({"extractor", "measurements", "error rate"});
  for (std::size_t e = 0; e < 3; ++e) {
    table.add_row({extractor.engines()[e]->name(),
                   std::to_string(engines[e].extracted),
                   util::fmt_percent(static_cast<double>(engines[e].wrong) /
                                     std::max(1, engines[e].extracted))});
  }
  table.add_row({"2-of-3 vote", std::to_string(voted.extracted),
                 util::fmt_percent(static_cast<double>(voted.wrong) /
                                   std::max(1, voted.extracted))});
  table.print(std::cout);
  bench::note("Voting trades measurements for a much cleaner data set — "
              "the paper's core image-processing design decision.");
}

void ablation_cleanup_discard() {
  bench::header("Ablation C: the cleanup-discard step (Fig. 1d)");
  const synth::World world(bench::focus_world(
      {geo::Location{"", "", "Bolivia"},
       geo::Location{"", "Hawaii", "United States"}},
      50));
  synth::BehaviorConfig behavior;
  behavior.days = 8;
  synth::SessionGenerator generator(world, behavior, 94);
  const auto streams = generator.generate();
  auto channel = core::make_noise_channel();

  util::Table table({"cleanup discard", "wrong values retained",
                     "points retained"});
  for (bool disabled : {false, true}) {
    analysis::AnalysisConfig config;
    config.disable_cleanup_discard = disabled;
    util::Rng rng(95);
    std::size_t retained_wrong = 0;
    std::size_t retained_total = 0;
    for (const auto& true_stream : streams) {
      analysis::Stream stream;
      stream.streamer = "s";
      stream.game = true_stream.game;
      std::vector<int> truths;
      for (const auto& point : true_stream.points) {
        if (auto m = channel->extract(
                point, ocr::ui_spec_for(stream.game), rng)) {
          stream.points.push_back(*m);
          truths.push_back(point.latency_ms);
        }
      }
      std::vector<std::pair<double, int>> wrong;
      for (std::size_t i = 0; i < stream.points.size(); ++i) {
        if (stream.points[i].latency_ms != truths[i]) {
          wrong.emplace_back(stream.points[i].time_s, truths[i]);
        }
      }
      const auto clean = analysis::clean_stream(std::move(stream), config);
      retained_total += clean.points_retained;
      for (const auto& [t, truth] : wrong) {
        for (const auto& retained : clean.retained) {
          for (const auto& point : retained.points) {
            if (point.time_s == t && point.latency_ms != truth &&
                std::abs(point.latency_ms - truth) > config.lat_gap_ms) {
              ++retained_wrong;
            }
          }
        }
      }
    }
    table.add_row({disabled ? "disabled" : "enabled (paper)",
                   std::to_string(retained_wrong),
                   std::to_string(retained_total)});
  }
  table.print(std::cout);
  bench::note(
      "Without the discard, glitch-shortened segments survive into the "
      "retained data and carry significantly-wrong values with them — the "
      "paper's justification for the \"seemingly unnecessary\" last step.");
}

void ablation_ui_crop() {
  bench::header("Ablation D: per-game UI crop vs generic crop");
  // The generic crop reads outside the rendered game's latency region, so
  // finish the whole frame.
  synth::ThumbnailConfig thumbnails;
  thumbnails.full_frame = true;
  const synth::ThumbnailRenderer renderer(thumbnails);
  const ocr::LatencyExtractor extractor;
  util::Rng rng(96);
  const auto& cod = ocr::ui_spec_for("Call of Duty Warzone");  // top-left
  const auto& generic = ocr::ui_spec_for("unknown");           // top-right
  int with_spec = 0;
  int with_generic = 0;
  constexpr int kThumbs = 300;
  for (int i = 0; i < kThumbs; ++i) {
    const int truth = static_cast<int>(rng.uniform_int(8, 299));
    const auto thumb =
        renderer.render_with(cod, truth, synth::Corruption::kNone, rng);
    if (extractor.extract(thumb.image, cod).primary == truth) ++with_spec;
    if (extractor.extract(thumb.image, generic).primary == truth) {
      ++with_generic;
    }
  }
  util::Table table({"crop", "correct extractions"});
  table.add_row({"game's own UI spec",
                 util::fmt_percent(static_cast<double>(with_spec) / kThumbs)});
  table.add_row({"generic top-right guess",
                 util::fmt_percent(static_cast<double>(with_generic) /
                                   kThumbs)});
  table.print(std::cout);
  bench::note(
      "Cropping the wrong region reads the wrong pixels — the "
      "game-mislabeling failure mode (§3.3.3) and the reason Tero encodes "
      "per-game UI knowledge (§3.2).");
}

}  // namespace

int main() {
  ablation_outlier_rejection();
  ablation_voting();
  ablation_cleanup_discard();
  ablation_ui_crop();
  return 0;
}
