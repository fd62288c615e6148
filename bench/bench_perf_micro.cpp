// Google-benchmark microbenchmarks for the hot paths: thumbnail OCR,
// stream cleaning, clustering, the shared-anomaly test, PELT, Wasserstein,
// and Probit fitting. These back the throughput claims in DESIGN.md (the
// noise channel exists because full OCR costs ~ms per thumbnail).
//
// Besides the console report, the run writes BENCH_perf_micro.json
// (benchmark name -> {median_ms, threads, throughput}) so CI can diff
// performance across commits; see main() at the bottom.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/anomalies.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "analysis/clusters.hpp"
#include "anomaly/pelt.hpp"
#include "image/ops.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "ocr/engine.hpp"
#include "ocr/extractor.hpp"
#include "ocr/preprocess.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/probit.hpp"
#include "stats/wasserstein.hpp"
#include "synth/sessions.hpp"
#include "synth/thumbnail.hpp"
#include "synth/world.hpp"
#include "tero/pipeline.hpp"
#include "tsdb/encoding.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

using namespace tero;

namespace {

/// Cycle counter for the bytes/cycle stage counters; 0 where unavailable
/// (the counter is then omitted from the JSON).
inline std::uint64_t cycles_now() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return 0;
#endif
}

void BM_OcrExtract(benchmark::State& state) {
  const auto& spec = ocr::ui_spec_for("League of Legends");
  const synth::ThumbnailRenderer renderer;
  const ocr::LatencyExtractor extractor;
  util::Rng rng(1);
  const auto thumbnail =
      renderer.render_with(spec, 87, synth::Corruption::kNone, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(thumbnail.image, spec));
  }
}
BENCHMARK(BM_OcrExtract);

// ---------------------------------------------------------------------------
// Per-stage extraction microbenches (DESIGN.md §12). A stage whose kernels
// keep a vector path has a SIMD (/1) and a forced-scalar (/0) variant so
// the vectorization win is visible per kernel; a stage of plain loops
// registers /1 only, so no row times the same code twice. Each reports
// bytes/cycle (rdtsc) plus an events/s rate that main() forwards into
// BENCH_perf_micro.json for the CI perf gate.
// ---------------------------------------------------------------------------

// A 4x-upscaled latency crop is the shape every stage actually sees.
constexpr int kStageW = 360;
constexpr int kStageH = 80;

image::GrayImage stage_gray() {
  image::GrayImage img(kStageW, kStageH);
  std::mt19937 gen(17);
  std::uniform_int_distribution<int> dist(0, 255);
  for (int y = 0; y < img.height(); ++y) {
    std::uint8_t* row = img.row(y);
    for (int x = 0; x < img.width(); ++x) {
      row[x] = static_cast<std::uint8_t>(dist(gen));
    }
  }
  return img;
}

image::GrayImage stage_binary() {
  // Realistic ink density (~15%) so morphology/CC touch real structure.
  image::GrayImage img(kStageW, kStageH);
  std::mt19937 gen(19);
  std::bernoulli_distribution dist(0.15);
  for (int y = 0; y < img.height(); ++y) {
    std::uint8_t* row = img.row(y);
    for (int x = 0; x < img.width(); ++x) {
      row[x] = dist(gen) ? 255 : 0;
    }
  }
  return img;
}

/// Shared skeleton: toggles dispatch from the /0-/1 benchmark argument,
/// accumulates rdtsc around the body, and emits the stage counters.
template <typename Body>
void stage_loop(benchmark::State& state, double bytes_per_iter, Body&& body) {
  const bool saved = util::simd::enabled();
  util::simd::set_enabled(state.range(0) != 0);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = cycles_now();
    body();
    cycles += cycles_now() - t0;
  }
  util::simd::set_enabled(saved);
  const double iters = static_cast<double>(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(iters * bytes_per_iter));
  state.counters["events/s"] =
      benchmark::Counter(iters, benchmark::Counter::kIsRate);
  if (cycles > 0) {
    state.counters["bytes/cycle"] = benchmark::Counter(
        iters * bytes_per_iter / static_cast<double>(cycles));
  }
}

void BM_ImgBinarize(benchmark::State& state) {
  const image::GrayImage img = stage_gray();
  stage_loop(state, static_cast<double>(img.size()), [&] {
    benchmark::DoNotOptimize(image::binarize(img, 127));
  });
}
BENCHMARK(BM_ImgBinarize)->Arg(1);

void BM_ImgInvert(benchmark::State& state) {
  image::GrayImage img = stage_binary();
  stage_loop(state, static_cast<double>(img.size()), [&] {
    image::invert_inplace(img);
    benchmark::DoNotOptimize(img.data());
  });
}
BENCHMARK(BM_ImgInvert)->Arg(1);

void BM_ImgUpscale(benchmark::State& state) {
  // A 100x22 latency crop, upscaled 4x as preprocess does: the 400x88 shape
  // the blur then sees. Bytes counted are output pixels.
  const image::GrayImage crop = stage_gray().crop(image::Rect{0, 0, 100, 22});
  stage_loop(state, 16.0 * static_cast<double>(crop.size()), [&] {
    benchmark::DoNotOptimize(image::upscale_bilinear(crop, 4));
  });
}
BENCHMARK(BM_ImgUpscale)->Arg(1)->Arg(0);

void BM_ImgBlur(benchmark::State& state) {
  const image::GrayImage img = stage_gray();
  stage_loop(state, static_cast<double>(img.size()), [&] {
    benchmark::DoNotOptimize(image::gaussian_blur(img, 1.0));
  });
}
BENCHMARK(BM_ImgBlur)->Arg(1)->Arg(0);

void BM_ImgOtsu(benchmark::State& state) {
  const image::GrayImage img = stage_gray();
  stage_loop(state, static_cast<double>(img.size()), [&] {
    benchmark::DoNotOptimize(image::otsu_threshold(img));
  });
}
BENCHMARK(BM_ImgOtsu)->Arg(1);

void BM_ImgMorphClose(benchmark::State& state) {
  const image::GrayImage img = stage_binary();
  stage_loop(state, 2.0 * static_cast<double>(img.size()), [&] {
    benchmark::DoNotOptimize(image::erode3x3(image::dilate3x3(img)));
  });
}
BENCHMARK(BM_ImgMorphClose)->Arg(1)->Arg(0);

void BM_ImgForegroundRatio(benchmark::State& state) {
  const image::GrayImage img = stage_binary();
  stage_loop(state, static_cast<double>(img.size()), [&] {
    benchmark::DoNotOptimize(image::foreground_ratio(img));
  });
}
BENCHMARK(BM_ImgForegroundRatio)->Arg(1)->Arg(0);

void BM_ImgConnectedComponents(benchmark::State& state) {
  const image::GrayImage img = stage_binary();
  stage_loop(state, static_cast<double>(img.size()), [&] {
    benchmark::DoNotOptimize(image::connected_components(img, 2));
  });
}
BENCHMARK(BM_ImgConnectedComponents)->Arg(1)->Arg(0);

void BM_GlyphNormalize(benchmark::State& state) {
  const image::GrayImage img = stage_binary();
  const image::Rect bounds{4, 8, 24, 40};  // a plausible glyph box
  alignas(16) float grid[16 * 16];
  stage_loop(state,
             static_cast<double>(bounds.w) * static_cast<double>(bounds.h),
             [&] {
               image::normalize_glyph(img, bounds, 16, grid);
               benchmark::DoNotOptimize(grid);
             });
}
BENCHMARK(BM_GlyphNormalize)->Arg(1);

/// A real preprocessed League of Legends latency crop: the binary image
/// segmentation and the engines see.
image::GrayImage lol_binary() {
  const auto& spec = ocr::ui_spec_for("League of Legends");
  const synth::ThumbnailRenderer renderer;
  util::Rng rng(23);
  const auto thumbnail =
      renderer.render_with(spec, 87, synth::Corruption::kNone, rng);
  return ocr::preprocess(thumbnail.image.crop(spec.latency_region), {});
}

/// One thumbnail render with blur and noise on the latency region only
/// (what extraction reads) or on the whole frame. Compression is the
/// dearest mode: it blurs before the noise.
void BM_ThumbnailRender(benchmark::State& state, bool full_frame) {
  const auto& spec = ocr::ui_spec_for("League of Legends");
  synth::ThumbnailConfig config;
  config.full_frame = full_frame;
  const synth::ThumbnailRenderer renderer(config);
  util::Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        renderer.render_with(spec, 87, synth::Corruption::kCompression, rng));
  }
}
BENCHMARK_CAPTURE(BM_ThumbnailRender, region, false);
BENCHMARK_CAPTURE(BM_ThumbnailRender, full, true);

/// Glyph segmentation (connected components, merge, normalize) of one
/// preprocessed crop: the step the extractor runs once per pass for all
/// three engines.
void BM_OcrSegment(benchmark::State& state) {
  const auto binary = lol_binary();
  stage_loop(state, static_cast<double>(binary.size()), [&] {
    benchmark::DoNotOptimize(ocr::segment_glyphs(binary));
  });
}
BENCHMARK(BM_OcrSegment)->Arg(1)->Arg(0);

/// One engine's classify() over the glyphs of a realistic preprocessed
/// crop: the SoA match loop alone. The crop is segmented once, outside the
/// timed loop (BM_OcrSegment times that step). Bytes counted are the glyph
/// grids classified.
void ocr_match_bench(benchmark::State& state, std::size_t engine_index) {
  const auto glyphs = ocr::segment_glyphs(lol_binary());
  const auto engines = ocr::make_builtin_engines();
  const auto& engine = *engines.at(engine_index);
  stage_loop(state,
             static_cast<double>(glyphs.size() * sizeof(ocr::Glyph::grid)),
             [&] { benchmark::DoNotOptimize(engine.classify(glyphs)); });
}

void BM_OcrMatchTemplate(benchmark::State& state) {
  ocr_match_bench(state, 0);
}
BENCHMARK(BM_OcrMatchTemplate)->Arg(1);

void BM_OcrMatchZoning(benchmark::State& state) { ocr_match_bench(state, 1); }
BENCHMARK(BM_OcrMatchZoning)->Arg(1)->Arg(0);

void BM_OcrMatchProjection(benchmark::State& state) {
  ocr_match_bench(state, 2);
}
BENCHMARK(BM_OcrMatchProjection)->Arg(1)->Arg(0);

analysis::Stream make_noisy_stream(std::size_t n) {
  util::Rng rng(2);
  analysis::Stream stream;
  stream.streamer = "u";
  stream.game = "g";
  for (std::size_t i = 0; i < n; ++i) {
    analysis::Measurement m;
    m.time_s = i * 300.0;
    m.latency_ms = 45 + static_cast<int>(rng.normal(0, 3));
    if (rng.bernoulli(0.02)) m.latency_ms += 80;  // spikes
    if (rng.bernoulli(0.02)) m.latency_ms = 5;    // glitches
    stream.points.push_back(m);
  }
  return stream;
}

void BM_CleanStream(benchmark::State& state) {
  const auto stream = make_noisy_stream(
      static_cast<std::size_t>(state.range(0)));
  const analysis::AnalysisConfig config;
  for (auto _ : state) {
    auto copy = stream;
    benchmark::DoNotOptimize(
        analysis::clean_stream(std::move(copy), config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CleanStream)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ClusterStreamer(benchmark::State& state) {
  const analysis::AnalysisConfig config;
  const auto clean =
      analysis::clean_stream(make_noisy_stream(2000), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::cluster_streamer(clean, config));
  }
}
BENCHMARK(BM_ClusterStreamer);

void BM_Pelt(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> series;
  double level = 50;
  for (int i = 0; i < state.range(0); ++i) {
    if (i % 200 == 0) level = rng.uniform(40, 100);
    series.push_back(level + rng.normal(0, 3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(anomaly::pelt_changepoints(series, 40.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Pelt)->Arg(1000)->Arg(5000);

void BM_Wasserstein(benchmark::State& state) {
  util::Rng rng(4);
  std::vector<double> a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(rng.normal(0, 1));
    b.push_back(rng.normal(0.5, 1.2));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::wasserstein1(a, b));
  }
}
BENCHMARK(BM_Wasserstein)->Arg(100)->Arg(1000);

// Pipeline scaling over the fork-join pool: one fixed synthetic world,
// full-OCR extraction (the expensive exact code path), threads = 1/2/4/8.
// Speedup should be near-linear until the core count; the thread count never
// changes the output (see Determinism tests), only the wall clock.
void BM_PipelineFullOcr(benchmark::State& state) {
  static const synth::World world = [] {
    synth::WorldConfig config;
    config.seed = 7;
    config.p_twitter = 1.0;
    config.p_twitter_backlink = 1.0;
    config.p_twitter_location = 1.0;
    config.games = {"League of Legends"};
    config.focus_locations = {geo::Location{"", "Illinois", "United States"},
                              geo::Location{"", "", "Poland"}};
    config.streamers_per_focus = 20;
    return synth::World(config);
  }();
  static const std::vector<synth::TrueStream> streams = [] {
    synth::BehaviorConfig behavior;
    behavior.days = 2;
    synth::SessionGenerator generator(world, behavior, 11);
    return generator.generate();
  }();

  core::TeroConfig config;
  config.use_full_ocr = true;
  config.threads = static_cast<std::size_t>(state.range(0));
  core::Pipeline pipeline(config);
  std::size_t thumbnails = 0;
  for (auto _ : state) {
    const auto dataset = pipeline.run(world, streams);
    thumbnails = dataset.funnel.thumbnails;
    benchmark::DoNotOptimize(dataset);
  }
  state.counters["thumbnails/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(thumbnails),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineFullOcr)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same scaling through the cheap noise channel: stages (b)/(c) dominate
// here, so this tracks the analysis-side parallelism rather than OCR.
void BM_PipelineNoise(benchmark::State& state) {
  static const synth::World world = [] {
    synth::WorldConfig config;
    config.seed = 7;
    config.p_twitter = 1.0;
    config.p_twitter_backlink = 1.0;
    config.p_twitter_location = 1.0;
    config.games = {"League of Legends"};
    config.focus_locations = {geo::Location{"", "Illinois", "United States"},
                              geo::Location{"", "", "Poland"}};
    config.streamers_per_focus = 150;
    return synth::World(config);
  }();
  static const std::vector<synth::TrueStream> streams = [] {
    synth::BehaviorConfig behavior;
    behavior.days = 7;
    synth::SessionGenerator generator(world, behavior, 11);
    return generator.generate();
  }();

  core::TeroConfig config;
  config.use_full_ocr = false;
  config.p_latency_visible = 1.0;
  config.threads = static_cast<std::size_t>(state.range(0));
  core::Pipeline pipeline(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(world, streams));
  }
}
BENCHMARK(BM_PipelineNoise)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The same pipeline with a live metrics registry + trace-less sinks: the
// difference against BM_PipelineNoise is the observability overhead when
// enabled. With sinks left null (BM_PipelineNoise) the instrumented hot
// paths cost one untaken branch per event, which should be within noise.
void BM_PipelineNoiseMetrics(benchmark::State& state) {
  static const synth::World world = [] {
    synth::WorldConfig config;
    config.seed = 7;
    config.p_twitter = 1.0;
    config.p_twitter_backlink = 1.0;
    config.p_twitter_location = 1.0;
    config.games = {"League of Legends"};
    config.focus_locations = {geo::Location{"", "Illinois", "United States"},
                              geo::Location{"", "", "Poland"}};
    config.streamers_per_focus = 150;
    return synth::World(config);
  }();
  static const std::vector<synth::TrueStream> streams = [] {
    synth::BehaviorConfig behavior;
    behavior.days = 7;
    synth::SessionGenerator generator(world, behavior, 11);
    return generator.generate();
  }();

  obs::MetricsRegistry registry;
  core::TeroConfig config;
  config.use_full_ocr = false;
  config.p_latency_visible = 1.0;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.metrics = &registry;
  core::Pipeline pipeline(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(world, streams));
  }
}
BENCHMARK(BM_PipelineNoiseMetrics)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Raw pool overhead: tiny tasks through parallel_for vs the inline path.
void BM_ParallelForOverhead(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(10'000);
  for (auto _ : state) {
    pool.parallel_for(0, out.size(), 64, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4)->UseRealTime();

// Fault-layer overhead (DESIGN.md §11). The contract mirrors the obs one:
// with no injector the call site holds a nullptr FaultPoint* and a crossing
// costs a single predictable branch (BM_FaultPointAbsent); with an injector
// whose plan does not mention the point, hit() still runs its bookkeeping
// (BM_FaultPointDisabled) — the delta between the two is the price of
// arming injection without any matching rules. BM_FaultPointActive adds a
// firing rule for scale. ci.sh chaos-smoke asserts the disabled case stays
// cheap in absolute terms (see the throughput gate there).
void fault_point_loop(benchmark::State& state, fault::FaultPoint* point) {
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      if (point != nullptr) {
        acc += static_cast<std::uint64_t>(point->hit().kind);
      }
      acc += static_cast<std::uint64_t>(i);  // the "real work" baseline
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

void BM_FaultPointAbsent(benchmark::State& state) {
  fault_point_loop(state, nullptr);
}
BENCHMARK(BM_FaultPointAbsent);

void BM_FaultPointDisabled(benchmark::State& state) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("some.other.point=error@1"));
  fault_point_loop(state, &injector.point("bench.point"));
}
BENCHMARK(BM_FaultPointDisabled);

void BM_FaultPointActive(benchmark::State& state) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("bench.point=error@0.01"));
  fault_point_loop(state, &injector.point("bench.point"));
}
BENCHMARK(BM_FaultPointActive);

// Tiered-storage read path (DESIGN.md §15), shaped like the serving
// history: one sample per hour, whole-millisecond latencies. The encode and
// decode benches work on one 16-day (384-sample) chunk, the span of a
// level-2 segment; BM_TsdbRange answers 1-7 day daily-window queries over a
// 30-day store. ci.sh perf-smoke holds all three to the floors in
// bench/perf_baseline.txt.
constexpr std::int64_t kBenchHourMs = 3'600'000;
constexpr std::int64_t kBenchDayMs = 24 * kBenchHourMs;

std::vector<tsdb::Sample> hourly_history(util::Rng& rng, int hours) {
  std::vector<tsdb::Sample> samples;
  samples.reserve(static_cast<std::size_t>(hours));
  for (int h = 0; h < hours; ++h) {
    samples.push_back({h * kBenchHourMs + kBenchHourMs / 2,
                       static_cast<double>(rng.uniform_int(20, 150))});
  }
  return samples;
}

void BM_ChunkEncode(benchmark::State& state) {
  util::Rng rng(23);
  const auto samples = hourly_history(rng, 16 * 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdb::encode_chunk(samples));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_ChunkEncode);

void BM_ChunkDecode(benchmark::State& state) {
  util::Rng rng(23);
  const auto samples = hourly_history(rng, 16 * 24);
  const std::string bytes = tsdb::encode_chunk(samples);
  for (auto _ : state) {
    tsdb::ChunkCursor cursor(bytes);
    tsdb::Sample sample;
    double sum = 0.0;
    while (cursor.next(sample)) sum += sample.value;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_ChunkDecode);

void BM_TsdbRange(benchmark::State& state) {
  constexpr int kKeys = 512;
  constexpr int kDays = 30;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  std::vector<std::string> keys;
  std::vector<std::vector<tsdb::Sample>> history;
  for (int k = 0; k < kKeys; ++k) {
    util::Rng rng = util::Rng::indexed(29, static_cast<std::uint64_t>(k));
    keys.push_back("game|C" + std::to_string(k) + "|region|city");
    history.push_back(hourly_history(rng, kDays * 24));
  }
  for (int day = 0; day < kDays; ++day) {
    for (int k = 0; k < kKeys; ++k) {
      for (int h = day * 24; h < (day + 1) * 24; ++h) {
        const tsdb::Sample& sample = history[k][static_cast<std::size_t>(h)];
        store.append(keys[k], sample.t_ms, sample.value);
      }
    }
    store.advance_to((day + 1) * kBenchDayMs);
  }
  std::vector<tsdb::RangeQuery> queries(256);
  util::Rng rng(31);
  for (tsdb::RangeQuery& query : queries) {
    static constexpr tsdb::RangeAgg kAggs[] = {
        tsdb::RangeAgg::kCount, tsdb::RangeAgg::kMean,
        tsdb::RangeAgg::kPercentile};
    static constexpr double kPercentiles[] = {50, 90, 99};
    query.key = keys[static_cast<std::size_t>(rng.uniform_int(0, kKeys - 1))];
    query.agg = kAggs[rng.uniform_int(0, 2)];
    query.pct = kPercentiles[rng.uniform_int(0, 2)];
    const auto span_days = rng.uniform_int(1, 7);
    query.t1_ms = rng.uniform_int(span_days, kDays) * kBenchDayMs;
    query.t0_ms = query.t1_ms - span_days * kBenchDayMs;
    query.window_ms = kBenchDayMs;
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.range(queries[next]));
    next = (next + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbRange);

// Serving read path (DESIGN.md §9): QueryService::query from one client
// over a fixed ring of 4096 generated queries, against a snapshot of 576
// entries (8 games x 72 locations, 40 samples each). /point runs the
// generator's point and top-k mix; /range turns every query into a 1-7 day
// range kind over a 30-day hourly store shaped like BM_TsdbRange's. The
// service and store are built once and shared by every run.
struct ServeBench {
  ServeBench();

  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  std::unique_ptr<serve::QueryService> service;
  std::vector<serve::Query> point;
  std::vector<serve::Query> range;
};

ServeBench::ServeBench() {
  static const char* const kGames[] = {"lol", "valorant", "fortnite",
                                       "dota2", "cs2", "apex", "overwatch",
                                       "pubg"};
  constexpr int kDays = 30;
  // Appending, not `"C" + std::to_string(n)`, which sets off GCC 12's
  // -Wrestrict false positive in char_traits.h.
  const auto named = [](const char* prefix, int n) {
    std::string name = prefix;
    name += std::to_string(n);
    return name;
  };
  util::Rng rng(37);
  std::vector<serve::SnapshotEntry> entries;
  for (const char* game : kGames) {
    for (int l = 0; l < 72; ++l) {
      serve::SnapshotEntry entry;
      entry.game = game;
      entry.location.country = named("C", l / 6);
      entry.location.region = l % 3 == 0 ? "" : named("R", l % 6);
      entry.location.city = l % 2 == 0 ? "" : named("City", l);
      for (int v = 0; v < 40; ++v) {
        entry.sorted_values.push_back(
            static_cast<double>(rng.uniform_int(20, 150)));
      }
      std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
      entry.samples = entry.sorted_values.size();
      entry.mean_ms = stats::mean(entry.sorted_values);
      entry.box = stats::boxplot(entry.sorted_values);
      entry.key = serve::entry_key(entry.location, entry.game);
      entries.push_back(std::move(entry));
    }
  }
  serve::ServeConfig config;
  config.tsdb = &store;
  service = std::make_unique<serve::QueryService>(config);
  for (int day = 0; day < kDays; ++day) {
    for (std::size_t e = 0; e < entries.size(); ++e) {
      util::Rng history = util::Rng::indexed(29, e * 64 + day);
      for (const tsdb::Sample& sample : hourly_history(history, 24)) {
        store.append(entries[e].key, day * kBenchDayMs + sample.t_ms,
                     sample.value);
      }
    }
    store.advance_to((day + 1) * kBenchDayMs);
  }
  service->publish(std::move(entries));
  serve::LoadGenConfig load;
  load.queries = 4096;
  load.seed = 41;
  point = serve::generate_queries(*service->snapshot(), load);
  range = point;
  util::Rng range_rng(43);
  for (serve::Query& query : range) {
    static constexpr serve::QueryKind kKinds[] = {
        serve::QueryKind::kRangeCount, serve::QueryKind::kRangeMean,
        serve::QueryKind::kRangePercentile};
    static constexpr double kPercentiles[] = {50, 90, 99};
    query.kind = kKinds[range_rng.uniform_int(0, 2)];
    query.param = kPercentiles[range_rng.uniform_int(0, 2)];
    const auto span_days = range_rng.uniform_int(1, 7);
    query.t1_ms = range_rng.uniform_int(span_days, kDays) * kBenchDayMs;
    query.t0_ms = query.t1_ms - span_days * kBenchDayMs;
    query.window_ms = kBenchDayMs;
  }
}

ServeBench& serve_bench() {
  static ServeBench bench;
  return bench;
}

void BM_ServeQuery(benchmark::State& state, bool range) {
  ServeBench& bench = serve_bench();
  const std::vector<serve::Query>& queries = range ? bench.range : bench.point;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.service->query(queries[next]));
    next = (next + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ServeQuery, point, false);
BENCHMARK_CAPTURE(BM_ServeQuery, range, true);

void BM_ProbitFit(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> x;
  std::vector<int> y;
  for (int i = 0; i < state.range(0); ++i) {
    const double xi = static_cast<double>(rng.uniform_int(0, 10));
    x.push_back(xi);
    y.push_back(rng.bernoulli(stats::normal_cdf(-1.5 + 0.1 * xi)) ? 1 : 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::probit_fit_single(x, y));
  }
}
BENCHMARK(BM_ProbitFit)->Arg(1000)->Arg(10000);

// Captures every per-repetition run while still printing the usual console
// report, so main() can reduce them to medians for BENCH_perf_micro.json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    double ms = 0.0;
    double throughput = 0.0;      ///< items/s if reported, else runs/s
    double events_per_s = 0.0;    ///< stage "events/s" counter, 0 if absent
    double bytes_per_cycle = 0.0; ///< stage rdtsc counter, 0 if absent
    int threads = 1;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.run_type == Run::RT_Aggregate) continue;
      Sample sample;
      if (run.iterations > 0) {
        sample.ms = run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e3;
      }
      // Rate counters (items_per_second, thumbnails/s) arrive finalized.
      // bytes_per_second (from SetBytesProcessed) sorts first alphabetically
      // but is NOT the stage throughput — prefer items_per_second, then any
      // other rate counter, and use bytes_per_second only as a last resort.
      double bytes_rate = 0.0;
      for (const auto& [name, counter] : run.counters) {
        if (name == "events/s") sample.events_per_s = counter.value;
        if (name == "bytes/cycle") sample.bytes_per_cycle = counter.value;
        if ((counter.flags & benchmark::Counter::kIsRate) == 0) continue;
        if (name == "items_per_second") {
          sample.throughput = counter.value;
        } else if (name == "bytes_per_second") {
          bytes_rate = counter.value;
        } else if (sample.throughput == 0.0) {
          sample.throughput = counter.value;
        }
      }
      if (sample.throughput == 0.0) sample.throughput = bytes_rate;
      if (sample.throughput == 0.0 && sample.ms > 0.0) {
        sample.throughput = 1e3 / sample.ms;
      }
      if (sample.events_per_s == 0.0 && sample.ms > 0.0) {
        sample.events_per_s = 1e3 / sample.ms;
      }
      const std::string name = run.benchmark_name();
      sample.threads = pool_threads(name);
      samples_[name].push_back(sample);
    }
  }

  /// name -> {median_ms, threads, throughput-at-median}.
  [[nodiscard]] std::map<std::string, Sample> medians() const {
    std::map<std::string, Sample> out;
    for (const auto& [name, samples] : samples_) {
      std::vector<Sample> sorted = samples;
      std::sort(sorted.begin(), sorted.end(),
                [](const Sample& a, const Sample& b) { return a.ms < b.ms; });
      out[name] = sorted[sorted.size() / 2];
    }
    return out;
  }

 private:
  /// The pool-scaling benchmarks encode the worker count as their first
  /// argument ("BM_PipelineNoise/4/real_time"); everything else is serial.
  static int pool_threads(const std::string& name) {
    if (name.rfind("BM_Pipeline", 0) != 0 &&
        name.rfind("BM_ParallelForOverhead", 0) != 0) {
      return 1;
    }
    const auto slash = name.find('/');
    if (slash == std::string::npos) return 1;
    const int threads = std::atoi(name.c_str() + slash + 1);
    return threads > 0 ? threads : 1;
  }

  std::map<std::string, std::vector<Sample>> samples_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::ofstream out("BENCH_perf_micro.json");
  out << "{\n";
  const auto medians = reporter.medians();
  std::size_t written = 0;
  for (const auto& [name, sample] : medians) {
    out << "  \"" << name << "\": {\"median_ms\": " << sample.ms
        << ", \"threads\": " << sample.threads
        << ", \"throughput\": " << sample.throughput
        << ", \"events_per_s\": " << sample.events_per_s
        << ", \"bytes_per_cycle\": " << sample.bytes_per_cycle << "}";
    out << (++written < medians.size() ? ",\n" : "\n");
  }
  out << "}\n";
  return 0;
}
