// Traced runs: every layer of the thumbnail-to-answer path, replayed on the
// workload's own seeded world with a span around each public call. The
// workload's own layers get the larger share of the budget; the rest run
// on a small slice so every traced run reports the full layer set.

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "analysis/anomalies.hpp"
#include "bench.hpp"
#include "image/arena.hpp"
#include "image/ops.hpp"
#include "obs/metrics.hpp"
#include "ocr/extractor.hpp"
#include "ocr/game_ui.hpp"
#include "ocr/preprocess.hpp"
#include "serve/snapshot_io.hpp"
#include "social/locator.hpp"
#include "stream/pipeline.hpp"
#include "stream/window.hpp"
#include "synth/thumbnail.hpp"
#include "tero/channel.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace tero;

namespace {

/// Shared state between the layer groups of one traced run.
struct Context {
  const Options& options;
  Native native;
  const WorldInput& input;
  const core::TeroConfig& batch;
  LayerClock& clock;
  Result& result;
  core::LocatedWorld located;
  /// Batch run of this world under the workload's config.
  core::Dataset dataset;
  /// Batch run under the noise channel (the stream's contract reference).
  core::Dataset noise_dataset;
};

double ms_of(const LayerClock& clock, std::string_view name) {
  return clock.mean_us(name) / 1e3;
}

// ---- location, pipeline stages, thread pool ------------------------------------

void batch_layers(Context& ctx) {
  const synth::World& world = *ctx.input.world;
  const auto& streams = ctx.input.streams;
  LayerClock& clock = ctx.clock;
  Result& result = ctx.result;

  ctx.located =
      clock.time("tero.locate", [&] { return core::locate_streamers(world); });
  const social::Locator locator(world.twitter(), world.steam());
  for (const auto& streamer : world.streamers()) {
    (void)clock.time("social.locate",
                     [&] { return locator.locate(streamer.twitch); });
  }

  // Noise-channel extraction per stream, grouped the way Pipeline::run
  // groups it, then the per-group analysis stage.
  const auto noise = core::make_noise_channel();
  const store::Pseudonymizer pseudonymizer =
      core::make_pseudonymizer(ctx.batch.seed);
  std::map<std::tuple<std::size_t, std::string, int>,
           std::vector<analysis::Stream>>
      grouped;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& stream = streams[i];
    if (!ctx.located.located[stream.streamer_index].has_value()) continue;
    const auto& spec = ocr::ui_spec_for(stream.game);
    const std::uint64_t seed = core::extraction_stream_seed(ctx.batch.seed, i);
    analysis::Stream out;
    out.streamer = pseudonymizer.pseudonym(world.streamers()[stream.streamer_index].id);
    out.game = stream.game;
    clock.time(
        "tero.extract_noise",
        [&] {
          for (std::size_t p = 0; p < stream.points.size(); ++p) {
            auto extracted = core::extract_thumbnail(
                *noise, spec, stream.points[p], ctx.batch.p_latency_visible,
                seed, p);
            if (extracted.measurement) out.points.push_back(*extracted.measurement);
          }
        },
        stream.points.size());
    if (out.points.empty()) continue;
    grouped[{stream.streamer_index, stream.game,
             core::stream_epoch(world, ctx.located, stream)}]
        .push_back(std::move(out));
  }
  std::vector<core::StreamerGameEntry> entries;
  for (const auto& [key, group] : grouped) {
    const auto& [streamer_index, game, epoch] = key;
    std::vector<analysis::Stream> copy = group;
    (void)clock.time("analysis.clean", [&] {
      return analysis::clean_streamer_game(std::move(copy), ctx.batch.analysis);
    });
    copy = group;
    auto entry = clock.time("tero.analyze_group", [&] {
      return core::analyze_streamer_group(world, ctx.located, pseudonymizer,
                                          streamer_index, game, epoch,
                                          std::move(copy), ctx.batch.analysis);
    });
    if (entry) entries.push_back(std::move(*entry));
  }

  util::ThreadPool pool(ctx.options.threads);
  const auto aggregates = clock.time("tero.aggregate", [&] {
    return core::aggregate_entries(entries, ctx.batch.analysis,
                                   ctx.batch.aggregate_granularity, false, &pool);
  });
  // Dispatch cost of the three parallel stage shapes with empty bodies.
  for (int rep = 0; rep < 20; ++rep) {
    for (const std::size_t n : {streams.size(), grouped.size(), aggregates.size()}) {
      (void)clock.time("util.dispatch", [&] {
        return util::parallel_map(&pool, n, 1, [](std::size_t i) { return i; });
      });
    }
  }

  // One run at the workload's thread count with the program's own sinks
  // (stage histograms and pool counters), one plain, and one at 1 thread.
  obs::MetricsRegistry registry;
  core::TeroConfig with_metrics = ctx.batch;
  with_metrics.metrics = &registry;
  core::Pipeline metered(with_metrics);
  (void)metered.run(world, streams);
  const auto stage_ms = [&](const char* stage) {
    return registry.histogram(std::string("tero.stage.") + stage + ".ms").sum();
  };
  const double parallel_ms =
      stage_ms("extraction") + stage_ms("analysis") + stage_ms("aggregation");

  core::Pipeline parallel(ctx.batch);
  core::TeroConfig one_thread = ctx.batch;
  one_thread.threads = 1;
  core::Pipeline serial(one_thread);
  const auto start_parallel = Clock::now();
  ctx.dataset = parallel.run(world, streams);
  const double parallel_s = seconds_since(start_parallel);
  const auto start_serial = Clock::now();
  const core::Dataset serial_dataset = serial.run(world, streams);
  const double serial_s = seconds_since(start_serial);
  if (core::dataset_digest(serial_dataset) != core::dataset_digest(ctx.dataset)) {
    result.fail("1-thread and N-thread datasets differ");
  }
  ctx.noise_dataset = ctx.batch.use_full_ocr
                          ? core::Pipeline(sweep_config(ctx.batch.seed, ctx.options.threads))
                                .run(world, streams)
                          : ctx.dataset;

  result.add("social.locate_us", clock.mean_us("social.locate"), "us");
  result.add("tero.locate_ms", ms_of(clock, "tero.locate"), "ms");
  result.add("tero.extract_noise_us", clock.mean_us("tero.extract_noise"), "us");
  result.add("tero.analyze_group_us", clock.mean_us("tero.analyze_group"), "us");
  result.add("analysis.clean_us", clock.mean_us("analysis.clean"), "us");
  result.add("tero.aggregate_ms", ms_of(clock, "tero.aggregate"), "ms");
  result.add("tero.serial_frac", 1.0 - parallel_ms / stage_ms("run"), "frac");
  result.add("util.dispatch_us", clock.mean_us("util.dispatch"), "us");
  result.add("util.pool_steals",
             static_cast<double>(registry.counter("tero.pool.steals").value()),
             "count");
  result.add("util.scaling", serial_s / parallel_s, "x");
}

// ---- thumbnail render, preprocess kernels, OCR engines ------------------------

void extract_layers(Context& ctx) {
  const auto& streams = ctx.input.streams;
  LayerClock& clock = ctx.clock;
  Result& result = ctx.result;
  const synth::ThumbnailRenderer renderer(ctx.batch.thumbnails);
  const ocr::PreprocessConfig preprocess;
  const ocr::LatencyExtractor extractor(preprocess);
  const auto engines = extractor.engines();
  std::vector<std::string> engine_layers;
  for (const auto& engine : engines) engine_layers.push_back("ocr." + engine->name());

  // ocr-batch replays every thumbnail of its input; the others a slice.
  const bool everything = ctx.native == Native::kOcr;
  const std::size_t cap = everything ? SIZE_MAX : (ctx.options.tiny ? 8 : 96);
  std::size_t count = 0;
  std::size_t reprocessed = 0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < streams.size() && count < cap; ++i) {
    const auto& stream = streams[i];
    if (!ctx.located.located[stream.streamer_index].has_value()) continue;
    const auto& spec = ocr::ui_spec_for(stream.game);
    const std::uint64_t seed = core::extraction_stream_seed(ctx.batch.seed, i);
    for (std::size_t p = 0; p < stream.points.size() && count < cap; ++p) {
      // The draws core::extract_thumbnail and the OCR channel make.
      util::Rng rng = util::Rng::indexed(seed, p);
      if (!rng.bernoulli(ctx.batch.p_latency_visible)) continue;
      const auto rendered = clock.time("synth.render", [&] {
        return renderer.render_with(
            spec, stream.points[p].latency_ms,
            synth::roll_corruption(renderer.config(), rng), rng);
      });
      const ocr::LatencyReading reading = clock.time(
          "ocr.extract", [&] { return extractor.extract(rendered.image, spec); });
      ++count;
      if (reading.reprocessed) ++reprocessed;
      if (reading.primary) ++ok;

      // Attribution: LatencyExtractor::extract's path replayed from its
      // public parts, with the same arena overloads in one arena frame, each
      // part timed on its own. What the parts leave out of the ocr.extract
      // time (crop, cleanup, the vote, and anything extract does that the
      // replay does not) stays unattributed. The real call above decides
      // whether the reprocess path is taken.
      {
        image::Arena& arena = image::Arena::thread_local_arena();
        const image::Arena::Frame frame(arena);
        const image::GrayImage crop = rendered.image.crop(spec.latency_region, arena);
        const image::GrayImage prepared = clock.time("ocr.preprocess", [&] {
          return ocr::preprocess(crop, preprocess, arena);
        });
        for (std::size_t e = 0; e < engines.size(); ++e) {
          (void)ocr::LatencyExtractor::cleanup(
              clock.time(engine_layers[e],
                         [&] { return engines[e]->recognize(prepared); }),
              spec);
        }
        if (reading.reprocessed) {
          clock.time("ocr.reprocess", [&] {
            const image::GrayImage minimal = ocr::preprocess_minimal(crop, arena);
            for (const auto& engine : engines) {
              (void)ocr::LatencyExtractor::cleanup(engine->recognize(minimal), spec);
            }
          });
        }
      }

      // The image kernels on the same crop, in ocr::preprocess order.
      const image::GrayImage crop = rendered.image.crop(spec.latency_region);
      const image::GrayImage up = clock.time("image.upscale", [&] {
        return image::upscale_bilinear(crop, preprocess.upscale_factor);
      });
      image::GrayImage binary = clock.time(
          "image.blur", [&] { return image::gaussian_blur(up, preprocess.blur_sigma); });
      clock.time("image.threshold", [&] {
        image::binarize_inplace(binary, image::otsu_threshold(binary));
        if (image::foreground_ratio(binary) > 0.5) image::invert_inplace(binary);
      });
      (void)clock.time("image.morph", [&] {
        return image::erode3x3(image::dilate3x3(binary));
      });
    }
  }
  if (everything && ctx.batch.use_full_ocr && ok != ctx.dataset.funnel.ocr_ok) {
    result.fail("OCR replay disagrees with Pipeline::run on extracted thumbnails");
  }

  double attributed = clock.total_s("ocr.preprocess") + clock.total_s("ocr.reprocess");
  for (const auto& layer : engine_layers) attributed += clock.total_s(layer);
  const double attributed_frac = attributed / clock.total_s("ocr.extract");
  if (ctx.native == Native::kOcr && attributed_frac < 0.95) {
    result.fail("ocr.attributed_frac below 0.95");
  }
  const double n = static_cast<double>(std::max<std::size_t>(count, 1));
  result.add("synth.render_us", clock.mean_us("synth.render"), "us");
  result.add("image.upscale_us", clock.mean_us("image.upscale"), "us");
  result.add("image.blur_us", clock.mean_us("image.blur"), "us");
  result.add("image.threshold_us", clock.mean_us("image.threshold"), "us");
  result.add("image.morph_us", clock.mean_us("image.morph"), "us");
  result.add("ocr.preprocess_us", clock.mean_us("ocr.preprocess"), "us");
  for (const auto& layer : engine_layers) {
    result.add(layer + "_us", clock.mean_us(layer), "us");
  }
  result.add("ocr.reprocess_us", clock.mean_us("ocr.reprocess"), "us");
  result.add("ocr.extract_us", clock.mean_us("ocr.extract"), "us");
  result.add("ocr.reprocessed_frac", static_cast<double>(reprocessed) / n, "frac");
  result.add("ocr.ok_frac", static_cast<double>(ok) / n, "frac");
  result.add("ocr.attributed_frac", attributed_frac, "frac");
}

// ---- stream: channels, window fold, live publish -------------------------------

void stream_layers(Context& ctx) {
  LayerClock& clock = ctx.clock;
  Result& result = ctx.result;
  obs::MetricsRegistry registry;
  tsdb::TimeSeriesStore tsdb{tsdb::TsdbConfig{}};
  serve::QueryService service{serve::ServeConfig{}};
  stream::StreamConfig config = live_config(ctx.batch.seed);
  // The OCR world closes only ~50 windows: publish more often there, so its
  // probe still has live epochs and an ingest-to-publish latency.
  if (ctx.native == Native::kOcr) config.publish_every_windows = 4;
  config.tero.metrics = &registry;
  config.service = &service;
  config.tsdb = &tsdb;
  stream::StreamPipeline pipeline(config);
  const stream::StreamResult out = clock.time(
      "stream.run", [&] { return pipeline.run(*ctx.input.world, ctx.input.streams); });
  if (out.crashed ||
      core::dataset_digest(out.dataset) != core::dataset_digest(ctx.noise_dataset)) {
    result.fail("stream dataset differs from the batch pipeline");
  }

  // The window fold on the batch dataset's retained points: 1 h windows
  // per {location, game} key, then merged in window order.
  std::map<std::pair<std::string, std::int64_t>,
           std::unique_ptr<stream::WindowAggregate>>
      windows;
  std::uint64_t adds = 0;
  for (const auto& entry : ctx.noise_dataset.entries) {
    const std::string key = serve::entry_key(
        core::truncate_location(entry.location, geo::Granularity::kRegion),
        entry.game);
    std::vector<std::pair<stream::WindowAggregate*, double>> points;
    for (const auto& retained : entry.clean.retained) {
      for (const auto& point : retained.points) {
        auto& slot = windows[{key, stream::window_of(point.time_s, 3600.0)}];
        if (!slot) slot = std::make_unique<stream::WindowAggregate>();
        points.emplace_back(slot.get(), point.latency_ms);
      }
    }
    clock.time(
        "stream.window_add",
        [&] {
          for (const auto& [window, value] : points) window->add(value);
        },
        points.size());
    adds += points.size();
  }
  std::map<std::string, std::unique_ptr<stream::WindowAggregate>> running;
  for (const auto& [key, window] : windows) {
    auto& total = running[key.first];
    if (!total) total = std::make_unique<stream::WindowAggregate>();
    clock.time("stream.window_merge", [&] { total->merge(*window); });
  }

  // Live snapshot build and publish, the serve write path.
  for (int rep = 0; rep < 3; ++rep) {
    auto entries = clock.time("serve.snapshot_build", [&] {
      return serve::entries_from(ctx.noise_dataset);
    });
    (void)clock.time("serve.publish",
                     [&] { return service.publish(std::move(entries)); });
  }

  const auto& latency = registry.histogram("tero.stream.ingest_to_publish_ms");
  result.add("stream.extract_stalls", static_cast<double>(out.to_extract.stalls), "count");
  result.add("stream.clean_stalls", static_cast<double>(out.to_clean.stalls), "count");
  result.add("stream.sink_stalls", static_cast<double>(out.to_sink.stalls), "count");
  result.add("stream.window_add_us", clock.mean_us("stream.window_add"), "us");
  result.add("stream.window_merge_us", clock.mean_us("stream.window_merge"), "us");
  result.add("stream.windows_closed", static_cast<double>(out.windows_closed), "count");
  result.add("stream.epochs", static_cast<double>(out.epochs_published), "count");
  result.add("stream.ingest_to_publish_p50_ms",
             latency.count() > 0 ? latency.quantile(0.5) : 0.0, "ms");
  result.add("serve.snapshot_build_ms", ms_of(clock, "serve.snapshot_build"), "ms");
  result.add("serve.publish_ms", ms_of(clock, "serve.publish"), "ms");
}

// ---- serve read path and tsdb --------------------------------------------------

void serve_layers(Context& ctx) {
  LayerClock& clock = ctx.clock;
  Result& result = ctx.result;
  const ServeInput input =
      make_serve_input(ctx.input, ctx.options.threads, ctx.options.tiny);
  for (int rep = 0; rep < 3; ++rep) {
    (void)clock.time("serve.snapshot_load", [&] {
      std::istringstream in(input.snapshot_bytes);
      return serve::load_snapshot(in);
    });
  }
  tsdb::TimeSeriesStore tsdb{tsdb::TsdbConfig{}};
  ingest_history(input, tsdb, &clock);
  const tsdb::TimeSeriesStore::Stats stats = tsdb.stats();

  serve::ServeConfig config;
  config.tsdb = &tsdb;
  serve::QueryService service(config);
  {
    std::istringstream in(input.snapshot_bytes);
    service.publish(serve::load_snapshot(in));
  }
  const serve::Snapshot& snapshot = *input.reference_snapshot;

  // One client, every ring query once, timed by kind.
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < input.ring.size(); ++i) {
    const serve::Query& query = input.ring[i];
    const char* layer = serve::is_range_kind(query.kind) ? "serve.range_query"
                        : query.kind == serve::QueryKind::kTopK ? "serve.topk"
                                                                : "serve.point_query";
    const serve::QueryResponse response =
        clock.time(layer, [&] { return service.query(query); });
    if (serve::hash_response(i, response) != input.expected[i]) ++wrong;
    if (serve::is_range_kind(query.kind)) {
      const tsdb::RangeQuery range = range_query_of(query);
      (void)clock.time("tsdb.range", [&] { return tsdb.range(range); });
    } else if (query.kind != serve::QueryKind::kTopK) {
      (void)clock.time("serve.answer", [&] { return serve::answer(query, snapshot); });
    }
  }
  if (wrong != 0) result.fail("serve answers differ from the reference", wrong);

  // Closed loops: cache hit share under serve-query's load (republishing,
  // which empties the caches, every 100 000 queries), and qps at 1 vs N
  // clients.
  const double phase_s = ctx.options.tiny ? 0.2 : (ctx.native == Native::kServe ? 1.5 : 0.6);
  const std::uint64_t hits = service.cache_hits();
  const std::uint64_t misses = service.cache_misses();
  const ClosedLoopResult full =
      closed_loop(service, input, ctx.options.threads, phase_s, 0, 100'000);
  const double hit_delta = static_cast<double>(service.cache_hits() - hits);
  const double miss_delta = static_cast<double>(service.cache_misses() - misses);
  const ClosedLoopResult single = closed_loop(service, input, 1, phase_s, 0, 0);
  if (full.failed + single.failed != 0) {
    result.fail("serve closed-loop answers differ from the reference",
                full.failed + single.failed);
  }

  result.add("serve.snapshot_load_ms", ms_of(clock, "serve.snapshot_load"), "ms");
  result.add("serve.point_query_us", clock.mean_us("serve.point_query"), "us");
  result.add("serve.answer_us", clock.mean_us("serve.answer"), "us");
  result.add("serve.topk_us", clock.mean_us("serve.topk"), "us");
  result.add("serve.range_query_us", clock.mean_us("serve.range_query"), "us");
  result.add("serve.cache_hit_frac", hit_delta / std::max(1.0, hit_delta + miss_delta),
             "frac");
  result.add("serve.scaling",
             (static_cast<double>(full.queries) / full.wall_s) /
                 (static_cast<double>(single.queries) / single.wall_s),
             "x");
  result.add("tsdb.append_us", clock.mean_us("tsdb.append"), "us");
  result.add("tsdb.advance_ms", ms_of(clock, "tsdb.advance"), "ms");
  result.add("tsdb.range_us", clock.mean_us("tsdb.range"), "us");
  result.add("tsdb.bits_per_sample",
             stats.segment_samples == 0
                 ? 0.0
                 : 8.0 * static_cast<double>(stats.compressed_bytes) /
                       static_cast<double>(stats.segment_samples),
             "bits");
}

}  // namespace

void trace_layers(const Options& options, Native native, const WorldInput& input,
                  const core::TeroConfig& batch, LayerClock& clock,
                  Result& result) {
  Context ctx{options, native, input, batch, clock, result, {}, {}, {}};
  batch_layers(ctx);
  extract_layers(ctx);
  stream_layers(ctx);
  serve_layers(ctx);
}

}  // namespace perfbench
