#include "stream/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "ocr/game_ui.hpp"
#include "serve/service.hpp"
#include "stream/checkpoint.hpp"
#include "stream/schedule.hpp"
#include "stream/window.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tero::stream {
namespace {

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Live aggregation key: believed location (already truncated to the
/// aggregate granularity) and game.
struct RunningKey {
  geo::Location location;
  std::string game;

  auto operator<=>(const RunningKey&) const = default;
};

/// Tumbling-window key; map order puts older windows first, so the close
/// scan walks windows in the deterministic close order.
struct WindowKey {
  std::int64_t window = 0;
  RunningKey key;

  auto operator<=>(const WindowKey&) const = default;
};

struct WindowBuf {
  std::unique_ptr<WindowAggregate> agg;
  std::set<std::string> streamers;
  double first_wall = 0.0;  ///< observational: earliest ingest stamp
};

struct RunningBuf {
  std::unique_ptr<WindowAggregate> agg;
  std::set<std::string> streamers;
};

AggregateState export_aggregate(const WindowAggregate& agg) {
  AggregateState state;
  state.count = agg.count();
  state.mean = agg.mean();
  state.m2 = agg.m2();
  state.sketch.buckets = agg.sketch().export_buckets();
  state.sketch.underflow = agg.sketch().underflow();
  return state;
}

std::unique_ptr<WindowAggregate> restore_aggregate(const AggregateState& state,
                                                   double alpha) {
  auto agg = std::make_unique<WindowAggregate>(alpha);
  agg->restore(state.count, state.mean, state.m2, state.sketch.buckets,
               state.sketch.underflow);
  return agg;
}

}  // namespace

StreamPipeline::StreamPipeline(StreamConfig config)
    : config_(std::move(config)) {}

StreamResult StreamPipeline::run(const synth::World& world,
                                 std::span<const synth::TrueStream> streams) {
  obs::MetricsRegistry* const metrics = config_.tero.metrics;
  obs::TraceRecorder* const trace = config_.tero.trace;
  const obs::ScopedSpan run_span(trace, "stream.run");

  const StreamSchedule schedule = build_schedule(world, streams, config_);

  const std::unique_ptr<core::ExtractionChannel> channel =
      config_.tero.use_full_ocr ? core::make_ocr_channel(config_.tero.thumbnails)
                                : core::make_noise_channel(config_.tero.noise);
  std::unique_ptr<util::ThreadPool> pool;
  if (util::ThreadPool::resolve(config_.tero.threads) > 1) {
    pool = std::make_unique<util::ThreadPool>(config_.tero.threads);
  }

  // ---- Recovery: resume from the newest checkpoint, if any ---------------
  std::optional<CheckpointData> restored;
  if (!config_.checkpoint_dir.empty()) {
    if (const auto id = latest_checkpoint_id(config_.checkpoint_dir)) {
      restored = read_checkpoint_file(config_.checkpoint_dir, *id);
    }
  }

  // ---- Channels + hot-path metric handles --------------------------------
  obs::Counter* stalls_counter = nullptr;
  obs::Counter* late_counter = nullptr;
  obs::Counter* events_counter = nullptr;
  obs::Counter* windows_counter = nullptr;
  obs::Counter* checkpoints_counter = nullptr;
  obs::Counter* epochs_counter = nullptr;
  obs::Gauge* depth_extract = nullptr;
  obs::Gauge* depth_clean = nullptr;
  obs::Gauge* depth_sink = nullptr;
  obs::Gauge* watermark_gauge = nullptr;
  obs::Histogram* watermark_lag_s = nullptr;
  obs::Histogram* publish_ms = nullptr;
  obs::Histogram* ingest_to_publish_ms = nullptr;
  if (metrics != nullptr) {
    stalls_counter = &metrics->counter("tero.stream.backpressure_stalls");
    late_counter = &metrics->counter("tero.stream.late");
    events_counter = &metrics->counter("tero.stream.events");
    windows_counter = &metrics->counter("tero.stream.windows_closed");
    checkpoints_counter = &metrics->counter("tero.stream.checkpoints");
    epochs_counter = &metrics->counter("tero.stream.epochs");
    const auto depth = [&](const char* stage) {
      return &metrics->gauge(obs::MetricsRegistry::labeled(
          "tero.stream.queue_depth", {{"stage", stage}}));
    };
    depth_extract = depth("extract");
    depth_clean = depth("clean");
    depth_sink = depth("sink");
    watermark_gauge = &metrics->gauge("tero.stream.watermark_s");
    watermark_lag_s = &metrics->histogram(
        "tero.stream.watermark_lag_s",
        {60.0, 300.0, 900.0, 3600.0, 10800.0, 21600.0, 86400.0});
    publish_ms = &metrics->histogram("tero.stream.publish_ms");
    ingest_to_publish_ms =
        &metrics->histogram("tero.stream.ingest_to_publish_ms");
  }
  Channel<StreamEvent> to_extract(config_.channel_capacity, depth_extract,
                                  stalls_counter);
  Channel<StreamEvent> to_clean(config_.channel_capacity, depth_clean,
                                stalls_counter);
  Channel<StreamEvent> to_sink(config_.channel_capacity, depth_sink,
                               stalls_counter);

  // Fault points (null when injection is off). "stream.source" stalls the
  // producer (wall-clock only — ordering and data are unchanged, so the
  // result stays bit-identical); "extract.stream" quarantines streamers
  // exactly like the batch pipeline (same keyed decisions, same funnel).
  fault::FaultPoint* const source_fault = fault::FaultInjector::maybe_point(
      config_.tero.injector, "stream.source");
  const fault::FaultPoint* const extract_fault =
      fault::FaultInjector::maybe_point(config_.tero.injector,
                                        "extract.stream");

  // ---- Stage 1: source — walk the schedule from the resume cursor --------
  const std::size_t start_cursor =
      restored.has_value() ? static_cast<std::size_t>(restored->cursor) : 0;
  std::thread source_thread([&] {
    const obs::ScopedSpan span(trace, "stream.source", "stage");
    for (std::size_t i = start_cursor; i < schedule.events.size(); ++i) {
      StreamEvent ev = schedule.events[i];
      if (source_fault != nullptr) {
        const fault::FaultDecision stall = source_fault->hit();
        if (stall.kind == fault::FaultKind::kLatency) {
          // Producer stall: downstream stages see a burst of backpressure,
          // the data itself is untouched.
          std::this_thread::sleep_for(
              std::chrono::duration<double>(stall.delay_s));
        }
      }
      ev.ingest_wall_s = wall_now_s();
      if (ev.kind == EventKind::kCheckpoint) {
        ev.draft = std::make_shared<CheckpointData>();
        ev.draft->id = ev.checkpoint_id;
        ev.draft->cursor = i + 1;
        ev.draft->events_total = schedule.events.size();
      }
      if (!to_extract.push(std::move(ev))) return;  // teardown cascade
    }
    to_extract.close();
  });

  // ---- Stage 2: extraction — order-preserving parallel batches -----------
  std::uint64_t ext_thumbnails = restored.has_value() ? restored->thumbnails : 0;
  std::uint64_t ext_visible = restored.has_value() ? restored->visible : 0;
  std::uint64_t ext_ok = restored.has_value() ? restored->ocr_ok : 0;
  std::thread extract_thread([&] {
    const obs::ScopedSpan span(trace, "stream.extract", "stage");
    std::vector<StreamEvent> pending;
    pending.reserve(config_.extract_batch);
    // Extract the pending batch on the pool (per-point seeds keep results
    // independent of scheduling) and forward outcomes in batch order.
    const auto flush = [&]() -> bool {
      if (pending.empty()) return true;
      const auto results = util::parallel_map(
          pool.get(), pending.size(), 8, [&](std::size_t k) {
            const StreamEvent& ev = pending[k];
            const auto& true_stream = streams[ev.stream_index];
            if (core::extraction_quarantined(extract_fault,
                                             true_stream.streamer_index,
                                             config_.tero.extraction_retry)) {
              // Quarantined: the thumbnail is counted (it was ingested) but
              // never extracted — identical to the batch pipeline's rule.
              return core::ThumbnailExtraction{};
            }
            return core::extract_thumbnail(
                *channel, ocr::ui_spec_for(true_stream.game),
                true_stream.points[ev.point_index],
                config_.tero.p_latency_visible,
                core::extraction_stream_seed(config_.tero.seed,
                                             ev.stream_index),
                ev.point_index);
          });
      for (std::size_t k = 0; k < pending.size(); ++k) {
        ++ext_thumbnails;
        if (!results[k].visible) continue;
        ++ext_visible;
        if (!results[k].measurement.has_value()) continue;
        ++ext_ok;
        StreamEvent ev = std::move(pending[k]);
        ev.visible = true;
        ev.measurement = results[k].measurement;
        if (!to_clean.push(std::move(ev))) return false;
      }
      pending.clear();
      return true;
    };
    bool aborted = false;
    while (!aborted) {
      auto ev = to_extract.pop();
      if (!ev.has_value()) break;
      if (ev->kind == EventKind::kThumbnail) {
        pending.push_back(std::move(*ev));
        if (pending.size() >= config_.extract_batch && !flush()) {
          aborted = true;
        }
        continue;
      }
      if (!flush()) {
        aborted = true;
        break;
      }
      if (ev->kind == EventKind::kCheckpoint) {
        ev->draft->thumbnails = ext_thumbnails;
        ev->draft->visible = ext_visible;
        ev->draft->ocr_ok = ext_ok;
      }
      if (!to_clean.push(std::move(*ev))) aborted = true;
    }
    if (!aborted) flush();
    to_extract.close();
    to_clean.close();
  });

  // ---- Stage 3: cleaning — group assembly + per-streamer analysis --------
  struct GroupBuf {
    std::uint64_t remaining = 0;
    std::map<std::uint32_t, std::vector<analysis::Measurement>> streams;
  };
  std::map<GroupKey, GroupBuf> open_groups;
  if (restored.has_value()) {
    for (const auto& group : restored->groups) {
      GroupBuf buf;
      buf.remaining = group.remaining;
      for (const auto& stream : group.streams) {
        buf.streams[stream.stream_index] = stream.points;
      }
      open_groups.emplace(group.key, std::move(buf));
    }
  }
  const store::Pseudonymizer pseudonymizer =
      core::make_pseudonymizer(config_.tero.seed);
  std::thread clean_thread([&] {
    const obs::ScopedSpan span(trace, "stream.clean", "stage");
    const auto ensure_group = [&](const GroupKey& key) -> GroupBuf& {
      auto it = open_groups.find(key);
      if (it == open_groups.end()) {
        GroupBuf buf;
        buf.remaining = schedule.group_sizes.at(key);
        it = open_groups.emplace(key, std::move(buf)).first;
      }
      return it->second;
    };
    bool aborted = false;
    while (!aborted) {
      auto ev = to_clean.pop();
      if (!ev.has_value()) break;
      switch (ev->kind) {
        case EventKind::kThumbnail: {
          const GroupKey& key = schedule.stream_group[ev->stream_index];
          ensure_group(key).streams[ev->stream_index].push_back(
              *ev->measurement);
          if (!to_sink.push(std::move(*ev))) aborted = true;
          break;
        }
        case EventKind::kStreamEnd: {
          const GroupKey& key = schedule.stream_group[ev->stream_index];
          GroupBuf& buf = ensure_group(key);
          if (--buf.remaining == 0) {
            // All of the group's streams have arrived: run the batch
            // analysis stage on them, in stream-index order (the batch
            // grouping order), and emit the finished entry.
            std::vector<analysis::Stream> group_streams;
            group_streams.reserve(buf.streams.size());
            for (auto& [stream_index, points] : buf.streams) {
              analysis::Stream s;
              s.streamer = schedule
                               .pseudonyms[streams[stream_index].streamer_index];
              s.game = streams[stream_index].game;
              s.points = std::move(points);
              group_streams.push_back(std::move(s));
            }
            if (!group_streams.empty()) {
              auto entry = core::analyze_streamer_group(
                  world, schedule.located, pseudonymizer, key.streamer_index,
                  key.game, key.epoch, std::move(group_streams),
                  config_.tero.analysis);
              if (entry.has_value()) {
                StreamEvent out;
                out.kind = EventKind::kEntry;
                out.arrival_time = ev->arrival_time;
                out.ingest_wall_s = ev->ingest_wall_s;
                out.entry = std::make_shared<const CollectedEntry>(
                    CollectedEntry{key, std::move(*entry)});
                if (!to_sink.push(std::move(out))) {
                  aborted = true;
                  break;
                }
              }
            }
            open_groups.erase(key);
          }
          if (!to_sink.push(std::move(*ev))) aborted = true;
          break;
        }
        case EventKind::kCheckpoint: {
          for (const auto& [key, buf] : open_groups) {
            CheckpointData::GroupState state;
            state.key = key;
            state.remaining = buf.remaining;
            for (const auto& [stream_index, points] : buf.streams) {
              state.streams.push_back({stream_index, points});
            }
            ev->draft->groups.push_back(std::move(state));
          }
          if (!to_sink.push(std::move(*ev))) aborted = true;
          break;
        }
        default:
          if (!to_sink.push(std::move(*ev))) aborted = true;
          break;
      }
    }
    to_clean.close();
    to_sink.close();
  });

  // ---- Stage 4: sink — watermarks, windows, live epochs, checkpoints -----
  // Runs on the calling thread.
  WatermarkTracker wm;
  std::map<WindowKey, WindowBuf> windows;
  std::map<RunningKey, RunningBuf> running;
  std::vector<CollectedEntry> collected;
  std::uint64_t measurements = 0;
  std::uint64_t late_events = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t windows_since_publish = 0;
  std::uint64_t epoch_counter = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t resumed_from = 0;
  if (restored.has_value()) {
    wm.restore(restored->watermark, restored->open_sources);
    for (const auto& w : restored->windows) {
      WindowBuf buf;
      buf.agg = restore_aggregate(w.agg, config_.sketch_alpha);
      buf.streamers.insert(w.streamers.begin(), w.streamers.end());
      windows.emplace(WindowKey{w.window, {w.location, w.game}},
                      std::move(buf));
    }
    for (const auto& r : restored->running) {
      RunningBuf buf;
      buf.agg = restore_aggregate(r.agg, config_.sketch_alpha);
      buf.streamers.insert(r.streamers.begin(), r.streamers.end());
      running.emplace(RunningKey{r.location, r.game}, std::move(buf));
    }
    collected = restored->collected;
    measurements = restored->measurements;
    late_events = restored->late_events;
    windows_closed = restored->windows_closed;
    windows_since_publish = restored->windows_since_publish;
    epoch_counter = restored->epoch_counter;
    epochs_published = restored->epochs_published;
    resumed_from = restored->id;
  }

  std::vector<double> pending_publish_walls;
  const auto build_live_entries = [&] {
    std::vector<serve::SnapshotEntry> entries;
    entries.reserve(running.size());
    for (const auto& [key, buf] : running) {
      serve::SnapshotEntry entry;
      entry.location = key.location;
      entry.game = key.game;
      entry.key = serve::entry_key(key.location, key.game);
      entry.streamers = buf.streamers.size();
      entry.samples = static_cast<std::size_t>(buf.agg->count());
      entry.mean_ms = buf.agg->mean();
      const obs::QuantileSketch& sketch = buf.agg->sketch();
      entry.box.p5 = sketch.quantile(0.05);
      entry.box.p25 = sketch.quantile(0.25);
      entry.box.p50 = sketch.quantile(0.50);
      entry.box.p75 = sketch.quantile(0.75);
      entry.box.p95 = sketch.quantile(0.95);
      entries.push_back(std::move(entry));
    }
    return entries;
  };
  const auto publish_live = [&] {
    windows_since_publish = 0;
    const std::uint64_t epoch = ++epoch_counter;
    ++epochs_published;
    if (epochs_counter != nullptr) epochs_counter->add();
    if (config_.service != nullptr) {
      const obs::ScopedTimer timer(publish_ms);
      config_.service->publish(std::make_shared<const serve::Snapshot>(
          epoch, build_live_entries()));
    }
    if (ingest_to_publish_ms != nullptr) {
      const double now = wall_now_s();
      for (const double first : pending_publish_walls) {
        if (first > 0.0) {
          ingest_to_publish_ms->observe((now - first) * 1000.0);
        }
      }
    }
    pending_publish_walls.clear();
    if (trace != nullptr) trace->add_instant("stream.publish", "stream");
  };
  const auto close_ready_windows = [&] {
    const double watermark = wm.watermark();
    if (watermark_gauge != nullptr) watermark_gauge->set(watermark);
    while (!windows.empty()) {
      const auto it = windows.begin();
      const double window_end =
          static_cast<double>(it->first.window + 1) * config_.window_size_s;
      if (window_end + config_.allowed_lateness_s > watermark) break;
      RunningBuf& buf = running[it->first.key];
      if (buf.agg == nullptr) {
        buf.agg = std::make_unique<WindowAggregate>(config_.sketch_alpha);
      }
      buf.agg->merge(*it->second.agg);
      buf.streamers.insert(it->second.streamers.begin(),
                           it->second.streamers.end());
      pending_publish_walls.push_back(it->second.first_wall);
      if (watermark_lag_s != nullptr) {
        watermark_lag_s->observe(watermark - window_end);
      }
      if (config_.tsdb != nullptr && it->second.agg->count() > 0) {
        // Advance the store's virtual clock first so the seal boundary is
        // at or before this window's end — the append always lands at or
        // ahead of the sealed frontier. Windows close in window order, so
        // the clock never runs backwards.
        const auto t_ms = static_cast<std::int64_t>(window_end * 1000.0);
        config_.tsdb->advance_to(t_ms);
        config_.tsdb->append(
            serve::entry_key(it->first.key.location, it->first.key.game),
            t_ms, it->second.agg->mean());
      }
      windows.erase(it);
      ++windows_closed;
      ++windows_since_publish;
      if (windows_counter != nullptr) windows_counter->add();
      if (config_.publish_every_windows > 0 &&
          windows_since_publish >= config_.publish_every_windows) {
        publish_live();
      }
    }
  };

  bool crashed = false;
  double last_arrival_s = 0.0;
  {
    const obs::ScopedSpan span(trace, "stream.sink", "stage");
    while (!crashed) {
      auto ev = to_sink.pop();
      if (!ev.has_value()) break;
      if (config_.sink_delay_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.sink_delay_us));
      }
      // The sink sees events serially in deterministic arrival order, so
      // this is the one safe place to drive the telemetry timeline's
      // virtual clock (DESIGN.md §13).
      if (config_.timeline != nullptr && ev->arrival_time > 0.0) {
        last_arrival_s = ev->arrival_time;
        config_.timeline->advance_to(
            static_cast<std::uint64_t>(ev->arrival_time * 1000.0));
      }
      switch (ev->kind) {
        case EventKind::kStreamStart:
          wm.open(ev->stream_index, ev->event_time);
          close_ready_windows();
          break;
        case EventKind::kThumbnail: {
          ++measurements;
          if (events_counter != nullptr) events_counter->add();
          wm.update(ev->stream_index, ev->event_time);
          const std::int64_t window =
              window_of(ev->event_time, config_.window_size_s);
          const double window_end =
              static_cast<double>(window + 1) * config_.window_size_s;
          if (window_end + config_.allowed_lateness_s <= wm.watermark()) {
            // The window this event belongs to already closed: count it as
            // late and keep it out of the live view. It still reaches the
            // exact path through the cleaning stage.
            ++late_events;
            if (late_counter != nullptr) late_counter->add();
          } else {
            WindowKey key{window,
                          {schedule.stream_window_location[ev->stream_index],
                           streams[ev->stream_index].game}};
            WindowBuf& buf = windows[key];
            if (buf.agg == nullptr) {
              buf.agg =
                  std::make_unique<WindowAggregate>(config_.sketch_alpha);
              buf.first_wall = ev->ingest_wall_s;
            }
            buf.agg->add(
                static_cast<double>(ev->measurement->latency_ms));
            buf.streamers.insert(
                schedule
                    .pseudonyms[streams[ev->stream_index].streamer_index]);
          }
          close_ready_windows();
          break;
        }
        case EventKind::kStreamEnd:
          wm.close(ev->stream_index);
          close_ready_windows();
          break;
        case EventKind::kEntry:
          collected.push_back(*ev->entry);
          break;
        case EventKind::kCheckpoint: {
          CheckpointData& draft = *ev->draft;
          draft.watermark = wm.watermark();
          draft.open_sources = wm.open_map();
          for (const auto& [key, buf] : windows) {
            CheckpointData::WindowState state;
            state.window = key.window;
            state.location = key.key.location;
            state.game = key.key.game;
            state.agg = export_aggregate(*buf.agg);
            state.streamers.assign(buf.streamers.begin(),
                                   buf.streamers.end());
            draft.windows.push_back(std::move(state));
          }
          for (const auto& [key, buf] : running) {
            CheckpointData::RunningState state;
            state.location = key.location;
            state.game = key.game;
            state.agg = export_aggregate(*buf.agg);
            state.streamers.assign(buf.streamers.begin(),
                                   buf.streamers.end());
            draft.running.push_back(std::move(state));
          }
          draft.collected = collected;
          draft.measurements = measurements;
          draft.late_events = late_events;
          draft.windows_closed = windows_closed;
          draft.windows_since_publish = windows_since_publish;
          draft.epoch_counter = epoch_counter;
          draft.epochs_published = epochs_published;
          if (!config_.checkpoint_dir.empty()) {
            write_checkpoint_file(draft, config_.checkpoint_dir);
          }
          ++checkpoints_written;
          if (checkpoints_counter != nullptr) checkpoints_counter->add();
          if (trace != nullptr) {
            trace->add_instant("stream.checkpoint", "stream");
          }
          if (config_.crash_after > 0 &&
              draft.id == config_.crash_after) {
            // Fault injection: die right after the checkpoint hits disk.
            // Closing our input wakes the producers; the close cascades
            // back to the source and every stage exits.
            crashed = true;
            to_sink.close();
          }
          break;
        }
      }
    }
  }

  source_thread.join();
  extract_thread.join();
  clean_thread.join();

  // Capture the trailing partial interval (crashed runs included — their
  // truncated history is still a valid, deterministic record).
  if (config_.timeline != nullptr && last_arrival_s > 0.0) {
    config_.timeline->flush(
        static_cast<std::uint64_t>(last_arrival_s * 1000.0));
  }

  StreamResult result;
  result.crashed = crashed;
  result.resumed_from = resumed_from;
  result.events = measurements;
  result.thumbnails = ext_thumbnails;
  result.late_events = late_events;
  result.windows_closed = windows_closed;
  result.epochs_published = epochs_published;
  result.checkpoints_written = checkpoints_written;
  result.download_throttled = schedule.download_throttled;
  result.to_extract = to_extract.stats();
  result.to_clean = to_clean.stats();
  result.to_sink = to_sink.stats();
  if (crashed) return result;

  // ---- Final flush: the exact batch-equivalent dataset -------------------
  // Collected entries land in group-completion (arrival) order; the batch
  // pipeline iterates its grouping std::map, i.e. GroupKey order. Sorting
  // by key makes the entry vector — and everything derived from it —
  // bit-identical to the batch run.
  {
    const obs::ScopedSpan span(trace, "stream.flush", "stage");
    std::sort(collected.begin(), collected.end(),
              [](const CollectedEntry& a, const CollectedEntry& b) {
                return a.key < b.key;
              });
    core::Dataset& dataset = result.dataset;
    dataset.funnel.streamers_total = world.streamers().size();
    dataset.funnel.streamers_located = schedule.located.streamers_located;
    dataset.funnel.quarantined = core::count_quarantined_streamers(
        schedule.located, streams, extract_fault,
        config_.tero.extraction_retry);
    dataset.funnel.thumbnails = ext_thumbnails;
    dataset.funnel.visible = ext_visible;
    dataset.funnel.ocr_ok = ext_ok;
    dataset.entries.reserve(collected.size());
    for (auto& c : collected) {
      dataset.funnel.retained += c.entry.clean.points_retained;
      dataset.entries.push_back(std::move(c.entry));
    }
    dataset.aggregates = core::aggregate_entries(
        dataset.entries, config_.tero.analysis,
        config_.tero.aggregate_granularity,
        config_.tero.reject_location_outliers, pool.get(), metrics, trace);
    for (const auto& aggregate : dataset.aggregates) {
      dataset.funnel.clustered += aggregate.distribution.size();
    }
    if (metrics != nullptr) dataset.funnel.record(*metrics);
    result.final_entries = serve::entries_from(dataset);
    result.final_epoch = ++epoch_counter;
    if (config_.service != nullptr) {
      const obs::ScopedTimer timer(publish_ms);
      config_.service->publish(std::make_shared<const serve::Snapshot>(
          result.final_epoch, result.final_entries));
    }
  }
  return result;
}

}  // namespace tero::stream
