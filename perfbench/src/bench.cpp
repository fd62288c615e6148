#include "bench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/loadgen.hpp"
#include "serve/snapshot_io.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace tero;

void Result::fail(const std::string& what, std::uint64_t count) {
  correct = false;
  failed += count;
  std::cerr << "check failed: " << what << "\n";
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void note(const std::string& text) { std::cout << text << "\n"; }

// ---- LatencyHistogram --------------------------------------------------------

int LatencyHistogram::bucket_of(std::uint64_t ns) noexcept {
  if (ns < kSub) return static_cast<int>(ns);
  const int octave = std::bit_width(ns) - 1;  // >= 6
  const auto sub = static_cast<int>((ns >> (octave - 6)) - kSub);
  return std::min((octave - 5) * kSub + sub, kBuckets - 1);
}

double LatencyHistogram::bucket_low(int bucket) noexcept {
  if (bucket < kSub) return bucket;
  const int octave = bucket / kSub + 5;
  const int sub = bucket % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), octave - 6);
}

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  ++counts_[static_cast<std::size_t>(bucket_of(ns))];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::quantile_us(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const double rank = q * static_cast<double>(total_ - 1);
  std::uint64_t below = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = counts_[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(below + n) > rank) {
      const double lo = bucket_low(b);
      const double hi = b + 1 < kBuckets ? bucket_low(b + 1) : lo;
      const double frac = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(n);
      return (lo + frac * (hi - lo)) / 1e3;
    }
    below += n;
  }
  return bucket_low(kBuckets - 1) / 1e3;
}

// ---- child processes ---------------------------------------------------------

std::string isolated(const std::function<std::string()>& fn) {
  std::cout.flush();
  std::cerr.flush();
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int code = 0;
    try {
      const std::string out = fn();
      for (std::size_t at = 0; at < out.size();) {
        const ssize_t n = write(fds[1], out.data() + at, out.size() - at);
        if (n <= 0) {
          code = 1;
          break;
        }
        at += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& error) {
      std::cerr << "tero_perfbench (child): " << error.what() << "\n";
      code = 1;
    } catch (...) {
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string out;
  char buffer[1 << 16];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof buffer)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
  return out;
}

double host_probe_ms(std::uint64_t seed) {
  const std::string out = isolated([seed] {
    constexpr std::size_t kEntries = (32u << 20) / sizeof(std::uint32_t);
    std::vector<std::uint32_t> next(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i) {
      next[i] = static_cast<std::uint32_t>(i);
    }
    // Sattolo's shuffle: one cycle through every slot, so the chase never
    // settles into a short, cache-resident loop.
    util::Rng rng(seed);
    for (std::size_t i = kEntries - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(next[i], next[j]);
    }
    constexpr int kSteps = 1 << 18;
    const auto start = Clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < kSteps; ++i) at = next[at];
    const double ms = seconds_since(start) * 1e3;
    return std::to_string(ms) + " " + std::to_string(at);
  });
  return std::stod(out);
}

std::string pack(const std::vector<std::uint64_t>& values) {
  std::string out(values.size() * sizeof(std::uint64_t), '\0');
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

std::vector<std::uint64_t> unpack(std::string_view bytes) {
  std::vector<std::uint64_t> values(bytes.size() / sizeof(std::uint64_t));
  std::memcpy(values.data(), bytes.data(), values.size() * sizeof(std::uint64_t));
  return values;
}

// ---- LayerClock ------------------------------------------------------------------

void LayerClock::add(std::string_view name, double seconds,
                     std::uint64_t calls) {
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(std::string(name), Entry{}).first;
  it->second.seconds += seconds;
  it->second.calls += calls;
}

double LayerClock::total_s(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.seconds;
}

double LayerClock::mean_us(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.calls == 0) return 0.0;
  return it->second.seconds * 1e6 / static_cast<double>(it->second.calls);
}

// ---- inputs ------------------------------------------------------------------------

namespace {

std::uint64_t streams_digest(const std::vector<synth::TrueStream>& streams) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& stream : streams) {
    h = util::mix_seed(h, stream.streamer_index);
    h = util::mix_seed(h, util::fnv1a64({stream.game.data(), stream.game.size()}));
    for (const auto& point : stream.points) {
      h = util::mix_seed(h, std::bit_cast<std::uint64_t>(point.t));
      h = util::mix_seed(h, static_cast<std::uint64_t>(point.latency_ms));
    }
  }
  return h;
}

WorldInput make_world(synth::WorldConfig config, int days, std::uint64_t seed) {
  WorldInput input;
  input.seed = seed;
  config.seed = seed;
  input.world = std::make_unique<synth::World>(config);
  synth::BehaviorConfig behavior;
  behavior.days = days;
  synth::SessionGenerator generator(*input.world, behavior, seed ^ 0x5eedULL);
  input.streams = generator.generate();
  input.digest = streams_digest(input.streams);
  return input;
}

}  // namespace

WorldInput make_ocr_world(std::uint64_t seed, bool tiny) {
  synth::WorldConfig config;
  config.num_streamers = 96;
  config.p_twitter = 1.0;
  config.p_twitter_backlink = 1.0;
  config.p_twitter_location = 1.0;
  config.p_false_location = 0.0;
  WorldInput input = make_world(config, 3, seed);
  // A fixed number of thumbnails of located streamers (the only ones the
  // pipeline extracts), in 8-thumbnail streams taken round-robin over the
  // games: every seed does the same amount of work on the same game mix
  // (each game crops and renders its own UI), and the four extraction
  // threads stay balanced.
  constexpr std::size_t kPiece = 8;
  const std::size_t want = tiny ? 48 : 400;
  const core::LocatedWorld located = core::locate_streamers(*input.world);
  std::map<std::string, std::vector<synth::TrueStream>> by_game;
  for (const auto& stream : input.streams) {
    if (!located.located[stream.streamer_index].has_value()) continue;
    for (std::size_t at = 0; at + kPiece <= stream.points.size(); at += kPiece) {
      synth::TrueStream piece = stream;
      piece.points.assign(stream.points.begin() + static_cast<std::ptrdiff_t>(at),
                          stream.points.begin() + static_cast<std::ptrdiff_t>(at + kPiece));
      by_game[stream.game].push_back(std::move(piece));
    }
  }
  std::vector<synth::TrueStream> pieces;
  for (std::size_t round = 0; pieces.size() * kPiece < want; ++round) {
    const std::size_t before = pieces.size();
    for (auto& [game, list] : by_game) {
      if (round < list.size() && pieces.size() * kPiece < want) {
        pieces.push_back(std::move(list[round]));
      }
    }
    if (pieces.size() == before) {
      throw std::runtime_error("ocr world has too few thumbnails");
    }
  }
  input.streams = std::move(pieces);
  input.digest = streams_digest(input.streams);
  return input;
}

WorldInput make_sweep_world(std::uint64_t seed, bool tiny) {
  synth::WorldConfig config;
  config.num_streamers = tiny ? 150 : 2000;
  // Enough located streamers for ~590 {location, game} aggregates.
  config.p_twitter = 0.9;
  return make_world(config, tiny ? 2 : 14, seed);
}

core::TeroConfig ocr_config(std::uint64_t seed, std::size_t threads) {
  core::TeroConfig config;
  config.use_full_ocr = true;
  // At the default 0.35, 65% of thumbnails skip render and OCR entirely.
  config.p_latency_visible = 1.0;
  config.seed = seed;
  config.threads = threads;
  return config;
}

core::TeroConfig sweep_config(std::uint64_t seed, std::size_t threads) {
  core::TeroConfig config;
  config.use_full_ocr = false;
  config.p_latency_visible = 1.0;
  config.seed = seed;
  config.threads = threads;
  return config;
}

stream::StreamConfig live_config(std::uint64_t seed) {
  stream::StreamConfig config;
  config.tero = sweep_config(seed, 1);
  config.window_size_s = 3600.0;
  config.publish_every_windows = 96;
  config.max_delivery_delay_s = 600.0;
  return config;
}

// ---- serve-query inputs ----------------------------------------------------------

namespace {

constexpr std::int64_t kHourMs = 3'600'000;
constexpr std::int64_t kDayMs = 24 * kHourMs;
constexpr int kHistoryDays = 30;
constexpr std::size_t kRingSize = 1 << 16;

/// The expected answer of a range kind, from a reference store — the same
/// rules QueryService applies to TimeSeriesStore::range output.
serve::QueryResponse expected_range(const serve::Query& query,
                                    const tsdb::TimeSeriesStore& reference) {
  serve::QueryResponse response;
  response.series = reference.range(range_query_of(query));
  std::uint64_t total = 0;
  for (const auto& point : response.series) total += point.count;
  if (total == 0) {
    response.status = serve::QueryStatus::kNotFound;
    return response;
  }
  response.status = serve::QueryStatus::kOk;
  response.value = response.series.back().value;
  return response;
}

}  // namespace

tsdb::RangeQuery range_query_of(const serve::Query& query) {
  tsdb::RangeQuery range;
  range.key = serve::entry_key(query.location, query.game);
  range.t0_ms = query.t0_ms;
  range.t1_ms = query.t1_ms;
  range.window_ms = query.window_ms;
  range.pct = query.param;
  range.agg = query.kind == serve::QueryKind::kRangeCount ? tsdb::RangeAgg::kCount
              : query.kind == serve::QueryKind::kRangeMean
                  ? tsdb::RangeAgg::kMean
                  : tsdb::RangeAgg::kPercentile;
  return range;
}

namespace {

/// The parts of a serve input that follow cheaply from the snapshot bytes:
/// the reference snapshot, the tsdb history and the query ring.
ServeInput derive_serve_input(std::string snapshot_bytes, std::uint64_t seed,
                              bool tiny) {
  ServeInput input;
  input.snapshot_bytes = std::move(snapshot_bytes);
  {
    std::istringstream in(input.snapshot_bytes);
    input.reference_snapshot = serve::load_snapshot(in);
  }
  const auto entries = input.reference_snapshot->entries();

  // History: an hourly sample per entry with data, drawn from its retained
  // latencies. Zero-sample entries get none, so their range answers are
  // kNotFound — a correct answer.
  const std::uint64_t history_seed = util::mix_seed(seed, 0x4157ULL);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    if (entry.sorted_values.empty()) continue;
    std::vector<std::pair<std::int64_t, double>> samples;
    samples.reserve(kHistoryDays * 24);
    for (int h = 0; h < kHistoryDays * 24; ++h) {
      util::Rng rng = util::Rng::indexed(history_seed, e * 1024 + h);
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(entry.sorted_values.size()) - 1));
      samples.emplace_back(h * kHourMs + kHourMs / 2, entry.sorted_values[pick]);
    }
    input.history.emplace_back(entry.key, std::move(samples));
  }

  // Ring: the default Zipf(1.1) point/top-k mix, then 5% turned into range
  // kinds over spans of 1-7 days with daily windows.
  serve::LoadGenConfig load;
  load.queries = tiny ? 4096 : kRingSize;
  load.seed = seed;
  input.ring = serve::generate_queries(*input.reference_snapshot, load);
  const std::uint64_t range_seed = util::mix_seed(seed, 0x7a46eULL);
  for (std::size_t i = 0; i < input.ring.size(); ++i) {
    util::Rng rng = util::Rng::indexed(range_seed, i);
    if (!rng.bernoulli(0.05)) continue;
    serve::Query& query = input.ring[i];
    static constexpr serve::QueryKind kKinds[] = {
        serve::QueryKind::kRangeCount, serve::QueryKind::kRangeMean,
        serve::QueryKind::kRangePercentile};
    static constexpr double kPercentiles[] = {50, 90, 99};
    query.kind = kKinds[rng.uniform_int(0, 2)];
    query.param = kPercentiles[rng.uniform_int(0, 2)];
    const auto span_days = rng.uniform_int(1, 7);
    const auto end_day = rng.uniform_int(span_days, kHistoryDays);
    query.t1_ms = end_day * kDayMs;
    query.t0_ms = query.t1_ms - span_days * kDayMs;
    query.window_ms = kDayMs;
    ++input.range_queries;
  }
  return input;
}

}  // namespace

ServeInput make_serve_input(const WorldInput& world, std::size_t threads,
                            bool tiny) {
  // The batch run and the reference answers are benchmark-only state, made
  // in a child process. It hands back the expected hashes, the number of
  // range answers with data, and the snapshot bytes.
  const std::string out = isolated([&] {
    core::Pipeline batch(sweep_config(world.seed, threads));
    const core::Dataset dataset = batch.run(*world.world, world.streams);
    std::ostringstream bytes;
    serve::save_snapshot(serve::Snapshot(1, serve::entries_from(dataset)), bytes);
    const ServeInput input = derive_serve_input(bytes.str(), world.seed, tiny);

    tsdb::TimeSeriesStore reference{tsdb::TsdbConfig{}};
    ingest_history(input, reference);
    std::vector<std::uint64_t> expected(input.ring.size() + 1);
    std::uint64_t with_data = 0;
    for (std::size_t i = 0; i < input.ring.size(); ++i) {
      const serve::Query& query = input.ring[i];
      const bool range = serve::is_range_kind(query.kind);
      const serve::QueryResponse response =
          range ? expected_range(query, reference)
                : serve::answer(query, *input.reference_snapshot);
      if (range && response.status == serve::QueryStatus::kOk) ++with_data;
      expected[i] = serve::hash_response(i, response);
    }
    expected.back() = with_data;
    return pack(expected) + input.snapshot_bytes;
  });

  const std::size_t ring = tiny ? 4096 : kRingSize;
  const std::size_t header = (ring + 1) * sizeof(std::uint64_t);
  if (out.size() < header) throw std::runtime_error("short serve reference");
  std::vector<std::uint64_t> expected = unpack(std::string_view(out).substr(0, header));
  ServeInput input = derive_serve_input(out.substr(header), world.seed, tiny);
  if (input.ring.size() != ring) throw std::runtime_error("ring size changed");
  input.range_with_data = expected.back();
  expected.pop_back();
  input.expected = std::move(expected);
  std::uint64_t digest = 0;
  for (const std::uint64_t hash : input.expected) digest ^= hash;
  input.digest = util::mix_seed(digest, input.history.size());
  return input;
}

void ingest_history(const ServeInput& input, tsdb::TimeSeriesStore& tsdb,
                    LayerClock* clock) {
  for (int day = 0; day < kHistoryDays; ++day) {
    const std::size_t begin = static_cast<std::size_t>(day) * 24;
    const auto append_day = [&] {
      for (const auto& [key, samples] : input.history) {
        for (std::size_t h = begin; h < begin + 24; ++h) {
          tsdb.append(key, samples[h].first, samples[h].second);
        }
      }
    };
    const auto advance = [&] { tsdb.advance_to((day + 1) * kDayMs); };
    if (clock != nullptr) {
      clock->time("tsdb.append", append_day, input.history.size() * 24);
      clock->time("tsdb.advance", advance);
    } else {
      append_day();
      advance();
    }
  }
}

LoadedService load_service(const ServeInput& input, obs::MetricsRegistry* metrics,
                           obs::TraceRecorder* trace) {
  LoadedService loaded;
  loaded.tsdb = std::make_unique<tsdb::TimeSeriesStore>(tsdb::TsdbConfig{});
  serve::ServeConfig config;
  config.tsdb = loaded.tsdb.get();
  config.metrics = metrics;
  config.trace = trace;
  loaded.service = std::make_unique<serve::QueryService>(config);
  std::istringstream in(input.snapshot_bytes);
  loaded.service->publish(serve::load_snapshot(in));
  ingest_history(input, *loaded.tsdb);
  return loaded;
}

ClosedLoopResult closed_loop(serve::QueryService& service, const ServeInput& input,
                             std::size_t clients, double seconds,
                             std::uint64_t max_queries,
                             std::uint64_t republish_every) {
  constexpr std::uint64_t kBatch = 64;
  ClosedLoopResult result;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> issued{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> republished{0};
  std::vector<LatencyHistogram> latency(clients);
  std::vector<Clock::time_point> finished(clients);
  const std::vector<serve::SnapshotEntry> entries(
      input.reference_snapshot->entries().begin(),
      input.reference_snapshot->entries().end());
  const std::size_t ring = input.ring.size();

  const auto client = [&](std::size_t c) {
    std::size_t at = c * (ring / clients);
    std::uint64_t bad = 0;
    LatencyHistogram& hist = latency[c];
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::uint64_t k = 0; k < kBatch; ++k) {
        const auto begin = Clock::now();
        const serve::QueryResponse response = service.query(input.ring[at]);
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 begin)
                .count());
        if (hash_response(at, response) == input.expected[at]) {
          hist.record(ns);
        } else {
          hist.record_failure();
          ++bad;
        }
        if (++at == ring) at = 0;
      }
      const std::uint64_t before = issued.fetch_add(kBatch);
      if (republish_every != 0 &&
          (before + kBatch) / republish_every != before / republish_every) {
        (void)service.publish(entries);
        republished.fetch_add(1);
      }
      if (max_queries != 0 && before + kBatch >= max_queries) {
        stop.store(true);
      }
    }
    failed.fetch_add(bad);
    finished[c] = Clock::now();
  };

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  // Sample the shared count every 100 ms; the median interval rate is
  // robust to a short stall of the host.
  std::uint64_t last = 0;
  auto last_at = start;
  auto tick = start;
  while (!stop.load()) {
    tick += std::chrono::milliseconds(100);
    std::this_thread::sleep_until(tick);
    const std::uint64_t now = issued.load();
    const auto now_at = Clock::now();
    result.interval_qps.push_back(
        static_cast<double>(now - last) /
        std::chrono::duration<double>(now_at - last_at).count());
    last = now;
    last_at = now_at;
    if (max_queries == 0 && seconds_since(start) >= seconds) stop.store(true);
  }
  for (auto& thread : threads) thread.join();
  result.wall_s = std::chrono::duration<double>(
                      *std::max_element(finished.begin(), finished.end()) - start)
                      .count();
  result.queries = issued.load();
  result.failed = failed.load();
  result.republished = republished.load();
  for (const auto& hist : latency) result.latency.merge(hist);
  return result;
}

}  // namespace perfbench
