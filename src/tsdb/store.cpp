#include "tsdb/store.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "store/kv_store.hpp"
#include "store/persistence.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace tero::tsdb {
namespace {

/// Emulate the torn write an injected crash leaves behind: a header with no
/// payload, footer, or trailer — load_kv_file/load_segment must reject it
/// and recovery must clean it up (it is never referenced by the manifest).
void write_torn_file(const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << "TEROKV 1\n<torn by injected crash>";
}

/// WAL record: `R <keylen> <key> <t_ms> <value_bits> <fnv1a64>\n` where the
/// checksum covers exactly the `<keylen> ... <value_bits>` body, so a torn
/// tail (truncated write, partial flush) is detected and discarded.
std::string wal_record(std::string_view key, std::int64_t t_ms,
                       std::uint64_t value_bits) {
  std::string body = std::to_string(key.size());
  body += ' ';
  body += key;
  body += ' ';
  body += std::to_string(t_ms);
  body += ' ';
  body += std::to_string(value_bits);
  std::string record = "R " + body;
  record += ' ';
  record += std::to_string(util::fnv1a64({body.data(), body.size()}));
  record += '\n';
  return record;
}

bool parse_u64(const std::string& text, std::size_t& cursor, char terminator,
               std::uint64_t& out) {
  std::uint64_t value = 0;
  std::size_t digits = 0;
  while (cursor < text.size() && text[cursor] >= '0' && text[cursor] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[cursor] - '0');
    ++cursor;
    ++digits;
  }
  if (digits == 0 || cursor >= text.size() || text[cursor] != terminator) {
    return false;
  }
  ++cursor;
  out = value;
  return true;
}

bool parse_i64(const std::string& text, std::size_t& cursor, char terminator,
               std::int64_t& out) {
  bool negative = false;
  if (cursor < text.size() && text[cursor] == '-') {
    negative = true;
    ++cursor;
  }
  std::uint64_t magnitude = 0;
  if (!parse_u64(text, cursor, terminator, magnitude)) return false;
  out = negative ? -static_cast<std::int64_t>(magnitude)
                 : static_cast<std::int64_t>(magnitude);
  return true;
}

bool sample_before(const Sample& a, const Sample& b) {
  return a.t_ms < b.t_ms;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(TsdbConfig config)
    : config_(std::move(config)) {
  if (config_.head_span_ms <= 0) {
    throw std::invalid_argument("tsdb: head_span_ms must be positive");
  }
  if (config_.compact_fanin < 2) {
    throw std::invalid_argument("tsdb: compact_fanin must be at least 2");
  }
  seal_fault_ = fault::FaultInjector::maybe_point(config_.injector,
                                                 "tsdb.seal");
  compact_fault_ = fault::FaultInjector::maybe_point(config_.injector,
                                                     "tsdb.compact");
  read_fault_ = fault::FaultInjector::maybe_point(config_.injector,
                                                  "tsdb.read");
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    appends_ = &m.counter("tero.tsdb.appends");
    seals_ = &m.counter("tero.tsdb.seals");
    compactions_ = &m.counter("tero.tsdb.compactions");
    retention_drops_ = &m.counter("tero.tsdb.retention_drops");
    range_queries_ = &m.counter("tero.tsdb.range_queries");
    segments_gauge_ = &m.gauge("tero.tsdb.segments");
    head_samples_gauge_ = &m.gauge("tero.tsdb.head_samples");
    bytes_raw_gauge_ = &m.gauge("tero.tsdb.bytes_raw");
    bytes_compressed_gauge_ = &m.gauge("tero.tsdb.bytes_compressed");
    compact_ms_ = &m.histogram("tero.tsdb.compact_ms",
                               obs::default_duration_buckets_ms());
    read_segments_ = &m.histogram("tero.tsdb.read_segments",
                                  {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  }
  if (!config_.dir.empty()) recover();
}

TimeSeriesStore::~TimeSeriesStore() = default;

std::string TimeSeriesStore::segment_path(std::uint64_t id) const {
  return config_.dir + "/" + segment_filename(id);
}

// -- recovery -----------------------------------------------------------------

void TimeSeriesStore::recover() {
  fs::create_directories(config_.dir);
  const std::string manifest_path = config_.dir + "/manifest.tkv";
  std::set<std::uint64_t> listed;
  if (fs::exists(manifest_path)) {
    const store::KvStore kv = store::load_kv_file(manifest_path);
    const auto sealed = kv.get("sealed_until");
    const auto next = kv.get("next_id");
    if (!sealed || !next) {
      throw std::runtime_error("tsdb: manifest missing header fields");
    }
    sealed_until_ = std::stoll(*sealed);
    next_id_ = std::stoull(*next);
    for (const std::string& key : kv.keys_with_prefix("s:")) {
      const std::uint64_t id = std::stoull(key.substr(2));
      auto segment =
          std::make_shared<const Segment>(load_segment(segment_path(id)));
      if (segment->id != id) {
        throw std::runtime_error("tsdb: segment id mismatch in " +
                                 segment_path(id));
      }
      segments_.push_back(std::move(segment));
      listed.insert(id);
    }
    std::sort(segments_.begin(), segments_.end(),
              [](const auto& a, const auto& b) {
                return std::pair(a->min_t, a->id) < std::pair(b->min_t, b->id);
              });
  }
  // Segment files the manifest does not reference are leftovers from a
  // crash between the file write and the manifest save; their samples are
  // still covered by the WAL (seal) or by the still-listed inputs
  // (compaction), so deleting them is always safe.
  for (const auto& entry : fs::directory_iterator(config_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("segment-", 0) != 0 || name.size() <= 12 ||
        name.substr(name.size() - 4) != ".tkv") {
      continue;
    }
    const std::string digits = name.substr(8, name.size() - 12);
    std::uint64_t id = 0;
    std::size_t cursor = 0;
    std::string padded = digits + "$";
    if (!parse_u64(padded, cursor, '$', id) || listed.count(id) != 0) {
      continue;
    }
    fs::remove(entry.path());
  }
  replay_wal(config_.dir + "/wal.log");
  rewrite_wal_locked();
  refresh_gauges_locked();
}

void TimeSeriesStore::replay_wal(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string content = buffer.str();
  std::size_t cursor = 0;
  while (cursor < content.size()) {
    if (content.compare(cursor, 2, "R ") != 0) break;
    cursor += 2;
    const std::size_t body_begin = cursor;
    std::uint64_t key_len = 0;
    if (!parse_u64(content, cursor, ' ', key_len)) break;
    if (content.size() - cursor < key_len + 1) break;
    const std::string key = content.substr(cursor, key_len);
    cursor += key_len;
    if (content[cursor] != ' ') break;
    ++cursor;
    std::int64_t t_ms = 0;
    std::uint64_t value_bits = 0;
    if (!parse_i64(content, cursor, ' ', t_ms)) break;
    if (!parse_u64(content, cursor, ' ', value_bits)) break;
    const std::size_t body_end = cursor - 1;
    std::uint64_t checksum = 0;
    if (!parse_u64(content, cursor, '\n', checksum)) break;
    const std::uint64_t computed = util::fnv1a64(
        {content.data() + body_begin, body_end - body_begin});
    if (computed != checksum) break;  // torn tail: discard from here on
    if (t_ms < sealed_until_) continue;  // already sealed before the crash
    auto it = head_.find(key);
    if (it == head_.end()) it = head_.emplace(key, std::vector<Sample>{}).first;
    it->second.push_back({t_ms, std::bit_cast<double>(value_bits)});
    ++head_samples_;
  }
}

void TimeSeriesStore::rewrite_wal_locked() {
  if (config_.dir.empty()) return;
  const std::string path = config_.dir + "/wal.log";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    for (const auto& [key, samples] : head_) {
      for (const Sample& sample : samples) {
        os << wal_record(key, sample.t_ms,
                         std::bit_cast<std::uint64_t>(sample.value));
      }
    }
  }
  if (wal_.is_open()) wal_.close();
  fs::rename(tmp, path);
  wal_.open(path, std::ios::binary | std::ios::app);
}

void TimeSeriesStore::wal_append_locked(std::string_view key,
                                        std::int64_t t_ms,
                                        std::uint64_t value_bits) {
  if (config_.dir.empty()) return;
  if (!wal_.is_open()) {
    wal_.open(config_.dir + "/wal.log", std::ios::binary | std::ios::app);
  }
  wal_ << wal_record(key, t_ms, value_bits) << std::flush;
}

void TimeSeriesStore::save_manifest_locked() {
  if (config_.dir.empty()) return;
  store::KvStore kv;
  kv.put("sealed_until", std::to_string(sealed_until_));
  kv.put("next_id", std::to_string(next_id_));
  for (const auto& segment : segments_) {
    kv.put("s:" + std::to_string(segment->id),
           std::to_string(segment->level));
  }
  store::save_kv_file(kv, config_.dir + "/manifest.tkv");
}

// -- writes -------------------------------------------------------------------

void TimeSeriesStore::append(std::string_view key, std::int64_t t_ms,
                             double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (t_ms < sealed_until_) {
    throw std::invalid_argument(
        "tsdb: append at " + std::to_string(t_ms) +
        " behind sealed frontier " + std::to_string(sealed_until_));
  }
  // The WAL write is the acknowledgement point: once it returns, recovery
  // replays the sample no matter where a later crash lands.
  wal_append_locked(key, t_ms, std::bit_cast<std::uint64_t>(value));
  auto it = head_.find(key);
  if (it == head_.end()) {
    it = head_.emplace(std::string(key), std::vector<Sample>{}).first;
  }
  it->second.push_back({t_ms, value});
  ++head_samples_;
  if (appends_ != nullptr) appends_->add();
  if (head_samples_gauge_ != nullptr) {
    head_samples_gauge_->set(static_cast<double>(head_samples_));
  }
}

void TimeSeriesStore::seal_locked(std::int64_t boundary) {
  std::map<std::string, std::vector<Sample>> sealed;
  for (auto& [key, samples] : head_) {
    std::stable_sort(samples.begin(), samples.end(), sample_before);
    const auto split = std::lower_bound(
        samples.begin(), samples.end(), Sample{boundary, 0.0}, sample_before);
    if (split == samples.begin()) continue;
    sealed.emplace(key, std::vector<Sample>(samples.begin(), split));
    samples.erase(samples.begin(), split);
  }
  std::uint64_t sealed_count = 0;
  for (const auto& [key, samples] : sealed) sealed_count += samples.size();

  if (sealed_count > 0 && seal_fault_ != nullptr) {
    const fault::FaultDecision decision = seal_fault_->hit();
    if (decision.kind == fault::FaultKind::kCrash) {
      write_torn_file(segment_path(next_id_));
      // Put the samples back: the in-memory store object stays consistent
      // for callers that catch the crash and carry on.
      for (auto& [key, samples] : sealed) {
        auto& run = head_[key];
        run.insert(run.begin(), samples.begin(), samples.end());
      }
      throw std::runtime_error("tsdb: injected crash during seal");
    }
    if (decision.kind == fault::FaultKind::kError ||
        decision.kind == fault::FaultKind::kCorrupt) {
      for (auto& [key, samples] : sealed) {
        auto& run = head_[key];
        run.insert(run.begin(), samples.begin(), samples.end());
      }
      return;  // skipped cleanly; the next advance retries
    }
  }

  if (sealed_count > 0) {
    const std::uint64_t id = next_id_++;
    auto segment =
        std::make_shared<const Segment>(build_segment(id, 0, sealed));
    if (!config_.dir.empty()) save_segment(*segment, segment_path(id));
    segments_.push_back(std::move(segment));
    std::sort(segments_.begin(), segments_.end(),
              [](const auto& a, const auto& b) {
                return std::pair(a->min_t, a->id) < std::pair(b->min_t, b->id);
              });
    head_samples_ -= sealed_count;
    if (seals_ != nullptr) seals_->add();
  }
  sealed_until_ = boundary;
}

void TimeSeriesStore::compact_locked() {
  obs::ScopedTimer timer(compact_ms_);
  struct Job {
    std::vector<std::shared_ptr<const Segment>> inputs;
    std::uint64_t out_id = 0;
    std::uint32_t out_level = 0;
  };
  while (true) {
    // Plan one round serially: every level with compact_fanin segments
    // contributes merges of its oldest fanin-sized runs. Output ids are
    // assigned here, in plan order, so segment identity is independent of
    // execution interleaving.
    std::vector<Job> jobs;
    std::map<std::uint32_t, std::vector<std::shared_ptr<const Segment>>>
        by_level;
    for (const auto& segment : segments_) {
      by_level[segment->level].push_back(segment);
    }
    for (auto& [level, group] : by_level) {
      std::sort(group.begin(), group.end(),
                [](const auto& a, const auto& b) { return a->id < b->id; });
      for (std::size_t i = 0; i + config_.compact_fanin <= group.size();
           i += config_.compact_fanin) {
        Job job;
        job.inputs.assign(group.begin() + static_cast<std::ptrdiff_t>(i),
                          group.begin() + static_cast<std::ptrdiff_t>(
                                              i + config_.compact_fanin));
        job.out_id = next_id_++;
        job.out_level = level + 1;
        jobs.push_back(std::move(job));
      }
    }
    if (jobs.empty()) break;

    // Merging is pure (inputs -> output bytes); only this fan-out runs on
    // the pool. Faults are consulted serially in plan order afterwards.
    auto outputs = util::parallel_map(
        config_.pool, jobs.size(), 1, [&](std::size_t i) {
          return std::make_shared<const Segment>(merge_segments(
              jobs[i].inputs, jobs[i].out_id, jobs[i].out_level));
        });

    bool progressed = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (compact_fault_ != nullptr) {
        const fault::FaultDecision decision = compact_fault_->hit();
        if (decision.kind == fault::FaultKind::kCrash) {
          write_torn_file(segment_path(jobs[i].out_id));
          throw std::runtime_error("tsdb: injected crash during compaction");
        }
        if (decision.kind == fault::FaultKind::kError ||
            decision.kind == fault::FaultKind::kCorrupt) {
          continue;  // inputs survive; replanned (and re-drawn) next advance
        }
      }
      if (!config_.dir.empty()) {
        save_segment(*outputs[i], segment_path(jobs[i].out_id));
      }
      for (const auto& input : jobs[i].inputs) {
        std::erase(segments_, input);
        doomed_files_.push_back(segment_path(input->id));
      }
      segments_.push_back(outputs[i]);
      progressed = true;
      if (compactions_ != nullptr) compactions_->add();
    }
    std::sort(segments_.begin(), segments_.end(),
              [](const auto& a, const auto& b) {
                return std::pair(a->min_t, a->id) < std::pair(b->min_t, b->id);
              });
    if (!progressed) break;  // every job skipped: don't spin on the fault
  }
}

void TimeSeriesStore::retain_locked(std::int64_t frontier) {
  if (config_.retention_ms <= 0) return;
  const std::int64_t horizon = frontier - config_.retention_ms;
  for (auto it = segments_.begin(); it != segments_.end();) {
    if ((*it)->max_t < horizon) {
      doomed_files_.push_back(segment_path((*it)->id));
      it = segments_.erase(it);
      if (retention_drops_ != nullptr) retention_drops_->add();
    } else {
      ++it;
    }
  }
}

void TimeSeriesStore::advance_to(std::int64_t t_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t boundary =
      (t_ms / config_.head_span_ms) * config_.head_span_ms;
  const std::int64_t sealed_before = sealed_until_;
  if (boundary > sealed_until_) seal_locked(boundary);
  compact_locked();
  retain_locked(t_ms);
  // Crash-ordering invariant: every file the manifest references was
  // written (and renamed into place) above; inputs and expired segments
  // are unlinked only after the manifest stopped referencing them.
  save_manifest_locked();
  for (const std::string& path : doomed_files_) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  doomed_files_.clear();
  if (sealed_until_ != sealed_before) rewrite_wal_locked();
  refresh_gauges_locked();
}

void TimeSeriesStore::refresh_gauges_locked() {
  if (segments_gauge_ == nullptr) return;
  std::uint64_t raw = 0;
  std::uint64_t compressed = 0;
  for (const auto& segment : segments_) {
    raw += segment->raw_bytes;
    compressed += segment->compressed_bytes;
  }
  segments_gauge_->set(static_cast<double>(segments_.size()));
  head_samples_gauge_->set(static_cast<double>(head_samples_));
  bytes_raw_gauge_->set(static_cast<double>(raw));
  bytes_compressed_gauge_->set(static_cast<double>(compressed));
}

// -- reads --------------------------------------------------------------------

std::vector<RangePoint> TimeSeriesStore::range(const RangeQuery& query) const {
  if (query.window_ms <= 0 || query.t1_ms <= query.t0_ms) {
    throw std::invalid_argument("tsdb: range needs t1 > t0 and window > 0");
  }
  const std::int64_t span = query.t1_ms - query.t0_ms;
  const std::int64_t windows = (span + query.window_ms - 1) / query.window_ms;
  if (windows > kMaxWindows) {
    throw std::invalid_argument("tsdb: range spans too many windows");
  }

  std::vector<std::shared_ptr<const Segment>> overlapping;
  std::vector<Sample> head_slice;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (read_fault_ != nullptr) {
      const fault::FaultDecision decision = read_fault_->hit();
      if (decision.kind == fault::FaultKind::kError ||
          decision.kind == fault::FaultKind::kCrash) {
        throw std::runtime_error("tsdb: injected read fault");
      }
    }
    for (const auto& segment : segments_) {
      if (segment->min_t < query.t1_ms && segment->max_t >= query.t0_ms) {
        overlapping.push_back(segment);
      }
    }
    const auto it = head_.find(query.key);
    if (it != head_.end()) {
      for (const Sample& sample : it->second) {
        if (sample.t_ms >= query.t0_ms && sample.t_ms < query.t1_ms) {
          head_slice.push_back(sample);
        }
      }
    }
    if (range_queries_ != nullptr) range_queries_->add();
  }
  if (read_segments_ != nullptr) {
    read_segments_->observe(static_cast<double>(overlapping.size()));
  }

  struct WindowAgg {
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<WindowAgg> aggs(static_cast<std::size_t>(windows));
  // Percentile windows keep their values (tagged by window) and select the
  // rank-th one at the end: no sketch, lock or map insert per sample.
  const bool keep_values = query.agg == RangeAgg::kPercentile;
  std::vector<std::pair<std::size_t, double>> kept;
  const auto fold = [&](const Sample& sample) {
    if (sample.t_ms < query.t0_ms || sample.t_ms >= query.t1_ms) return;
    const auto w =
        static_cast<std::size_t>((sample.t_ms - query.t0_ms) / query.window_ms);
    ++aggs[w].count;
    aggs[w].sum += sample.value;
    if (keep_values) kept.emplace_back(w, sample.value);
  };
  // Stream chunk-by-chunk: one Sample at a time through the cursor, folded
  // straight into the window aggregates — no decoded series vector exists
  // at any point. A chunk's timestamps never decrease, so decoding stops at
  // its first sample at or after t1.
  for (const auto& segment : overlapping) {
    const SeriesChunk* chunk = segment->find(query.key);
    if (chunk == nullptr || chunk->min_t >= query.t1_ms ||
        chunk->max_t < query.t0_ms) {
      continue;
    }
    ChunkCursor cursor(chunk->bytes, ChunkCursor::kVerified);
    Sample sample;
    while (cursor.next(sample) && sample.t_ms < query.t1_ms) fold(sample);
  }
  for (const Sample& sample : head_slice) fold(sample);

  // Group the kept values by window (a counting sort): window w owns
  // values[starts[w], starts[w] + count).
  std::vector<std::size_t> starts(keep_values ? aggs.size() : 0);
  std::vector<double> values(kept.size());
  if (keep_values) {
    std::size_t next = 0;
    for (std::size_t w = 0; w < aggs.size(); ++w) {
      starts[w] = next;
      next += aggs[w].count;
    }
    std::vector<std::size_t> fill = starts;
    for (const auto& [w, value] : kept) values[fill[w]++] = value;
  }

  std::vector<RangePoint> points;
  points.reserve(aggs.size());
  for (std::size_t w = 0; w < aggs.size(); ++w) {
    RangePoint point;
    point.t_ms = query.t0_ms + static_cast<std::int64_t>(w) * query.window_ms;
    point.count = aggs[w].count;
    if (aggs[w].count > 0) {
      switch (query.agg) {
        case RangeAgg::kCount:
          point.value = static_cast<double>(aggs[w].count);
          break;
        case RangeAgg::kMean:
          point.value = aggs[w].sum / static_cast<double>(aggs[w].count);
          break;
        case RangeAgg::kPercentile:
          point.value = obs::QuantileSketch::quantile_of_values(
              obs::QuantileSketch::kDefaultAlpha,
              std::span(values).subspan(starts[w], aggs[w].count),
              query.pct / 100.0);
          break;
      }
    }
    points.push_back(point);
  }
  return points;
}

double TimeSeriesStore::drift(std::string_view key, std::int64_t now_ms,
                              double pct) const {
  constexpr std::int64_t kWeekMs = 7ll * 86'400'000;
  RangeQuery current;
  current.key = std::string(key);
  current.t0_ms = now_ms - kWeekMs;
  current.t1_ms = now_ms;
  current.window_ms = kWeekMs;
  current.agg = RangeAgg::kPercentile;
  current.pct = pct;
  RangeQuery previous = current;
  previous.t0_ms = now_ms - 2 * kWeekMs;
  previous.t1_ms = now_ms - kWeekMs;
  const auto a = range(current);
  const auto b = range(previous);
  return a.front().value - b.front().value;
}

// -- introspection ------------------------------------------------------------

std::int64_t TimeSeriesStore::sealed_until() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sealed_until_;
}

TimeSeriesStore::Stats TimeSeriesStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.segments = segments_.size();
  stats.head_samples = head_samples_;
  stats.sealed_until_ms = sealed_until_;
  for (const auto& segment : segments_) {
    stats.segment_samples += segment->sample_count;
    stats.raw_bytes += segment->raw_bytes;
    stats.compressed_bytes += segment->compressed_bytes;
  }
  return stats;
}

std::vector<std::string> TimeSeriesStore::keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::string> keys;
  for (const auto& segment : segments_) {
    for (const SeriesChunk& chunk : segment->chunks) keys.insert(chunk.key);
  }
  for (const auto& [key, samples] : head_) {
    if (!samples.empty()) keys.insert(key);
  }
  return {keys.begin(), keys.end()};
}

std::vector<Sample> TimeSeriesStore::series(std::string_view key) const {
  std::vector<std::shared_ptr<const Segment>> segments;
  std::vector<Sample> head_slice;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    segments = segments_;
    const auto it = head_.find(key);
    if (it != head_.end()) head_slice = it->second;
  }
  std::vector<Sample> out;
  for (const auto& segment : segments) {
    const SeriesChunk* chunk = segment->find(key);
    if (chunk == nullptr) continue;
    ChunkCursor cursor(chunk->bytes, ChunkCursor::kVerified);
    Sample sample;
    while (cursor.next(sample)) out.push_back(sample);
  }
  std::stable_sort(head_slice.begin(), head_slice.end(), sample_before);
  out.insert(out.end(), head_slice.begin(), head_slice.end());
  return out;
}

std::uint64_t TimeSeriesStore::dataset_digest() const {
  std::uint64_t digest = 0x7465726f74736462ULL;  // "terotsdb"
  for (const std::string& key : keys()) {
    digest = util::mix_seed(digest, util::fnv1a64({key.data(), key.size()}));
    for (const Sample& sample : series(key)) {
      digest = util::mix_seed(
          digest, util::mix_seed(static_cast<std::uint64_t>(sample.t_ms),
                                 std::bit_cast<std::uint64_t>(sample.value)));
    }
  }
  return digest;
}

std::string TimeSeriesStore::segment_layout() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  bool first = true;
  for (const auto& segment : segments_) {
    if (!first) os << ',';
    os << segment->id << ':' << segment->level << ':' << segment->sample_count;
    first = false;
  }
  return os.str();
}

}  // namespace tero::tsdb
