#include "tsdb/segment.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "store/kv_store.hpp"
#include "store/persistence.hpp"

namespace tero::tsdb {
namespace {

SeriesChunk make_chunk(std::string key, std::span<const Sample> samples) {
  SeriesChunk chunk;
  chunk.key = std::move(key);
  chunk.bytes = encode_chunk(samples);
  chunk.min_t = samples.front().t_ms;
  chunk.max_t = samples.back().t_ms;
  chunk.count = samples.size();
  return chunk;
}

void finalize(Segment& segment) {
  segment.sample_count = 0;
  segment.compressed_bytes = 0;
  segment.min_t = 0;
  segment.max_t = 0;
  bool first = true;
  for (const SeriesChunk& chunk : segment.chunks) {
    segment.sample_count += chunk.count;
    segment.compressed_bytes += chunk.bytes.size();
    if (first || chunk.min_t < segment.min_t) segment.min_t = chunk.min_t;
    if (first || chunk.max_t > segment.max_t) segment.max_t = chunk.max_t;
    first = false;
  }
  segment.raw_bytes = segment.sample_count * kRawSampleBytes;
}

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw std::runtime_error("load_segment: " + path + ": " + why);
}

}  // namespace

const SeriesChunk* Segment::find(std::string_view key) const {
  const auto it = std::lower_bound(
      chunks.begin(), chunks.end(), key,
      [](const SeriesChunk& chunk, std::string_view k) {
        return chunk.key < k;
      });
  if (it == chunks.end() || it->key != key) return nullptr;
  return &*it;
}

Segment build_segment(std::uint64_t id, std::uint32_t level,
                      const std::map<std::string, std::vector<Sample>>& series) {
  Segment segment;
  segment.id = id;
  segment.level = level;
  segment.chunks.reserve(series.size());
  for (const auto& [key, samples] : series) {
    if (samples.empty()) continue;
    segment.chunks.push_back(make_chunk(key, samples));
  }
  finalize(segment);
  return segment;
}

Segment merge_segments(std::span<const std::shared_ptr<const Segment>> inputs,
                       std::uint64_t id, std::uint32_t level) {
  // Gather the union of keys in sorted order, then re-encode one key at a
  // time so peak memory is one decoded series, not the whole merge.
  std::vector<std::string_view> keys;
  for (const auto& input : inputs) {
    for (const SeriesChunk& chunk : input->chunks) keys.push_back(chunk.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  Segment segment;
  segment.id = id;
  segment.level = level;
  segment.chunks.reserve(keys.size());
  std::vector<Sample> merged;
  for (const std::string_view key : keys) {
    merged.clear();
    for (const auto& input : inputs) {
      const SeriesChunk* chunk = input->find(key);
      if (chunk == nullptr) continue;
      ChunkCursor cursor(chunk->bytes, ChunkCursor::kVerified);
      Sample sample;
      while (cursor.next(sample)) merged.push_back(sample);
      cursor.expect_end();
    }
    // Inputs are oldest-first with non-overlapping ranges, but a stable sort
    // keeps the merge correct (and duplicate order reproducible) even if a
    // caller hands over overlapping segments.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Sample& a, const Sample& b) {
                       return a.t_ms < b.t_ms;
                     });
    segment.chunks.push_back(make_chunk(std::string(key), merged));
  }
  finalize(segment);
  return segment;
}

std::string segment_filename(std::uint64_t id) {
  return "segment-" + std::to_string(id) + ".tkv";
}

void save_segment(const Segment& segment, const std::string& path) {
  store::KvStore kv;
  std::ostringstream meta;
  meta << segment.id << ' ' << segment.level << ' ' << segment.min_t << ' '
       << segment.max_t << ' ' << segment.sample_count;
  kv.put("meta", meta.str());
  for (const SeriesChunk& chunk : segment.chunks) {
    kv.put("k:" + chunk.key, chunk.bytes);
    std::ostringstream info;
    info << chunk.min_t << ' ' << chunk.max_t << ' ' << chunk.count;
    kv.put("i:" + chunk.key, info.str());
  }
  store::save_kv_file(kv, path);
}

Segment load_segment(const std::string& path) {
  const store::KvStore kv = store::load_kv_file(path);
  const auto meta = kv.get("meta");
  if (!meta) reject(path, "missing meta");
  Segment segment;
  {
    std::istringstream is(*meta);
    if (!(is >> segment.id >> segment.level >> segment.min_t >>
          segment.max_t >> segment.sample_count)) {
      reject(path, "malformed meta");
    }
  }
  const std::uint64_t declared = segment.sample_count;
  for (const std::string& kv_key : kv.keys_with_prefix("k:")) {
    SeriesChunk chunk;
    chunk.key = kv_key.substr(2);
    chunk.bytes = *kv.get(kv_key);
    const auto info = kv.get("i:" + chunk.key);
    if (!info) reject(path, "missing chunk info for " + chunk.key);
    std::istringstream is(*info);
    if (!(is >> chunk.min_t >> chunk.max_t >> chunk.count)) {
      reject(path, "malformed chunk info for " + chunk.key);
    }
    // Decode every chunk to its end once, here: range() stops decoding at
    // a query's t1, so bits past it would otherwise go unchecked until some
    // later query reached them.
    try {
      ChunkCursor cursor(chunk.bytes);
      if (cursor.count() != chunk.count) {
        reject(path, "chunk count mismatch for " + chunk.key);
      }
      Sample sample;
      for (std::uint64_t i = 0; cursor.next(sample); ++i) {
        if ((i == 0 && sample.t_ms != chunk.min_t) ||
            (i + 1 == chunk.count && sample.t_ms != chunk.max_t)) {
          reject(path, "chunk time range mismatch for " + chunk.key);
        }
      }
      cursor.expect_end();
    } catch (const ChunkCorruptError& err) {
      reject(path, err.what());
    }
    segment.chunks.push_back(std::move(chunk));
  }
  // keys_with_prefix returns sorted keys, so chunks are already key-ordered.
  finalize(segment);
  if (declared != segment.sample_count) {
    reject(path, "sample count mismatch");
  }
  return segment;
}

}  // namespace tero::tsdb
