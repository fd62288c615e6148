#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/encoding.hpp"

namespace tero::tsdb {

/// One series inside a segment: the key plus its encoded chunk and the
/// time-range metadata needed to prune queries without decoding.
struct SeriesChunk {
  std::string key;
  /// encode_chunk output (checksummed). Its checksum holds by construction
  /// or was checked by load_segment, so readers use ChunkCursor::kVerified.
  std::string bytes;
  std::int64_t min_t = 0;
  std::int64_t max_t = 0;
  std::uint64_t count = 0;
};

/// An immutable, compressed run of samples covering [min_t, max_t] for every
/// series that had data in that window. Level 0 segments come from head
/// seals; compaction merges `fanin` same-level segments into one at the next
/// level. Segments are shared read-only (shared_ptr<const Segment>) so
/// queries can decode without holding the store lock.
struct Segment {
  std::uint64_t id = 0;
  std::uint32_t level = 0;
  std::int64_t min_t = 0;
  std::int64_t max_t = 0;
  std::uint64_t sample_count = 0;
  std::uint64_t raw_bytes = 0;         ///< sample_count * kRawSampleBytes
  std::uint64_t compressed_bytes = 0;  ///< sum of chunk byte sizes
  std::vector<SeriesChunk> chunks;     ///< sorted by key

  /// Binary search by key; nullptr when the segment has no such series.
  [[nodiscard]] const SeriesChunk* find(std::string_view key) const;
};

/// Encode a per-series sample map (each vector non-decreasing in time) into
/// a segment. Series iterate in map order, so chunk order — and therefore
/// the serialized bytes — is independent of insertion order.
[[nodiscard]] Segment build_segment(
    std::uint64_t id, std::uint32_t level,
    const std::map<std::string, std::vector<Sample>>& series);

/// Merge same-level input segments (oldest first, non-overlapping time
/// ranges) into one segment at `level`. Per key, samples are concatenated in
/// input order and stable-sorted by timestamp, so duplicate-timestamp order
/// is reproducible. Deterministic: depends only on the inputs.
[[nodiscard]] Segment merge_segments(
    std::span<const std::shared_ptr<const Segment>> inputs, std::uint64_t id,
    std::uint32_t level);

/// File name for a segment id within the store directory ("segment-<id>.tkv").
[[nodiscard]] std::string segment_filename(std::uint64_t id);

/// Persist through the TEROKV checksummed atomic-rename path
/// (store::save_kv_file): layout is "meta" -> "id level min_t max_t count",
/// one "k:<key>" -> chunk bytes and one "i:<key>" -> "min max count" pair
/// per series. A crash mid-save leaves the previous file (if any) intact.
void save_segment(const Segment& segment, const std::string& path);

/// Load and validate a segment file; throws std::runtime_error on torn,
/// truncated, or bit-flipped files (store::load_kv_file's checks), on
/// malformed segment layout, and on any chunk that fails its checksum or
/// does not decode to its end exactly as its "i:<key>" info declares.
[[nodiscard]] Segment load_segment(const std::string& path);

}  // namespace tero::tsdb
