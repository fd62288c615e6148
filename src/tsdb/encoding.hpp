#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tero::tsdb {

/// One latency observation in a series: integer-millisecond timestamp plus
/// a double value. Timestamps within a chunk must be non-decreasing
/// (duplicates allowed — two thumbnails can land in the same millisecond);
/// the encoder rejects regressions so a decoded chunk is always sorted.
struct Sample {
  std::int64_t t_ms = 0;
  double value = 0.0;

  friend bool operator==(const Sample&, const Sample&) = default;
};

/// Raw footprint of one sample (int64 timestamp + double value) — the
/// baseline the compression ratio in BENCH_tsdb.json is measured against.
inline constexpr std::size_t kRawSampleBytes = sizeof(std::int64_t) +
                                               sizeof(double);

/// Gorilla-lineage chunk codec (DESIGN.md §15).
///
/// Timestamps are delta-of-delta encoded: a steady sampling cadence costs
/// one bit per sample after the first two. Values are XOR-compressed against
/// their predecessor with the classic leading/meaningful-bits window reuse,
/// so integer-millisecond latencies (the OCR path emits whole milliseconds)
/// cost a few bits each instead of 64.
///
/// Chunk layout (byte-aligned header, then a bit stream, then a checksum):
///
///   varint   sample count n
///   zigzag   t[0]
///   u64      bits(value[0])
///   bits     n-1 x (dod-encoded timestamp, xor-encoded value)
///   padding  to the next byte boundary (zero bits)
///   u64le    fnv1a64 over every preceding byte
///
/// dod buckets: '0' (dod == 0), '10'+7b, '110'+9b, '1110'+12b, '1111'+64b.
/// value: '0' (xor == 0); '10' + meaningful bits in the previous window;
/// '11' + 6b leading-zero count + 6b (window length - 1) + window bits.
///
/// decode_chunk verifies the trailing checksum before touching the bit
/// stream and bounds the declared count against the available bits, so any
/// single-byte corruption — payload, header, or checksum — raises
/// ChunkCorruptError instead of silently returning wrong samples
/// (tests/tsdb_test.cpp sweeps every byte). A chunk's checksum is verified
/// once, when its bytes enter memory (encode_chunk made them, or
/// load_segment decoded them end to end); reads of those in-memory chunks
/// skip it (ChunkCursor's kVerified constructor).

class ChunkCorruptError : public std::runtime_error {
 public:
  explicit ChunkCorruptError(const std::string& what)
      : std::runtime_error("tsdb chunk: " + what) {}
};

/// Encode a non-decreasing sample run. Throws std::invalid_argument on a
/// timestamp regression.
[[nodiscard]] std::string encode_chunk(std::span<const Sample> samples);

/// Streaming decoder: yields one sample at a time so range queries fold
/// samples into window aggregates without ever materializing a series
/// vector. The construction verifies the trailing checksum up front; the
/// chunk bytes must outlive the cursor (callers keep the owning Segment
/// alive for the duration of a query).
class ChunkCursor {
 public:
  /// Tag for bytes whose checksum was already verified: a chunk held in a
  /// Segment, which encode_chunk produced or load_segment checked.
  struct Verified {};
  static constexpr Verified kVerified{};

  explicit ChunkCursor(std::string_view bytes);
  /// Skips the checksum pass but keeps every header bound; malformed bits
  /// still throw ChunkCorruptError from next().
  ChunkCursor(std::string_view bytes, Verified);

  /// Total samples declared by the header.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Advance to the next sample; false once `count()` samples were yielded.
  /// Throws ChunkCorruptError on malformed bits.
  bool next(Sample& out);

  /// After next() returns false: verify only zero padding remains. Throws
  /// ChunkCorruptError otherwise (decode_chunk's trailing-garbage check).
  void expect_end();

 private:
  /// Parse and bound the header of `payload` (the bytes before the
  /// checksum).
  void read_header(std::string_view payload);

  // Bit-stream state; encoding.cpp's word-at-a-time reader works on it.
  const unsigned char* data_ = nullptr;  ///< start of the post-header bits
  std::size_t stream_bytes_ = 0;  ///< bytes from data_ to the checksum
  std::size_t next_byte_ = 0;     ///< first stream byte not yet in acc_
  std::uint64_t acc_ = 0;         ///< buffered stream bits, MSB first
  unsigned acc_bits_ = 0;         ///< valid bits at the top of acc_
  std::uint64_t count_ = 0;
  std::uint64_t emitted_ = 0;
  std::int64_t t_ = 0;
  std::int64_t delta_ = 0;
  std::uint64_t value_bits_ = 0;
  unsigned leading_ = 64;
  unsigned window_length_ = 0;
};

/// Decode a chunk produced by encode_chunk; bit-exact round trip. Throws
/// ChunkCorruptError on checksum mismatch, truncation, or malformed bits.
[[nodiscard]] std::vector<Sample> decode_chunk(std::string_view bytes);

}  // namespace tero::tsdb
