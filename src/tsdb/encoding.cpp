#include "tsdb/encoding.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/rng.hpp"

namespace tero::tsdb {
namespace {

// -- bit stream ---------------------------------------------------------------

class BitWriter {
 public:
  explicit BitWriter(std::string& out) : out_(out) {}

  /// Write the low `bits` (1..64) bits of `value`, most significant first.
  void write_bits(std::uint64_t value, unsigned bits) {
    if (bits > 56) {
      put(value >> 32, bits - 32);
      put(value, 32);
      return;
    }
    put(value, bits);
  }

  /// Pad the last partial byte with zero bits and emit it.
  void flush() {
    if (fill_ > 0) out_.push_back(static_cast<char>(acc_ >> 56));
  }

 private:
  /// ORs up to 56 bits in below the pending ones, then emits every whole
  /// byte, so fewer than 8 bits stay pending between calls.
  void put(std::uint64_t value, unsigned bits) {
    value &= ~std::uint64_t{0} >> (64 - bits);
    acc_ |= value << (64 - fill_ - bits);
    fill_ += bits;
    while (fill_ >= 8) {
      out_.push_back(static_cast<char>(acc_ >> 56));
      acc_ <<= 8;
      fill_ -= 8;
    }
  }

  std::string& out_;
  std::uint64_t acc_ = 0;  ///< pending bits, MSB first
  unsigned fill_ = 0;      ///< number of pending bits
};

// -- byte-aligned header helpers ----------------------------------------------

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::uint64_t get_varint(const unsigned char* data, std::size_t size,
                         std::size_t& cursor) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    if (cursor >= size || shift > 63) {
      throw ChunkCorruptError("malformed varint header");
    }
    const unsigned char byte = data[cursor++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

void put_u64le(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64le(const unsigned char* data) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | data[i];
  }
  return value;
}

/// Eight bytes as one big-endian word: the first byte lands in the top bits,
/// the stream's bit order.
std::uint64_t load_be64(const unsigned char* data) {
  std::uint64_t word = 0;
  std::memcpy(&word, data, sizeof word);
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// dod bucket widths: {'10', 7}, {'110', 9}, {'1110', 12}, {'1111', 64}.
// The k-bit buckets store dod + 2^(k-1) (biased), covering
// [-2^(k-1), 2^(k-1) - 1].
constexpr std::int64_t kBias7 = 1ll << 6;
constexpr std::int64_t kBias9 = 1ll << 8;
constexpr std::int64_t kBias12 = 1ll << 11;

void write_dod(BitWriter& writer, std::int64_t dod) {
  const auto biased = [dod](std::int64_t bias) {
    return static_cast<std::uint64_t>(dod + bias);
  };
  if (dod == 0) {
    writer.write_bits(0, 1);
  } else if (dod >= -kBias7 && dod < kBias7) {
    writer.write_bits((0b10u << 7) | biased(kBias7), 2 + 7);
  } else if (dod >= -kBias9 && dod < kBias9) {
    writer.write_bits((0b110u << 9) | biased(kBias9), 3 + 9);
  } else if (dod >= -kBias12 && dod < kBias12) {
    writer.write_bits((0b1110u << 12) | biased(kBias12), 4 + 12);
  } else {
    writer.write_bits(0b1111, 4);
    writer.write_bits(zigzag(dod), 64);
  }
}

}  // namespace

std::string encode_chunk(std::span<const Sample> samples) {
  std::string out;
  out.reserve(16 + samples.size() * 2);
  put_varint(out, samples.size());
  if (!samples.empty()) {
    put_varint(out, zigzag(samples[0].t_ms));
    put_u64le(out, std::bit_cast<std::uint64_t>(samples[0].value));

    BitWriter writer(out);
    std::int64_t prev_t = samples[0].t_ms;
    std::int64_t prev_delta = 0;
    std::uint64_t prev_bits = std::bit_cast<std::uint64_t>(samples[0].value);
    unsigned prev_leading = 64;  // no window yet: force a '11' on first xor
    unsigned prev_length = 0;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const std::int64_t delta = samples[i].t_ms - prev_t;
      if (delta < 0) {
        throw std::invalid_argument(
            "encode_chunk: timestamps must be non-decreasing");
      }
      write_dod(writer, delta - prev_delta);
      prev_delta = delta;
      prev_t = samples[i].t_ms;

      const std::uint64_t bits = std::bit_cast<std::uint64_t>(samples[i].value);
      const std::uint64_t xored = bits ^ prev_bits;
      prev_bits = bits;
      if (xored == 0) {
        writer.write_bits(0, 1);
        continue;
      }
      const auto leading = static_cast<unsigned>(std::countl_zero(xored));
      const auto trailing = static_cast<unsigned>(std::countr_zero(xored));
      const unsigned length = 64 - leading - trailing;
      if (prev_length > 0 && leading >= prev_leading &&
          64 - leading - length >= 64 - prev_leading - prev_length) {
        // Fits inside the previous meaningful window: reuse it.
        writer.write_bits(0b10, 2);
        writer.write_bits(xored >> (64 - prev_leading - prev_length),
                          prev_length);
      } else {
        writer.write_bits((0b11u << 12) | (leading << 6) | (length - 1),
                          2 + 12);
        writer.write_bits(xored >> trailing, length);
        prev_leading = leading;
        prev_length = length;
      }
    }
    writer.flush();
  }
  put_u64le(out, util::fnv1a64({out.data(), out.size()}));
  return out;
}

namespace {

/// The bytes before the trailing checksum. The bit reader's word loads rely
/// on those 8 bytes following the stream, so both cursors require them.
std::string_view payload_of(std::string_view bytes) {
  if (bytes.size() < 8 + 1) {
    throw ChunkCorruptError("shorter than header + checksum");
  }
  return bytes.substr(0, bytes.size() - 8);
}

/// Strip and verify the trailing checksum, returning the protected payload.
std::string_view checked_payload(std::string_view bytes) {
  const std::string_view payload = payload_of(bytes);
  const std::uint64_t stored = get_u64le(
      reinterpret_cast<const unsigned char*>(bytes.data()) + payload.size());
  if (util::fnv1a64({payload.data(), payload.size()}) != stored) {
    throw ChunkCorruptError("checksum mismatch (corrupted chunk)");
  }
  return payload;
}

}  // namespace

ChunkCursor::ChunkCursor(std::string_view bytes) {
  read_header(checked_payload(bytes));
}

ChunkCursor::ChunkCursor(std::string_view bytes, Verified) {
  read_header(payload_of(bytes));
}

void ChunkCursor::read_header(std::string_view payload) {
  const auto* data = reinterpret_cast<const unsigned char*>(payload.data());
  std::size_t cursor = 0;
  count_ = get_varint(data, payload.size(), cursor);
  if (count_ == 0) {
    if (cursor != payload.size()) {
      throw ChunkCorruptError("trailing bytes after empty chunk");
    }
    data_ = data + cursor;
    return;
  }
  // Every sample past the first costs at least 2 bits (dod '0' + xor '0'),
  // so an insane declared count is rejected before any allocation.
  if (count_ > 1 && (count_ - 1) > payload.size() * 8) {
    throw ChunkCorruptError("declared count exceeds available bits");
  }
  t_ = unzigzag(get_varint(data, payload.size(), cursor));
  if (payload.size() - cursor < 8) {
    throw ChunkCorruptError("truncated first value");
  }
  value_bits_ = get_u64le(data + cursor);
  cursor += 8;
  data_ = data + cursor;
  stream_bytes_ = payload.size() - cursor;
}

namespace {

/// MSB-first reader over a chunk's bit stream, refilled a 64-bit word at a
/// time. ChunkCursor::next() runs one over the cursor's stream state and
/// stores that state back after each sample.
struct BitReader {
  const unsigned char* data;  ///< start of the stream
  std::size_t stream_bytes;   ///< stream bytes before the checksum
  std::size_t next_byte;      ///< first stream byte not yet in acc
  std::uint64_t acc;          ///< buffered stream bits, MSB first
  unsigned acc_bits;          ///< valid bits at the top of acc

  /// Top up acc with whole stream bytes: afterwards it holds at least 56
  /// valid bits, or every bit the stream has left.
  void refill() noexcept {
    // The 8-byte checksum follows the stream, so a word load at any stream
    // offset stays inside the chunk. Only whole stream bytes count as
    // valid; the bits below them are the bytes that follow in memory (or
    // zeros), so OR-ing the next load over them is exact.
    acc |= load_be64(data + next_byte) >> acc_bits;
    const std::size_t bytes =
        std::min<std::size_t>((63 - acc_bits) / 8, stream_bytes - next_byte);
    next_byte += bytes;
    acc_bits += static_cast<unsigned>(bytes) * 8;
  }

  /// refill(), then throw ChunkCorruptError unless `bits` bits are valid.
  void refill_for(unsigned bits);

  /// Consume the next `bits` (1..56) stream bits. Throws ChunkCorruptError
  /// when fewer remain.
  std::uint64_t take(unsigned bits) {
    if (acc_bits < bits) refill_for(bits);
    const std::uint64_t value = acc >> (64 - bits);
    acc <<= bits;
    acc_bits -= bits;
    return value;
  }

  /// take() for 1..64 bits: a wider field is read as two parts.
  std::uint64_t read_bits(unsigned bits) {
    if (bits <= 56) return take(bits);
    const std::uint64_t high = take(bits - 32);
    return (high << 32) | take(32);
  }
};

void BitReader::refill_for(unsigned bits) {
  refill();
  if (acc_bits < bits) {
    throw ChunkCorruptError("bit stream exhausted (truncated chunk)");
  }
}

/// The prefix is up to four bits, and next() refilled just before, so acc
/// holds at least four valid bits or the whole rest of the stream. With
/// fewer, a '0' among them decides the bucket; an all-ones remainder asks
/// take() for more bits than exist, which throws as a bit-wise read would.
std::int64_t read_dod(BitReader& in) {
  switch (std::min(std::countl_one(in.acc), 4)) {
    case 0:
      (void)in.take(1);
      return 0;
    case 1:
      return static_cast<std::int64_t>(in.take(2 + 7) & 0x7f) - kBias7;
    case 2:
      return static_cast<std::int64_t>(in.take(3 + 9) & 0x1ff) - kBias9;
    case 3:
      return static_cast<std::int64_t>(in.take(4 + 12) & 0xfff) - kBias12;
    default:
      (void)in.take(4);
      return unzigzag(in.read_bits(64));
  }
}

}  // namespace

bool ChunkCursor::next(Sample& out) {
  if (emitted_ >= count_) return false;
  if (emitted_ == 0) {
    ++emitted_;
    out = {t_, std::bit_cast<double>(value_bits_)};
    return true;
  }
  BitReader in{data_, stream_bytes_, next_byte_, acc_, acc_bits_};
  // At least 56 bits after this: a usual sample needs no further refill.
  in.refill();
  const std::int64_t dod = read_dod(in);
  std::int64_t delta = 0;
  if (__builtin_add_overflow(delta_, dod, &delta)) {
    throw ChunkCorruptError("decoded timestamp delta overflows");
  }
  if (delta < 0) {
    throw ChunkCorruptError("decoded negative timestamp delta");
  }
  std::int64_t t = 0;
  if (__builtin_add_overflow(t_, delta, &t)) {
    throw ChunkCorruptError("decoded timestamp overflows");
  }

  // read_dod() leaves at least 24 valid bits unless the stream is fully
  // loaded, so the '0' / '10' / '11' control can be peeked without a refill
  // (past the end, take() throws whichever way the peek went).
  if ((in.acc >> 63) != 0) {
    if (in.take(2) == 0b11) {
      const auto header = static_cast<unsigned>(in.take(12));
      leading_ = header >> 6;
      window_length_ = (header & 0x3f) + 1;
      if (leading_ + window_length_ > 64) {
        throw ChunkCorruptError("xor window exceeds 64 bits");
      }
    } else if (window_length_ == 0) {
      throw ChunkCorruptError("window reuse before any window");
    }
    const std::uint64_t window = in.read_bits(window_length_);
    value_bits_ ^= window << (64 - leading_ - window_length_);
  } else {
    (void)in.take(1);
  }
  next_byte_ = in.next_byte;
  acc_ = in.acc;
  acc_bits_ = in.acc_bits;
  t_ = t;
  delta_ = delta;
  ++emitted_;
  out = {t_, std::bit_cast<double>(value_bits_)};
  return true;
}

void ChunkCursor::expect_end() {
  // Only zero padding may remain — a '1' bit here means the stream and the
  // declared count disagree.
  if (acc_bits_ + (stream_bytes_ - next_byte_) * 8 >= 8) {
    throw ChunkCorruptError("trailing bytes after last sample");
  }
  // Fewer than 8 bits left: every stream byte is already in acc_.
  if (acc_bits_ > 0 && (acc_ >> (64 - acc_bits_)) != 0) {
    throw ChunkCorruptError("nonzero padding after last sample");
  }
}

std::vector<Sample> decode_chunk(std::string_view bytes) {
  ChunkCursor cursor(bytes);
  std::vector<Sample> samples;
  samples.reserve(cursor.count());
  Sample sample;
  while (cursor.next(sample)) samples.push_back(sample);
  cursor.expect_end();
  return samples;
}

}  // namespace tero::tsdb
