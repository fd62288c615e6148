#include "ocr/extractor.hpp"

#include <algorithm>
#include <array>
#include <cctype>

#include "util/strings.hpp"

namespace tero::ocr {
namespace {

/// Letters the engines classically confuse with digits at low resolution
/// (§3.2: "mistake 8 for B or S, 0 for O, 4 for A").
std::optional<char> confusable_digit(char c) noexcept {
  switch (c) {
    case 'O': return '0';
    case 'B': return '8';
    case 'S': return '5';
    case 'A': return '4';
    case 'l': return '1';
    case 'i': return '1';
    default: return std::nullopt;
  }
}

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

LatencyExtractor::LatencyExtractor(PreprocessConfig config)
    : config_(config), engines_(make_builtin_engines()) {}

std::optional<int> LatencyExtractor::cleanup(const OcrOutput& output,
                                             const GameUiSpec& spec) {
  const std::string& text = output.text;
  if (text.empty()) return std::nullopt;

  // Locate the maximal window of digit-ish characters; label characters
  // ("ping", "ms", "latency") surround the number, and anything from the
  // game's own label set is never repaired into a digit.
  std::string label_chars = util::to_lower(spec.prefix + spec.suffix);
  auto is_label_char = [&](char c) {
    return label_chars.find(static_cast<char>(
               std::tolower(static_cast<unsigned char>(c)))) !=
           std::string::npos;
  };

  // First pass: find indices of true digits.
  int first_digit = -1;
  int last_digit = -1;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (is_digit(text[i])) {
      if (first_digit < 0) first_digit = static_cast<int>(i);
      last_digit = static_cast<int>(i);
    }
  }

  std::string number;
  if (first_digit >= 0) {
    // Extend across adjacent confusable letters (a 'B' between digits is
    // more likely an 8 than a label character), then repair.
    int start = first_digit;
    while (start > 0 && confusable_digit(text[start - 1]).has_value() &&
           !is_label_char(text[start - 1])) {
      --start;
    }
    int end = last_digit;
    while (end + 1 < static_cast<int>(text.size()) &&
           confusable_digit(text[end + 1]).has_value() &&
           !is_label_char(text[end + 1])) {
      ++end;
    }
    for (int i = start; i <= end; ++i) {
      if (is_digit(text[i])) {
        number += text[i];
      } else if (const auto repaired = confusable_digit(text[i])) {
        number += *repaired;
      }
      // Anything else inside the window (e.g. ':' from a clock overlay) is
      // dropped; the surviving digits still parse, which is exactly how the
      // "clock instead of latency" streamer fooled the real system (§4.2.2).
    }
  }
  if (number.empty()) return std::nullopt;
  // Up-to-3-digit rule and the zero-placeholder rule (App. E step 3).
  if (number.size() > 3) return std::nullopt;
  const long value = util::parse_uint_or(number, -1);
  if (value <= 0) return std::nullopt;
  return static_cast<int>(value);
}

LatencyReading LatencyExtractor::vote(
    std::span<const std::optional<int>> values) const {
  LatencyReading reading;
  // Find a value shared by at least two engines.
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!values[i].has_value()) continue;
    int agree = 0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[j] == values[i]) ++agree;
    }
    if (agree >= 2) {
      reading.primary = values[i];
      // Exactly two agreeing: keep the dissenting non-null value as the
      // alternative.
      for (std::size_t j = 0; j < values.size(); ++j) {
        if (values[j].has_value() && values[j] != values[i]) {
          reading.alternative = values[j];
          break;
        }
      }
      return reading;
    }
  }
  // No agreement. If nothing was extracted at all this is a plain miss;
  // otherwise it is ambiguous (engines disagree).
  const bool any =
      std::any_of(values.begin(), values.end(),
                  [](const std::optional<int>& v) { return v.has_value(); });
  reading.ambiguous = any;
  return reading;
}

LatencyReading LatencyExtractor::extract(const image::GrayImage& thumbnail,
                                         const GameUiSpec& spec) const {
  // One arena frame per thumbnail: the crop, every pre-processing
  // intermediate, and the binarized input to the engines all live in the
  // thread-local arena and are released wholesale when the frame ends —
  // zero global-allocator traffic on the steady-state hot path.
  image::Arena& arena = image::Arena::thread_local_arena();
  image::Arena::Frame frame(arena);
  const image::GrayImage crop = thumbnail.crop(spec.latency_region, arena);

  // One segmentation per pass, classified by all three engines.
  auto run = [&](const image::GrayImage& prepared) {
    const std::vector<Glyph> glyphs = segment_glyphs(prepared);
    std::array<std::optional<int>, 3> values;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      values[i] = cleanup(engines_[i]->classify(glyphs), spec);
    }
    return vote(std::span<const std::optional<int>>{values});
  };

  LatencyReading reading = run(preprocess(crop, config_, arena));
  if (reading.ambiguous) {
    // App. E step 4: reprocess without the full pre-processing.
    LatencyReading retry = run(preprocess_minimal(crop, arena));
    retry.reprocessed = true;
    retry.ambiguous = !retry.primary.has_value();
    return retry;
  }
  return reading;
}

std::optional<int> LatencyExtractor::extract_with_engine(
    const image::GrayImage& thumbnail, const GameUiSpec& spec,
    std::size_t engine_index) const {
  image::Arena& arena = image::Arena::thread_local_arena();
  image::Arena::Frame frame(arena);
  const image::GrayImage crop = thumbnail.crop(spec.latency_region, arena);
  const image::GrayImage prepared = preprocess(crop, config_, arena);
  return cleanup(engines_.at(engine_index)->recognize(prepared), spec);
}

}  // namespace tero::ocr
