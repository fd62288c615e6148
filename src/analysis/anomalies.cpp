#include "analysis/anomalies.hpp"

#include <algorithm>
#include <optional>

#include "analysis/segmentation.hpp"

namespace tero::analysis {
namespace {

/// Index of the closest stable segment strictly before/after `index`, or
/// nullopt.
std::optional<std::size_t> stable_before(const std::vector<Segment>& segments,
                                         std::size_t index) {
  for (std::size_t i = index; i-- > 0;) {
    if (segments[i].stable) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> stable_after(const std::vector<Segment>& segments,
                                        std::size_t index) {
  for (std::size_t i = index + 1; i < segments.size(); ++i) {
    if (segments[i].stable) return i;
  }
  return std::nullopt;
}

}  // namespace

std::vector<Segment> classify_segments(const Stream& stitched,
                                       const AnalysisConfig& config) {
  std::vector<Segment> segments = segment_stream(stitched, config);
  const double gap = config.lat_gap_ms;

  const bool any_stable =
      std::any_of(segments.begin(), segments.end(),
                  [](const Segment& s) { return s.stable; });
  if (!any_stable) {
    for (auto& segment : segments) segment.flag = SegmentFlag::kDiscarded;
    return segments;
  }

  // ---- Glitch detection (Fig. 1a) ------------------------------------------
  // An unstable segment whose maximum lies at least LatGap *below* the
  // minimum of the closest stable segments on each side.
  for (std::size_t i = 0; i < segments.size(); ++i) {
    Segment& segment = segments[i];
    if (segment.stable) continue;
    const auto left = stable_before(segments, i);
    const auto right = stable_after(segments, i);
    bool is_glitch = left.has_value() || right.has_value();
    if (left && segment.max_latency + gap > segments[*left].min_latency) {
      is_glitch = false;
    }
    if (right && segment.max_latency + gap > segments[*right].min_latency) {
      is_glitch = false;
    }
    if (is_glitch) segment.flag = SegmentFlag::kGlitch;
  }

  // ---- Iterative spike detection (Fig. 1b) ----------------------------------
  // Iteration 1: minimum exceeds both stable neighbours' maxima by LatGap.
  // Later iterations: exceeds one stable neighbour while the adjacent
  // segment on the other side is already a spike.
  bool changed = true;
  bool first_iteration = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      Segment& segment = segments[i];
      if (segment.stable || segment.flag == SegmentFlag::kGlitch ||
          segment.flag == SegmentFlag::kSpike) {
        continue;
      }
      const auto left = stable_before(segments, i);
      const auto right = stable_after(segments, i);
      auto exceeds = [&](std::size_t stable_idx) {
        return segment.min_latency >=
               segments[stable_idx].max_latency + gap;
      };
      bool flag = false;
      if (first_iteration) {
        flag = (left || right) && (!left || exceeds(*left)) &&
               (!right || exceeds(*right));
      } else {
        const bool left_spike =
            i > 0 && segments[i - 1].flag == SegmentFlag::kSpike;
        const bool right_spike = i + 1 < segments.size() &&
                                 segments[i + 1].flag == SegmentFlag::kSpike;
        flag = (left_spike && right && exceeds(*right)) ||
               (right_spike && left && exceeds(*left));
      }
      if (flag) {
        segment.flag = SegmentFlag::kSpike;
        changed = true;
      }
    }
    if (first_iteration) {
      first_iteration = false;
      changed = true;  // always run at least one propagation round
    }
  }

  // ---- Cleanup (Fig. 1d) -----------------------------------------------------
  // Remaining unstable segments: keep those within LatGap of the closest
  // stable segment on either side, discard the rest (likely glitch victims).
  for (std::size_t i = 0; i < segments.size(); ++i) {
    Segment& segment = segments[i];
    if (segment.stable || segment.flag == SegmentFlag::kGlitch ||
        segment.flag == SegmentFlag::kSpike) {
      continue;
    }
    const auto left = stable_before(segments, i);
    const auto right = stable_after(segments, i);
    auto close_to = [&](std::size_t stable_idx) {
      return ranges_within_gap(segment.min_latency, segment.max_latency,
                               segments[stable_idx].min_latency,
                               segments[stable_idx].max_latency, gap);
    };
    const bool absorbable =
        (left && close_to(*left)) || (right && close_to(*right));
    segment.flag = absorbable || config.disable_cleanup_discard
                       ? SegmentFlag::kAbsorbed
                       : SegmentFlag::kDiscarded;
  }
  return segments;
}

CleanResult clean_streamer_game(std::vector<Stream> streams,
                                const AnalysisConfig& config) {
  CleanResult result;
  if (streams.empty()) return result;

  // Stitch all points together in time order, remembering stream origins.
  Stream stitched;
  stitched.streamer = streams.front().streamer;
  stitched.game = streams.front().game;
  std::vector<std::size_t> origin;  // point index -> stream index
  std::vector<std::size_t> order(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ta =
        streams[a].points.empty() ? 0.0 : streams[a].points.front().time_s;
    const double tb =
        streams[b].points.empty() ? 0.0 : streams[b].points.front().time_s;
    return ta < tb;
  });
  // Size the stitch and the retained streams up front: at 10k points these
  // vectors pass 128 KiB, and growing them re-faults fresh pages every call.
  std::size_t total = 0;
  for (const auto& stream : streams) total += stream.points.size();
  stitched.points.reserve(total);
  origin.reserve(total);
  for (std::size_t s : order) {
    for (const auto& point : streams[s].points) {
      stitched.points.push_back(point);
      origin.push_back(s);
    }
  }
  result.points_in = stitched.points.size();

  auto segments = classify_segments(stitched, config);
  const bool any_stable =
      std::any_of(segments.begin(), segments.end(),
                  [](const Segment& s) { return s.stable; });
  if (!any_stable) {
    result.discarded_entirely = true;
    result.points_discarded = result.points_in;
    result.retained.resize(streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
      result.retained[s].streamer = streams[s].streamer;
      result.retained[s].game = streams[s].game;
    }
    return result;
  }

  // ---- Correction of flagged segments (§3.3.2) ------------------------------
  // Replace a glitch/spike segment's measurements with their alternatives;
  // if the corrected segment now sits within LatGap of its closest stable
  // neighbour, the anomaly was an image-processing artefact — keep the
  // corrected points. Otherwise glitches are discarded and spikes recorded
  // as genuine events (their points excluded from the distributions).
  const double gap = config.lat_gap_ms;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    Segment& segment = segments[i];
    if (segment.flag != SegmentFlag::kGlitch &&
        segment.flag != SegmentFlag::kSpike) {
      continue;
    }
    bool all_have_alternatives = true;
    int corrected_min = 0;
    int corrected_max = 0;
    for (std::size_t p = segment.first; p <= segment.last; ++p) {
      const auto& alt = stitched.points[p].alternative_ms;
      if (!alt.has_value()) {
        all_have_alternatives = false;
        break;
      }
      if (p == segment.first) {
        corrected_min = corrected_max = *alt;
      } else {
        corrected_min = std::min(corrected_min, *alt);
        corrected_max = std::max(corrected_max, *alt);
      }
    }
    if (!all_have_alternatives) continue;

    const auto left = stable_before(segments, i);
    const auto right = stable_after(segments, i);
    auto close_to = [&](std::size_t stable_idx) {
      return ranges_within_gap(corrected_min, corrected_max,
                               segments[stable_idx].min_latency,
                               segments[stable_idx].max_latency, gap);
    };
    const bool explains =
        (corrected_max - corrected_min <= gap) &&
        ((left && close_to(*left)) || (right && close_to(*right)));
    if (explains) {
      for (std::size_t p = segment.first; p <= segment.last; ++p) {
        stitched.points[p].latency_ms = *stitched.points[p].alternative_ms;
        ++result.points_corrected;
      }
      segment.min_latency = corrected_min;
      segment.max_latency = corrected_max;
      segment.flag = SegmentFlag::kAbsorbed;
    }
  }

  // ---- Spike merging + event extraction (Fig. 1c) ---------------------------
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].flag != SegmentFlag::kSpike) continue;
    std::size_t j = i;
    while (j + 1 < segments.size() &&
           segments[j + 1].flag == SegmentFlag::kSpike) {
      ++j;
    }
    SpikeEvent event;
    event.start_s = stitched.points[segments[i].first].time_s;
    event.end_s = stitched.points[segments[j].last].time_s;
    event.peak_latency_ms = segments[i].max_latency;
    for (std::size_t k = i; k <= j; ++k) {
      event.peak_latency_ms =
          std::max(event.peak_latency_ms, segments[k].max_latency);
      result.spike_points += segments[k].size();
    }
    const auto left = stable_before(segments, i);
    const auto right = stable_after(segments, j);
    int baseline = 0;
    if (left) baseline = segments[*left].max_latency;
    if (right) baseline = std::max(baseline, segments[*right].max_latency);
    event.baseline_ms = baseline;
    result.spikes.push_back(event);
    i = j;
  }

  // ---- Emit retained streams -------------------------------------------------
  result.retained.resize(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    result.retained[s].streamer = streams[s].streamer;
    result.retained[s].game = streams[s].game;
    result.retained[s].points.reserve(streams[s].points.size());
  }
  for (const auto& segment : segments) {
    const bool keep = segment.flag == SegmentFlag::kStable ||
                      segment.flag == SegmentFlag::kAbsorbed;
    for (std::size_t p = segment.first; p <= segment.last; ++p) {
      if (keep) {
        result.retained[origin[p]].points.push_back(stitched.points[p]);
        ++result.points_retained;
      } else if (segment.flag == SegmentFlag::kDiscarded ||
                 segment.flag == SegmentFlag::kGlitch) {
        ++result.points_discarded;
      }
    }
    if (segment.flag == SegmentFlag::kGlitch) ++result.glitch_segments;
  }
  return result;
}

CleanResult clean_stream(Stream stream, const AnalysisConfig& config) {
  std::vector<Stream> streams;
  streams.push_back(std::move(stream));
  return clean_streamer_game(std::move(streams), config);
}

}  // namespace tero::analysis
