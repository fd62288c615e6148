#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tero::obs {

class MetricsRegistry;

/// Prometheus text exposition for the registry's series names
/// (`tero.<module>.<event>[{label=value,...}]`, see MetricsRegistry). Dots
/// become underscores, internal labels become quoted Prometheus labels, and
/// histograms expand into the `_bucket{le=...}` / `_sum` / `_count` family.
/// Exemplar-armed histograms additionally emit OpenMetrics-style exemplars
/// (`... # {span_id="0x2a"} 4.25`) on their bucket lines, which is what lets
/// `tero_cli obs report` jump from a p99 bucket to the span that filled it.

/// A registry series name split into its base name and label pairs:
/// "tero.serve.denied{reason=shed}" -> {"tero.serve.denied", {{"reason",
/// "shed"}}}. Malformed label blocks are left un-split (the whole string stays
/// in `name`), matching how the registry treats names as opaque keys.
struct ParsedSeriesName {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
};
[[nodiscard]] ParsedSeriesName split_labeled_name(std::string_view series);

/// Sanitize a metric name to the Prometheus charset [a-zA-Z0-9_:] (every
/// other byte becomes '_'; a leading digit gains a '_' prefix).
[[nodiscard]] std::string prom_name(std::string_view name);

/// Escape a label value for a double-quoted Prometheus label: backslash,
/// double quote, and newline become \\, \", and \n.
[[nodiscard]] std::string prom_escape_label(std::string_view value);

/// Render "{k1=\"v1\",k2=\"v2\"}" (empty string when no labels).
[[nodiscard]] std::string prom_label_block(
    const std::vector<std::pair<std::string, std::string>>& labels);

/// Write the registry's current state in Prometheus text format (sorted
/// series order, `# TYPE` per family, exemplars on exemplar-armed
/// histogram buckets).
void write_prom(const MetricsRegistry& registry, std::ostream& os);

/// Minimal format checker for the exposition format we emit (the CI
/// `obs-smoke` gate runs it over exported files). Accepts comments,
/// `# TYPE` lines, samples `name{labels} value [timestamp_ms]`, and
/// OpenMetrics exemplar suffixes. Returns "" when valid, otherwise
/// "line N: <problem>" for the first offending line.
[[nodiscard]] std::string validate_prom_text(std::string_view text);

}  // namespace tero::obs
