#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace tero::obs {

namespace {

/// Below this, values share one underflow bucket (exactly reported as 0):
/// durations and latencies are positive, so this only catches zeros.
constexpr double kMinTrackable = 1e-9;

/// Shortest round-trippable representation of a double for the JSON sinks.
std::string fmt_json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // Prefer a shorter form when it round-trips exactly.
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.12g", value);
  if (std::strtod(shorter, nullptr) == value) return shorter;
  return buffer;
}

}  // namespace

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("QuantileSketch: alpha must be in (0, 1)");
  }
  log_gamma_ = log_gamma_of(alpha);
}

double QuantileSketch::log_gamma_of(double alpha) {
  return std::log((1.0 + alpha) / (1.0 - alpha));
}

int QuantileSketch::bucket_index(double log_gamma, double value) {
  return static_cast<int>(std::ceil(std::log(value) / log_gamma));
}

double QuantileSketch::bucket_value(double gamma, int index) {
  return 2.0 * std::pow(gamma, index) / (gamma + 1.0);
}

std::uint64_t QuantileSketch::rank_of(double q, std::uint64_t total) {
  q = std::clamp(q, 0.0, 1.0);
  return static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
}

void QuantileSketch::add(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!(value > kMinTrackable)) {
    ++underflow_;
    return;
  }
  ++buckets_[bucket_index(log_gamma_, value)];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (&other == this) return;
  if (other.alpha_ != alpha_) {
    throw std::invalid_argument("QuantileSketch: merging different alphas");
  }
  // Copy the source under its own lock first, so two locks are never held
  // at once (no ordering issues) and self-locking is impossible.
  std::map<int, std::uint64_t> other_buckets;
  std::uint64_t other_underflow;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    other_buckets = other.buckets_;
    other_underflow = other.underflow_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  underflow_ += other_underflow;
  for (const auto& [index, count] : other_buckets) buckets_[index] += count;
}

std::vector<std::pair<int, std::uint64_t>> QuantileSketch::export_buckets()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {buckets_.begin(), buckets_.end()};
}

std::uint64_t QuantileSketch::underflow() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return underflow_;
}

void QuantileSketch::restore(
    const std::vector<std::pair<int, std::uint64_t>>& buckets,
    std::uint64_t underflow) {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.clear();
  buckets_.insert(buckets.begin(), buckets.end());
  underflow_ = underflow;
}

std::uint64_t QuantileSketch::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = underflow_;
  for (const auto& [index, count] : buckets_) total += count;
  return total;
}

double QuantileSketch::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = underflow_;
  for (const auto& [index, count] : buckets_) total += count;
  if (total == 0) return 0.0;
  const std::uint64_t target = rank_of(q, total);
  std::uint64_t cumulative = underflow_;
  if (cumulative >= target) return 0.0;
  const double gamma = std::exp(log_gamma_);
  for (const auto& [index, count] : buckets_) {
    cumulative += count;
    if (cumulative >= target) return bucket_value(gamma, index);
  }
  return bucket_value(gamma, buckets_.rbegin()->first);
}

double QuantileSketch::quantile_of(
    double alpha, const std::vector<std::pair<int, std::uint64_t>>& buckets,
    std::uint64_t underflow, double q) {
  std::uint64_t total = underflow;
  for (const auto& [index, count] : buckets) total += count;
  if (total == 0) return 0.0;
  const std::uint64_t target = rank_of(q, total);
  std::uint64_t cumulative = underflow;
  if (cumulative >= target) return 0.0;
  // Same gamma derivation as the constructor, so results are bit-identical
  // to restore() + quantile() at the same alpha.
  const double gamma = std::exp(log_gamma_of(alpha));
  for (const auto& [index, count] : buckets) {
    cumulative += count;
    if (cumulative >= target) return bucket_value(gamma, index);
  }
  return bucket_value(gamma, buckets.back().first);
}

double QuantileSketch::quantile_of_values(double alpha,
                                          std::span<double> values,
                                          double q) {
  if (values.empty()) return 0.0;
  const std::uint64_t target = rank_of(q, values.size());
  // add() counts what is not > kMinTrackable (NaN included) as underflow,
  // which ranks first and reports 0.
  const auto trackable =
      std::partition(values.begin(), values.end(),
                     [](double value) { return !(value > kMinTrackable); });
  const auto underflow = static_cast<std::uint64_t>(trackable - values.begin());
  if (underflow >= target) return 0.0;
  // bucket_index never decreases as the value grows, so the bucket of the
  // rank-th value is the one where the sketch's cumulative count reaches
  // the rank.
  const auto nth =
      trackable + static_cast<std::ptrdiff_t>(target - underflow - 1);
  std::nth_element(trackable, nth, values.end());
  const double log_gamma = log_gamma_of(alpha);
  return bucket_value(std::exp(log_gamma), bucket_index(log_gamma, *nth));
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

std::size_t Histogram::bucket_for(double value) const noexcept {
  // First bound >= value is the "le" bucket; past-the-end = overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(std::distance(bounds_.begin(), it));
}

void Histogram::observe(double value) {
  buckets_[bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  sketch_.add(value);
}

void Histogram::record(double value, std::uint64_t span_id) {
  observe(value);
  if (exemplars_ == nullptr) return;
  // Min-wise reservoir: the sample's rank is a pure function of
  // (seed, span_id, value), so whichever sample holds the minimum rank
  // wins the bucket regardless of arrival order or thread interleaving —
  // and it is still a uniform random pick among the bucket's samples.
  const std::uint64_t rank =
      util::Rng::indexed(
          exemplar_seed_,
          util::mix_seed(span_id, std::bit_cast<std::uint64_t>(value)))
          .next_u64();
  const std::size_t index = bucket_for(value);
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  Exemplar& slot = exemplars_[index];
  if (rank < slot.rank ||
      (rank == slot.rank && span_id < slot.span_id)) {
    slot = Exemplar{value, span_id, rank};
  }
}

void Histogram::enable_exemplars(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (exemplars_ != nullptr) return;
  exemplar_seed_ = seed;
  exemplars_ = std::make_unique<Exemplar[]>(bounds_.size() + 1);
}

std::vector<Exemplar> Histogram::exemplars() const {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (exemplars_ == nullptr) return {};
  return {exemplars_.get(), exemplars_.get() + bounds_.size() + 1};
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

const std::vector<double>& default_duration_buckets_ms() {
  static const std::vector<double> kBuckets = {
      0.05, 0.1, 0.25, 0.5,  1.0,    2.5,    5.0,    10.0,   25.0,
      50.0, 100, 250,  500,  1000,   2500,   5000,   10000,  30000};
  return kBuckets;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
    epoch_.fetch_add(1, std::memory_order_release);
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
    epoch_.fetch_add(1, std::memory_order_release);
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(
        bounds.empty() ? default_duration_buckets_ms() : std::move(bounds));
    epoch_.fetch_add(1, std::memory_order_release);
  }
  return *slot;
}

std::vector<std::pair<std::string, const Counter*>>
MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter.get());
  }
  return out;  // std::map iterates name-sorted already
}

std::vector<std::pair<std::string, const Gauge*>> MetricsRegistry::gauges()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge.get());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.emplace_back(name, histogram.get());
  }
  return out;
}

bool MetricsRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool removed = counters_.erase(name) + gauges_.erase(name) +
                           histograms_.erase(name) >
                       0;
  if (removed) epoch_.fetch_add(1, std::memory_order_release);
  return removed;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  epoch_.fetch_add(1, std::memory_order_release);
}

std::string MetricsRegistry::labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(name);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  out += '}';
  return out;
}

void MetricsRegistry::add_counter(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels,
    std::uint64_t n) {
  counter(labeled(name, labels)).add(n);
}

void MetricsRegistry::set_gauge(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels,
    double value) {
  gauge(labeled(name, labels)).set(value);
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << counter->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << fmt_json_number(gauge->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
       << "\"count\": " << histogram->count()
       << ", \"sum\": " << fmt_json_number(histogram->sum())
       << ", \"mean\": " << fmt_json_number(histogram->mean())
       << ", \"quantiles\": {"
       << "\"p50\": " << fmt_json_number(histogram->quantile(0.50))
       << ", \"p90\": " << fmt_json_number(histogram->quantile(0.90))
       << ", \"p99\": " << fmt_json_number(histogram->quantile(0.99))
       << "}, \"buckets\": [";
    const auto counts = histogram->bucket_counts();
    const auto& bounds = histogram->bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < bounds.size()) {
        os << fmt_json_number(bounds[i]);
      } else {
        os << "\"+Inf\"";
      }
      os << ", \"count\": " << counts[i] << '}';
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::write_table(std::ostream& os) const {
  util::Table table({"metric", "type", "value"});
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    table.add_row({name, "counter", std::to_string(counter->value())});
  }
  for (const auto& [name, gauge] : gauges_) {
    table.add_row({name, "gauge", util::fmt_double(gauge->value(), 3)});
  }
  for (const auto& [name, histogram] : histograms_) {
    table.add_row(
        {name, "histogram",
         "count=" + std::to_string(histogram->count()) +
             " mean=" + util::fmt_double(histogram->mean(), 3) +
             " p50=" + util::fmt_double(histogram->quantile(0.50), 3) +
             " p90=" + util::fmt_double(histogram->quantile(0.90), 3) +
             " p99=" + util::fmt_double(histogram->quantile(0.99), 3)});
  }
  table.print(os);
}

}  // namespace tero::obs
