#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tero::obs {

/// Zero-dependency observability primitives: counters, gauges, fixed-bucket
/// histograms with an embedded quantile sketch, all owned by a thread-safe
/// MetricsRegistry.
///
/// Determinism rules (DESIGN.md §8): metrics are *observational only*. The
/// pipeline never reads a metric to make a decision, instrumentation never
/// draws from a util::Rng, and every funnel counter is incremented in the
/// serial reduction sections, so output stays bit-identical for any thread
/// count whether a registry is attached or not.
///
/// Null-registry cost contract: call sites hold plain pointers
/// (Counter*/Histogram*/...) that are nullptr when observability is off, so
/// a disabled registry costs exactly one predictable branch per hot-path
/// event (see ScopedTimer / the `if (counter) counter->add()` idiom).

/// Monotonically increasing event count. Thread-safe, lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (queue depth, lag, configuration echo). Thread-safe.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Mergeable log-bucketed quantile sketch (DDSketch-style): values are
/// counted in buckets whose bounds grow geometrically by
/// gamma = (1 + alpha) / (1 - alpha), which guarantees every reported
/// quantile is within relative error `alpha` of the true value. Merging two
/// sketches with the same alpha is exact (bucket counts add).
class QuantileSketch {
 public:
  static constexpr double kDefaultAlpha = 0.01;

  explicit QuantileSketch(double alpha = kDefaultAlpha);

  void add(double value);
  void merge(const QuantileSketch& other);

  /// Value at quantile q in [0, 1]; 0 when empty. Accurate to within the
  /// relative error alpha (exact for non-positive values, which share one
  /// underflow bucket).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// Checkpoint support: the exact internal state as (bucket index, count)
  /// pairs in ascending index order plus the underflow count. restore()
  /// replaces the sketch's contents with a previously exported state; a
  /// restored sketch reports bit-identical quantiles (same alpha required).
  [[nodiscard]] std::vector<std::pair<int, std::uint64_t>> export_buckets()
      const;
  [[nodiscard]] std::uint64_t underflow() const;
  void restore(const std::vector<std::pair<int, std::uint64_t>>& buckets,
               std::uint64_t underflow);

  /// Quantile computed straight from exported state — `buckets` must be in
  /// ascending index order, exactly as export_buckets() returns. Equivalent
  /// to restore() + quantile() on a scratch sketch with the same `alpha`,
  /// without building one (the timeline's windowed-quantile hot path).
  [[nodiscard]] static double quantile_of(
      double alpha, const std::vector<std::pair<int, std::uint64_t>>& buckets,
      std::uint64_t underflow, double q);

  /// Quantile of a plain value set, bit-identical to add()-ing every value
  /// to a fresh sketch with this `alpha` and calling quantile(q), without
  /// the lock and the bucket map: it selects the rank-th value in place
  /// (reordering `values`) and maps only that one to its bucket.
  [[nodiscard]] static double quantile_of_values(double alpha,
                                                 std::span<double> values,
                                                 double q);

 private:
  [[nodiscard]] static double log_gamma_of(double alpha);
  [[nodiscard]] static int bucket_index(double log_gamma, double value);
  /// The value a bucket reports: the midpoint of (gamma^(i-1), gamma^i].
  [[nodiscard]] static double bucket_value(double gamma, int index);
  /// 1-based rank of the value at quantile q among `total` values.
  [[nodiscard]] static std::uint64_t rank_of(double q, std::uint64_t total);

  double alpha_;
  double log_gamma_;
  mutable std::mutex mutex_;
  std::map<int, std::uint64_t> buckets_;  ///< index -> count, positive values
  std::uint64_t underflow_ = 0;           ///< values <= kMinTrackable
};

/// One sampled observation attached to a histogram bucket: the exact value,
/// the trace span that produced it, and the selection rank that let it win
/// its bucket's reservoir slot. `rank` is a pure function of (seed, value,
/// span_id), so the winning exemplar depends only on the *set* of samples a
/// bucket saw — never on arrival order or thread interleaving.
struct Exemplar {
  static constexpr std::uint64_t kEmpty =
      0xffffffffffffffffULL;  ///< rank of an unoccupied slot

  double value = 0.0;
  std::uint64_t span_id = 0;
  std::uint64_t rank = kEmpty;

  [[nodiscard]] bool valid() const noexcept { return rank != kEmpty; }
};

/// Fixed-bucket histogram (cumulative "le" bounds, Prometheus-style) with an
/// embedded QuantileSketch so sinks can report both exact bucket counts and
/// tight p50/p90/p99 estimates. observe() is thread-safe.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper bounds; an implicit +Inf
  /// overflow bucket is always appended.
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  /// observe() plus deterministic exemplar capture: when exemplars are
  /// enabled, the sample competes for its bucket's single exemplar slot
  /// with rank Rng::indexed(seed, mix(span_id, value)) — a min-wise
  /// reservoir, i.e. a uniform random choice among the bucket's samples
  /// that is bit-identical for any arrival order or thread count. With
  /// exemplars off this is exactly observe().
  void record(double value, std::uint64_t span_id);

  /// Arm exemplar capture (one slot per bucket, including overflow).
  /// Idempotent; the seed fixes which sample each bucket elects. Setup-time
  /// call: arm before concurrent record() traffic starts.
  void enable_exemplars(std::uint64_t seed);
  [[nodiscard]] bool exemplars_enabled() const noexcept {
    return exemplars_ != nullptr;
  }
  /// Per-bucket exemplar slots (bounds().size() + 1 entries, overflow
  /// last); slots with !valid() never saw a record(). Empty when disabled.
  [[nodiscard]] std::vector<Exemplar> exemplars() const;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  /// Per-bucket (non-cumulative) counts; last entry is the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] double quantile(double q) const { return sketch_.quantile(q); }
  /// The embedded sketch — lets the MetricsTimeline snapshot cumulative
  /// sketch state and compute windowed quantiles by bucket subtraction.
  [[nodiscard]] const QuantileSketch& sketch() const noexcept {
    return sketch_;
  }

 private:
  [[nodiscard]] std::size_t bucket_for(double value) const noexcept;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  QuantileSketch sketch_;
  /// Exemplar state; allocated lazily by enable_exemplars() (cold path —
  /// the plain observe() hot path never touches it).
  mutable std::mutex exemplar_mutex_;
  std::unique_ptr<Exemplar[]> exemplars_;
  std::uint64_t exemplar_seed_ = 0;
};

/// Default bucket bounds for duration histograms, in milliseconds.
[[nodiscard]] const std::vector<double>& default_duration_buckets_ms();

/// Thread-safe name -> metric owner. Metric references returned by
/// counter()/gauge()/histogram() are stable for the registry's lifetime, so
/// hot paths resolve them once and keep the pointer.
///
/// Naming scheme: dot-separated `tero.<module>.<event>[{label=value,...}]`,
/// e.g. `tero.funnel.ocr_ok` or `tero.pool.parallel_for_failures{chunk=3}`.
/// Use labeled() to build labeled names consistently.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bounds; later calls with the same name
  /// return the existing histogram regardless of `bounds`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Stable, name-sorted iteration (the MetricsTimeline's determinism
  /// anchor: series order in every scrape and export is the sorted name
  /// order, never map-internal iteration luck). The returned pointers stay
  /// valid until the named series is remove()d or the registry is reset()
  /// or destroyed.
  [[nodiscard]] std::vector<std::pair<std::string, const Counter*>>
  counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Gauge*>> gauges()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>>
  histograms() const;

  /// Structure version: bumps whenever a series is created or removed
  /// (reset() counts too). Scrapers cache their name -> pointer series
  /// lists against this and rebuild only when it moves, so a steady-state
  /// scrape never re-lists (or re-allocates) the registry.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Drop one series (any kind). Returns whether anything was removed.
  /// Invalidates pointers previously handed out for that name — callers
  /// holding hot-path metric pointers must not remove those series.
  bool remove(const std::string& name);
  /// Drop every series. Same invalidation caveat as remove().
  void reset();

  [[nodiscard]] static std::string labeled(
      std::string_view name,
      std::initializer_list<std::pair<std::string_view, std::string_view>>
          labels);

  /// Labeled one-shot conveniences: build the labeled name and update the
  /// metric in a single call. For cold and warm paths (publish events,
  /// admission retunes); true hot loops should still resolve the metric
  /// pointer once and keep it.
  void add_counter(std::string_view name,
                   std::initializer_list<
                       std::pair<std::string_view, std::string_view>>
                       labels,
                   std::uint64_t n = 1);
  void set_gauge(std::string_view name,
                 std::initializer_list<
                     std::pair<std::string_view, std::string_view>>
                     labels,
                 double value);

  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, quantiles, buckets}}}.
  void write_json(std::ostream& os) const;

  /// Human-readable dump through util::Table (one row per metric).
  void write_table(std::ostream& os) const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::atomic<std::uint64_t> epoch_{0};
};

/// RAII wall-time probe: observes the elapsed milliseconds into `histogram`
/// on destruction. A null histogram makes both ends a single branch.
/// Movable: the moved-from timer is disarmed (null histogram) so exactly one
/// observation is recorded per started timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) noexcept
      : histogram_(histogram) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { finish(); }

  ScopedTimer(ScopedTimer&& other) noexcept
      : histogram_(other.histogram_), start_(other.start_) {
    other.histogram_ = nullptr;
  }
  ScopedTimer& operator=(ScopedTimer&& other) noexcept {
    if (this != &other) {
      finish();  // close out our own measurement before adopting the other
      histogram_ = other.histogram_;
      start_ = other.start_;
      other.histogram_ = nullptr;
    }
    return *this;
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void finish() noexcept {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->observe(
        std::chrono::duration<double, std::milli>(elapsed).count());
    histogram_ = nullptr;
  }

  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tero::obs
