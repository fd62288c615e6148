// The workloads. Each one generates its input from the seed, computes its
// reference in a child process outside the timed phases, times set-up on
// its own, then replays the input for the measured phase and checks every
// output.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace tero;

namespace {

constexpr int kSetupReps = 7;
/// The measured time is split into phases, each with its own percentiles;
/// the run reports the medians over phases, so one stall of the host moves
/// one phase, not the result.
constexpr int kPhases = 10;

/// Time `setup` kSetupReps times and return the median, in seconds. Each
/// repetition builds fresh instances; the last one is kept.
template <typename Setup>
double timed_setup(Setup&& setup) {
  std::vector<double> reps;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto start = Clock::now();
    setup();
    reps.push_back(seconds_since(start));
  }
  return median(reps);
}

/// One pass over a workload's input: the thumbnails it extracted and the
/// wall time of the call under test alone.
struct Pass {
  double units = 0.0;
  double seconds = 0.0;
};

/// Units per second over a run of passes.
double rate_of(const std::vector<Pass>& passes) {
  double units = 0.0;
  double seconds = 0.0;
  for (const Pass& pass : passes) {
    units += pass.units;
    seconds += pass.seconds;
  }
  return units / seconds;
}

/// Throughput and latency percentiles of each phase; the run reports the
/// median over phases.
struct Phases {
  std::vector<double> rate;
  std::vector<double> p50_us;
  std::vector<double> p99_us;

  /// A phase of passes: its rate is units per second of the phase, its
  /// latencies are those of its passes.
  void add(const std::vector<Pass>& passes) {
    std::vector<double> times;
    for (const Pass& pass : passes) times.push_back(pass.seconds);
    rate.push_back(rate_of(passes));
    p50_us.push_back(quantile(times, 0.5) * 1e6);
    p99_us.push_back(quantile(times, 0.99) * 1e6);
  }
  /// Call right after the measured phase: peak_rss_mb is read here, before
  /// anything else runs.
  void report(Result& result, double setup_s) const {
    result.add("throughput_per_s", median(rate), "1/s");
    result.add("latency_p50_us", median(p50_us), "us");
    result.add("latency_p99_us", median(p99_us), "us");
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
};

std::uint64_t reference(std::uint64_t digest, const Options& options) {
  return options.corrupt_reference ? digest ^ 1 : digest;
}

/// The traced run's bookkeeping around trace_layers: rates with and
/// without the program's own sinks, the host probe, and the trace file.
struct Traced {
  obs::TraceRecorder recorder;
  LayerClock clock{&recorder};
  obs::MetricsRegistry registry;
};

/// Write the recorder once, at the end of a traced run.
void write_trace(const Options& options, const obs::TraceRecorder& recorder) {
  if (options.trace_out.empty()) return;
  std::ofstream out(options.trace_out);
  recorder.write_json(out);
  note("trace: " + std::to_string(recorder.span_count()) + " spans -> " +
       options.trace_out);
}

void finish_traced(const Options& options, Native native,
                   const WorldInput& input, const core::TeroConfig& batch,
                   Traced& traced, const std::vector<double>& untraced_rates,
                   const std::vector<double>& traced_rates, Result& result) {
  const double before_ms = host_probe_ms(options.seed);
  trace_layers(options, native, input, batch, traced.clock, result);
  const double after_ms = host_probe_ms(options.seed);
  result.add("bench.trace_overhead_frac",
             1.0 - median(traced_rates) / median(untraced_rates), "frac");
  result.add("host.probe_ms", (before_ms + after_ms) / 2.0, "ms");
  write_trace(options, traced.recorder);
}

void print_probe(double before_ms, double after_ms) {
  std::ostringstream line;
  line << "host.probe_ms before=" << before_ms << " after=" << after_ms
       << " (diagnostic only)";
  note(line.str());
}

}  // namespace

/// Pipeline::run with full OCR over the same input, again and again,
/// against a digest made at another thread count.
Result run_ocr_batch(const Options& options) {
  Result result;
  const WorldInput input = make_ocr_world(options.seed, options.tiny);
  note("input digest: " + std::to_string(input.digest) + ", streams: " +
       std::to_string(input.streams.size()));
  const core::TeroConfig config = ocr_config(options.seed, options.threads);
  // Reference at 2 threads: a different thread count than the measured
  // passes, at half the serial cost.
  const std::uint64_t expected = reference(
      unpack(isolated([&] {
        core::Pipeline pipeline(ocr_config(options.seed, options.threads == 2 ? 1 : 2));
        return pack({core::dataset_digest(pipeline.run(*input.world, input.streams))});
      })).at(0),
      options);

  // Warm-up: eight 8-thumbnail streams, two per extraction thread.
  const auto warmup = std::span<const synth::TrueStream>(input.streams)
                          .first(std::min<std::size_t>(8, input.streams.size()));
  std::optional<core::Pipeline> pipeline;
  const double setup_s = timed_setup([&] {
    pipeline.emplace(config);
    (void)pipeline->run(*input.world, warmup);
  });

  const auto pass_with = [&](core::Pipeline& p) {
    const auto begin = Clock::now();
    const core::Dataset dataset = p.run(*input.world, input.streams);
    const double elapsed = seconds_since(begin);
    ++result.attempted;
    if (core::dataset_digest(dataset) != expected) {
      result.fail("dataset digest differs from the reference");
    }
    return Pass{static_cast<double>(dataset.funnel.thumbnails), elapsed};
  };

  if (!options.trace) {
    Phases phases;
    const double before_ms = host_probe_ms(options.seed);
    for (int phase = 0; phase < kPhases; ++phase) {
      // Passes until the phase's share of the time is up, at least three.
      std::vector<Pass> passes;
      const auto start = Clock::now();
      while (passes.size() < 3 || seconds_since(start) < options.seconds / kPhases) {
        passes.push_back(pass_with(*pipeline));
      }
      phases.add(passes);
    }
    phases.report(result, setup_s);
    print_probe(before_ms, host_probe_ms(options.seed));
    note("passes: " + std::to_string(result.attempted));
    return result;
  }

  // Same passes with the pipeline's own trace and metrics sinks attached,
  // interleaved with untraced ones so host drift hits both alike.
  Traced traced;
  core::TeroConfig traced_config = config;
  traced_config.trace = &traced.recorder;
  traced_config.metrics = &traced.registry;
  core::Pipeline traced_pipeline(traced_config);
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  const int pairs = options.tiny ? 1 : 3;
  for (int i = 0; i < pairs; ++i) {
    untraced_rates.push_back(rate_of({pass_with(*pipeline)}));
    traced_rates.push_back(rate_of({pass_with(traced_pipeline)}));
  }
  finish_traced(options, Native::kOcr, input, config, traced, untraced_rates,
                traced_rates, result);
  return result;
}

/// One closed-loop client. At four, the service's publisher and shard
/// mutexes make clients wait on each other, and qps follows how fast the
/// host wakes a waiting vCPU: on a 4-vCPU KVM guest, 10-seed spreads of
/// four-client qps reached 27-30% in two of five sets, against at most 9%
/// for one client. The traced run still measures four clients against one
/// (serve.scaling).
constexpr std::size_t kServeClients = 1;

Result run_serve_query(const Options& options) {
  Result result;
  const WorldInput input = make_sweep_world(options.seed, options.tiny);
  ServeInput serve_input = make_serve_input(input, options.threads, options.tiny);
  if (options.corrupt_reference) serve_input.expected[0] ^= 1;
  note("input digest: " + std::to_string(serve_input.digest) + ", entries: " +
       std::to_string(serve_input.reference_snapshot->size()) +
       ", ring: " + std::to_string(serve_input.ring.size()) + " (" +
       std::to_string(serve_input.range_queries) + " range, " +
       std::to_string(serve_input.range_with_data) + " with data)");

  const std::size_t warmup = std::min<std::size_t>(16384, serve_input.ring.size());
  LoadedService loaded;
  const double setup_s = timed_setup([&] {
    loaded = LoadedService{};
    loaded = load_service(serve_input, nullptr, nullptr);
    for (std::size_t i = 0; i < warmup; ++i) {
      (void)loaded.service->query(serve_input.ring[i]);
    }
  });

  const auto check = [&](const ClosedLoopResult& loop) {
    result.attempted += loop.queries;
    if (loop.failed != 0) {
      result.fail("wrong, denied or unavailable answers", loop.failed);
    }
  };
  // The median drops the first and last 100 ms intervals (thread start
  // and the partial tail).
  const auto median_qps = [](const ClosedLoopResult& loop) {
    std::vector<double> qps = loop.interval_qps;
    if (qps.size() > 4) qps = std::vector<double>(qps.begin() + 1, qps.end() - 1);
    return median(qps);
  };

  if (!options.trace) {
    // Each phase starts a fresh client thread.
    Phases phases;
    std::uint64_t republished = 0;
    const double before_ms = host_probe_ms(options.seed);
    for (int phase = 0; phase < kPhases; ++phase) {
      const ClosedLoopResult loop =
          closed_loop(*loaded.service, serve_input, kServeClients,
                      options.seconds / kPhases, 0, 100'000);
      check(loop);
      republished += loop.republished;
      phases.rate.push_back(median_qps(loop));
      phases.p50_us.push_back(loop.latency.quantile_us(0.5));
      phases.p99_us.push_back(loop.latency.quantile_us(0.99));
    }
    phases.report(result, setup_s);
    print_probe(before_ms, host_probe_ms(options.seed));
    note("queries: " + std::to_string(result.attempted) +
         ", republished epochs: " + std::to_string(republished));
    return result;
  }

  // Fixed query counts: the traced service records one span per query.
  Traced traced;
  LoadedService traced_loaded =
      load_service(serve_input, &traced.registry, &traced.recorder);
  const std::uint64_t queries = options.tiny ? 20'000 : 100'000;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  for (int i = 0; i < 2; ++i) {
    const auto a = closed_loop(*loaded.service, serve_input, kServeClients, 0,
                               queries, 100'000);
    const auto b = closed_loop(*traced_loaded.service, serve_input,
                               kServeClients, 0, queries, 100'000);
    check(a);
    check(b);
    untraced_rates.push_back(static_cast<double>(a.queries) / a.wall_s);
    traced_rates.push_back(static_cast<double>(b.queries) / b.wall_s);
  }
  finish_traced(options, Native::kServe, input,
                sweep_config(options.seed, options.threads), traced,
                untraced_rates, traced_rates, result);
  return result;
}

}  // namespace perfbench
