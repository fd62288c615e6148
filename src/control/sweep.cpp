#include "control/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "serve/brownout.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tero::control {

namespace {

// Seed salts for the sweep's independent draw streams (the Rng::indexed
// scheme: one salt per stream, one index per query).
constexpr std::uint64_t kHistorySalt = 0x74646268ULL;  ///< history tagging
constexpr std::uint64_t kReplSalt = 0x7265706cULL;     ///< repl-delay stales
constexpr std::uint64_t kLatencySalt = 0x63747254ULL;  ///< service time

/// Phase A's routing verdict for one arrival — everything Phase B needs to
/// build the response without touching shared state.
enum class Outcome : std::uint8_t {
  kServe = 0,    ///< fresh answer from the epoch current at arrival
  kServeStale,   ///< degraded/stale-tolerant answer from the prior epoch
  kShed,         ///< admission token bucket empty
  kOverflow,     ///< queue bound exceeded (counts as shed)
  kBrownout,     ///< ladder refused the kind
  kUnavailable,  ///< tsdb refused, or nothing to degrade to
};

struct Route {
  Outcome outcome = Outcome::kShed;
  std::uint32_t epoch_index = 0;  ///< into the sweep's snapshot history
  std::uint32_t stale_age = 1;
  double param = 0.0;  ///< post-brownout query parameter
};

[[nodiscard]] bool window_active(const ChaosWindow& window,
                                 double frac) noexcept {
  return frac >= window.begin_frac && frac < window.end_frac;
}

}  // namespace

std::vector<ChaosWindow> standard_chaos_windows() {
  return {
      {ChaosWindow::Kind::kShardKill, 0.30, 0.45, 1},
      {ChaosWindow::Kind::kReplDelay, 0.55, 0.65, 0},
      {ChaosWindow::Kind::kTsdbError, 0.70, 0.80, 0},
  };
}

SweepReport run_control_sweep(std::vector<serve::SnapshotEntry> entries,
                              const SweepConfig& config,
                              util::ThreadPool* pool) {
  const auto wall_start = std::chrono::steady_clock::now();

  Controller controller(config.controller);
  const ControllerConfig& ctl = controller.config();  // post-clamp values
  const std::uint64_t tick_every = std::max<std::uint64_t>(1,
                                                           ctl.tick_every_ms);

  const double nominal =
      static_cast<double>(ctl.initial_shards) * ctl.shard_unit_qps;
  const double offered = config.offered_qps > 0.0
                             ? config.offered_qps
                             : std::max(1.0, config.load_multiplier * nominal);
  const double duration_s = std::max(0.001, config.duration_s);
  const auto total_queries =
      static_cast<std::size_t>(std::max(1.0, offered * duration_s));
  const auto duration_ms = static_cast<std::uint64_t>(duration_s * 1000.0);

  // --- Telemetry plane: registry + virtual-time timeline + SLO tracker. ---
  obs::MetricsRegistry registry;
  obs::TimelineConfig timeline_config;
  timeline_config.scrape_every_ms = config.scrape_every_ms;
  timeline_config.capacity = 4096;
  timeline_config.prefixes = {"tero.control.", "tero.serve."};
  obs::MetricsTimeline timeline(registry, timeline_config);
  obs::SloTracker tracker(
      obs::SloTracker::Config{config.slo_fast_window_ms, 1.0});
  if (!config.slo_spec.empty()) tracker.add(config.slo_spec);
  tracker.attach(timeline);

  obs::Counter& arrivals = registry.counter("tero.control.arrivals");
  obs::Counter& served_counter = registry.counter("tero.control.served");
  obs::Counter& stale_counter = registry.counter("tero.control.stale");
  obs::Counter& overflow_counter = registry.counter("tero.control.overflow");
  obs::Counter& brownout_counter = registry.counter("tero.control.brownout");
  obs::Counter& unavailable_counter =
      registry.counter("tero.control.unavailable");
  obs::Gauge& queue_gauge = registry.gauge("tero.control.queue_depth");
  obs::Histogram& latency_hist =
      registry.histogram("tero.control.latency_ms");
  const serve::DeniedCounters denied(&registry);

  // --- Serving plane: the service under control, at max provisioning. ---
  serve::ServeConfig serve_config;
  serve_config.shards = ctl.max_shards;
  serve_config.metrics = &registry;
  serve::QueryService service(serve_config);
  service.set_admission_rate(0.0, controller.admission_rate(),
                             controller.admission_rate() * ctl.burst_s);

  // Publish twice up front so a previous epoch exists for degraded reads.
  std::vector<serve::SnapshotPtr> epochs;
  service.publish(entries);
  epochs.push_back(service.snapshot());
  service.publish(entries);
  epochs.push_back(service.snapshot());

  serve::LoadGenConfig gen;
  gen.queries = total_queries;
  gen.seed = config.seed;
  gen.zipf_s = config.zipf_s;
  const std::vector<serve::Query> queries =
      serve::generate_queries(*service.snapshot(), gen);

  // --- Chaos plane: background fault plan + scripted windows + breakers. ---
  fault::FaultInjector injector(
      fault::FaultPlan::parse(config.fault_plan, config.seed), &registry);
  const std::size_t total_shards = serve_config.shards;
  std::vector<fault::FaultPoint*> shard_points;
  shard_points.reserve(total_shards);
  std::vector<std::unique_ptr<fault::CircuitBreaker>> breakers;
  breakers.reserve(total_shards);
  for (std::size_t i = 0; i < total_shards; ++i) {
    const std::string shard_name = "shard-" + std::to_string(i);
    shard_points.push_back(&injector.point("serve." + shard_name));
    breakers.push_back(std::make_unique<fault::CircuitBreaker>(
        config.breaker,
        fault::CircuitBreaker::state_gauge(&registry, shard_name)));
  }
  fault::FaultPoint* tsdb_point = &injector.point("tsdb.read");

  const auto kind_active = [&config](ChaosWindow::Kind kind, double frac) {
    for (const ChaosWindow& window : config.windows) {
      if (window.kind == kind && window_active(window, frac)) return true;
    }
    return false;
  };
  const auto shard_down = [&config](std::size_t shard, double frac) {
    for (const ChaosWindow& window : config.windows) {
      if (window.kind == ChaosWindow::Kind::kShardKill &&
          window.shard == shard && window_active(window, frac)) {
        return true;
      }
    }
    return false;
  };

  // --- Controller + queueing state (all Phase A serial). ---
  const SignalSeries series;
  std::uint64_t next_tick_ms = 0;
  double next_publish_s = config.publish_every_s;
  double backlog = 0.0;  ///< queued work, cost units
  double last_arrival_s = 0.0;
  std::size_t active_shards = controller.shards();
  auto queue_limit = static_cast<double>(controller.channel_capacity());

  SweepReport report;
  report.offered_qps = offered;
  report.peak_shards = controller.shards();
  report.min_channel_capacity = controller.channel_capacity();

  // Single-shard capacity times the provisioned fleet, discounted by the
  // fraction of the ring currently dead (a killed shard takes both its
  // traffic share and its capacity with it).
  const auto live_capacity = [&](double frac) {
    std::size_t down = 0;
    for (std::size_t i = 0; i < total_shards; ++i) {
      if (shard_down(i, frac)) ++down;
    }
    const double healthy_frac =
        static_cast<double>(total_shards - down) /
        static_cast<double>(std::max<std::size_t>(1, total_shards));
    return std::max(1.0, static_cast<double>(active_shards) *
                             ctl.shard_unit_qps * healthy_frac);
  };

  // One controller tick at virtual time `t_ms`: scrape, decide, actuate.
  const auto run_tick = [&](std::uint64_t t_ms) {
    timeline.advance_to(t_ms);
    Signals signals = Controller::scrape(timeline, &tracker, series);
    signals.t_ms = t_ms;
    const double frac = (static_cast<double>(t_ms) / 1000.0) / duration_s;
    signals.queue_depth = backlog;
    signals.queue_delay_s = backlog / live_capacity(frac);
    std::size_t open = 0;
    for (const auto& breaker : breakers) {
      if (breaker->state() != fault::CircuitBreaker::State::kClosed) ++open;
    }
    signals.breakers_open = open;

    const Decision& decision = controller.tick(signals);
    const double tick_s = static_cast<double>(t_ms) / 1000.0;
    service.set_admission_rate(tick_s, decision.admission_rate_qps,
                               decision.admission_burst);
    service.set_brownout(decision.brownout);
    active_shards = decision.shards;
    queue_limit = static_cast<double>(decision.channel_capacity);

    if (decision.action == "ladder-up" && report.first_ladder_ms == 0) {
      report.first_ladder_ms = std::max<std::uint64_t>(1, t_ms);
    }
    report.max_level =
        std::max(report.max_level, static_cast<int>(decision.brownout));
    report.peak_shards = std::max(report.peak_shards, decision.shards);
    report.min_channel_capacity =
        std::min(report.min_channel_capacity, decision.channel_capacity);
  };

  // ---- Phase A: serial routing on the virtual clock. ----
  std::vector<Route> routes(total_queries);
  for (std::size_t i = 0; i < total_queries; ++i) {
    const double arrival_s = static_cast<double>(i) / offered;
    const auto arrival_ms = static_cast<std::uint64_t>(arrival_s * 1000.0);
    const double frac = arrival_s / duration_s;

    while (next_tick_ms <= arrival_ms) {
      run_tick(next_tick_ms);
      next_tick_ms += tick_every;
    }

    // Republish cadence — paused while replication is delayed, so reads in
    // that window really are behind.
    const bool repl_delayed = kind_active(ChaosWindow::Kind::kReplDelay, frac);
    if (!repl_delayed && next_publish_s <= arrival_s) {
      service.publish(entries);
      epochs.push_back(service.snapshot());
      next_publish_s = arrival_s + config.publish_every_s;
    }

    // Drain the queue model up to this arrival.
    backlog = std::max(0.0,
                       backlog - (arrival_s - last_arrival_s) *
                                     live_capacity(frac));
    last_arrival_s = arrival_s;

    timeline.advance_to(arrival_ms);
    arrivals.add();

    Route& route = routes[i];
    route.epoch_index = static_cast<std::uint32_t>(epochs.size() - 1);

    const serve::BrownoutLevel level = service.brownout();
    const serve::BrownoutAction action =
        serve::apply_brownout(queries[i], level);
    route.param = action.query.param;
    const bool history =
        util::Rng::indexed(util::mix_seed(config.seed, kHistorySalt), i)
            .bernoulli(config.p_history);

    const auto stale_possible = epochs.size() >= 2;
    const auto degrade = [&](Route& r) {
      if (stale_possible) {
        r.epoch_index = static_cast<std::uint32_t>(epochs.size() - 2);
        r.stale_age = 1;
        return Outcome::kServeStale;
      }
      return Outcome::kUnavailable;
    };

    Outcome outcome;
    if (action.refuse ||
        (history && level != serve::BrownoutLevel::kFull)) {
      // The ladder disables expensive kinds; historical (tsdb-backed)
      // queries count as range kinds from kCachedOnly up.
      outcome = Outcome::kBrownout;
    } else if (!service.try_admit(arrival_s)) {
      outcome = Outcome::kShed;  // service counted denied{reason=shed}
    } else {
      const std::size_t shard = service.shard_for(action.query);
      const bool dead = shard_down(shard, frac);
      bool failed;
      if (!breakers[shard]->allow(arrival_s)) {
        failed = true;  // breaker open/probing: fail fast, no bookkeeping
      } else {
        const fault::FaultDecision fd = shard_points[shard]->decide(i);
        failed = dead || fd.kind == fault::FaultKind::kError ||
                 fd.kind == fault::FaultKind::kCrash;
        if (failed) {
          breakers[shard]->on_failure(arrival_s);
        } else {
          breakers[shard]->on_success();
        }
      }

      if (failed) {
        outcome = degrade(route);
      } else if (history &&
                 (kind_active(ChaosWindow::Kind::kTsdbError, frac) ||
                  static_cast<bool>(tsdb_point->decide(i)))) {
        outcome = Outcome::kUnavailable;
      } else if (action.prefer_stale && stale_possible) {
        outcome = degrade(route);
      } else if (repl_delayed &&
                 util::Rng::indexed(util::mix_seed(config.seed, kReplSalt), i)
                         .bernoulli(config.repl_stale_prob) &&
                 stale_possible) {
        outcome = degrade(route);
      } else {
        outcome = Outcome::kServe;
      }

      // Queue bound: served work enters the backlog; past the bound the
      // request is overflow-shed instead.
      if (outcome == Outcome::kServe || outcome == Outcome::kServeStale) {
        const double cost =
            history ? serve::query_kind_cost(serve::QueryKind::kRangeMean)
                    : action.cost;
        if (backlog + cost > queue_limit) {
          outcome = Outcome::kOverflow;
        } else {
          backlog += cost;
        }
      }
    }
    route.outcome = outcome;

    // Outcome accounting (counters feed the controller's own signals).
    switch (outcome) {
      case Outcome::kServe:
        served_counter.add();
        break;
      case Outcome::kServeStale:
        stale_counter.add();
        break;
      case Outcome::kShed:
        break;  // already counted by try_admit
      case Outcome::kOverflow:
        denied.add(serve::DenyReason::kShed);
        overflow_counter.add();
        break;
      case Outcome::kBrownout:
        denied.add(serve::DenyReason::kBrownout);
        brownout_counter.add();
        break;
      case Outcome::kUnavailable:
        denied.add(serve::DenyReason::kUnavailable);
        unavailable_counter.add();
        break;
    }
    if ((outcome == Outcome::kShed || outcome == Outcome::kOverflow) &&
        report.first_shed_ms == 0) {
      report.first_shed_ms = std::max<std::uint64_t>(1, arrival_ms);
    }

    // Synthetic service latency: a pure function of (seed, i, outcome) plus
    // the deterministic queueing delay — never wall time.
    util::Rng latency_rng =
        util::Rng::indexed(util::mix_seed(config.seed, kLatencySalt), i);
    const double base_ms = 0.2 + latency_rng.exponential(2.0);
    const double queue_ms = 1000.0 * backlog / live_capacity(frac);
    double latency_ms;
    switch (outcome) {
      case Outcome::kServe:
        latency_ms = base_ms + queue_ms;
        break;
      case Outcome::kServeStale:
        latency_ms = 1.0 + 1.5 * base_ms + queue_ms;
        break;
      case Outcome::kUnavailable:
        latency_ms = 25.0 + base_ms;
        break;
      default:  // shed / overflow / brownout: immediate refusal
        latency_ms = 0.05;
        break;
    }
    latency_hist.observe(latency_ms);
    queue_gauge.set(backlog);
  }

  // Run the controller through the tail of the virtual run, then flush.
  while (next_tick_ms <= duration_ms) {
    run_tick(next_tick_ms);
    next_tick_ms += tick_every;
  }
  timeline.flush(duration_ms);

  // ---- Phase B: parallel pure evaluation of the fixed routes. ----
  struct Evaluated {
    serve::QueryStatus status = serve::QueryStatus::kShed;
    std::uint64_t hash = 0;
  };
  const std::vector<Evaluated> evaluated = util::parallel_map(
      pool, total_queries, 64, [&](std::size_t i) -> Evaluated {
        const Route& route = routes[i];
        serve::QueryResponse response;
        switch (route.outcome) {
          case Outcome::kServe:
          case Outcome::kServeStale: {
            serve::Query query = queries[i];
            query.param = route.param;
            response = serve::answer(query, *epochs[route.epoch_index]);
            if (route.outcome == Outcome::kServeStale) {
              response.stale = true;
              response.stale_age = route.stale_age;
            }
            break;
          }
          case Outcome::kShed:
          case Outcome::kOverflow:
            response.status = serve::QueryStatus::kShed;
            break;
          case Outcome::kBrownout:
            response.status = serve::QueryStatus::kBrownout;
            break;
          case Outcome::kUnavailable:
            response.status = serve::QueryStatus::kUnavailable;
            break;
        }
        return {response.status, serve::hash_response(i, response)};
      });

  // ---- Phase C: serial fold. ----
  report.issued = total_queries;
  for (std::size_t i = 0; i < total_queries; ++i) {
    report.checksum ^= evaluated[i].hash;
    switch (routes[i].outcome) {
      case Outcome::kServe:
      case Outcome::kServeStale:
        if (evaluated[i].status == serve::QueryStatus::kOk) {
          ++report.ok;
        } else {
          ++report.not_found;
        }
        if (routes[i].outcome == Outcome::kServeStale) ++report.stale;
        break;
      case Outcome::kShed:
        ++report.shed;
        break;
      case Outcome::kOverflow:
        ++report.shed;
        ++report.overflow;
        break;
      case Outcome::kBrownout:
        ++report.brownout;
        break;
      case Outcome::kUnavailable:
        ++report.unavailable;
        break;
    }
  }
  const auto issued = static_cast<double>(report.issued);
  report.shed_fraction = static_cast<double>(report.shed) / issued;
  report.denied_fraction =
      static_cast<double>(report.shed + report.brownout +
                          report.unavailable) /
      issued;
  report.stale_fraction = static_cast<double>(report.stale) / issued;
  report.p50_ms = latency_hist.quantile(0.50);
  report.p99_ms = latency_hist.quantile(0.99);
  for (const obs::SloStatus& status : tracker.status()) {
    if (status.slo == series.slo) {
      const std::uint64_t verdicts = status.good + status.bad;
      report.slo_good_fraction =
          verdicts > 0
              ? static_cast<double>(status.good) /
                    static_cast<double>(verdicts)
              : 1.0;
      report.slo_fired = status.firing;
    }
  }
  if (!tracker.alerts().empty()) report.slo_fired = true;
  report.ladder_engaged_before_shed =
      report.first_ladder_ms != 0 &&
      (report.first_shed_ms == 0 ||
       report.first_ladder_ms <= report.first_shed_ms);
  report.ticks = controller.decisions().size();
  report.decision_log = controller.log_text();
  report.decision_digest = controller.log_digest();
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return report;
}

}  // namespace tero::control
