#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/sweep.hpp"
#include "obs/metrics.hpp"
#include "serve/brownout.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"

namespace tero::control {
namespace {

serve::SnapshotEntry make_entry(const std::string& country,
                                const std::string& game,
                                std::vector<double> values) {
  serve::SnapshotEntry entry;
  entry.location.country = country;
  entry.game = game;
  std::sort(values.begin(), values.end());
  entry.sorted_values = std::move(values);
  entry.samples = entry.sorted_values.size();
  entry.mean_ms = stats::mean(entry.sorted_values);
  entry.box = stats::boxplot(entry.sorted_values);
  entry.key = serve::entry_key(entry.location, entry.game);
  entry.streamers = 3;
  return entry;
}

std::vector<serve::SnapshotEntry> sweep_entries() {
  std::vector<serve::SnapshotEntry> entries;
  const char* countries[] = {"DE", "FR", "BR", "US", "JP", "KR", "GB", "PL"};
  const char* games[] = {"lol", "cs2", "valorant"};
  double base = 20.0;
  for (const char* country : countries) {
    for (const char* game : games) {
      entries.push_back(make_entry(
          country, game,
          {base, base + 3, base + 7, base + 12, base + 20, base + 45}));
      base += 1.5;
    }
  }
  return entries;
}

/// Small-but-real sweep cell: ~2 virtual seconds at a few hundred qps.
SweepConfig tiny_sweep(Policy policy, double multiplier,
                       std::uint64_t seed = 7) {
  SweepConfig config;
  config.seed = seed;
  config.duration_s = 2.5;
  config.load_multiplier = multiplier;
  config.publish_every_s = 0.5;
  config.controller.policy = policy;
  config.controller.shard_unit_qps = 400.0;
  config.controller.min_shards = 2;
  config.controller.initial_shards = 2;
  config.controller.max_shards = 4;
  config.controller.base_channel_capacity = 1024;
  config.controller.min_channel_capacity = 64;
  return config;
}

Signals hot_signals(std::uint64_t t_ms) {
  Signals signals;
  signals.t_ms = t_ms;
  signals.offered_qps = 4000.0;
  signals.shed_fraction = 0.2;
  signals.queue_delay_s = 1.0;
  signals.burn_fast = 5.0;
  signals.burn_slow = 3.0;
  signals.slo_firing = true;
  return signals;
}

Signals calm_signals(std::uint64_t t_ms) {
  Signals signals;
  signals.t_ms = t_ms;
  signals.offered_qps = 100.0;
  return signals;
}

TEST(Brownout, LevelZeroIsIdentity) {
  serve::Query query;
  query.kind = serve::QueryKind::kTopK;
  query.param = 97.0;
  const serve::BrownoutAction action =
      serve::apply_brownout(query, serve::BrownoutLevel::kFull);
  EXPECT_FALSE(action.refuse);
  EXPECT_FALSE(action.prefer_stale);
  EXPECT_DOUBLE_EQ(action.query.param, 97.0);
  EXPECT_DOUBLE_EQ(action.cost,
                   serve::query_kind_cost(serve::QueryKind::kTopK));
}

TEST(Brownout, LadderDisablesKindsInCostOrder) {
  serve::Query ecdf;
  ecdf.kind = serve::QueryKind::kEcdf;
  serve::Query topk;
  topk.kind = serve::QueryKind::kTopK;
  serve::Query percentile;
  percentile.kind = serve::QueryKind::kPercentile;

  // kCachedOnly cuts the expensive scan kinds, keeps point lookups.
  EXPECT_TRUE(
      serve::apply_brownout(ecdf, serve::BrownoutLevel::kCachedOnly).refuse);
  EXPECT_FALSE(
      serve::apply_brownout(topk, serve::BrownoutLevel::kCachedOnly).refuse);
  // kCoarsePercentile also drops top-k; percentiles survive, coarsened.
  EXPECT_TRUE(
      serve::apply_brownout(topk, serve::BrownoutLevel::kCoarsePercentile)
          .refuse);
  EXPECT_FALSE(
      serve::apply_brownout(percentile,
                            serve::BrownoutLevel::kCoarsePercentile)
          .refuse);
  // Even the last rung still answers plain percentiles.
  EXPECT_FALSE(
      serve::apply_brownout(percentile, serve::BrownoutLevel::kShed).refuse);
}

TEST(Brownout, CoarsensPercentileParam) {
  serve::Query query;
  query.kind = serve::QueryKind::kPercentile;
  query.param = 97.0;
  const serve::BrownoutAction action =
      serve::apply_brownout(query, serve::BrownoutLevel::kCoarsePercentile);
  EXPECT_FALSE(action.refuse);
  EXPECT_DOUBLE_EQ(action.query.param, 99.0);  // nearest of {50, 90, 99}
  serve::Query median = query;
  median.param = 60.0;
  EXPECT_DOUBLE_EQ(
      serve::apply_brownout(median, serve::BrownoutLevel::kCoarsePercentile)
          .query.param,
      50.0);
}

TEST(Brownout, StaleTolerantPrefersStaleAndCostsFall) {
  serve::Query query;
  query.kind = serve::QueryKind::kMean;
  double last_cost = serve::query_kind_cost(serve::QueryKind::kMean) + 1.0;
  for (int level = 0; level < serve::kBrownoutLevels; ++level) {
    const serve::BrownoutAction action =
        serve::apply_brownout(query, serve::brownout_level(level));
    EXPECT_FALSE(action.refuse) << "mean must survive every rung";
    EXPECT_LE(action.cost, last_cost)
        << "cost must be monotone non-increasing down the ladder";
    last_cost = action.cost;
    EXPECT_EQ(action.prefer_stale,
              level >= static_cast<int>(serve::BrownoutLevel::kStaleTolerant));
  }
}

TEST(Policy, ParseRoundTrip) {
  for (const Policy policy :
       {Policy::kStatic, Policy::kReactive, Policy::kPredictive}) {
    EXPECT_EQ(parse_policy(to_string(policy)), policy);
  }
  EXPECT_THROW((void)parse_policy("pid"), std::invalid_argument);
}

TEST(Controller, StaticPolicyNeverMoves) {
  ControllerConfig config;
  config.policy = Policy::kStatic;
  Controller controller(config);
  const double rate = controller.admission_rate();
  for (std::uint64_t t = 0; t < 20; ++t) {
    const Decision& decision = controller.tick(hot_signals(t * 100));
    EXPECT_EQ(decision.action, "hold");
    EXPECT_FALSE(decision.changed);
  }
  EXPECT_EQ(controller.brownout(), serve::BrownoutLevel::kFull);
  EXPECT_DOUBLE_EQ(controller.admission_rate(), rate);
  EXPECT_EQ(controller.shards(), config.initial_shards);
}

TEST(Controller, ReactiveClimbsLadderBeforeCuttingAdmission) {
  ControllerConfig config;
  config.policy = Policy::kReactive;
  Controller controller(config);
  const double initial_rate = controller.admission_rate();

  std::vector<std::string> actions;
  for (std::uint64_t t = 0; t < 4; ++t) {
    actions.push_back(controller.tick(hot_signals(t * 100)).action);
  }
  // The first escalations are all ladder rungs — brownout before shedding —
  // and each rung *raises* the admission rate (cheaper queries => more
  // admitted), so overload never begins by shedding harder.
  EXPECT_EQ(actions.front(), "ladder-up");
  for (const std::string& action : actions) EXPECT_EQ(action, "ladder-up");
  EXPECT_EQ(controller.brownout(), serve::BrownoutLevel::kShed);
  EXPECT_GT(controller.admission_rate(), initial_rate);
}

TEST(Controller, NeverScalesOutWithAnOpenBreaker) {
  ControllerConfig config;
  config.policy = Policy::kReactive;
  Controller controller(config);
  // Exhaust the ladder first.
  for (int i = 0; i < serve::kBrownoutLevels - 1; ++i) {
    (void)controller.tick(hot_signals(i * 100));
  }
  ASSERT_EQ(controller.brownout(), serve::BrownoutLevel::kShed);
  const std::size_t shards_before = controller.shards();

  // Queue pressure would normally trigger scale-out, but a breaker is open:
  // adding capacity to a fleet with a known-bad shard is forbidden.
  for (std::uint64_t t = 10; t < 20; ++t) {
    Signals signals = hot_signals(t * 100);
    signals.breakers_open = 1;
    const Decision& decision = controller.tick(signals);
    EXPECT_NE(decision.action, "scale-out");
  }
  EXPECT_EQ(controller.shards(), shards_before);

  // Same pressure with every breaker closed does scale out.
  Signals healthy = hot_signals(2100);
  const Decision& decision = controller.tick(healthy);
  EXPECT_EQ(decision.action, "scale-out");
  EXPECT_EQ(controller.shards(), shards_before + 1);
}

TEST(Controller, PredictiveEscalatesOnSlopeAlone) {
  ControllerConfig config;
  config.policy = Policy::kPredictive;
  Controller controller(config);
  // Offered load ramps toward capacity but no reactive trigger has fired
  // yet: no sheds, no burn, empty queue.
  bool predicted = false;
  for (std::uint64_t t = 0; t < 12; ++t) {
    Signals signals;
    signals.t_ms = t * 100;
    signals.offered_qps = 1000.0 + 400.0 * static_cast<double>(t);
    const Decision& decision = controller.tick(signals);
    if (decision.reason == "predict") {
      predicted = true;
      EXPECT_EQ(decision.action, "ladder-up");
      break;
    }
  }
  EXPECT_TRUE(predicted) << "slope extrapolation never pre-escalated";

  // The reactive policy holds flat on the identical signal sequence.
  ControllerConfig reactive = config;
  reactive.policy = Policy::kReactive;
  Controller baseline(reactive);
  for (std::uint64_t t = 0; t < 12; ++t) {
    Signals signals;
    signals.t_ms = t * 100;
    signals.offered_qps = 1000.0 + 400.0 * static_cast<double>(t);
    EXPECT_EQ(baseline.tick(signals).action, "hold");
  }
}

TEST(Controller, CalmHoldUnwindsTheLadder) {
  ControllerConfig config;
  config.policy = Policy::kReactive;
  config.hold_ticks = 3;
  Controller controller(config);
  for (int i = 0; i < 2; ++i) (void)controller.tick(hot_signals(i * 100));
  ASSERT_EQ(controller.brownout(), serve::BrownoutLevel::kCoarsePercentile);

  // Recovery needs a *sustained* calm hold per step, not one quiet tick.
  std::uint64_t t = 200;
  (void)controller.tick(calm_signals(t += 100));
  EXPECT_EQ(controller.brownout(), serve::BrownoutLevel::kCoarsePercentile);
  for (int i = 0; i < 12; ++i) (void)controller.tick(calm_signals(t += 100));
  EXPECT_EQ(controller.brownout(), serve::BrownoutLevel::kFull);
}

TEST(Controller, DecisionLogIsDeterministic) {
  ControllerConfig config;
  config.policy = Policy::kReactive;
  Controller a(config);
  Controller b(config);
  for (std::uint64_t t = 0; t < 30; ++t) {
    const Signals signals =
        (t % 7 < 4) ? hot_signals(t * 100) : calm_signals(t * 100);
    (void)a.tick(signals);
    (void)b.tick(signals);
  }
  EXPECT_FALSE(a.log_text().empty());
  EXPECT_EQ(a.log_text(), b.log_text());
  EXPECT_EQ(a.log_digest(), b.log_digest());
}

TEST(Sweep, BitIdenticalAcrossThreadCounts) {
  util::ThreadPool pool(8);
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    const SweepConfig config = tiny_sweep(Policy::kReactive, 4.0, seed);
    const SweepReport serial = run_control_sweep(sweep_entries(), config,
                                                 nullptr);
    const SweepReport threaded = run_control_sweep(sweep_entries(), config,
                                                   &pool);
    EXPECT_EQ(serial.decision_log, threaded.decision_log) << "seed " << seed;
    EXPECT_EQ(serial.decision_digest, threaded.decision_digest);
    EXPECT_EQ(serial.checksum, threaded.checksum);
    EXPECT_EQ(serial.shed, threaded.shed);
    EXPECT_EQ(serial.brownout, threaded.brownout);
    EXPECT_EQ(serial.stale, threaded.stale);
  }
}

TEST(Sweep, SeedsProduceDistinctButReproducibleRuns) {
  const SweepReport a1 =
      run_control_sweep(sweep_entries(), tiny_sweep(Policy::kReactive, 2.0, 5),
                        nullptr);
  const SweepReport a2 =
      run_control_sweep(sweep_entries(), tiny_sweep(Policy::kReactive, 2.0, 5),
                        nullptr);
  const SweepReport b =
      run_control_sweep(sweep_entries(), tiny_sweep(Policy::kReactive, 2.0, 6),
                        nullptr);
  EXPECT_EQ(a1.checksum, a2.checksum);
  EXPECT_EQ(a1.decision_digest, a2.decision_digest);
  EXPECT_NE(a1.checksum, b.checksum);
}

TEST(Sweep, ReactiveShedsLessThanStaticAtFourX) {
  const SweepReport stat = run_control_sweep(
      sweep_entries(), tiny_sweep(Policy::kStatic, 4.0), nullptr);
  const SweepReport reactive = run_control_sweep(
      sweep_entries(), tiny_sweep(Policy::kReactive, 4.0), nullptr);
  ASSERT_GT(stat.shed_fraction, 0.2)
      << "static baseline must be visibly overloaded at 4x";
  EXPECT_LT(reactive.shed_fraction, stat.shed_fraction);
  EXPECT_GT(reactive.max_level, 0) << "the ladder never engaged";
}

TEST(Sweep, LadderEngagesBeforeShedding) {
  const SweepReport reactive = run_control_sweep(
      sweep_entries(), tiny_sweep(Policy::kReactive, 4.0), nullptr);
  ASSERT_GT(reactive.first_ladder_ms, 0u);
  EXPECT_TRUE(reactive.ladder_engaged_before_shed);
  if (reactive.first_shed_ms != 0) {
    EXPECT_LE(reactive.first_ladder_ms, reactive.first_shed_ms);
  }
  // The static policy has no ladder at all.
  const SweepReport stat = run_control_sweep(
      sweep_entries(), tiny_sweep(Policy::kStatic, 4.0), nullptr);
  EXPECT_EQ(stat.first_ladder_ms, 0u);
  EXPECT_FALSE(stat.ladder_engaged_before_shed);
}

TEST(Sweep, UnderloadedHealthyCellStaysAtFullFidelity) {
  // No chaos, no background tsdb refusals: a 0.1x cell never escalates.
  // (With chaos on, even an underloaded controller is *supposed* to brown
  // out — tsdb refusals breach the latency SLO; see ChaosWindowsLeaveTheirMark.)
  SweepConfig config = tiny_sweep(Policy::kReactive, 0.1);
  config.windows.clear();
  config.fault_plan = "serve.shard*=error@0.02";
  const SweepReport report =
      run_control_sweep(sweep_entries(), config, nullptr);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.max_level, 0);
  EXPECT_EQ(report.unavailable, 0u);
  EXPECT_GT(report.ok, 0u);
}

TEST(DeniedCounters, UnifiedFamilyReplacesLegacyAliases) {
  obs::MetricsRegistry registry;
  serve::ServeConfig config;
  config.shards = 2;
  config.metrics = &registry;
  config.admission_rate_qps = 1.0;
  config.admission_burst = 1.0;
  serve::QueryService service(config);
  (void)service.publish(sweep_entries());

  serve::Query query;
  query.kind = serve::QueryKind::kPercentile;
  query.location.country = "DE";
  query.game = "lol";

  // Burn the single token, then shed twice: denied{reason=shed} counts
  // both, and no legacy alias series is written any more.
  (void)service.query(query, 0.0);
  (void)service.query(query, 0.0);
  (void)service.query(query, 0.0);
  const std::uint64_t denied_shed =
      registry
          .counter(obs::MetricsRegistry::labeled("tero.serve.denied",
                                                 {{"reason", "shed"}}))
          .value();
  EXPECT_EQ(denied_shed, 2u);
  EXPECT_EQ(denied_shed, service.shed_count());
  for (const auto& [name, counter] : registry.counters()) {
    EXPECT_NE(name, "tero.serve.shed");
    EXPECT_NE(name, "tero.serve.unavailable");
  }

  // Brownout refusals land in the same family under their own label.
  service.set_admission_rate(1.0, 0.0);
  service.set_brownout(serve::BrownoutLevel::kCachedOnly);
  serve::Query ecdf = query;
  ecdf.kind = serve::QueryKind::kEcdf;
  const serve::QueryResponse refused = service.query(ecdf, 1.0);
  EXPECT_EQ(refused.status, serve::QueryStatus::kBrownout);
  EXPECT_EQ(registry
                .counter(obs::MetricsRegistry::labeled(
                    "tero.serve.denied", {{"reason", "brownout"}}))
                .value(),
            1u);
}

TEST(Sweep, ChaosWindowsLeaveTheirMark) {
  // At 1x with the standard chaos plan the run should see degraded reads
  // (shard kill + repl delay -> stale) and tsdb refusals (unavailable),
  // while mostly still answering.
  SweepConfig config = tiny_sweep(Policy::kReactive, 1.0);
  const SweepReport report =
      run_control_sweep(sweep_entries(), config, nullptr);
  EXPECT_GT(report.stale, 0u);
  EXPECT_GT(report.unavailable, 0u);
  EXPECT_GT(static_cast<double>(report.ok) /
                static_cast<double>(report.issued),
            0.5);
}

}  // namespace
}  // namespace tero::control
