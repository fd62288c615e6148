// tero_cli: the driver a data-set consumer uses against the published CSV
// artifacts (see examples/export_dataset.cpp). Subcommands:
//
//   tero_cli simulate [out_dir] [streamers] [days] [threads]
//            [--metrics-out m.json] [--trace-out t.json] [--metrics-table]
//       build a synthetic world, run the pipeline (threads workers;
//       0 = all cores, same output either way), and write
//       measurements.csv + aggregates.csv. --metrics-out dumps the
//       metrics registry as JSON, --trace-out writes a Chrome
//       trace-event file (load in Perfetto / chrome://tracing), and
//       --metrics-table prints the registry to stdout.
//
//   tero_cli analyze <measurements.csv>
//       re-run the QoE-based cleaning over an imported data set and print
//       per-{streamer, game} summaries (points kept, spikes, glitches)
//
//   tero_cli report <measurements.csv> <game>
//       print the latency distribution per streamer pseudonym for a game
//       (what a researcher without the pipeline would compute first)
//
//   tero_cli query <snapshot> point <game> <country> [region] [city]
//   tero_cli query <snapshot> topk <game> [k]
//       serve point / top-k-worst queries from a snapshot written by
//       `simulate --snapshot-out` — no pipeline re-run needed
//
//   tero_cli loadtest <snapshot> [queries] [threads] [shards]
//            [--seed n] [--zipf s] [--open qps] [--admit rate burst]
//       drive the sharded query service with the deterministic Zipf load
//       generator; the reported result checksum is bit-identical for any
//       thread count at a fixed seed (--open adds virtual-time arrivals,
//       --admit enables token-bucket admission control / load shedding)
//
//   tero_cli stream [streamers] [days] [threads] [--window s] [--lateness s]
//            [--publish-every n] [--checkpoint-dir d] [--checkpoint-every n]
//            [--crash-after id] [--max-delay s] [--rate r] [--burst b]
//            [--capacity n] [--snapshot-out f] [--metrics-out f]
//            [--trace-out f] [--metrics-table]
//       run the same scenario through the streaming ingestion pipeline
//       (DESIGN.md §10): tumbling event-time windows fold into live serve
//       epochs, checkpoints land in --checkpoint-dir, and --crash-after
//       simulates a crash right after checkpoint N — rerunning with the
//       same --checkpoint-dir resumes and produces bit-identical output.
//       With --publish-every 0 the --snapshot-out file is byte-identical
//       to `simulate --snapshot-out` for the same scenario.
//
//   tero_cli obs <report|export> [streamers] [days] [queries] [threads]
//       one-command observability demo (DESIGN.md §13): build a world,
//       publish its snapshot, and drive the deterministic load generator
//       with a virtual-time metrics timeline, SLO burn-rate tracking, and
//       exemplar-armed histograms. `report` prints the timeline series,
//       the SLO burn table, and the p99-bucket exemplar -> span links;
//       `export` writes Prometheus text (--prom), the timeline history
//       JSON (--json, bit-identical across thread counts at a fixed
//       seed), and the SLO alert log (--slo).
//
//   tero_cli cluster <loadtest|kill|join|status> [streamers] [days] [queries]
//       deterministic multi-node serving cluster demo (DESIGN.md §14):
//       publish a world's snapshot across a consistent-hash fleet,
//       sweep the Zipf load generator, and script membership churn.
//       kill/join double as invariant gates (availability, breaker SLO,
//       ownership audit, remap bound) and exit nonzero on violation.
//
//   tero_cli control <sweep|status> [--policy p] [--mult n]
//       closed-loop overload resilience demo (DESIGN.md §16): run one
//       deterministic virtual-time overload cell under the standard
//       chaos plan with the SLO-driven feedback controller actuating
//       admission, shard count, channel capacity, and the brownout
//       ladder. `sweep` runs the cell and can write the per-tick
//       decision log (byte-identical across --threads at a fixed
//       --seed); `status` prints the resolved cell plan without
//       running it.
//
// The shared flags --metrics-out / --trace-out / --metrics-table /
// --seed / --threads are parsed by one helper (CommonFlags below):
// simulate, query, loadtest, stream, chaos, obs, cluster, tsdb, and
// control all accept them with the same spelling and semantics.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/anomalies.hpp"
#include "cluster/cluster.hpp"
#include "cluster/loadgen.hpp"
#include "control/controller.hpp"
#include "control/sweep.hpp"
#include "download/cdn.hpp"
#include "download/system.hpp"
#include "fault/fault.hpp"
#include "fault/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_io.hpp"
#include "stats/descriptive.hpp"
#include "store/kv_store.hpp"
#include "stream/pipeline.hpp"
#include "synth/sessions.hpp"
#include "tero/export.hpp"
#include "tero/pipeline.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace tero;

namespace {

/// The complete usage text: every subcommand and every flag it accepts.
/// Printed on --help (stdout, exit 0) and on unknown commands/flags
/// (stderr, nonzero exit).
constexpr const char* kUsage =
    "usage: tero_cli <simulate|analyze|report|query|loadtest|stream|chaos"
    "|obs|cluster|tsdb|control> ...\n"
    "\n"
    "  simulate [out_dir] [streamers] [days] [threads]\n"
    "           [--snapshot-out snap.bin] [--metrics-out m.json]\n"
    "           [--trace-out t.json] [--metrics-table]\n"
    "           [--full-ocr] [--digest]\n"
    "      run the batch pipeline over a synthetic world and write\n"
    "      measurements.csv + aggregates.csv (plus optional snapshot,\n"
    "      metrics JSON, Chrome trace); --full-ocr rasterizes thumbnails\n"
    "      and runs the real OCR path, --digest prints the dataset\n"
    "      fingerprint (used by the TERO_SIMD determinism gate)\n"
    "\n"
    "  analyze  <measurements.csv>\n"
    "      re-run QoE cleaning over an exported data set\n"
    "\n"
    "  report   <measurements.csv> <game>\n"
    "      per-streamer latency distribution for one game\n"
    "\n"
    "  query    <snapshot> point <game> <country> [region] [city]\n"
    "  query    <snapshot> topk <game> [k]\n"
    "  query    <snapshot> range <game> <country> [region] [city]\n"
    "           --tsdb-dir dir [--from ms] [--to ms] [--window ms]\n"
    "           [--agg count|mean|p<pct>|drift]\n"
    "      point / top-k-worst queries against a saved snapshot, or\n"
    "      historical range queries answered from a persisted tiered\n"
    "      time-series store (written by `stream --tsdb-dir`) through\n"
    "      the same QueryService: one row per window; --agg drift\n"
    "      prints the week-over-week percentile drift at --to.\n"
    "      Defaults: --from 0, --to sealed frontier + one window,\n"
    "      --window 86400000 (one day), --agg p99. All query modes also\n"
    "      accept the shared --seed/--threads/--metrics-out/--trace-out/\n"
    "      --metrics-table flags\n"
    "\n"
    "  loadtest <snapshot> [queries] [threads] [shards]\n"
    "           [--seed n] [--zipf s] [--open qps] [--admit rate burst]\n"
    "           [--metrics-out m.json] [--trace-out t.json]\n"
    "           [--metrics-table]\n"
    "      deterministic Zipf load against the sharded query service;\n"
    "      the obs flags dump the loadgen-owned tero.loadgen.* telemetry\n"
    "      (deterministic synthetic latency, exemplars keyed by query id)\n"
    "\n"
    "  stream   [streamers] [days] [threads]\n"
    "           [--window seconds] [--lateness seconds] [--publish-every n]\n"
    "           [--checkpoint-dir dir] [--checkpoint-every n]\n"
    "           [--crash-after id] [--max-delay seconds] [--rate qps]\n"
    "           [--burst n] [--capacity n] [--snapshot-out snap.bin]\n"
    "           [--tsdb-dir dir] [--metrics-out m.json]\n"
    "           [--trace-out t.json] [--metrics-table]\n"
    "           [--timeline-out tl.json]\n"
    "      run the streaming ingestion pipeline over the same scenario;\n"
    "      windows fold into live epochs, checkpoints enable crash\n"
    "      recovery (--crash-after simulates the crash), and\n"
    "      --publish-every 0 makes --snapshot-out byte-identical to\n"
    "      `simulate --snapshot-out`; --tsdb-dir appends every closed\n"
    "      window's mean to a persisted tiered time-series store that\n"
    "      `query range` can answer from; set TERO_SIMD=off to force the\n"
    "      scalar extraction kernels (bit-identical output, DESIGN.md §12)\n"
    "\n"
    "  chaos    [seeds] [streamers] [days] [--plan spec] [--threads n]\n"
    "           [--metrics-out m.json] [--trace-out t.json]\n"
    "           [--metrics-table]\n"
    "      deterministic chaos harness (DESIGN.md §11): per seed, runs the\n"
    "      batch pipeline under a transient FaultPlan (default\n"
    "      extract.stream=error@0.4:fails=2) and asserts the dataset is\n"
    "      bit-identical to a fault-free run, runs a permanent-fault plan\n"
    "      and asserts quarantine accounting, drives the download simulator\n"
    "      through CDN/KV faults plus a mid-run crash, and flaps a serve\n"
    "      shard to exercise STALE degraded answers and the circuit\n"
    "      breaker; exits nonzero when any invariant is violated; honors\n"
    "      TERO_SIMD=off (scalar kernels) — every invariant must hold\n"
    "      identically on both dispatch paths; the serve-shard flap is\n"
    "      additionally gated by an SLO: a burn-rate alert on\n"
    "      value(tero.fault.breaker{endpoint=shard-0}) must fire within\n"
    "      one evaluation window of the breaker opening (DESIGN.md §13)\n"
    "\n"
    "  obs      <report|export> [streamers] [days] [queries] [threads]\n"
    "           [--seed n] [--open qps] [--spec \"slo ...\"]...\n"
    "           [--prom f.prom] [--json f.json] [--slo f.json]\n"
    "           [--metrics-out m.json] [--trace-out t.json]\n"
    "           [--metrics-table]\n"
    "      one-command observability demo: publish a world's snapshot and\n"
    "      drive the deterministic load generator with a virtual-time\n"
    "      metrics timeline, SLO burn-rate tracking (--spec adds SLOs in\n"
    "      the grammar `slo name: p99(series) < 5ms over 60s window,\n"
    "      budget 0.1%`), and exemplar-armed histograms. `report` prints\n"
    "      timeline series, the SLO burn table, and p99-bucket exemplar\n"
    "      -> span links; `export` writes Prometheus text (--prom), the\n"
    "      timeline history JSON (--json; byte-identical across thread\n"
    "      counts at a fixed seed), and the SLO alert log (--slo)\n"
    "\n"
    "  cluster  <loadtest|kill|join|status> [streamers] [days] [queries]\n"
    "           [--nodes n] [--replicas n] [--budget epochs] [--seed n]\n"
    "           [--threads n] [--qps n] [--policy leader|follower]\n"
    "           [--timeline-out tl.json] [--slo-out s.json]\n"
    "           [--metrics-out m.json] [--trace-out t.json]\n"
    "           [--metrics-table]\n"
    "      deterministic multi-node serving cluster (DESIGN.md §14):\n"
    "      publish a world's snapshot across a consistent-hash fleet and\n"
    "      sweep the Zipf load generator on the virtual clock. `loadtest`\n"
    "      republishes epochs mid-sweep (follower answers go STALE within\n"
    "      the --budget bound); `kill` downs a node mid-sweep and asserts\n"
    "      availability, breaker opening, and the breaker burn-rate SLO\n"
    "      firing within two scrapes; `join` adds a node mid-sweep and\n"
    "      asserts the ownership audit plus the < 2/n remap bound;\n"
    "      `status` prints the per-node table and the audit. kill/join\n"
    "      exit nonzero when an invariant is violated. The result\n"
    "      checksum is bit-identical for any --threads value\n"
    "\n"
    "  tsdb     verify [seeds] [keys] [days]\n"
    "           [--plan spec] [--threads n] [--dir base]\n"
    "           [--metrics-out m.json] [--trace-out t.json]\n"
    "           [--metrics-table]\n"
    "      determinism + crash-recovery sweep over the tiered\n"
    "      time-series store (DESIGN.md §15). Per seed: a clean run must\n"
    "      produce bit-identical segment layout and dataset digest at 1\n"
    "      vs N threads, and a durable run under the fault plan (default\n"
    "      tsdb.compact=crash@1:max=1) must crash, then reopen from disk\n"
    "      without losing a single acknowledged sample; exits nonzero on\n"
    "      any violation (scripts/ci.sh tsdb-smoke runs this sweep)\n"
    "\n"
    "  control  <sweep|status> [--policy static|reactive|predictive]\n"
    "           [--mult n] [--duration s] [--seed n] [--threads n]\n"
    "           [--log-out f.log] [--metrics-out m.json]\n"
    "           [--trace-out t.json] [--metrics-table]\n"
    "      closed-loop overload resilience (DESIGN.md §16): one\n"
    "      deterministic virtual-time cell at --mult times nominal\n"
    "      capacity under the standard chaos plan (shard kill,\n"
    "      replication delay, tsdb read errors). The feedback\n"
    "      controller scrapes the timeline/SLO signals every tick and\n"
    "      actuates admission token rate, shard count, channel\n"
    "      capacity, and the brownout ladder (full -> cached-only ->\n"
    "      coarse-percentile -> stale-tolerant -> shed). `sweep` runs\n"
    "      the cell, prints the outcome table, and writes the per-tick\n"
    "      decision log to --log-out — the log, digest, and result\n"
    "      checksum are byte-identical for any --threads value at a\n"
    "      fixed --seed (scripts/ci.sh control-smoke cmp-gates this);\n"
    "      for reactive/predictive at --mult >= 2 the run exits\n"
    "      nonzero unless the ladder engaged before the first shed.\n"
    "      `status` prints the resolved cell plan (policy, capacity\n"
    "      model, chaos windows, SLO) without running it\n"
    "\n"
    "  tero_cli --help prints this text; unknown flags exit nonzero.\n";

/// Unknown-flag rejection shared by every subcommand: anything that starts
/// with "--" and is not in the subcommand's flag table is an error, not a
/// positional argument.
int unknown_flag(const std::string& command, const std::string& arg) {
  std::cerr << "tero_cli " << command << ": unknown flag " << arg << "\n\n"
            << kUsage;
  return 2;
}

/// The observability flags every telemetry-capable subcommand shares
/// (simulate, loadtest, stream, chaos, obs): one spelling, one parser, one
/// writer, so `--metrics-out` means the same thing everywhere.
struct ObsFlags {
  std::string metrics_out;  ///< registry JSON dump
  std::string trace_out;    ///< Chrome trace-event JSON
  bool metrics_table = false;  ///< registry table on stdout
};

/// Try to consume argv[i] (plus its value, if any) as a shared obs flag.
/// Returns the number of argv slots consumed (0 = not an obs flag), or -1
/// when the flag is present but its file argument is missing (the error is
/// already printed).
int eat_obs_flag(int argc, char** argv, int i, ObsFlags& flags) {
  const std::string arg = argv[i];
  if (arg == "--metrics-out" || arg == "--trace-out") {
    if (i + 1 >= argc) {
      std::cerr << arg << " needs a file argument\n";
      return -1;
    }
    (arg == "--metrics-out" ? flags.metrics_out : flags.trace_out) =
        argv[i + 1];
    return 2;
  }
  if (arg == "--metrics-table") {
    flags.metrics_table = true;
    return 1;
  }
  return 0;
}

/// The full shared-flag set: the obs trio plus --seed and --threads, which
/// every scenario-driving subcommand used to parse on its own. The *_set
/// markers let each subcommand keep its historical default (often a
/// positional argument) when the flag is absent; when both are given the
/// flag wins.
struct CommonFlags {
  ObsFlags obs;
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::size_t threads = 0;
  bool threads_set = false;
};

/// Try to consume argv[i] (plus its value) as a shared flag. Same contract
/// as eat_obs_flag: returns slots consumed (0 = not a shared flag), or -1
/// when a value is missing (error already printed).
int eat_common_flag(int argc, char** argv, int i, CommonFlags& flags) {
  if (const int eaten = eat_obs_flag(argc, argv, i, flags.obs); eaten != 0) {
    return eaten;
  }
  const std::string arg = argv[i];
  if (arg == "--seed" || arg == "--threads") {
    if (i + 1 >= argc) {
      std::cerr << arg << " needs a value\n";
      return -1;
    }
    if (arg == "--seed") {
      flags.seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
      flags.seed_set = true;
    } else {
      flags.threads = static_cast<std::size_t>(std::atoi(argv[i + 1]));
      flags.threads_set = true;
    }
    return 2;
  }
  return 0;
}

/// Emit the outputs the shared flags requested. Returns nonzero on I/O
/// failure (missing output directory, unwritable file).
int write_obs_outputs(const ObsFlags& flags,
                      const obs::MetricsRegistry& registry,
                      const obs::TraceRecorder& recorder) {
  if (!flags.metrics_out.empty()) {
    std::ofstream out(flags.metrics_out);
    if (!out) {
      std::cerr << "cannot open " << flags.metrics_out << "\n";
      return 1;
    }
    registry.write_json(out);
    std::cout << "wrote " << registry.size() << " metrics to "
              << flags.metrics_out << "\n";
  }
  if (flags.metrics_table) registry.write_table(std::cout);
  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    if (!out) {
      std::cerr << "cannot open " << flags.trace_out << "\n";
      return 1;
    }
    recorder.write_json(out);
    std::cout << "wrote " << recorder.span_count() << " trace events to "
              << flags.trace_out << "\n";
  }
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  // Split --flags (accepted anywhere) from the positional arguments.
  CommonFlags flags;
  std::string snapshot_out;
  bool full_ocr = false;
  bool print_digest = false;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--snapshot-out") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a file argument\n";
        return 1;
      }
      snapshot_out = argv[++i];
    } else if (arg == "--full-ocr") {
      full_ocr = true;
    } else if (arg == "--digest") {
      print_digest = true;
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("simulate", arg);
    } else {
      positional.push_back(arg);
    }
  }
  const std::string out_dir = !positional.empty() ? positional[0] : "/tmp";
  const std::size_t streamers =
      positional.size() > 1
          ? static_cast<std::size_t>(std::atoi(positional[1].c_str()))
          : 300;
  const int days = positional.size() > 2 ? std::atoi(positional[2].c_str())
                                         : 7;
  const std::size_t threads =
      flags.threads_set
          ? flags.threads
          : (positional.size() > 3
                 ? static_cast<std::size_t>(std::atoi(positional[3].c_str()))
                 : 0);

  synth::WorldConfig world_config;
  world_config.seed = flags.seed_set ? flags.seed : 1;
  world_config.num_streamers = streamers;
  world_config.p_twitter = 0.8;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = days;
  synth::SessionGenerator generator(world, behavior, 2);
  const auto streams = generator.generate();

  core::TeroConfig config;
  config.threads = threads;  // 0 = all cores; the output is thread-invariant
  config.use_full_ocr = full_ocr;

  // Observability sinks are created only when requested; the pipeline takes
  // raw pointers and never reads them back (output is identical either way).
  const bool want_metrics =
      !flags.obs.metrics_out.empty() || flags.obs.metrics_table;
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  if (want_metrics) config.metrics = &registry;
  if (!flags.obs.trace_out.empty()) config.trace = &recorder;

  // --snapshot-out: attach the serving layer's publish hook so the run ends
  // with an atomically published snapshot epoch, then persist that epoch.
  serve::ServeConfig serve_config;
  serve_config.metrics = config.metrics;
  serve_config.trace = config.trace;
  serve::QueryService service(serve_config);
  if (!snapshot_out.empty()) {
    config.on_dataset = serve::publish_hook(service);
  }

  core::Pipeline pipeline(config);
  const core::Dataset dataset = pipeline.run(world, streams);

  std::ofstream measurements(out_dir + "/tero_measurements.csv");
  std::ofstream aggregates(out_dir + "/tero_aggregates.csv");
  const auto measurement_rows =
      core::export_measurements(dataset, measurements, config.metrics);
  const auto aggregate_rows =
      core::export_aggregates(dataset, aggregates, config.metrics);
  std::cout << "streamers " << dataset.funnel.streamers_total << ", located "
            << dataset.funnel.streamers_located << ", thumbnails "
            << dataset.funnel.thumbnails << "\n";
  std::cout << "wrote " << measurement_rows << " measurements and "
            << aggregate_rows << " aggregates to " << out_dir << "\n";
  if (print_digest) {
    // Hex fingerprint of the full dataset surface — two runs printing the
    // same digest produced bit-identical output (the SIMD/scalar gate).
    std::cout << "digest " << std::hex << std::setw(16) << std::setfill('0')
              << core::dataset_digest(dataset) << std::dec << "\n";
  }

  if (!snapshot_out.empty()) {
    const serve::SnapshotPtr snapshot = service.snapshot();
    if (snapshot == nullptr) {
      std::cerr << "pipeline published no snapshot\n";
      return 1;
    }
    std::ofstream out(snapshot_out, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << snapshot_out << "\n";
      return 1;
    }
    serve::save_snapshot(*snapshot, out);
    std::cout << "wrote snapshot epoch " << snapshot->epoch() << " ("
              << snapshot->size() << " entries) to " << snapshot_out << "\n";
  }

  return write_obs_outputs(flags.obs, registry, recorder);
}

int cmd_analyze(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) return unknown_flag("analyze", arg);
  }
  if (argc < 3) {
    std::cerr << "usage: tero_cli analyze <measurements.csv>\n";
    return 1;
  }
  std::ifstream input(argv[2]);
  if (!input) {
    std::cerr << "cannot open " << argv[2] << "\n";
    return 1;
  }
  const auto streams = core::import_measurements(input);
  // Group by {pseudonym, game} and clean, exactly as the pipeline would.
  std::map<std::pair<std::string, std::string>, std::vector<analysis::Stream>>
      grouped;
  for (const auto& stream : streams) {
    grouped[{stream.streamer, stream.game}].push_back(stream);
  }
  util::Table table({"pseudonym", "game", "points", "retained", "spikes",
                     "glitch segs", "spike fraction"});
  std::size_t shown = 0;
  analysis::AnalysisConfig config;
  for (auto& [key, streamer_streams] : grouped) {
    const auto clean =
        analysis::clean_streamer_game(std::move(streamer_streams), config);
    if (clean.points_in < 10) continue;
    table.add_row({key.first, key.second, std::to_string(clean.points_in),
                   std::to_string(clean.points_retained),
                   std::to_string(clean.spikes.size()),
                   std::to_string(clean.glitch_segments),
                   util::fmt_percent(clean.spike_fraction(), 1)});
    if (++shown >= 25) break;
  }
  table.print(std::cout);
  std::cout << "(" << grouped.size() << " {streamer, game} tuples total; "
            << "first " << shown << " with >=10 points shown)\n";
  return 0;
}

int cmd_report(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) return unknown_flag("report", arg);
  }
  if (argc < 4) {
    std::cerr << "usage: tero_cli report <measurements.csv> <game>\n";
    return 1;
  }
  std::ifstream input(argv[2]);
  if (!input) {
    std::cerr << "cannot open " << argv[2] << "\n";
    return 1;
  }
  const std::string game = argv[3];
  const auto streams = core::import_measurements(input);
  std::map<std::string, std::vector<double>> per_streamer;
  for (const auto& stream : streams) {
    if (stream.game != game) continue;
    for (const auto& point : stream.points) {
      per_streamer[stream.streamer].push_back(point.latency_ms);
    }
  }
  if (per_streamer.empty()) {
    std::cerr << "no measurements for game: " << game << "\n";
    return 1;
  }
  util::Table table({"pseudonym", "points", "p5|p25[p50]p75|p95 [ms]"});
  std::size_t shown = 0;
  for (const auto& [pseudonym, values] : per_streamer) {
    if (values.size() < 10) continue;
    const auto box = stats::boxplot(values);
    table.add_row({pseudonym, std::to_string(values.size()),
                   util::fmt_double(box.p5, 0) + " | " +
                       util::fmt_double(box.p25, 0) + " [" +
                       util::fmt_double(box.p50, 0) + "] " +
                       util::fmt_double(box.p75, 0) + " | " +
                       util::fmt_double(box.p95, 0)});
    if (++shown >= 20) break;
  }
  table.print(std::cout);
  std::cout << "(" << per_streamer.size() << " streamers for " << game
            << ")\n";
  return 0;
}

serve::SnapshotPtr load_snapshot_file(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) {
    std::cerr << "cannot open " << path << "\n";
    return nullptr;
  }
  try {
    return serve::load_snapshot(input);
  } catch (const std::exception& error) {
    std::cerr << "cannot load snapshot " << path << ": " << error.what()
              << "\n";
    return nullptr;
  }
}

int cmd_query(int argc, char** argv) {
  CommonFlags flags;
  std::string tsdb_dir;
  std::int64_t from_ms = 0;
  std::int64_t to_ms = -1;  // default: sealed frontier + one window
  std::int64_t window_ms = 86'400'000;
  std::string agg_spec = "p99";
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--tsdb-dir" || arg == "--from" || arg == "--to" ||
        arg == "--window" || arg == "--agg") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      const std::string value = argv[++i];
      if (arg == "--tsdb-dir") {
        tsdb_dir = value;
      } else if (arg == "--from") {
        from_ms = std::atoll(value.c_str());
      } else if (arg == "--to") {
        to_ms = std::atoll(value.c_str());
      } else if (arg == "--window") {
        window_ms = std::atoll(value.c_str());
      } else {
        agg_spec = value;
      }
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("query", arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 3) {
    std::cerr << "usage: tero_cli query <snapshot> point <game> <country> "
                 "[region] [city]\n"
                 "       tero_cli query <snapshot> topk <game> [k]\n"
                 "       tero_cli query <snapshot> range <game> <country> "
                 "[region] [city]\n"
                 "                --tsdb-dir dir [--from ms] [--to ms] "
                 "[--window ms]\n"
                 "                [--agg count|mean|p<pct>|drift]\n";
    return 1;
  }
  const std::string mode = positional[1];

  // The range mode answers from a persisted tiered store; it must exist
  // before the service is constructed (ServeConfig holds the pointer).
  std::unique_ptr<tsdb::TimeSeriesStore> tsdb_store;
  if (mode == "range") {
    if (tsdb_dir.empty()) {
      std::cerr << "query range needs --tsdb-dir (see `stream "
                   "--tsdb-dir`)\n";
      return 1;
    }
    tsdb::TsdbConfig tsdb_config;
    tsdb_config.dir = tsdb_dir;
    try {
      tsdb_store = std::make_unique<tsdb::TimeSeriesStore>(tsdb_config);
    } catch (const std::exception& error) {
      std::cerr << "cannot open tsdb at " << tsdb_dir << ": " << error.what()
                << "\n";
      return 1;
    }
  }

  const serve::SnapshotPtr snapshot = load_snapshot_file(positional[0]);
  if (snapshot == nullptr) return 1;
  const bool want_metrics =
      !flags.obs.metrics_out.empty() || flags.obs.metrics_table;
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  serve::ServeConfig serve_config;
  if (want_metrics) serve_config.metrics = &registry;
  if (!flags.obs.trace_out.empty()) {
    serve_config.trace = &recorder;
    serve_config.exemplar_seed = flags.seed_set ? flags.seed : 1;
  }
  serve_config.tsdb = tsdb_store.get();
  serve::QueryService service(serve_config);
  service.publish(snapshot);

  serve::Query query;
  query.game = positional[2];
  if (mode == "topk") {
    query.kind = serve::QueryKind::kTopK;
    query.k = positional.size() > 3
                  ? static_cast<std::size_t>(std::atoi(positional[3].c_str()))
                  : 5;
    const auto response = service.query(query);
    if (response.status != serve::QueryStatus::kOk) {
      std::cerr << "no locations with data for game: " << query.game << "\n";
      return 1;
    }
    util::Table table({"rank", "location", "p95 [ms]"});
    for (std::size_t i = 0; i < response.top.size(); ++i) {
      table.add_row({std::to_string(i + 1), response.top[i].location,
                     util::fmt_double(response.top[i].value, 1)});
    }
    table.print(std::cout);
    std::cout << "(epoch " << response.epoch << ")\n";
    return write_obs_outputs(flags.obs, registry, recorder);
  }
  if (mode != "point" && mode != "range") {
    std::cerr << "unknown query mode: " << mode
              << " (want point, topk, or range)\n";
    return 1;
  }
  if (positional.size() < 4) {
    std::cerr << mode << " queries need at least <game> <country>\n";
    return 1;
  }
  query.location.country = positional[3];
  if (positional.size() > 4) query.location.region = positional[4];
  if (positional.size() > 5) query.location.city = positional[5];

  if (mode == "range") {
    if (agg_spec == "count") {
      query.kind = serve::QueryKind::kRangeCount;
    } else if (agg_spec == "mean") {
      query.kind = serve::QueryKind::kRangeMean;
    } else if (agg_spec == "drift") {
      query.kind = serve::QueryKind::kRangeDrift;
      query.param = 99.0;
    } else if (agg_spec.size() > 1 && agg_spec[0] == 'p') {
      query.kind = serve::QueryKind::kRangePercentile;
      query.param = std::atof(agg_spec.c_str() + 1);
    } else {
      std::cerr << "--agg must be count, mean, p<pct>, or drift; got "
                << agg_spec << "\n";
      return 1;
    }
    query.t0_ms = from_ms;
    query.t1_ms =
        to_ms >= 0 ? to_ms : tsdb_store->sealed_until() + window_ms;
    query.window_ms = window_ms;

    serve::QueryResponse response;
    try {
      response = service.query(query);
    } catch (const std::invalid_argument& error) {
      std::cerr << "bad range query: " << error.what() << "\n";
      return 1;
    }
    if (response.status == serve::QueryStatus::kNotFound) {
      std::cerr << "no history for {" << query.location.to_string() << ", "
                << query.game << "} in " << tsdb_dir << "\n";
      return 1;
    }
    if (response.status != serve::QueryStatus::kOk) {
      std::cerr << "range query unavailable\n";
      return 1;
    }
    if (query.kind == serve::QueryKind::kRangeDrift) {
      std::cout << query.game << " @ " << query.location.to_string()
                << ": week-over-week p99 drift at t=" << query.t1_ms << ": "
                << util::fmt_double(response.value, 2) << " ms\n";
      return write_obs_outputs(flags.obs, registry, recorder);
    }
    util::Table table({"window start [ms]", "count", agg_spec});
    for (const tsdb::RangePoint& point : response.series) {
      table.add_row({std::to_string(point.t_ms), std::to_string(point.count),
                     util::fmt_double(point.value, 2)});
    }
    table.print(std::cout);
    std::cout << query.game << " @ " << query.location.to_string() << ": "
              << response.series.size() << " windows of " << window_ms
              << " ms over [" << query.t0_ms << ", " << query.t1_ms
              << ")\n";
    return write_obs_outputs(flags.obs, registry, recorder);
  }

  // All kinds for one entry: the boxplot a consumer dashboard would render.
  std::vector<serve::QueryResponse> responses;
  serve::Query q = query;
  q.kind = serve::QueryKind::kCount;
  responses.push_back(service.query(q));
  q.kind = serve::QueryKind::kMean;
  responses.push_back(service.query(q));
  for (const double pct : {5.0, 25.0, 50.0, 75.0, 95.0}) {
    q.kind = serve::QueryKind::kPercentile;
    q.param = pct;
    responses.push_back(service.query(q));
  }
  if (responses[0].status != serve::QueryStatus::kOk) {
    std::cerr << "no aggregate for {" << query.location.to_string() << ", "
              << query.game << "}\n";
    return 1;
  }
  std::cout << query.game << " @ " << query.location.to_string() << "\n"
            << "  samples " << static_cast<std::size_t>(responses[0].value)
            << ", mean " << util::fmt_double(responses[1].value, 1)
            << " ms\n  p5|p25[p50]p75|p95: "
            << util::fmt_double(responses[2].value, 0) << " | "
            << util::fmt_double(responses[3].value, 0) << " ["
            << util::fmt_double(responses[4].value, 0) << "] "
            << util::fmt_double(responses[5].value, 0) << " | "
            << util::fmt_double(responses[6].value, 0) << "  (epoch "
            << responses[0].epoch << ")\n";
  return write_obs_outputs(flags.obs, registry, recorder);
}

int cmd_loadtest(int argc, char** argv) {
  serve::LoadGenConfig load;
  serve::ServeConfig serve_config;
  CommonFlags flags;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--zipf" || arg == "--open") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      const double value = std::atof(argv[++i]);
      if (arg == "--zipf") {
        load.zipf_s = value;
      } else {
        load.offered_qps = value;
      }
    } else if (arg == "--admit") {
      if (i + 2 >= argc) {
        std::cerr << "--admit needs <rate_qps> <burst>\n";
        return 1;
      }
      serve_config.admission_rate_qps = std::atof(argv[++i]);
      serve_config.admission_burst = std::atof(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("loadtest", arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    std::cerr << "usage: tero_cli loadtest <snapshot> [queries] [threads] "
                 "[shards]\n                [--seed n] [--zipf s] [--open "
                 "qps] [--admit rate burst]\n";
    return 1;
  }
  const serve::SnapshotPtr snapshot = load_snapshot_file(positional[0]);
  if (snapshot == nullptr) return 1;
  if (positional.size() > 1) {
    load.queries = static_cast<std::size_t>(std::atoi(positional[1].c_str()));
  }
  if (flags.seed_set) load.seed = flags.seed;
  load.threads =
      flags.threads_set
          ? flags.threads
          : (positional.size() > 2
                 ? static_cast<std::size_t>(std::atoi(positional[2].c_str()))
                 : 0);
  if (positional.size() > 3) {
    serve_config.shards =
        static_cast<std::size_t>(std::atoi(positional[3].c_str()));
  }

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  serve_config.metrics = &registry;
  if (!flags.obs.trace_out.empty()) {
    serve_config.trace = &recorder;
    // Tracing implies exemplar capture: query spans and the latency
    // histogram's exemplars share the same span ids (query index + 1).
    serve_config.exemplar_seed = load.seed;
  }
  serve::QueryService service(serve_config);
  service.publish(snapshot);

  // The loadgen-owned telemetry (tero.loadgen.* counters, deterministic
  // synthetic latency histogram) is recorded whenever any obs output was
  // requested; the loadtest's printed report is unchanged either way.
  if (!flags.obs.metrics_out.empty() || flags.obs.metrics_table ||
      !flags.obs.trace_out.empty()) {
    load.metrics = &registry;
    load.exemplar_seed = load.seed;
  }

  const std::size_t threads = util::ThreadPool::resolve(load.threads);
  util::ThreadPool pool(threads);
  const auto report =
      serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);

  std::cout << "loadtest: " << report.issued << " queries, " << threads
            << " threads, " << service.shard_count() << " shards, epoch "
            << snapshot->epoch() << "\n";
  std::cout << "  ok " << report.ok << ", not_found " << report.not_found
            << ", shed " << report.shed << " ("
            << util::fmt_percent(
                   report.issued > 0
                       ? static_cast<double>(report.shed) /
                             static_cast<double>(report.issued)
                       : 0.0,
                   1)
            << ")\n";
  std::cout << "  wall " << util::fmt_double(report.wall_ms, 1) << " ms, "
            << util::fmt_double(report.achieved_qps / 1e3, 1) << " kqps\n";
  std::cout << "  service latency p50/p95/p99: "
            << util::fmt_double(report.p50_ms * 1e3, 1) << " / "
            << util::fmt_double(report.p95_ms * 1e3, 1) << " / "
            << util::fmt_double(report.p99_ms * 1e3, 1) << " us\n";
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(report.checksum));
  std::cout << "  result checksum " << checksum
            << " (seed " << load.seed
            << "; identical for any thread count)\n";
  return write_obs_outputs(flags.obs, registry, recorder);
}

int cmd_stream(int argc, char** argv) {
  stream::StreamConfig config;
  CommonFlags flags;
  std::string snapshot_out;
  std::string timeline_out;
  std::string tsdb_dir;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    const bool takes_value =
        arg == "--window" || arg == "--lateness" || arg == "--publish-every" ||
        arg == "--checkpoint-dir" || arg == "--checkpoint-every" ||
        arg == "--crash-after" || arg == "--max-delay" || arg == "--rate" ||
        arg == "--burst" || arg == "--capacity" || arg == "--snapshot-out" ||
        arg == "--timeline-out" || arg == "--tsdb-dir";
    if (takes_value) {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      const std::string value = argv[++i];
      if (arg == "--window") {
        config.window_size_s = std::atof(value.c_str());
      } else if (arg == "--lateness") {
        config.allowed_lateness_s = std::atof(value.c_str());
      } else if (arg == "--publish-every") {
        config.publish_every_windows =
            static_cast<std::size_t>(std::atoi(value.c_str()));
      } else if (arg == "--checkpoint-dir") {
        config.checkpoint_dir = value;
      } else if (arg == "--checkpoint-every") {
        config.checkpoint_every_windows =
            static_cast<std::size_t>(std::atoi(value.c_str()));
      } else if (arg == "--crash-after") {
        config.crash_after =
            static_cast<std::uint64_t>(std::atoll(value.c_str()));
      } else if (arg == "--max-delay") {
        config.max_delivery_delay_s = std::atof(value.c_str());
      } else if (arg == "--rate") {
        config.download_rate = std::atof(value.c_str());
      } else if (arg == "--burst") {
        config.download_burst = std::atof(value.c_str());
      } else if (arg == "--capacity") {
        config.channel_capacity =
            static_cast<std::size_t>(std::atoi(value.c_str()));
      } else if (arg == "--snapshot-out") {
        snapshot_out = value;
      } else if (arg == "--timeline-out") {
        timeline_out = value;
      } else {
        tsdb_dir = value;
      }
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("stream", arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (!config.checkpoint_dir.empty() &&
      config.checkpoint_every_windows == 0) {
    config.checkpoint_every_windows = 4;
  }
  if (config.checkpoint_dir.empty() && config.checkpoint_every_windows > 0) {
    std::cerr << "--checkpoint-every needs --checkpoint-dir\n";
    return 1;
  }

  // The exact scenario `simulate` runs, so the two paths are comparable.
  const std::size_t streamers =
      !positional.empty()
          ? static_cast<std::size_t>(std::atoi(positional[0].c_str()))
          : 300;
  const int days = positional.size() > 1 ? std::atoi(positional[1].c_str())
                                         : 7;
  config.tero.threads =
      flags.threads_set
          ? flags.threads
          : (positional.size() > 2
                 ? static_cast<std::size_t>(std::atoi(positional[2].c_str()))
                 : 0);

  synth::WorldConfig world_config;
  world_config.seed = flags.seed_set ? flags.seed : 1;
  world_config.num_streamers = streamers;
  world_config.p_twitter = 0.8;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = days;
  synth::SessionGenerator generator(world, behavior, 2);
  const auto streams = generator.generate();

  const bool want_metrics = !flags.obs.metrics_out.empty() ||
                            flags.obs.metrics_table || !timeline_out.empty();
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  if (want_metrics) config.tero.metrics = &registry;
  if (!flags.obs.trace_out.empty()) config.tero.trace = &recorder;

  // --timeline-out: scrape the sink-owned tero.stream.* series on the
  // event-time virtual clock (the sink advances the timeline past each
  // arrival, DESIGN.md §13). Only sink-written series are scraped — queue
  // depths and backpressure stalls are written by other stages and their
  // values at a scrape boundary depend on thread interleaving.
  obs::TimelineConfig timeline_config;
  timeline_config.scrape_every_ms = 60'000;  // one virtual minute
  timeline_config.prefixes = {
      "tero.stream.events",      "tero.stream.late",
      "tero.stream.windows_closed", "tero.stream.checkpoints",
      "tero.stream.epochs",      "tero.stream.watermark",
  };
  obs::MetricsTimeline timeline(registry, timeline_config);
  if (!timeline_out.empty()) config.timeline = &timeline;

  serve::ServeConfig serve_config;
  serve_config.metrics = config.tero.metrics;
  serve_config.trace = config.tero.trace;
  serve::QueryService service(serve_config);
  config.service = &service;

  // --tsdb-dir: every closed window's mean lands in a durable tiered store
  // (one sample per {location, game} per window), which `query range`
  // answers from after the run.
  std::unique_ptr<tsdb::TimeSeriesStore> tsdb_store;
  if (!tsdb_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(tsdb_dir, ec);
    tsdb::TsdbConfig tsdb_config;
    tsdb_config.dir = tsdb_dir;
    tsdb_config.metrics = config.tero.metrics;
    try {
      tsdb_store = std::make_unique<tsdb::TimeSeriesStore>(tsdb_config);
    } catch (const std::exception& error) {
      std::cerr << "cannot open tsdb at " << tsdb_dir << ": " << error.what()
                << "\n";
      return 1;
    }
    config.tsdb = tsdb_store.get();
  }

  stream::StreamPipeline pipeline(std::move(config));
  const stream::StreamResult result = pipeline.run(world, streams);

  if (result.resumed_from > 0) {
    std::cout << "resumed from checkpoint " << result.resumed_from << "\n";
  }
  std::cout << "stream: " << result.events << " measurements ("
            << result.thumbnails << " thumbnails), " << result.windows_closed
            << " windows closed, " << result.late_events << " late, "
            << result.epochs_published << " live epochs, "
            << result.checkpoints_written << " checkpoints\n";
  std::cout << "  backpressure stalls "
            << result.to_extract.stalls + result.to_clean.stalls +
                   result.to_sink.stalls
            << " (extract " << result.to_extract.stalls << ", clean "
            << result.to_clean.stalls << ", sink " << result.to_sink.stalls
            << "), download throttled " << result.download_throttled << "\n";
  // The timeline is flushed by the pipeline even on a crashed run, so the
  // partial history is written either way.
  const auto write_timeline = [&]() -> int {
    if (timeline_out.empty()) return 0;
    std::ofstream out(timeline_out);
    if (!out) {
      std::cerr << "cannot open " << timeline_out << "\n";
      return 1;
    }
    timeline.write_json(out);
    std::cout << "wrote " << timeline.snapshot_count()
              << " timeline snapshots to " << timeline_out << "\n";
    return 0;
  };
  if (result.crashed) {
    std::cout << "crashed after checkpoint "
              << pipeline.config().crash_after
              << " (fault injection); rerun with the same --checkpoint-dir "
                 "to resume\n";
    return write_timeline();
  }
  std::cout << "final epoch " << result.final_epoch << ": "
            << result.final_entries.size() << " {location, game} entries, "
            << result.dataset.funnel.retained << " retained points\n";
  if (tsdb_store != nullptr) {
    const tsdb::TimeSeriesStore::Stats tstats = tsdb_store->stats();
    std::cout << "  tsdb " << tsdb_dir << ": "
              << tstats.head_samples + tstats.segment_samples
              << " window samples, " << tstats.segments << " segments, "
              << tstats.raw_bytes << " B raw -> " << tstats.compressed_bytes
              << " B compressed\n";
  }

  if (!snapshot_out.empty()) {
    std::ofstream out(snapshot_out, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << snapshot_out << "\n";
      return 1;
    }
    const serve::Snapshot snapshot(result.final_epoch, result.final_entries);
    serve::save_snapshot(snapshot, out);
    std::cout << "wrote snapshot epoch " << snapshot.epoch() << " ("
              << snapshot.size() << " entries) to " << snapshot_out << "\n";
  }
  if (const int rc = write_timeline(); rc != 0) return rc;
  return write_obs_outputs(flags.obs, registry, recorder);
}

int cmd_chaos(int argc, char** argv) {
  std::string plan_spec = "extract.stream=error@0.4:fails=2";
  CommonFlags flags;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--plan") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      plan_spec = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("chaos", arg);
    } else {
      positional.push_back(arg);
    }
  }
  const std::size_t threads = flags.threads;
  // --seed shifts the whole sweep: seeds run [base, base + count).
  const std::uint64_t seed_base = flags.seed_set ? flags.seed : 1;
  const std::uint64_t seeds =
      !positional.empty()
          ? static_cast<std::uint64_t>(std::atoll(positional[0].c_str()))
          : 10;
  const std::size_t streamers =
      positional.size() > 1
          ? static_cast<std::size_t>(std::atoi(positional[1].c_str()))
          : 60;
  const int days =
      positional.size() > 2 ? std::atoi(positional[2].c_str()) : 2;

  std::size_t failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cout << "  FAIL: " << what << "\n";
    }
  };

  // Phase 1+2: pipeline under transient and permanent fault plans. The
  // acceptance contract (DESIGN.md §11): transient faults — rules whose
  // fail_attempts fit inside the retry budget — leave the dataset
  // bit-identical to a fault-free run; permanent faults quarantine
  // streamers explicitly (tero.funnel.quarantined) instead of hanging,
  // crashing, or silently dropping data.
  std::cout << "chaos: " << seeds << " seeds, " << streamers
            << " streamers, " << days << " days, plan \"" << plan_spec
            << "\"\n";
  fault::FaultPlan plan;
  try {
    plan = fault::FaultPlan::parse(plan_spec);
  } catch (const std::exception& error) {
    std::cerr << "bad --plan: " << error.what() << "\n";
    return 1;
  }
  for (std::uint64_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    synth::WorldConfig world_config;
    world_config.seed = seed;
    world_config.num_streamers = streamers;
    world_config.p_twitter = 0.8;
    const synth::World world(world_config);
    synth::BehaviorConfig behavior;
    behavior.days = days;
    synth::SessionGenerator generator(world, behavior, seed + 1);
    const auto streams = generator.generate();

    core::TeroConfig config;
    config.threads = threads;
    const core::Dataset baseline =
        core::Pipeline(config).run(world, streams);
    const std::uint64_t baseline_digest = core::dataset_digest(baseline);

    fault::FaultInjector transient(fault::FaultPlan::parse(plan_spec, seed));
    config.injector = &transient;
    const core::Dataset faulted = core::Pipeline(config).run(world, streams);
    check(core::dataset_digest(faulted) == baseline_digest,
          "seed " + std::to_string(seed) +
              ": transient plan changed the dataset (digest mismatch)");
    check(faulted.funnel.quarantined == 0,
          "seed " + std::to_string(seed) +
              ": transient plan quarantined streamers");

    fault::FaultInjector permanent(
        fault::FaultPlan::parse("extract.stream=crash@0.5", seed));
    config.injector = &permanent;
    const core::Dataset degraded = core::Pipeline(config).run(world, streams);
    check(degraded.funnel.quarantined > 0,
          "seed " + std::to_string(seed) +
              ": permanent plan quarantined nobody");
    check(degraded.funnel.quarantined <= degraded.funnel.streamers_located,
          "seed " + std::to_string(seed) +
              ": quarantined more streamers than were located");
    check(degraded.funnel.thumbnails == baseline.funnel.thumbnails,
          "seed " + std::to_string(seed) +
              ": quarantine changed the thumbnail count (must only skip "
              "extraction)");
    check(degraded.funnel.visible < baseline.funnel.visible,
          "seed " + std::to_string(seed) +
              ": quarantine extracted quarantined streamers anyway");
    std::cout << "  seed " << seed << ": transient ok (digest match), "
              << degraded.funnel.quarantined << "/"
              << degraded.funnel.streamers_located
              << " quarantined under permanent plan\n";
  }

  // Phase 3: download simulator under CDN transport faults, KV write
  // faults, and a mid-run crash. The system must keep downloading (retry +
  // re-discovery), never orphan a streamer, and count every fault.
  for (std::uint64_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    util::EventLoop loop;
    download::SimulatedCdn cdn(loop, util::Rng(seed * 2 + 1));
    constexpr int kStreamers = 8;
    const double horizon = 4 * 3600.0;
    for (int i = 0; i < kStreamers; ++i) {
      cdn.add_session({"s" + std::to_string(i), i * 15.0, horizon});
    }
    store::KvStore kv;
    obs::MetricsRegistry registry;
    fault::FaultInjector injector(
        fault::FaultPlan::parse("cdn.get=error@0.1;cdn.head=latency@0.05:"
                                "ms=500;kv.put=error@0.05",
                                seed),
        &registry);
    download::DownloadConfig config;
    config.num_downloaders = 2;
    config.metrics = &registry;
    config.injector = &injector;
    download::DownloadSystem system(loop, cdn, kv, config,
                                    util::Rng(seed * 2 + 2));
    system.start();
    loop.schedule_at(horizon / 2, [&system] { system.crash_and_recover(); });
    loop.run_until(horizon);

    check(!system.downloads().empty(),
          "download seed " + std::to_string(seed) + ": no downloads at all");
    bool post_crash = false;
    std::set<std::string> fetched;
    for (const auto& record : system.downloads()) {
      if (record.time > horizon / 2 + 900.0) post_crash = true;
      fetched.insert(record.streamer);
    }
    check(post_crash, "download seed " + std::to_string(seed) +
                          ": downloads stopped after the crash");
    check(fetched.size() == kStreamers,
          "download seed " + std::to_string(seed) + ": only " +
              std::to_string(fetched.size()) + "/" +
              std::to_string(kStreamers) +
              " streamers ever fetched (orphaned streamer)");
    const auto counter = [&registry](const char* name) {
      return registry.counter(std::string("tero.download.") + name).value();
    };
    check(injector.total_fired() > 0,
          "download seed " + std::to_string(seed) + ": plan never fired");
    check(counter("retries") > 0,
          "download seed " + std::to_string(seed) +
              ": injected errors but the system never retried");
    std::cout << "  download seed " << seed << ": "
              << system.downloads().size() << " downloads, "
              << injector.total_fired() << " faults fired, "
              << counter("retries") << " retries, " << counter("slow_responses")
              << " slow, " << counter("dropped_streamers") << " dropped\n";
  }

  // Phase 4: serve-shard flap. With a previous epoch published, a faulted
  // shard answers STALE{age} from the last good snapshot while its circuit
  // breaker opens; once the fault clears and the breaker's half-open probes
  // succeed, answers go back to fresh. With no previous epoch the shard is
  // explicitly kUnavailable — never a silent wrong answer, never a hang.
  {
    synth::WorldConfig world_config;
    world_config.seed = 1;
    world_config.num_streamers = streamers;
    world_config.p_twitter = 0.8;
    const synth::World world(world_config);
    synth::BehaviorConfig behavior;
    behavior.days = days;
    synth::SessionGenerator generator(world, behavior, 2);
    const auto streams = generator.generate();
    core::TeroConfig config;
    config.threads = threads;
    const core::Dataset dataset = core::Pipeline(config).run(world, streams);

    // SLO gate (DESIGN.md §13): the breaker's state gauge
    // tero.fault.breaker{endpoint=shard-0} is scraped on the same virtual
    // clock that drives the flap, and a multi-window burn-rate alert on
    // `value(...) < 1` must fire within one evaluation window of the
    // breaker opening. The gauge exists from service construction (the
    // breaker writes its initial closed state), so the SLO never reads an
    // absent series.
    obs::MetricsRegistry registry;
    obs::TimelineConfig timeline_config;
    timeline_config.scrape_every_ms = 1000;
    timeline_config.prefixes = {"tero.fault.breaker"};
    obs::MetricsTimeline timeline(registry, timeline_config);
    obs::SloTracker tracker;
    const std::string breaker_slo = tracker.add(
        "slo breaker: value(tero.fault.breaker{endpoint=shard-0}) < 1 "
        "over 10s window, budget 1%");
    tracker.attach(timeline);
    constexpr std::uint64_t kSloWindowMs = 10'000;

    fault::FaultInjector injector(
        fault::FaultPlan::parse("serve.shard-0=error@1:max=7"));
    serve::ServeConfig serve_config;
    serve_config.shards = 1;
    serve_config.injector = &injector;
    serve_config.metrics = &registry;
    serve::QueryService service(serve_config);
    const auto hook = serve::publish_hook(service);
    hook(dataset);  // epoch 1
    hook(dataset);  // epoch 2; epoch 1 becomes the degraded fallback
    const serve::SnapshotPtr snapshot = service.snapshot();
    check(snapshot != nullptr && snapshot->size() > 0,
          "serve: pipeline published an empty snapshot");
    serve::Query query;
    if (snapshot != nullptr && snapshot->size() > 0) {
      query.kind = serve::QueryKind::kCount;
      query.location = snapshot->entries()[0].location;
      query.game = snapshot->entries()[0].game;
      const auto fresh = [&] {
        fault::FaultInjector none(fault::FaultPlan{});
        serve::ServeConfig clean_config;
        clean_config.shards = 1;
        serve::QueryService clean(clean_config);
        serve::publish_hook(clean)(dataset);
        return clean.query_admitted(query);
      }();

      std::size_t stale_seen = 0;
      // Five failures trip the default breaker (failure_threshold = 5)...
      // (each query advances the SLO timeline to its virtual arrival time
      // first, so scrapes see the state as of the previous event).
      for (int i = 0; i < 5; ++i) {
        timeline.advance_to(static_cast<std::uint64_t>(100 * i));
        const auto r = service.query_admitted(query, /*now_s=*/0.1 * i);
        check(r.stale && r.stale_age == 1,
              "serve: faulted shard did not answer STALE{1}");
        check(r.status == fresh.status && r.value == fresh.value,
              "serve: degraded answer diverged from the last good epoch");
        if (r.stale) ++stale_seen;
      }
      // ...so this one is rejected by the open breaker (still degraded,
      // but the fault point is not even consulted).
      const std::uint64_t fired_before = injector.total_fired();
      timeline.advance_to(5'000);
      const auto rejected = service.query_admitted(query, 5.0);
      check(rejected.stale, "serve: open breaker did not degrade");
      check(injector.total_fired() == fired_before,
            "serve: open breaker consulted the fault point");
      // Two half-open probes still hit injected errors (fires 6 and 7)...
      timeline.advance_to(40'000);
      (void)service.query_admitted(query, 40.0);
      timeline.advance_to(80'000);
      (void)service.query_admitted(query, 80.0);
      // ...then the plan's max=7 is exhausted: two successful probes close
      // the breaker and answers are fresh again.
      timeline.advance_to(120'000);
      (void)service.query_admitted(query, 120.0);
      timeline.advance_to(121'000);
      const auto closed = service.query_admitted(query, 121.0);
      timeline.advance_to(122'000);
      const auto recovered = service.query_admitted(query, 122.0);
      check(!recovered.stale && recovered.status == fresh.status &&
                recovered.value == fresh.value && !closed.stale,
            "serve: shard did not recover after the fault plan drained");
      timeline.flush(122'000);

      // The breaker opened at t = 0.4 s; the burn-rate alert must exist
      // and must have fired within one evaluation window of that.
      check(tracker.fired(breaker_slo),
            "serve: breaker flap fired no SLO burn-rate alert");
      std::uint64_t first_fire_ms = 0;
      for (const auto& alert : tracker.alerts()) {
        if (alert.firing) {
          first_fire_ms = alert.t_ms;
          break;
        }
      }
      check(first_fire_ms > 0 && first_fire_ms <= 400 + kSloWindowMs,
            "serve: SLO alert fired later than one window after the flap");
      std::cout << "  serve: " << stale_seen
                << " STALE answers while flapping, fresh after recovery; "
                << "slo '" << breaker_slo << "' fired at t=" << first_fire_ms
                << " ms\n";
    }

    // Shared obs flags dump the phase's registry (breaker gauge, serve
    // telemetry); the trace output is empty unless future phases record.
    obs::TraceRecorder recorder;
    if (const int rc = write_obs_outputs(flags.obs, registry, recorder);
        rc != 0) {
      return rc;
    }

    // No previous epoch: degraded mode has nothing to serve from, so the
    // answer is an explicit kUnavailable.
    fault::FaultInjector injector2(
        fault::FaultPlan::parse("serve.shard-0=error@1:max=1"));
    serve::ServeConfig unavailable_config;
    unavailable_config.shards = 1;
    unavailable_config.injector = &injector2;
    serve::QueryService first_epoch(unavailable_config);
    serve::publish_hook(first_epoch)(dataset);
    const auto unavailable = first_epoch.query_admitted(query, 0.0);
    check(unavailable.status == serve::QueryStatus::kUnavailable,
          "serve: first-epoch shard fault must be kUnavailable, got "
          "something else");
  }

  if (failures > 0) {
    std::cout << "chaos: " << failures << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "chaos: all invariants held\n";
  return 0;
}

/// The self-contained scenario behind `obs report` / `obs export`: build a
/// world, run the batch pipeline with its publish hook, then drive the
/// deterministic load generator with the full telemetry stack armed —
/// registry, virtual-time timeline (tero.loadgen.* only, the deterministic
/// series), SLO tracker riding the scrape hook, and exemplar-armed
/// histograms keyed by query id.
struct ObsScenario {
  std::size_t streamers = 60;
  int days = 2;
  std::size_t queries = 20000;
  std::size_t threads = 0;
  std::uint64_t seed = 42;
  double open_qps = 0.0;
  std::vector<std::string> specs;  ///< SLO spec strings (--spec)
};

/// Window the report's rates/quantiles and the default SLOs use.
constexpr std::uint64_t kObsWindowMs = 10'000;

std::vector<std::string> default_obs_specs() {
  return {
      "slo latency: p99(tero.loadgen.latency_ms) < 15ms over 10s window, "
      "budget 5%",
      "slo degraded: rate(tero.loadgen.unavailable) < 1 over 10s window, "
      "budget 1%",
  };
}

int run_obs_scenario(const ObsScenario& opt, obs::MetricsRegistry& registry,
                     obs::MetricsTimeline& timeline, obs::SloTracker& tracker,
                     obs::TraceRecorder& recorder,
                     serve::LoadTestReport& report) {
  const std::vector<std::string> specs =
      opt.specs.empty() ? default_obs_specs() : opt.specs;
  for (const std::string& spec : specs) {
    try {
      tracker.add(spec);
    } catch (const std::exception& error) {
      std::cerr << "bad SLO spec \"" << spec << "\": " << error.what()
                << "\n";
      return 1;
    }
  }
  tracker.attach(timeline);

  synth::WorldConfig world_config;
  world_config.seed = 1;
  world_config.num_streamers = opt.streamers;
  world_config.p_twitter = 0.8;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = opt.days;
  synth::SessionGenerator generator(world, behavior, 2);
  const auto streams = generator.generate();

  core::TeroConfig config;
  config.threads = opt.threads;
  config.metrics = &registry;
  config.trace = &recorder;
  serve::ServeConfig serve_config;
  serve_config.metrics = &registry;
  serve_config.trace = &recorder;
  serve_config.exemplar_seed = opt.seed;  // arms tero.serve.query_ms
  serve::QueryService service(serve_config);
  config.on_dataset = serve::publish_hook(service);
  (void)core::Pipeline(config).run(world, streams);
  if (service.snapshot() == nullptr) {
    std::cerr << "pipeline published no snapshot\n";
    return 1;
  }

  serve::LoadGenConfig load;
  load.queries = opt.queries;
  load.threads = opt.threads;
  load.seed = opt.seed;
  load.offered_qps = opt.open_qps;
  load.metrics = &registry;
  load.timeline = &timeline;
  load.exemplar_seed = opt.seed + 0x5eed;
  const std::size_t threads = util::ThreadPool::resolve(opt.threads);
  util::ThreadPool pool(threads);
  report = serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);
  return 0;
}

int cmd_obs(int argc, char** argv) {
  const std::string mode = argc > 2 ? argv[2] : "";
  if (mode != "report" && mode != "export") {
    std::cerr << "usage: tero_cli obs <report|export> [streamers] [days] "
                 "[queries] [threads]\n            [--seed n] [--open qps] "
                 "[--spec \"slo ...\"]...\n            [--prom f.prom] "
                 "[--json f.json] [--slo f.json]\n";
    return mode.empty() ? 1 : 2;
  }
  ObsScenario opt;
  CommonFlags flags;
  std::string prom_out;
  std::string json_out;
  std::string slo_out;
  std::vector<std::string> positional;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--open" || arg == "--spec" || arg == "--prom" ||
        arg == "--json" || arg == "--slo") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      const std::string value = argv[++i];
      if (arg == "--open") {
        opt.open_qps = std::atof(value.c_str());
      } else if (arg == "--spec") {
        opt.specs.push_back(value);
      } else if (arg == "--prom") {
        prom_out = value;
      } else if (arg == "--json") {
        json_out = value;
      } else {
        slo_out = value;
      }
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("obs", arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (flags.seed_set) opt.seed = flags.seed;
  if (!positional.empty()) {
    opt.streamers =
        static_cast<std::size_t>(std::atoi(positional[0].c_str()));
  }
  if (positional.size() > 1) opt.days = std::atoi(positional[1].c_str());
  if (positional.size() > 2) {
    opt.queries = static_cast<std::size_t>(std::atoi(positional[2].c_str()));
  }
  if (positional.size() > 3) {
    opt.threads = static_cast<std::size_t>(std::atoi(positional[3].c_str()));
  }
  if (flags.threads_set) opt.threads = flags.threads;
  if (mode == "export" && prom_out.empty() && json_out.empty() &&
      slo_out.empty()) {
    std::cerr << "obs export needs at least one of --prom/--json/--slo\n";
    return 1;
  }

  obs::MetricsRegistry registry;
  obs::TimelineConfig timeline_config;
  timeline_config.prefixes = {"tero.loadgen."};
  obs::MetricsTimeline timeline(registry, timeline_config);
  obs::SloTracker tracker;
  obs::TraceRecorder recorder;
  serve::LoadTestReport report;
  if (const int rc = run_obs_scenario(opt, registry, timeline, tracker,
                                      recorder, report);
      rc != 0) {
    return rc;
  }

  // Re-emit every elected exemplar into the trace as an instant, so the
  // metric -> span link is visible from the trace side too.
  if (!flags.obs.trace_out.empty()) {
    for (const auto& [name, hist] : registry.histograms()) {
      for (const obs::Exemplar& exemplar : hist->exemplars()) {
        if (exemplar.valid()) {
          recorder.add_exemplar_instant(name, exemplar.span_id,
                                        exemplar.value);
        }
      }
    }
  }

  if (mode == "report") {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(report.checksum));
    std::cout << "obs report: " << report.issued << " queries (seed "
              << opt.seed << ", checksum " << checksum << "), "
              << timeline.snapshot_count() << " timeline snapshots @ "
              << timeline.scrape_interval_ms() << " ms\n";

    // Timeline-derived view of the deterministic loadgen series.
    util::Table series({"series", "total", "increase (10s)", "rate/s (10s)"});
    for (const auto& [name, counter] : registry.counters()) {
      if (name.rfind("tero.loadgen.", 0) != 0) continue;
      series.add_row(
          {name, std::to_string(timeline.counter_total(name)),
           util::fmt_double(timeline.increase(name, kObsWindowMs), 0),
           util::fmt_double(timeline.rate(name, kObsWindowMs), 1)});
    }
    series.print(std::cout);
    std::cout << "latency (tero.loadgen.latency_ms, trailing 10s): p50 "
              << util::fmt_double(
                     timeline.quantile("tero.loadgen.latency_ms", 0.50,
                                       kObsWindowMs),
                     2)
              << " / p90 "
              << util::fmt_double(
                     timeline.quantile("tero.loadgen.latency_ms", 0.90,
                                       kObsWindowMs),
                     2)
              << " / p99 "
              << util::fmt_double(
                     timeline.quantile("tero.loadgen.latency_ms", 0.99,
                                       kObsWindowMs),
                     2)
              << " ms\n";

    tracker.write_table(std::cout);
    std::cout << tracker.alerts().size() << " alert event(s) in the log\n";

    // p99 bucket -> exemplar -> span: the "which request was that" jump.
    for (const auto& [name, hist] : registry.histograms()) {
      if (name != "tero.loadgen.latency_ms") continue;
      const double p99 = hist->quantile(0.99);
      const auto& bounds = hist->bounds();
      const auto exemplars = hist->exemplars();
      std::size_t p99_bucket = bounds.size();
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        if (p99 <= bounds[b]) {
          p99_bucket = b;
          break;
        }
      }
      std::cout << "exemplars (" << name << ", p99 "
                << util::fmt_double(p99, 2) << " ms):\n";
      for (std::size_t b = 0; b < exemplars.size(); ++b) {
        if (!exemplars[b].valid()) continue;
        const std::string le =
            b < bounds.size() ? util::fmt_double(bounds[b], 2) : "+Inf";
        std::cout << "  le " << le << ": "
                  << util::fmt_double(exemplars[b].value, 3) << " ms -> span "
                  << obs::format_span_id(exemplars[b].span_id)
                  << (b == p99_bucket ? "   <- p99 bucket" : "") << "\n";
      }
    }
  }

  if (!prom_out.empty()) {
    std::ofstream out(prom_out);
    if (!out) {
      std::cerr << "cannot open " << prom_out << "\n";
      return 1;
    }
    obs::write_prom(registry, out);
    std::cout << "wrote prometheus exposition (" << registry.size()
              << " series) to " << prom_out << "\n";
  }
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::cerr << "cannot open " << json_out << "\n";
      return 1;
    }
    timeline.write_json(out);
    std::cout << "wrote " << timeline.snapshot_count()
              << " timeline snapshots to " << json_out << "\n";
  }
  if (!slo_out.empty()) {
    std::ofstream out(slo_out);
    if (!out) {
      std::cerr << "cannot open " << slo_out << "\n";
      return 1;
    }
    tracker.write_json(out);
    std::cout << "wrote " << tracker.size() << " slo(s), "
              << tracker.alerts().size() << " alert event(s) to " << slo_out
              << "\n";
  }
  return write_obs_outputs(flags.obs, registry, recorder);
}

/// `tero_cli cluster <loadtest|kill|join|status>` — the deterministic
/// multi-node serving fleet (DESIGN.md §14). All modes build the same
/// world, publish its snapshot to the cluster, and (except `status`) sweep
/// the Zipf load generator across it on the virtual clock with a scripted
/// event timeline. kill/join double as invariant checks and exit nonzero
/// when one is violated (scripts/ci.sh cluster-smoke runs them).
int cmd_cluster(int argc, char** argv) {
  const std::string mode = argc > 2 ? argv[2] : "";
  if (mode == "--help" || mode == "-h") {
    std::cout << kUsage;
    return 0;
  }
  const bool known_mode = mode == "loadtest" || mode == "kill" ||
                          mode == "join" || mode == "status";
  if (!known_mode) {
    if (!mode.empty() && mode.rfind("--", 0) == 0) {
      return unknown_flag("cluster", mode);
    }
    std::cerr << "usage: tero_cli cluster <loadtest|kill|join|status> "
                 "[streamers] [days] [queries]\n"
                 "               [--nodes n] [--replicas n] [--budget epochs] "
                 "[--seed n]\n"
                 "               [--threads n] [--qps n] [--policy "
                 "leader|follower]\n"
                 "               [--timeline-out tl.json] [--slo-out "
                 "s.json]\n";
    return 2;
  }

  cluster::ClusterConfig fleet_config;
  fleet_config.nodes = 5;
  cluster::ClusterLoadConfig load;
  load.queries = 20000;
  CommonFlags flags;
  std::string timeline_out;
  std::string slo_out;
  std::vector<std::string> positional;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--nodes" || arg == "--replicas" || arg == "--budget" ||
        arg == "--qps") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      const double value = std::atof(argv[++i]);
      if (arg == "--nodes") {
        fleet_config.nodes = std::max<std::size_t>(
            1, static_cast<std::size_t>(value));
      } else if (arg == "--replicas") {
        fleet_config.replicas = std::max<std::size_t>(
            1, static_cast<std::size_t>(value));
      } else if (arg == "--budget") {
        fleet_config.staleness_budget = static_cast<std::uint64_t>(value);
      } else {
        load.offered_qps = value;
      }
    } else if (arg == "--policy") {
      if (i + 1 >= argc) {
        std::cerr << "--policy needs leader|follower\n";
        return 1;
      }
      const std::string policy = argv[++i];
      if (policy == "leader") {
        load.policy = cluster::ReadPolicy::kLeaderOnly;
      } else if (policy == "follower") {
        load.policy = cluster::ReadPolicy::kFollowerPreferred;
      } else {
        std::cerr << "--policy must be leader or follower, got " << policy
                  << "\n";
        return 1;
      }
    } else if (arg == "--timeline-out" || arg == "--slo-out") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a file argument\n";
        return 1;
      }
      (arg == "--timeline-out" ? timeline_out : slo_out) = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("cluster", arg);
    } else {
      positional.push_back(arg);
    }
  }
  const std::size_t threads = flags.threads;
  if (flags.seed_set) {
    fleet_config.seed = flags.seed;
    load.seed = flags.seed;
  }
  std::size_t streamers = 60;
  int days = 2;
  if (!positional.empty()) {
    streamers = static_cast<std::size_t>(std::atoi(positional[0].c_str()));
  }
  if (positional.size() > 1) days = std::atoi(positional[1].c_str());
  if (positional.size() > 2) {
    load.queries = static_cast<std::size_t>(std::atoi(positional[2].c_str()));
  }
  if ((mode == "kill" || mode == "join") && fleet_config.nodes < 2) {
    std::cerr << "cluster " << mode << " needs --nodes >= 2\n";
    return 1;
  }

  // Same world scenario as `obs`: the cluster serves the batch pipeline's
  // snapshot entries.
  synth::WorldConfig world_config;
  world_config.seed = 1;
  world_config.num_streamers = streamers;
  world_config.p_twitter = 0.8;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = days;
  synth::SessionGenerator generator(world, behavior, 2);
  const auto streams = generator.generate();
  core::TeroConfig pipeline_config;
  pipeline_config.threads = threads;
  core::Pipeline pipeline(pipeline_config);
  const core::Dataset dataset = pipeline.run(world, streams);
  std::vector<serve::SnapshotEntry> entries = serve::entries_from(dataset);
  if (entries.empty()) {
    std::cerr << "pipeline produced no snapshot entries\n";
    return 1;
  }

  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  obs::TimelineConfig timeline_config;
  timeline_config.scrape_every_ms = 1000;
  timeline_config.prefixes = {"tero.cluster.", "tero.fault.breaker"};
  obs::MetricsTimeline timeline(registry, timeline_config);
  obs::SloTracker tracker;
  fleet_config.metrics = &registry;
  load.metrics = &registry;
  load.timeline = &timeline;

  cluster::Cluster fleet(fleet_config);
  fleet.publish(std::move(entries), 0);

  if (mode == "status") {
    std::cout << "cluster: " << fleet.node_count() << " nodes, "
              << fleet_config.replicas << " replicas, budget "
              << fleet_config.staleness_budget << " epochs, epoch "
              << fleet.epoch() << ", " << fleet.snapshot()->size()
              << " keys\n";
    util::Table table(
        {"node", "alive", "breaker", "applied epoch", "claimed keys"});
    for (std::size_t n = 0; n < fleet.node_count(); ++n) {
      table.add_row({fleet.node_names()[n],
                     fleet.alive(n) ? "yes" : "no",
                     std::string(fault::to_string(fleet.breaker_state(n))),
                     std::to_string(fleet.applied_epoch(n)),
                     std::to_string(fleet.claimed_keys(n))});
    }
    table.print(std::cout);
    const cluster::OwnershipAudit audit = fleet.audit();
    std::cout << "ownership audit: " << (audit.ok ? "ok" : "FAILED") << " ("
              << audit.keys << " keys, " << audit.lost << " lost, "
              << audit.double_owned << " double-owned, " << audit.misplaced
              << " misplaced)\n";
    return write_obs_outputs(flags.obs, registry, recorder) ||
           (audit.ok ? 0 : 1);
  }

  // Scripted sweep: event times are fractions of the virtual duration so
  // --qps and query-count changes keep the story intact. The kill never
  // fires before the initial replication window (<= 450 ms) has passed.
  if (load.offered_qps <= 0.0) {
    load.offered_qps = static_cast<double>(load.queries) / 4.0;
  }
  const auto duration_ms = static_cast<std::uint64_t>(
      static_cast<double>(load.queries) * 1000.0 / load.offered_qps);
  const auto at = [&](double fraction) {
    return static_cast<std::uint64_t>(static_cast<double>(duration_ms) *
                                      fraction);
  };
  // Kill the node leading the most keys (lowest index on ties): a tiny
  // world's keyspace can leave some nodes with no keys at all, and killing
  // one of those would never trip its breaker — the invariant run must
  // target a node the Zipf stream actually hits.
  std::size_t victim = 0;
  for (std::size_t n = 1; n < fleet.node_count(); ++n) {
    if (fleet.claimed_keys(n) > fleet.claimed_keys(victim)) victim = n;
  }
  std::uint64_t kill_ms = 0;
  if (mode == "loadtest") {
    load.events = {
        {cluster::ClusterEvent::Kind::kRepublish, at(0.25), 0},
        {cluster::ClusterEvent::Kind::kRepublish, at(0.50), 0},
        {cluster::ClusterEvent::Kind::kRepublish, at(0.75), 0},
    };
  } else if (mode == "kill") {
    kill_ms = std::max<std::uint64_t>(600, at(0.40));
    load.events = {
        {cluster::ClusterEvent::Kind::kKill, kill_ms, victim},
        {cluster::ClusterEvent::Kind::kRepublish, at(0.60), 0},
        {cluster::ClusterEvent::Kind::kRepublish, at(0.80), 0},
    };
    tracker.add("slo breaker: value(tero.fault.breaker{endpoint=" +
                fleet.node_names()[victim] +
                "}) < 1 over 10s window, budget 1%");
    tracker.attach(timeline);
  } else {  // join
    load.events = {
        {cluster::ClusterEvent::Kind::kRepublish, at(0.25), 0},
        {cluster::ClusterEvent::Kind::kJoin, at(0.50), 0},
        {cluster::ClusterEvent::Kind::kRepublish, at(0.75), 0},
    };
  }

  const std::size_t resolved = util::ThreadPool::resolve(threads);
  util::ThreadPool pool(resolved);
  const cluster::ClusterLoadReport report = cluster::run_cluster_loadtest(
      fleet, load, resolved > 1 ? &pool : nullptr);

  std::cout << "cluster " << mode << ": " << report.issued << " queries, "
            << resolved << " threads, " << fleet.node_count() << " nodes x "
            << fleet_config.replicas << " replicas, budget "
            << fleet_config.staleness_budget << " epochs, "
            << report.events_applied << " events\n";
  std::cout << "  ok " << report.ok << ", not_found " << report.not_found
            << ", stale " << report.stale << " ("
            << util::fmt_percent(report.stale_fraction, 2)
            << "), unavailable " << report.unavailable << " -> availability "
            << util::fmt_percent(report.availability, 3) << "\n";
  std::cout << "  stale ages [";
  for (std::size_t age = 0; age < report.stale_age_hist.size(); ++age) {
    std::cout << (age > 0 ? ", " : "") << report.stale_age_hist[age];
  }
  std::cout << "] (max " << report.stale_age_max << ", budget "
            << fleet_config.staleness_budget << "), failover attempts "
            << report.failover_attempts << "\n";
  std::cout << "  virtual latency p50/p99: "
            << util::fmt_double(report.p50_ms, 2) << " / "
            << util::fmt_double(report.p99_ms, 2) << " ms\n";
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(report.checksum));
  std::cout << "  result checksum " << checksum << " (seed " << load.seed
            << "; identical for any thread count)\n";

  int violations = 0;
  const auto invariant = [&](const std::string& name, bool held) {
    std::cout << "  invariant " << name << ": " << (held ? "ok" : "VIOLATED")
              << "\n";
    if (!held) ++violations;
  };
  invariant("stale_age <= budget",
            report.stale_age_max <= fleet_config.staleness_budget);
  if (mode == "kill") {
    std::uint64_t first_fire_ms = 0;
    for (const auto& alert : tracker.alerts()) {
      if (alert.firing) {
        first_fire_ms = alert.t_ms;
        break;
      }
    }
    std::cout << "  breaker[" << fleet.node_names()[victim] << "] "
              << fault::to_string(fleet.breaker_state(victim))
              << "; SLO breaker "
              << (first_fire_ms > 0
                      ? "fired " + std::to_string(first_fire_ms - kill_ms) +
                            " ms after the kill"
                      : "did not fire")
              << " (scrape " << timeline_config.scrape_every_ms << " ms)\n";
    invariant("availability >= 0.99", report.availability >= 0.99);
    invariant("breaker opened", fleet.breaker_state(victim) ==
                                    fault::CircuitBreaker::State::kOpen);
    invariant("breaker SLO fired within 2 scrapes",
              first_fire_ms > kill_ms &&
                  first_fire_ms <=
                      kill_ms + 2 * timeline_config.scrape_every_ms);
  } else if (mode == "join") {
    const cluster::OwnershipAudit audit = fleet.audit();
    const double bound =
        2.0 / static_cast<double>(fleet.node_count());
    std::cout << "  joined node " << fleet.node_names().back()
              << ": remap fraction "
              << util::fmt_percent(fleet.last_remap().moved_fraction(), 2)
              << " (bound " << util::fmt_percent(bound, 2)
              << "), ownership audit " << (audit.ok ? "ok" : "FAILED")
              << " (" << audit.keys << " keys, " << audit.lost << " lost, "
              << audit.double_owned << " double-owned)\n";
    invariant("ownership audit ok", audit.ok);
    invariant("remap fraction < 2/n",
              fleet.last_remap().moved_fraction() < bound);
    invariant("availability >= 0.99", report.availability >= 0.99);
  }

  if (!timeline_out.empty()) {
    std::ofstream out(timeline_out);
    if (!out) {
      std::cerr << "cannot open " << timeline_out << "\n";
      return 1;
    }
    timeline.write_json(out);
    std::cout << "wrote " << timeline.snapshot_count()
              << " timeline snapshots to " << timeline_out << "\n";
  }
  if (!slo_out.empty()) {
    std::ofstream out(slo_out);
    if (!out) {
      std::cerr << "cannot open " << slo_out << "\n";
      return 1;
    }
    tracker.write_json(out);
    std::cout << "wrote " << tracker.size() << " slo(s), "
              << tracker.alerts().size() << " alert event(s) to " << slo_out
              << "\n";
  }
  if (const int rc = write_obs_outputs(flags.obs, registry, recorder);
      rc != 0) {
    return rc;
  }
  if (violations > 0) {
    std::cout << "cluster " << mode << ": " << violations
              << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "cluster " << mode << ": all invariants held\n";
  return 0;
}

/// Deterministic synthetic load for `tsdb verify`: `keys` series named
/// like serve entry keys, 24 hourly samples per virtual day with
/// seed-derived jitter, one advance_to per day (seal + compaction +
/// retention). Mirrors the tsdb_test fixture so a CLI failure reproduces
/// under ctest.
void tsdb_verify_load(tsdb::TimeSeriesStore& store, std::uint64_t seed,
                      std::size_t keys, int days) {
  constexpr std::int64_t kDayMs = 86'400'000;
  for (int day = 0; day < days; ++day) {
    for (std::size_t k = 0; k < keys; ++k) {
      util::Rng rng = util::Rng::indexed(
          util::mix_seed(seed, static_cast<std::uint64_t>(day)), k);
      const std::string key =
          "game" + std::to_string(k % 3) + "|US|key" + std::to_string(k);
      for (int hour = 0; hour < 24; ++hour) {
        store.append(key,
                     day * kDayMs + hour * 3'600'000 +
                         rng.uniform_int(0, 59'999),
                     std::floor(rng.uniform(20.0, 80.0)));
      }
    }
    store.advance_to((day + 1) * kDayMs);
  }
}

/// `tero_cli tsdb verify` — the tiered store's determinism and
/// crash-recovery sweep (scripts/ci.sh tsdb-smoke). Per seed: (1) two
/// clean in-memory runs, 1 thread vs a pool, must agree on segment layout
/// and dataset digest; (2) a durable run under the fault plan must be
/// interrupted by an injected crash, and reopening the directory must
/// recover every acknowledged sample (digest match against the in-memory
/// store, whose WAL-backed state is lossless by construction).
int cmd_tsdb(int argc, char** argv) {
  const std::string mode = argc > 2 ? argv[2] : "";
  if (mode == "--help" || mode == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (mode != "verify") {
    if (!mode.empty() && mode.rfind("--", 0) == 0) {
      return unknown_flag("tsdb", mode);
    }
    std::cerr << "usage: tero_cli tsdb verify [seeds] [keys] [days]\n"
                 "              [--plan spec] [--threads n] [--dir base]\n";
    return mode.empty() ? 1 : 2;
  }
  CommonFlags flags;
  std::string plan_spec = "tsdb.compact=crash@1:max=1";
  std::string dir_base;
  std::vector<std::string> positional;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const int eaten = eat_common_flag(argc, argv, i, flags);
        eaten != 0) {
      if (eaten < 0) return 1;
      i += eaten - 1;
      continue;
    }
    if (arg == "--plan" || arg == "--dir") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 1;
      }
      (arg == "--plan" ? plan_spec : dir_base) = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return unknown_flag("tsdb", arg);
    } else {
      positional.push_back(arg);
    }
  }
  const std::uint64_t seeds =
      !positional.empty()
          ? static_cast<std::uint64_t>(std::atoll(positional[0].c_str()))
          : 10;
  const std::size_t keys =
      positional.size() > 1
          ? static_cast<std::size_t>(std::atoi(positional[1].c_str()))
          : 8;
  const int days =
      positional.size() > 2 ? std::atoi(positional[2].c_str()) : 6;
  const std::size_t pool_threads = flags.threads != 0 ? flags.threads : 8;
  const std::uint64_t seed_base = flags.seed_set ? flags.seed : 1;
  try {
    (void)fault::FaultPlan::parse(plan_spec);
  } catch (const std::exception& error) {
    std::cerr << "bad --plan: " << error.what() << "\n";
    return 1;
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base =
      dir_base.empty() ? fs::temp_directory_path() : fs::path(dir_base);
  const bool want_metrics =
      !flags.obs.metrics_out.empty() || flags.obs.metrics_table;
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;

  std::size_t failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cout << "  FAIL: " << what << "\n";
    }
  };

  std::cout << "tsdb verify: " << seeds << " seeds, " << keys << " keys, "
            << days << " virtual days, plan \"" << plan_spec << "\", 1 vs "
            << pool_threads << " threads\n";
  util::ThreadPool pool(pool_threads);
  for (std::uint64_t seed = seed_base; seed < seed_base + seeds; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);

    // (1) Clean determinism: segment layout and digest are pure functions
    // of (appends, advances, config) — the pool must not show through.
    tsdb::TimeSeriesStore serial{tsdb::TsdbConfig{}};
    tsdb_verify_load(serial, seed, keys, days);
    tsdb::TsdbConfig parallel_config;
    parallel_config.pool = &pool;
    tsdb::TimeSeriesStore parallel(parallel_config);
    tsdb_verify_load(parallel, seed, keys, days);
    check(serial.dataset_digest() == parallel.dataset_digest(),
          tag + ": dataset digest diverged at 1 vs " +
              std::to_string(pool_threads) + " threads");
    check(serial.segment_layout() == parallel.segment_layout(),
          tag + ": segment layout diverged at 1 vs " +
              std::to_string(pool_threads) + " threads");

    // (2) Crash recovery: the run must be interrupted by the plan, and a
    // reopen must recover the exact acknowledged sample set.
    const fs::path dir =
        base / ("tero-tsdb-verify-" + std::to_string(seed));
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    fault::FaultInjector injector(fault::FaultPlan::parse(plan_spec, seed),
                                  want_metrics ? &registry : nullptr);
    bool crashed = false;
    std::uint64_t acknowledged_digest = 0;
    std::uint64_t acknowledged_samples = 0;
    {
      tsdb::TsdbConfig crash_config;
      crash_config.dir = dir.string();
      crash_config.injector = &injector;
      crash_config.metrics = want_metrics ? &registry : nullptr;
      tsdb::TimeSeriesStore store(crash_config);
      try {
        tsdb_verify_load(store, seed, keys, days);
      } catch (const std::exception&) {
        crashed = true;  // the injected crash tore a file mid-operation
      }
      const tsdb::TimeSeriesStore::Stats stats = store.stats();
      acknowledged_samples = stats.head_samples + stats.segment_samples;
      acknowledged_digest = store.dataset_digest();
    }
    check(crashed, tag + ": fault plan \"" + plan_spec +
                       "\" never interrupted the run");
    try {
      tsdb::TsdbConfig reopen_config;
      reopen_config.dir = dir.string();
      tsdb::TimeSeriesStore reopened(reopen_config);
      const tsdb::TimeSeriesStore::Stats stats = reopened.stats();
      check(stats.head_samples + stats.segment_samples ==
                acknowledged_samples,
            tag + ": recovery changed the acknowledged sample count");
      check(reopened.dataset_digest() == acknowledged_digest,
            tag + ": recovery lost or altered acknowledged samples "
                  "(digest mismatch)");
    } catch (const std::exception& error) {
      check(false,
            tag + ": reopen after crash failed: " + std::string(error.what()));
    }
    fs::remove_all(dir, ec);
    std::cout << "  " << tag << ": clean 1-vs-" << pool_threads
              << "-thread match, crash observed, " << acknowledged_samples
              << " acknowledged samples recovered\n";
  }

  if (const int rc = write_obs_outputs(flags.obs, registry, recorder);
      rc != 0) {
    return rc;
  }
  if (failures > 0) {
    std::cout << "tsdb verify: " << failures << " violation(s)\n";
    return 1;
  }
  std::cout << "tsdb verify: all invariants held\n";
  return 0;
}

int cmd_control(int argc, char** argv) {
  const std::string mode = argc > 2 ? argv[2] : "";
  if (mode == "--help" || mode == "-h") {
    std::cout << kUsage;
    return 0;
  }
  if (mode != "sweep" && mode != "status") {
    std::cerr << "tero_cli control: expected sweep or status, got "
              << (mode.empty() ? "<nothing>" : mode) << "\n\n"
              << kUsage;
    return 2;
  }

  CommonFlags flags;
  std::string policy_text = "reactive";
  std::string log_out;
  double multiplier = 4.0;
  double duration_s = 0.0;  // 0 = keep the cell default below
  for (int i = 3; i < argc; ++i) {
    if (const int eaten = eat_common_flag(argc, argv, i, flags); eaten != 0) {
      if (eaten < 0) return 2;
      i += eaten - 1;
      continue;
    }
    const std::string arg = argv[i];
    if (arg == "--policy" || arg == "--mult" || arg == "--duration" ||
        arg == "--log-out") {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--policy") {
        policy_text = value;
      } else if (arg == "--mult") {
        multiplier = std::atof(value.c_str());
      } else if (arg == "--duration") {
        duration_s = std::atof(value.c_str());
      } else {
        log_out = value;
      }
      continue;
    }
    return unknown_flag("control", arg);
  }
  if (multiplier <= 0.0) {
    std::cerr << "--mult must be > 0\n";
    return 2;
  }

  control::Policy policy;
  try {
    policy = control::parse_policy(policy_text);
  } catch (const std::invalid_argument& err) {
    std::cerr << "tero_cli control: " << err.what()
              << " (expected static, reactive, or predictive)\n";
    return 2;
  }

  // The CI-smoke cell: same shape as bench_control --tiny so one sweep
  // finishes in well under a second while still overloading at --mult >= 2.
  control::SweepConfig config;
  config.seed = flags.seed_set ? flags.seed : 21;
  config.load_multiplier = multiplier;
  config.duration_s = duration_s > 0.0 ? duration_s : 2.5;
  config.publish_every_s = 0.5;
  config.controller.policy = policy;
  config.controller.shard_unit_qps = 400.0;
  config.controller.min_shards = 2;
  config.controller.initial_shards = 2;
  config.controller.max_shards = 4;
  config.controller.base_channel_capacity = 1024;
  config.controller.min_channel_capacity = 64;
  const std::size_t threads =
      util::ThreadPool::resolve(flags.threads_set ? flags.threads : 1);
  config.threads = threads;

  const double nominal = static_cast<double>(config.controller.initial_shards) *
                         config.controller.shard_unit_qps;
  const auto level_name = [](int level) {
    switch (level) {
      case 0: return "full";
      case 1: return "cached-only";
      case 2: return "coarse-percentile";
      case 3: return "stale-tolerant";
      default: return "shed";
    }
  };

  if (mode == "status") {
    std::cout << "control cell plan (not run):\n";
    util::Table plan({"knob", "value"});
    plan.add_row({"policy", std::string(control::to_string(policy))});
    plan.add_row({"offered load", util::fmt_double(multiplier, 2) + "x (" +
                                      util::fmt_double(nominal * multiplier, 0) +
                                      " qps over " +
                                      util::fmt_double(config.duration_s, 1) +
                                      " virtual s)"});
    plan.add_row({"nominal capacity",
                  std::to_string(config.controller.initial_shards) +
                      " shards x " +
                      util::fmt_double(config.controller.shard_unit_qps, 0) +
                      " qps (scale " +
                      std::to_string(config.controller.min_shards) + ".." +
                      std::to_string(config.controller.max_shards) + ")"});
    plan.add_row({"channel capacity",
                  std::to_string(config.controller.base_channel_capacity) +
                      " (floor " +
                      std::to_string(config.controller.min_channel_capacity) +
                      ")"});
    plan.add_row({"tick cadence",
                  std::to_string(config.controller.tick_every_ms) + " ms"});
    plan.add_row({"fault plan", config.fault_plan});
    plan.add_row({"slo", config.slo_spec});
    plan.add_row({"seed", std::to_string(config.seed)});
    plan.print(std::cout);
    std::cout << "brownout ladder:";
    for (int level = 0; level <= 4; ++level) {
      std::cout << (level == 0 ? " " : " -> ") << level_name(level);
    }
    std::cout << "\nchaos windows (fractions of the run):\n";
    for (const auto& window : config.windows) {
      const char* kind = window.kind == control::ChaosWindow::Kind::kShardKill
                             ? "shard-kill"
                         : window.kind == control::ChaosWindow::Kind::kReplDelay
                             ? "repl-delay"
                             : "tsdb-error";
      std::cout << "  " << kind << " [" << util::fmt_double(window.begin_frac, 2)
                << ", " << util::fmt_double(window.end_frac, 2) << ")";
      if (window.kind == control::ChaosWindow::Kind::kShardKill) {
        std::cout << " shard " << window.shard;
      }
      std::cout << "\n";
    }
    return 0;
  }

  // sweep: build a small serving world, then run the cell.
  synth::WorldConfig world_config;
  world_config.seed = 13;
  world_config.num_streamers = 60;
  world_config.p_twitter = 0.9;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 3;
  synth::SessionGenerator generator(world, behavior, 3);
  const auto streams = generator.generate();
  core::TeroConfig pipeline_config;
  pipeline_config.threads = threads;
  core::Pipeline pipeline(pipeline_config);
  const core::Dataset dataset = pipeline.run(world, streams);
  std::vector<serve::SnapshotEntry> entries = serve::entries_from(dataset);
  if (entries.empty()) {
    std::cerr << "pipeline produced no snapshot entries\n";
    return 1;
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  const control::SweepReport report =
      control::run_control_sweep(std::move(entries), config, pool.get());

  std::cout << "control sweep: " << control::to_string(policy) << " at "
            << util::fmt_double(multiplier, 2) << "x ("
            << util::fmt_double(report.offered_qps, 0) << " qps, seed "
            << config.seed << ", " << threads << " thread"
            << (threads == 1 ? "" : "s") << ")\n";
  util::Table table({"metric", "value"});
  table.add_row({"issued", std::to_string(report.issued)});
  table.add_row({"ok", std::to_string(report.ok)});
  table.add_row({"stale", std::to_string(report.stale)});
  table.add_row({"shed", std::to_string(report.shed) + " (" +
                             util::fmt_percent(report.shed_fraction) + ")"});
  table.add_row({"brownout refused", std::to_string(report.brownout)});
  table.add_row({"unavailable", std::to_string(report.unavailable)});
  table.add_row({"denied fraction", util::fmt_percent(report.denied_fraction)});
  table.add_row({"p50 / p99 ms", util::fmt_double(report.p50_ms, 2) + " / " +
                                     util::fmt_double(report.p99_ms, 2)});
  table.add_row({"slo good", util::fmt_percent(report.slo_good_fraction) +
                                 (report.slo_fired ? " (alert fired)" : "")});
  table.add_row({"max ladder rung", std::to_string(report.max_level) +
                                        " (" + level_name(report.max_level) +
                                        ")"});
  table.add_row({"peak shards", std::to_string(report.peak_shards)});
  table.add_row({"min channel capacity",
                 std::to_string(report.min_channel_capacity)});
  table.add_row({"first ladder-up / shed ms",
                 std::to_string(report.first_ladder_ms) + " / " +
                     std::to_string(report.first_shed_ms)});
  table.add_row({"ticks", std::to_string(report.ticks)});
  {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(report.decision_digest));
    table.add_row({"decision digest", buffer});
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(report.checksum));
    table.add_row({"result checksum", buffer});
  }
  table.print(std::cout);

  if (!log_out.empty()) {
    std::ofstream out(log_out);
    if (!out) {
      std::cerr << "cannot open " << log_out << "\n";
      return 1;
    }
    out << report.decision_log;
    std::cout << "wrote " << report.ticks << " decisions to " << log_out
              << "\n";
  }

  // Invariant gate: an adaptive policy under real overload must climb the
  // ladder before it starts refusing work outright.
  if (policy != control::Policy::kStatic && multiplier >= 2.0 &&
      !report.ladder_engaged_before_shed) {
    std::cerr << "control sweep: ladder did not engage before the first "
                 "shed (first ladder-up "
              << report.first_ladder_ms << " ms, first shed "
              << report.first_shed_ms << " ms)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "simulate") return cmd_simulate(argc, argv);
  if (command == "analyze") return cmd_analyze(argc, argv);
  if (command == "report") return cmd_report(argc, argv);
  if (command == "query") return cmd_query(argc, argv);
  if (command == "loadtest") return cmd_loadtest(argc, argv);
  if (command == "stream") return cmd_stream(argc, argv);
  if (command == "chaos") return cmd_chaos(argc, argv);
  if (command == "obs") return cmd_obs(argc, argv);
  if (command == "cluster") return cmd_cluster(argc, argv);
  if (command == "tsdb") return cmd_tsdb(argc, argv);
  if (command == "control") return cmd_control(argc, argv);
  if (command == "--help" || command == "-h" || command == "help") {
    std::cout << kUsage;
    return 0;
  }
  if (!command.empty()) {
    std::cerr << "tero_cli: unknown command " << command << "\n\n";
  }
  std::cerr << kUsage;
  return command.empty() ? 1 : 2;
}
