// Outside-in benchmark program for Tero: one seeded workload per run, from
// thumbnail to answer, through the program's public API only.
//
//   tero_perfbench --workload <ocr-batch|serve-query>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--corrupt-reference] [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays every layer with spans and prints the per-layer metrics. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// The exit code is nonzero when an output check failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "tero_perfbench: " << problem
            << "\nusage: tero_perfbench --workload <ocr-batch|serve-query> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--corrupt-reference] [--trace-out <file>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
        options.trace = trace == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--corrupt-reference") {
        options.corrupt_reference = true;
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_seed) usage("--seed is required");
  // run.py stops the program after 170 s; a run takes --seconds plus up to
  // about a minute of input generation, references and set-up.
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
    usage("--seconds must be in (0, 60]");
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  options.threads = std::min<std::size_t>(4, hw);
  return options;
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print(Result& result) {
  for (const auto& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.fail(metric.name + " is not a finite number");
    }
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::cout << metric.name << " = " << number(value) << " " << metric.unit
              << " (measured)\n";
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "ocr-batch") {
      result = perfbench::run_ocr_batch(options);
    } else if (options.workload == "serve-query") {
      result = perfbench::run_serve_query(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "tero_perfbench: " << error.what() << "\n";
    return 2;
  }
  if (result.attempted == 0) result.fail("no operation was attempted");
  print(result);
  return result.correct ? 0 : 1;
}
