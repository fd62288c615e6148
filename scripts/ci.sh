#!/usr/bin/env bash
# CI driver: the build/test jobs a change must pass.
#
#   tier1        Release build, full test suite          (the seed contract)
#   asan         AddressSanitizer, full test suite       (memory checks)
#   ubsan        UndefinedBehaviorSanitizer, smoke- and tsdb-labeled tests,
#                with UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 set
#                by the test preset, so any UB report fails the job (the
#                tsdb chunk mutation test runs here)
#   tsan         ThreadSanitizer, full test suite        (pool + pipeline races)
#   bench-smoke  Run bench binaries at tiny N, then parse-check the
#                BENCH_*.json artifacts with bench_json_check (obs::json).
#                Catches bench bitrot and malformed reporter output without
#                paying for a full benchmark run.
#   chaos-smoke  Fault-injection gate: the chaos-labeled test suite
#                (ctest -L chaos), a multi-seed `tero_cli chaos` sweep
#                (transient faults => bit-identical dataset; permanent
#                faults => explicit quarantine/degraded output), and the
#                fault-point overhead benchmark with an absolute ceiling on
#                the disabled-point cost.
#   obs-smoke    Observability gate (DESIGN.md §13): the timeline/SLO test
#                suites, a Prometheus exposition format check over `tero_cli
#                obs export --prom` output (bench_json_check), and the
#                determinism diff — a same-seed `obs export` at 1 and 8
#                threads must produce byte-identical timeline and SLO JSON.
#   cluster-smoke  Multi-node serving gate (DESIGN.md §14): the
#                cluster-labeled test suite (ctest -L cluster), a
#                `tero_cli cluster kill` / `cluster join` invariant run
#                (availability under node loss, breaker SLO firing,
#                ownership audit, remap bound — the CLI exits nonzero on
#                any violation), and bench_cluster --tiny with a JSON
#                parse check plus availability/determinism floors on
#                BENCH_cluster.json.
#   tsdb-smoke   Tiered-storage gate (DESIGN.md §15): the tsdb-labeled test
#                suite (ctest -L tsdb), bench_tsdb --tiny with a JSON parse
#                check plus a >= 5x compression-ratio floor and a
#                thread-determinism flag on BENCH_tsdb.json, and a 10-seed
#                crash-during-compaction recovery sweep (`tero_cli tsdb
#                verify` — acknowledged samples must survive any injected
#                crash, and reopening a torn directory must reproduce the
#                pre-crash dataset digest).
#   control-smoke  Overload-resilience gate (DESIGN.md §16): the
#                control-labeled test suite (ctest -L control),
#                bench_control --tiny with a JSON parse check plus awk
#                floors (reactive must shed less than static at 2x and 4x
#                overload, the brownout ladder must engage before the
#                first shed, the 1-vs-N-thread decision logs must match),
#                and a 3-seed `tero_cli control sweep` determinism sweep —
#                the per-tick decision log at 1 and 8 threads must be
#                byte-identical (cmp) for every seed.
#   perf-smoke   Fast-path gate (DESIGN.md §12, §15): the simd_test
#                bit-identity suite and image_test (the blur and upscale
#                against their per-pixel references), the region-only
#                thumbnail render, the
#                per-stage extraction microbenches (glyph segmentation
#                included) and the tsdb chunk encode/decode and range-query
#                benches checked against the committed floors in
#                bench/perf_baseline.txt (>15% throughput drop fails), and
#                a TERO_SIMD=off full-OCR run that must reproduce the
#                vectorized run's dataset digest exactly.
#   perfbench    Outside-in benchmark self-test: builds perfbench/ (its own
#                CMake project over src/) into .bench_build/ and runs
#                perfbench/test_perfbench.py on the tiny mode of every
#                BENCHMARK.json workload, so a serve or pipeline API change
#                that breaks the benchmark's build or its output checks
#                fails here rather than in the benchmark run.
#
# Run the default three:   scripts/ci.sh
# Run a subset:            scripts/ci.sh asan tsan
# UB check:                scripts/ci.sh ubsan
# Bench artifact gate:     scripts/ci.sh bench-smoke
# Fault-injection gate:    scripts/ci.sh chaos-smoke
# Observability gate:      scripts/ci.sh obs-smoke
# Cluster gate:            scripts/ci.sh cluster-smoke
# Tiered-storage gate:     scripts/ci.sh tsdb-smoke
# Overload-control gate:   scripts/ci.sh control-smoke
# Fast-path perf gate:     scripts/ci.sh perf-smoke
# Benchmark self-test:     scripts/ci.sh perfbench
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=("$@")
if [ ${#jobs[@]} -eq 0 ]; then
  jobs=(tier1 asan tsan)
fi

run_preset() {
  local preset="$1" test_preset="$2"
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$test_preset" -j "$(nproc)"
}

run_bench_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target bench_perf_micro bench_serve bench_stream bench_cluster \
    bench_tsdb bench_control bench_json_check
  # Benchmarks write BENCH_*.json into their cwd; keep artifacts in build/bench.
  (
    cd build/bench
    ./bench_perf_micro --benchmark_filter='BM_CleanStream/100' \
      --benchmark_min_time=0.01
    ./bench_serve --tiny
    ./bench_stream --tiny
    ./bench_cluster --tiny
    ./bench_tsdb --tiny
    ./bench_control --tiny
    # Every bench above must have left its artifact behind; name the missing
    # ones explicitly so a silently-skipped reporter is obvious from the log.
    local artifacts missing sizes
    artifacts=(BENCH_perf_micro.json BENCH_serve.json BENCH_stream.json \
               BENCH_cluster.json BENCH_tsdb.json BENCH_control.json)
    missing=()
    sizes=""
    for artifact in "${artifacts[@]}"; do
      if [ -s "$artifact" ]; then
        sizes+=" $artifact=$(wc -c < "$artifact")B"
      else
        missing+=("$artifact")
      fi
    done
    if [ ${#missing[@]} -gt 0 ]; then
      echo "bench-smoke: missing or empty artifacts: ${missing[*]}" >&2
      echo "bench-smoke: a bench binary exited without writing its JSON" \
           "report — check its output above" >&2
      exit 1
    fi
    echo "bench-smoke: artifacts$sizes"
    ./bench_json_check "${artifacts[@]}"
  )
}

run_tsdb_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target tsdb_test tero_cli bench_tsdb bench_json_check
  (cd build && ctest -L tsdb --output-on-failure -j "$(nproc)")
  # Bench artifact gate: BENCH_tsdb.json must parse, the Gorilla-lineage
  # codec must beat the 16 B/sample raw encoding by >= 5x, and the sealing/
  # compaction schedule must be bit-identical at 1 thread vs machine width.
  (
    cd build/bench
    ./bench_tsdb --tiny
    ./bench_json_check BENCH_tsdb.json
    awk '/"compression"/ {
           split($0, a, "\"ratio\": ")
           split(a[2], b, ",")
           if (b[1] + 0 < 5.0) {
             print "tsdb-smoke: compression ratio " b[1] " < 5.0 floor"
             bad = 1
           }
           comp = 1
         }
         /"determinism"/ {
           if (index($0, "\"digest_match\": true") == 0 ||
               index($0, "\"layout_match\": true") == 0) {
             print "tsdb-smoke: compaction not thread-deterministic"
             bad = 1
           }
           det = 1
         }
         END {
           if (!comp || !det) {
             print "tsdb-smoke: compression/determinism rows missing from JSON"
             bad = 1
           }
           exit bad
         }' BENCH_tsdb.json
  )
  # Crash-recovery sweep: 10 seeds, each with a seeded crash injected into
  # tsdb.compact mid-run. The CLI reopens the torn directory and exits
  # nonzero if any acknowledged sample is lost, the recovered digest
  # diverges, or the 1-vs-8-thread schedules disagree.
  ./build/examples/tero_cli tsdb verify 10 --threads 8
  echo "tsdb-smoke: compression, determinism and crash-recovery gates held"
}

run_chaos_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target chaos_test tero_cli bench_perf_micro
  (cd build && ctest -L chaos --output-on-failure -j "$(nproc)")
  # Multi-seed deterministic chaos sweep; tero_cli exits nonzero when any
  # resilience invariant is violated.
  ./build/examples/tero_cli chaos 5 40 2
  # Overhead gate: a disabled fault point must stay in the
  # tens-of-nanoseconds range per crossing. throughput is crossings/s, so
  # 1e7/s = 100 ns per crossing — a deliberately generous ceiling that
  # still catches accidental locks or allocations on the disabled path.
  (
    cd build/bench
    ./bench_perf_micro --benchmark_filter='BM_FaultPoint' \
      --benchmark_min_time=0.01
    awk -F'"throughput": ' '/BM_FaultPointDisabled/ {
        split($2, a, "}")
        if (a[1] + 0 < 1e7) {
          print "chaos-smoke: disabled fault point too slow: " a[1] " /s"
          exit 1
        }
        found = 1
      }
      END {
        if (!found) {
          print "chaos-smoke: BM_FaultPointDisabled missing from JSON"
          exit 1
        }
      }' BENCH_perf_micro.json
  )
}

run_obs_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target timeline_test slo_test obs_test tero_cli bench_json_check
  ./build/tests/obs_test
  ./build/tests/timeline_test
  ./build/tests/slo_test
  # Exposition format gate: the CLI's Prometheus export must pass the
  # checker bench_json_check applies to .prom files (validate_prom_text).
  local out
  out=$(mktemp -d)
  ./build/examples/tero_cli obs export 40 2 8000 4 \
    --prom "$out/obs.prom" --json "$out/t4.json" --slo "$out/s4.json"
  ./build/bench/bench_json_check "$out/obs.prom"
  # Determinism gate (DESIGN.md §13): same seed, 1 vs 8 threads, the
  # timeline history and SLO verdict log must match byte for byte.
  ./build/examples/tero_cli obs export 40 2 8000 1 \
    --json "$out/t1.json" --slo "$out/s1.json"
  ./build/examples/tero_cli obs export 40 2 8000 8 \
    --json "$out/t8.json" --slo "$out/s8.json"
  if ! cmp -s "$out/t1.json" "$out/t8.json" ||
     ! cmp -s "$out/s1.json" "$out/s8.json"; then
    echo "obs-smoke: obs export differs across thread counts" >&2
    rm -rf "$out"
    exit 1
  fi
  rm -rf "$out"
  echo "obs-smoke: timeline + SLO output bit-identical at 1 and 8 threads"
}

run_cluster_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target cluster_test tero_cli bench_cluster bench_json_check
  (cd build && ctest -L cluster --output-on-failure -j "$(nproc)")
  # Invariant runs: the CLI asserts availability under a mid-sweep node
  # kill, the breaker opening plus its burn-rate SLO firing within two
  # scrapes, and — for join — the ownership audit and the < 2/n remap
  # bound. Either command exiting nonzero fails the gate.
  ./build/examples/tero_cli cluster kill 60 2 12000 --threads 8
  ./build/examples/tero_cli cluster join 60 2 12000 --threads 8
  # Bench artifact gate: BENCH_cluster.json must parse and its committed
  # floors must hold — the 1-vs-N-thread churn sweep stayed bit-identical
  # and availability under a single-node kill never dropped below 99%.
  (
    cd build/bench
    ./bench_cluster --tiny
    ./bench_json_check BENCH_cluster.json
    awk '/"determinism"/ {
           if (index($0, "\"checksum_match\": true") == 0) {
             print "cluster-smoke: churn sweep not thread-deterministic"
             bad = 1
           }
           det = 1
         }
         /"kill"/ {
           split($0, a, "\"availability\": ")
           split(a[2], b, ",")
           if (b[1] + 0 < 0.99) {
             print "cluster-smoke: availability under kill " b[1] " < 0.99"
             bad = 1
           }
           kill = 1
         }
         END {
           if (!det || !kill) {
             print "cluster-smoke: determinism/kill rows missing from JSON"
             bad = 1
           }
           exit bad
         }' BENCH_cluster.json
  )
  echo "cluster-smoke: determinism, availability and audit gates held"
}

run_control_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target control_test tero_cli bench_control bench_json_check
  (cd build && ctest -L control --output-on-failure -j "$(nproc)")
  # Bench artifact gate: BENCH_control.json must parse and the committed
  # floors must hold — the reactive policy sheds measurably less than the
  # static baseline at 2x and 4x overload, the brownout ladder engaged
  # before the first shed, and the 1-vs-N-thread decision logs matched.
  (
    cd build/bench
    ./bench_control --tiny
    ./bench_json_check BENCH_control.json
    awk '/"comparison"/ {
           split($0, a, "\"static_shed_2x\": "); split(a[2], s2, ",")
           split($0, a, "\"reactive_shed_2x\": "); split(a[2], r2, ",")
           split($0, a, "\"static_shed_4x\": "); split(a[2], s4, ",")
           split($0, a, "\"reactive_shed_4x\": "); split(a[2], r4, ",")
           if (r2[1] + 0 >= s2[1] + 0) {
             print "control-smoke: reactive shed " r2[1] " >= static " s2[1] \
                   " at 2x"
             bad = 1
           }
           if (r4[1] + 0 >= s4[1] + 0) {
             print "control-smoke: reactive shed " r4[1] " >= static " s4[1] \
                   " at 4x"
             bad = 1
           }
           comp = 1
         }
         /"ladder"/ {
           if (index($0, "\"engaged_before_shed\": true") == 0) {
             print "control-smoke: ladder did not engage before shedding"
             bad = 1
           }
           ladder = 1
         }
         /"determinism"/ {
           if (index($0, "\"log_match\": true") == 0 ||
               index($0, "\"checksum_match\": true") == 0) {
             print "control-smoke: decision log not thread-deterministic"
             bad = 1
           }
           det = 1
         }
         END {
           if (!comp || !ladder || !det) {
             print "control-smoke: comparison/ladder/determinism rows" \
                   " missing from JSON"
             bad = 1
           }
           exit bad
         }' BENCH_control.json
  )
  # Determinism sweep: per seed the CLI's per-tick decision log at 1 thread
  # and at 8 threads must be byte-identical; any divergence is a replay
  # hazard in the controller's scrape -> decide -> actuate loop. The CLI
  # itself exits nonzero when the ladder failed to engage before shedding.
  local out
  out=$(mktemp -d)
  for seed in 3 11 29; do
    ./build/examples/tero_cli control sweep --policy reactive --mult 4 \
      --seed "$seed" --threads 1 --log-out "$out/d1-$seed.log"
    ./build/examples/tero_cli control sweep --policy reactive --mult 4 \
      --seed "$seed" --threads 8 --log-out "$out/d8-$seed.log" > /dev/null
    if ! cmp -s "$out/d1-$seed.log" "$out/d8-$seed.log"; then
      echo "control-smoke: decision log differs at 1 vs 8 threads" \
           "(seed $seed)" >&2
      rm -rf "$out"
      exit 1
    fi
  done
  rm -rf "$out"
  echo "control-smoke: shed floors, ladder order and decision-log" \
       "determinism gates held"
}

run_perf_smoke() {
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target bench_perf_micro simd_test image_test tero_cli
  # Scalar-vs-SIMD bit-identity across every vectorized kernel (randomized
  # images, odd widths, tail lanes) — the determinism half of the contract —
  # and every blur and upscale output bit against the per-pixel formula, so
  # the floors below only ever time a fast path that reads as before.
  ./build/tests/simd_test
  ./build/tests/image_test
  (
    cd build/bench
    ./bench_perf_micro \
      --benchmark_filter='BM_OcrExtract|BM_Img|BM_Glyph|BM_OcrMatch|BM_OcrSegment|BM_ThumbnailRender|BM_ChunkEncode|BM_ChunkDecode|BM_TsdbRange' \
      --benchmark_min_time=0.05
    # Throughput floors: bench/perf_baseline.txt records the events/s each
    # stage sustained at the commit that last touched the fast path (scaled
    # down for slow CI machines); dropping more than 15% below a floor
    # fails the gate.
    awk 'NR==FNR {
           if ($0 !~ /^#/ && NF >= 2) floor[$1] = $2
           next
         }
         {
           for (name in floor) {
             if (index($0, "\"" name "\":") > 0) {
               split($0, a, "\"events_per_s\": ")
               split(a[2], b, ",")
               got = b[1] + 0
               if (got < floor[name] * 0.85) {
                 printf "perf-smoke: %s regressed: %f events/s < 0.85 * %f\n", \
                        name, got, floor[name]
                 bad = 1
               }
               seen[name] = 1
             }
           }
         }
         END {
           for (name in floor) {
             if (!(name in seen)) {
               print "perf-smoke: " name " missing from BENCH_perf_micro.json"
               bad = 1
             }
           }
           exit bad
         }' ../../bench/perf_baseline.txt BENCH_perf_micro.json
  )
  # Dispatch determinism: a scalar (TERO_SIMD=off, 1 thread) full-OCR run
  # must print the same dataset digest as the vectorized multi-threaded run.
  local out ref alt
  out=$(mktemp -d)
  ref=$(./build/examples/tero_cli simulate "$out" 40 2 4 --full-ocr --digest |
        awk '/^digest /{print $2}')
  alt=$(TERO_SIMD=off ./build/examples/tero_cli simulate "$out" 40 2 1 \
        --full-ocr --digest | awk '/^digest /{print $2}')
  rm -rf "$out"
  if [ -z "$ref" ] || [ "$ref" != "$alt" ]; then
    echo "perf-smoke: TERO_SIMD=off digest mismatch: '$ref' vs '$alt'" >&2
    exit 1
  fi
  echo "perf-smoke: digest $ref identical with TERO_SIMD=off"
}

for job in "${jobs[@]}"; do
  echo "=== ci: $job ==="
  case "$job" in
    tier1) run_preset default default ;;
    asan)  run_preset asan asan ;;
    ubsan) run_preset ubsan ubsan ;; # test preset filters to -L 'smoke|tsdb'
    tsan)  run_preset tsan tsan ;;
    bench-smoke) run_bench_smoke ;;
    chaos-smoke) run_chaos_smoke ;;
    obs-smoke) run_obs_smoke ;;
    cluster-smoke) run_cluster_smoke ;;
    tsdb-smoke) run_tsdb_smoke ;;
    control-smoke) run_control_smoke ;;
    perf-smoke) run_perf_smoke ;;
    perfbench) python3 perfbench/test_perfbench.py ;;
    *) echo "unknown job: $job (want tier1, asan, ubsan, tsan, bench-smoke," \
            "chaos-smoke, obs-smoke, cluster-smoke, tsdb-smoke," \
            "control-smoke, perf-smoke or perfbench)" >&2
       exit 2 ;;
  esac
done
echo "=== ci: all jobs passed ==="
