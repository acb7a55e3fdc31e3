#!/usr/bin/env bash
# Tier-1 check: configure, build, and run the test suite in a normal
# build, then again with AddressSanitizer + UBSan, then run the
# concurrency-heavy serving/executor tests under ThreadSanitizer
# (all via WEBER_SANITIZE).
#
# Usage: scripts/check.sh
#          [--normal-only|--sanitize-only|--tsan-only|--crash-only|
#           --overload-only|--obs-only|--router-only|--match-only|
#           --migrate-only|--rebalance-only|--hotpath-only]
#
# --crash-only: the durability gauntlet under ASan/UBSan — the WAL /
# snapshot / recovery unit tests plus repeated seeded SIGKILL-and-recover
# cycles through weber_crashtest.
#
# --overload-only: the overload-protection suite under ASan/UBSan — the
# deadline/breaker/admission unit tests plus the serve_overload_smoke
# latency-chaos storm (baseline -> open-loop overload -> recovery).
#
# --obs-only: the observability suite under ASan/UBSan — metrics registry,
# trace spans, the stats/metrics schema tests, and the serve CLI smoke
# that exercises the metrics verb end to end.
#
# --match-only: the clean-clean matching suite under ASan/UBSan — the
# bipartite matchers, two-collection generator, matching metrics, the
# `match` serve-verb tests, the stdio smoke, and a matcher-race run
# through the shipped binary.
#
# --migrate-only: the live-migration suite under ASan/UBSan — the
# export/import framing and service tests, the route-override router
# tests, and 3 seeded runs of the migration drill (SIGKILL the source
# mid-copy and mid-flip, assert rollback/completion, zero acked-write
# loss, and dump byte-identity through the router).
#
# --hotpath-only: the compiled hot path under ASan/UBSan — the scalar
# kernel bit-equality / string-strip edge-case / decision-fuzz / end-to-end
# equivalence tests, the vector-similarity regression tests for the numeric
# edge cases the batch audit flushed out, the URL and string-similarity
# tests behind the string strips, the compiled serve-match test, and a
# smoke run of the hotpath benchmark asserting it emits well-formed JSON
# (scoring, string-scoring, decision and criterion-fit sections, each with
# median and quartiles).
#
# --rebalance-only: the fleet self-healing suite under ASan/UBSan — the
# rebalance/drain/state-file/promotion router tests, the admin-verb race
# test, and 3 seeded runs of the self-healing drill (SIGKILL a rebalance
# source mid-export, the router mid-plan, and a block's owner for good;
# assert rollback, state-file recovery, standby promotion, and zero
# acked-write loss).
#
# --router-only: the fleet-routing suite under ASan/UBSan — the
# health-machine / route-order / failover unit tests, the shared response
# parser tests, and the 3-backend kill drill (SIGKILL a backend mid-storm
# through weber::router, assert zero acked-write loss and reads served
# throughout).
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${1:-all}"

# The concurrent subsystems exercised under TSan: the serving layer
# (service, server, cache, batcher), the shared executor pool, the
# incremental resolver the serving hot path drives, and the observability
# primitives (striped counters, trace ring buffer, registry export).
TSAN_FILTER='ResolutionService|LineServer|SimilarityCache|Batcher|Collector|Executor|ParallelFor|Incremental|RequestDeadline|CircuitBreaker|BreakerStateName|ServerOverload|CounterTest|MetricsRegistry|TraceCollector|ScopedSpan|RequestId|StatsSchema|RouterEndToEnd|BackendHealth|ResolutionServiceMatch|LineServerMatch|MigrateService|MigrateWire|RebalanceService|ConcurrentAdmin|CompiledPath'

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
}

if [[ "$MODE" == "--crash-only" ]]; then
  echo "==> crash-recovery gauntlet (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'Crc32c|Wal|SnapshotFile|ShardLog|DurableService|serve_crash_smoke|serve_sigterm_smoke'
  scratch="build-asan/crash_cycles"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  ./build-asan/tools/weber generate --preset=tiny --out="$scratch"
  for seed in 1 2 3; do
    echo "==> crashtest: 20 SIGKILL/recover cycles, seed $seed"
    rm -rf "$scratch/store"
    ./build-asan/tools/weber_crashtest \
      --dataset="$scratch/dataset.txt" \
      --gazetteer="$scratch/gazetteer.txt" \
      --serve_bin=./build-asan/tools/weber_serve \
      --data_dir="$scratch/store" --cycles=20 --seed="$seed"
  done
  echo "==> crash checks passed"
  exit 0
fi

if [[ "$MODE" == "--overload-only" ]]; then
  echo "==> overload-protection suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'RequestDeadline|CircuitBreaker|BreakerStateName|ServerOverload|Overload|Deadline|TrySubmit|Jitter|Oversized|serve_overload_smoke'
  echo "==> overload checks passed"
  exit 0
fi

if [[ "$MODE" == "--obs-only" ]]; then
  echo "==> observability suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'Percentile|Summarize|LatencyReservoir|CounterTest|GaugeTest|HistogramTest|MetricsRegistry|TraceCollector|ScopedSpan|RequestId|StatsSchema|MetricsVerb|serve_cli_smoke'
  echo "==> observability checks passed"
  exit 0
fi

if [[ "$MODE" == "--match-only" ]]; then
  echo "==> clean-clean matching suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'ThresholdMatcher|GreedyMatcher|OptimalMatcher|SymmetricBest|Matching|MakeMatcherByName|MatchingMetrics|CleanCleanGenerator|MatchRace|MatchProtocol|ResolutionServiceMatch|LineServerMatch|Generator|Metric|serve_match_smoke'
  echo "==> matcher race smoke (shipped binary)"
  scratch="build-asan/match_race"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  ./build-asan/tools/weber matchrace --preset=tiny --seed=41 \
    --json="$scratch/BENCH_matchrace.json"
  grep -q '"matchers"' "$scratch/BENCH_matchrace.json"
  echo "==> match checks passed"
  exit 0
fi

if [[ "$MODE" == "--router-only" ]]; then
  echo "==> fleet-routing suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'BackendHealth|ParseEndpoint|RouteOrder|RouterEndToEnd|ParseResponse|MetricsFraming|ParseDumpResponse|FormatRequest|serve_fleet_smoke'
  scratch="build-asan/fleet_drill"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  ./build-asan/tools/weber generate --preset=tiny --out="$scratch"
  for seed in 1 2 3; do
    echo "==> fleet drill: 3 backends, SIGKILL + restart mid-storm, seed $seed"
    rm -rf "$scratch/store"
    ./build-asan/tools/weber_crashtest \
      --dataset="$scratch/dataset.txt" \
      --gazetteer="$scratch/gazetteer.txt" \
      --serve_bin=./build-asan/tools/weber_serve \
      --data_dir="$scratch/store" --fleet=3 --writers=4 --kill_at=0.3 \
      --seed="$seed" --out="$scratch/BENCH_fleet.json"
  done
  echo "==> router checks passed"
  exit 0
fi

if [[ "$MODE" == "--migrate-only" ]]; then
  echo "==> live-migration suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'ExportFrame|ExportHeader|ImportBlob|HexCodec|MigrateService|MigrateWire|RouterEndToEnd|DialTcp|LineSocket|serve_migrate_smoke'
  scratch="build-asan/migrate_drill"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  ./build-asan/tools/weber generate --preset=tiny --out="$scratch"
  for seed in 1 2 3; do
    echo "==> migrate drill: SIGKILL mid-copy + mid-flip, seed $seed"
    rm -rf "$scratch/store"
    ./build-asan/tools/weber_crashtest \
      --dataset="$scratch/dataset.txt" \
      --gazetteer="$scratch/gazetteer.txt" \
      --serve_bin=./build-asan/tools/weber_serve \
      --data_dir="$scratch/store" --migrate --writers=4 \
      --seed="$seed" --out="$scratch/BENCH_migrate.json"
  done
  echo "==> migrate checks passed"
  exit 0
fi

if [[ "$MODE" == "--hotpath-only" ]]; then
  echo "==> compiled hot-path suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'CompiledPath|VectorSimilarity|SparseVector|SimilarityFunctions|ResolutionServiceMatch|Decision|UrlSimilarity|UrlKey|ParseUrl|RegistrableDomain|StringSimilarity'
  echo "==> hotpath bench smoke (quick mode)"
  scratch="build-asan/hotpath_smoke"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  ./build-asan/bench/hotpath --quick "$scratch/BENCH_hotpath.json"
  grep -q '"compiled_scalar_pairs_per_sec"' "$scratch/BENCH_hotpath.json"
  grep -q '"scalar_speedup"' "$scratch/BENCH_hotpath.json"
  grep -q '"fit_ms"' "$scratch/BENCH_hotpath.json"
  grep -q '"regions-km8"' "$scratch/BENCH_hotpath.json"
  grep -q '"q3"' "$scratch/BENCH_hotpath.json"
  grep -q '"strip_pairs_per_sec"' "$scratch/BENCH_hotpath.json"
  echo "==> hotpath checks passed"
  exit 0
fi

if [[ "$MODE" == "--rebalance-only" ]]; then
  echo "==> fleet self-healing suite (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -R 'RebalanceService|ConcurrentAdmin|RouterEndToEnd|ParseRequest|StatsSchema'
  scratch="build-asan/rebalance_drill"
  rm -rf "$scratch"
  mkdir -p "$scratch"
  ./build-asan/tools/weber generate --preset=tiny --out="$scratch"
  for seed in 1 2 3; do
    echo "==> self-healing drill: source, router, and owner kills, seed $seed"
    rm -rf "$scratch/store"
    ./build-asan/tools/weber_crashtest \
      --dataset="$scratch/dataset.txt" \
      --gazetteer="$scratch/gazetteer.txt" \
      --serve_bin=./build-asan/tools/weber_serve \
      --router_bin=./build-asan/tools/weber_router \
      --data_dir="$scratch/store" --rebalance --writers=4 \
      --seed="$seed" --out="$scratch/BENCH_rebalance.json"
  done
  echo "==> rebalance checks passed"
  exit 0
fi

if [[ "$MODE" != "--sanitize-only" && "$MODE" != "--tsan-only" ]]; then
  echo "==> normal build"
  run_suite build
  ctest --test-dir build --output-on-failure -j "$JOBS"
fi

if [[ "$MODE" != "--normal-only" && "$MODE" != "--tsan-only" ]]; then
  echo "==> sanitized build (address;undefined)"
  run_suite build-asan -DWEBER_SANITIZE="address;undefined"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "$MODE" != "--normal-only" && "$MODE" != "--sanitize-only" ]]; then
  echo "==> thread-sanitized build (serve + executor tests)"
  run_suite build-tsan -DWEBER_SANITIZE=thread
  # scripts/tsan.supp silences the documented libstdc++ _Sp_atomic false
  # positive (atomic<shared_ptr> uses a lock bit TSan cannot see).
  TSAN_OPTIONS="halt_on_error=1 suppressions=$(pwd)/scripts/tsan.supp" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R "$TSAN_FILTER"
fi

echo "==> all checks passed"
