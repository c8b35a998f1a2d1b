#!/usr/bin/env bash
# Full verification: static analysis first (cheapest failures surface
# earliest), then build + ctest in the plain tree, then the same suite under
# ThreadSanitizer, AddressSanitizer and UBSan
# (-DZDC_SANITIZE=thread|address|undefined, each in its own build directory
# so the trees never mix).
#
#   scripts/check.sh                # static + plain + metrics + tsan + asan
#                                   # + ubsan + storage + service
#   scripts/check.sh plain tsan     # just these suites
#   scripts/check.sh metrics        # metrics-JSON schema + byte-identity
#   scripts/check.sh storage        # durable-WAL + catch-up recovery suites
#                                   # under both sanitizers
#                                   # + long fixed-seed WAL fuzz
#   scripts/check.sh service        # session/lock/read-index suites under
#                                   # both sanitizers + service bench smoke
#   scripts/check.sh --static       # only the static stage
#   scripts/check.sh --explore      # opt-in: slow-labelled deep exploration
#                                   # (full schedule-space exhaustion, minutes)
#   scripts/check.sh bench          # opt-in: full hot-path perf sweep
#                                   # (scripts/bench.sh -> BENCH_hotpath.json)
set -eu
cd "$(dirname "$0")/.."
JOBS=$( (command -v nproc > /dev/null && nproc) || echo 4)

# Static stage: thread-safety annotation build (clang), zdc_lint, the
# zdc_analyze semantic passes, clang-tidy. The clang-dependent pieces
# self-skip where clang isn't installed; zdc_lint and zdc_analyze always run
# (they build with the project).
run_static() {
  echo "=== static: thread-safety annotations"
  scripts/thread_safety_check.sh "$PWD"
  echo "=== static: zdc_lint"
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target zdc_lint
  ./build/tools/zdc_lint --root "$PWD"
  echo "=== static: zdc_analyze"
  cmake --build build -j "$JOBS" --target zdc_analyze
  ./build/tools/zdc_analyze --root "$PWD"
  echo "=== static: clang-tidy"
  scripts/run_clang_tidy.sh "$PWD" "$PWD/build"
  echo "=== static: format"
  scripts/format_check.sh "$PWD"
}

# Metrics stage: the exporter determinism contract, end to end. Two
# fixed-seed runs of each sim mode (abcast, consensus under a crash-tracking
# FD with a crash, sequence) must emit byte-identical metrics JSON, and
# every sim and runtime document must pass the zdc-metrics-v1 schema
# validator.
run_metrics() {
  echo "=== metrics: build zdc_explore"
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target zdc_explore
  local explore=./build/tools/zdc_explore out=build/metrics-check
  mkdir -p "$out"
  local mode args
  for mode in abcast consensus sequence; do
    case $mode in
      abcast) args="--seed 42 --messages 60" ;;
      consensus) args="--seed 42 --fd track --crash 0@0.5" ;;
      sequence) args="--seed 42 --instances 6 --crash-before 3" ;;
    esac
    echo "=== metrics: $mode fixed-seed byte-identity + schema"
    # shellcheck disable=SC2086  # args is a deliberately split flag list
    "$explore" $mode $args --metrics-out "$out/$mode-a.json" > /dev/null
    # shellcheck disable=SC2086
    "$explore" $mode $args --metrics-out "$out/$mode-b.json" > /dev/null
    cmp "$out/$mode-a.json" "$out/$mode-b.json"
    "$explore" validate-metrics "$out/$mode-a.json"
  done
  echo "=== metrics: schema validation (runtime)"
  "$explore" runtime c-l --messages 30 --throughput 2000 \
    --metrics-out "$out/runtime.json" > /dev/null
  "$explore" validate-metrics "$out/runtime.json"
}

run_suite() {
  local name=$1 dir=$2
  shift 2
  echo "=== $name: configure ($dir)"
  cmake -B "$dir" -S . "$@" > /dev/null
  echo "=== $name: build"
  cmake --build "$dir" -j "$JOBS"
  echo "=== $name: ctest"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Storage stage: every `storage`-labelled test under both sanitizers — the
# durable-WAL suite plus the catch-up recovery suite (catchup_test: the
# src/recovery stack through the kill-9 → restart → snapshot-transfer e2e,
# whose replica swaps and cross-thread watermarks are exactly what ASan/TSan
# have teeth for) — plus a longer fixed-seed run of the WAL
# write/kill/reopen fuzz in the plain tree (the tier-1 run uses the default
# 64 rounds; this one does 512 at a pinned seed so failures reproduce).
run_storage() {
  local dir
  for dir in build-tsan build-asan; do
    local flag=-DZDC_SANITIZE=thread
    [ "$dir" = build-asan ] && flag=-DZDC_SANITIZE=address
    echo "=== storage: configure ($dir)"
    cmake -B "$dir" -S . "$flag" > /dev/null
    echo "=== storage: build ($dir)"
    cmake --build "$dir" -j "$JOBS"
    echo "=== storage: ctest -L storage ($dir)"
    ctest --test-dir "$dir" --output-on-failure -L storage -j "$JOBS"
  done
  echo "=== storage: fixed-seed WAL fuzz (512 rounds, seed 7)"
  cmake -B build -S . > /dev/null
  cmake --build build -j "$JOBS" --target wal_test
  ZDC_WAL_FUZZ_ROUNDS=512 ZDC_WAL_FUZZ_SEED=7 \
    ./build/tests/wal_test --gtest_filter='WalFuzz.*'
}

# Service stage: every `service`-labelled test under both sanitizers — the
# session dedup/GC suite, the lock-server cache suite, the deterministic
# whole-service sim (1e5 sessions + nemesis) and the threaded ServiceGroup
# end-to-end tests (lease-gate acks and the client router are cross-thread
# hot spots — exactly what TSan has teeth for) — plus the quick service
# bench to keep BENCH_service.json's schema and per-path invariants honest.
run_service() {
  local dir
  for dir in build-tsan build-asan; do
    local flag=-DZDC_SANITIZE=thread
    [ "$dir" = build-asan ] && flag=-DZDC_SANITIZE=address
    echo "=== service: configure ($dir)"
    cmake -B "$dir" -S . "$flag" > /dev/null
    echo "=== service: build ($dir)"
    cmake --build "$dir" -j "$JOBS"
    echo "=== service: ctest -L service ($dir)"
    ctest --test-dir "$dir" --output-on-failure -L service -j "$JOBS"
  done
  echo "=== service: bench smoke"
  scripts/bench.sh --service --quick --out build/BENCH_service_check.json
}

# Explore stage: the slow-labelled deep-exploration tests — full bounded
# schedule-space exhaustion for L/P/Paxos via the model checker (src/check).
# Deliberately NOT part of the default set: minutes of wall time, and the
# tier-1 suite already runs the depth-bounded versions. Own build directory
# because ZDC_SLOW_TESTS changes which tests are registered.
run_explore() {
  echo "=== explore: configure (build-explore)"
  cmake -B build-explore -S . -DZDC_SLOW_TESTS=ON > /dev/null
  echo "=== explore: build"
  cmake --build build-explore -j "$JOBS"
  echo "=== explore: ctest -L slow"
  ctest --test-dir build-explore --output-on-failure -L slow -j "$JOBS"
  # The parallel engine's work-stealing pool under TSan, driven hard: a
  # fixed-seed corruption swarm (flip + equivocation budgets) and a
  # parallel DFS over the same scenario. Fixed seeds so a TSan report
  # reproduces; exit status is the check (no violation expected — detectable
  # drops must stay safe).
  echo "=== explore: parallel corruption swarm under TSan"
  cmake -B build-tsan -S . -DZDC_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j "$JOBS" --target zdc_check_cli
  ./build-tsan/tools/zdc_check swarm --protocol paxos \
    --n 3 --f 1 --proposals a,b,c --flips 2 --equivocations 1 \
    --seed 7 --runs 64 --max-steps 200 --threads 4
  ./build-tsan/tools/zdc_check explore --protocol paxos --n 3 --f 1 \
    --proposals a,a,a --flips 1 --max-depth 6 --threads 4
}

suites=${*:-static plain metrics tsan asan ubsan storage service}
for suite in $suites; do
  case "$suite" in
    static|--static) run_static ;;
    plain) run_suite plain build ;;
    metrics) run_metrics ;;
    tsan)  run_suite tsan build-tsan -DZDC_SANITIZE=thread ;;
    asan)  run_suite asan build-asan -DZDC_SANITIZE=address ;;
    ubsan) run_suite ubsan build-ubsan -DZDC_SANITIZE=undefined ;;
    storage) run_storage ;;
    service) run_service ;;
    explore|--explore) run_explore ;;
    # Opt-in (never part of the default set): refresh the perf baseline.
    bench) echo "=== bench: hot-path sweep"; scripts/bench.sh ;;
    *) echo "unknown suite '$suite'" \
            "(static|plain|metrics|tsan|asan|ubsan|storage|service|explore|" \
            "bench)" >&2
       exit 2 ;;
  esac
done
echo "=== all requested suites passed: $suites"
