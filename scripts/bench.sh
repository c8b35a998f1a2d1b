#!/usr/bin/env bash
# Runs a perf harness and emits its machine-readable JSON artifact, then
# validates the artifact against the schema with the bench's own --validate
# mode. Default harness is the hot path (BENCH_hotpath.json, docs/PERF.md);
# --recovery runs the recovery/durable-storage harness instead
# (BENCH_recovery.json, docs/STORAGE.md); --service runs the session/
# read-index service harness (BENCH_service.json, docs/SERVICE.md); --paper
# runs the paper's evaluation (BENCH_paper.json, EXPERIMENTS.md), whose
# validation fails unless every claim holds.
#
#   scripts/bench.sh                 # full sweep  -> BENCH_hotpath.json
#   scripts/bench.sh --recovery      # storage cost -> BENCH_recovery.json
#   scripts/bench.sh --service      # service paths -> BENCH_service.json
#   scripts/bench.sh --paper         # paper claims -> BENCH_paper.json
#   scripts/bench.sh --quick         # tiny smoke sweep (the tier-1 ctest;
#                                    # not with --paper)
#   scripts/bench.sh --out FILE      # write the JSON elsewhere
#   BUILD_DIR=build-foo scripts/bench.sh   # use a different build tree
set -eu
cd "$(dirname "$0")/.."
JOBS=$( (command -v nproc > /dev/null && nproc) || echo 4)
BUILD_DIR=${BUILD_DIR:-build}

QUICK=""
TARGET="bench_hotpath"
OUT=""
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) QUICK="--quick" ;;
    --recovery) TARGET="bench_recovery" ;;
    --service) TARGET="bench_service" ;;
    --paper) TARGET="bench_paper" ;;
    --out) shift; OUT=$1 ;;
    *)
      echo "usage: scripts/bench.sh [--recovery|--service|--paper] [--quick]" \
           "[--out FILE]" >&2
      exit 2
      ;;
  esac
  shift
done
if [ -z "$OUT" ]; then
  OUT="BENCH_${TARGET#bench_}.json"
fi

BIN="$BUILD_DIR/bench/$TARGET"
if [ ! -x "$BIN" ]; then
  cmake -B "$BUILD_DIR" -S . > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS" --target "$TARGET"
fi

# shellcheck disable=SC2086  # QUICK is deliberately empty-or-one-flag
"$BIN" $QUICK --out "$OUT"
"$BIN" --validate "$OUT"
echo "bench: wrote $OUT"
