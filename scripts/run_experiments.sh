#!/usr/bin/env bash
# Runs every bench binary and tees its output to results/. The paper's
# evaluation, figure series included, is bench_paper's BENCH_paper.json
# (scripts/bench.sh --paper).
set -u
cd "$(dirname "$0")/.."
BUILD=${1:-build}
OUT=results
mkdir -p "$OUT"

for bench in "$BUILD"/bench/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "== $name"
  case "$name" in
    bench_micro)
      "$bench" --benchmark_min_time=0.1 | tee "$OUT/$name.txt" ;;
    *)
      "$bench" | tee "$OUT/$name.txt" ;;
  esac
done
echo "all experiment outputs in $OUT/"
