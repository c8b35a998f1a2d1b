#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy at the repo root) over every source
# file under src/, using the compile_commands.json of an existing build
# directory. Skips with a notice when clang-tidy isn't installed so
# `scripts/check.sh --static` stays usable on gcc-only machines.
#
#   scripts/run_clang_tidy.sh [repo-root [build-dir]]
set -eu
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
build_dir=${2:-$root/build}

if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "SKIP: clang-tidy not installed"
  exit 0
fi
if [ ! -f "$build_dir/compile_commands.json" ]; then
  echo "error: $build_dir/compile_commands.json not found;" \
       "configure a build first (compile commands are exported by default)" >&2
  exit 2
fi

status=0
while IFS= read -r file; do
  echo "=== clang-tidy: $file"
  clang-tidy -p "$build_dir" --quiet "$file" || status=1
done < <(find "$root/src" -name '*.cpp' | sort)
exit "$status"
