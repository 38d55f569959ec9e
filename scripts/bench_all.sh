#!/usr/bin/env bash
# Run every bench with one command: build them in Release (the release
# preset, build-release/), run each from build-release/bench/, and
# collect one BENCH_<name>.json per bench there. Nothing is written to
# the repo root.
#
#   scripts/bench_all.sh            # all benches
#   scripts/bench_all.sh serving    # only benches whose name matches
#
# Each bench prints one `JSON [...]` line (bench_util.hpp's JsonRecords)
# that is captured into its BENCH_<name>.json; a bench without one gets
# no file. bench_sketch (Google Benchmark) writes its own JSON report.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

filter="${1:-}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake --preset release
cmake --build --preset release -j "$jobs"

out="$repo/build-release/bench"
mkdir -p "$out"
ran=0
for bin in build-release/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    *.* ) continue ;;          # skip build droppings (bench_foo.d etc.)
  esac
  if [ -n "$filter" ] && [[ "$name" != *"$filter"* ]]; then
    continue
  fi
  echo "=== $name"
  if [ "$name" = "bench_sketch" ]; then
    "$repo/$bin" --benchmark_format=json > "$out/BENCH_sketch.json" \
      || { echo "$name failed" >&2; exit 1; }
    echo "--- wrote $out/BENCH_sketch.json"
    ran=$((ran + 1))
    continue
  fi
  log="$(cd "$out" && "$repo/$bin" | tee /dev/fd/2)" \
    || { echo "$name failed" >&2; exit 1; }
  json="$(printf '%s\n' "$log" | sed -n 's/^JSON //p' | tail -1)"
  if [ -n "$json" ]; then
    printf '%s\n' "$json" > "$out/BENCH_${name#bench_}.json"
    echo "--- wrote $out/BENCH_${name#bench_}.json"
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "no bench matched filter '$filter'" >&2
  exit 1
fi
echo "bench_all: $ran benches done; BENCH_*.json collected in $out"
