#!/usr/bin/env bash
# CI entry point: release build + tests, then Debug+ASan/UBSan build +
# tests. Any ctest failure in any leg fails the script (set -e), so a
# regression in either preset is a CI regression. Run from anywhere;
# builds land in <repo>/build-release and <repo>/build-asan (build/ is
# left to the plain `cmake -B build` line, whose Makefile generator the
# Ninja presets cannot share a directory with).
#
#   scripts/ci.sh             # both presets, full suite
#   scripts/ci.sh release     # just the release leg (also compiles,
#                             # without running, the ftcbench/
#                             # end-to-end benchmark in build-ftcbench/)
#   scripts/ci.sh asan        # just the sanitizer leg
#   scripts/ci.sh store       # fast loop: asan build + run of the label
#                             # store / golden bytes / differential
#                             # stress / decoder workspace suites, plus
#                             # the backend, batch-engine, dp21 and
#                             # parallel-build suites (every built scheme
#                             # serves through the store path and every
#                             # builder writes blobs at computed offsets;
#                             # adversarial inputs, in-place blob writes,
#                             # the prepare-time blob-prefix copy and the
#                             # decoder's cut-indexed level sums are
#                             # what most need the sanitizers), plus the
#                             # sketch-decode algebra suites and the
#                             # zero-allocation decode check (the root
#                             # finder indexes flat buffers by computed
#                             # degree), plus the payload-digest suite
#                             # (CRC-64 fold kernel and the every-bit-
#                             # flip / every-truncation container sweep)
#                             # and the tiny-k decoder refusal sweep,
#                             # plus the in-place subtree fold kernel
#                             # (rows at unaligned blob offsets) and the
#                             # kernel-zeroed label buffer (its slack is
#                             # poisoned, so a write past the last blob
#                             # must be reported)
#   scripts/ci.sh store-v2    # store format focused asan leg: v1, v2 and
#                             # v3 fixture load + their v4 re-saves (and
#                             # the manifest-v2 fixture) + the exhaustive
#                             # |F| <= 2 fixture check + vertex-fault
#                             # parity (fault-model suites) plus an
#                             # end-to-end ftc_store build/inspect/query
#                             # exercise with --vertex-faults and a CLI
#                             # v3 -> v4 re-save round-trip
#   scripts/ci.sh portable    # portable-digest leg: Release build with
#                             # -DFTC_NATIVE=OFF (no -march=native, so no
#                             # PCLMUL) into build-portable/, running the
#                             # digest, golden-bytes, label-store,
#                             # store-compat, GF(2^m), sketch,
#                             # decoder-workspace, decode-allocation,
#                             # subtree-fold and parallel-build suites
#                             # (the builder's odd powers run on the
#                             # lane type's portable body); the pinned
#                             # golden checksums then prove the
#                             # table-driven CRC-64 and the
#                             # portable carry-less multiply write the
#                             # same bytes as the PCLMUL build, and the
#                             # pinned golden-outcome digest that the
#                             # portable decode gives the same answers,
#                             # refusals and decode counts
#   scripts/ci.sh pclmul      # PCLMUL-only leg: Release build with
#                             # -DFTC_NATIVE=OFF -march=haswell (PCLMUL,
#                             # no VPCLMULQDQ or AVX-512) into
#                             # build-pclmul/, running the GF(2^m),
#                             # sketch, golden-bytes, decoder-workspace,
#                             # decode-allocation, subtree-fold and
#                             # parallel-build suites: the decoder's and
#                             # the builder's lane type takes its PCLMUL
#                             # scalar body here, the portable leg its
#                             # portable body and the native build its
#                             # VPCLMULQDQ body, and all three must give
#                             # the same labels and the same answers
#   scripts/ci.sh bench-smoke # Release build of bench_serving,
#                             # bench_sketch and bench_tables: a
#                             # tiny-size serving run (every answer
#                             # BFS-checked, nonzero exit on a mismatch),
#                             # every paper table (bench_tables with no
#                             # argument, ~10 s; nonzero exit on any
#                             # wrong answer; Table 1 runs all six
#                             # backend variants through make_scheme and
#                             # its fault-set builders) and the failpoint
#                             # check case, with one JSON shape check per
#                             # record kind — keeps the benches from
#                             # silently rotting
#   scripts/ci.sh store-shard # sharded-store leg: asan run of the
#                             # sharded/manifest + live-swap suites, then
#                             # an end-to-end CLI exercise — shard a
#                             # fixture store, reload it via the
#                             # manifest, parity-check 1k queries against
#                             # the unsharded container (lazy AND
#                             # prefetched: all three answer streams must
#                             # be byte-identical), merge back
#                             # byte-identically, run swap-demo with and
#                             # without --prefetch
#   scripts/ci.sh store-delta # deletion-journal / delta-push leg: asan
#                             # run of the journal + sharded + swap
#                             # suites (the adversarial journal corpus
#                             # wants the sanitizers), then a CLI
#                             # end-to-end: journal appends must answer
#                             # exactly like explicit query faults,
#                             # over-budget queries must be refused, and
#                             # a zero-delta push must reuse every shard
#                             # and swap in with every shard adopted
#   scripts/ci.sh torture     # fault-injection / crash-consistency leg:
#                             # asan run of the failpoint + SIGBUS +
#                             # torture-sweep suites, then a CLI drill —
#                             # env-armed ENOSPC aborts a push with the
#                             # serving generation left fsck-clean, and a
#                             # truncated shard makes fsck exit 2 naming
#                             # exactly that shard
#   scripts/ci.sh remote      # remote serving tier leg: asan run of the
#                             # shard-cache + remote-store suites, then a
#                             # loopback CLI e2e — ftc_store serve over a
#                             # sharded store, 1k-query parity remote vs
#                             # local, cache eviction under a tiny byte
#                             # budget, env-armed transport failpoints
#                             # (retry-then-succeed, FTC_RETRY_ATTEMPTS
#                             # tuning, quarantine on a dead origin
#                             # shard), warm-cache serving through origin
#                             # damage, and explicit fsck exit codes
#                             # (0 clean / 2 damaged)
#   scripts/ci.sh tsan        # ThreadSanitizer leg: tsan preset build +
#                             # run of the concurrency-heavy suites
#                             # (sharded prefetch races, live epoch swap,
#                             # shard-cache fetch/evict races, the
#                             # remote tier's loopback origin, cache
#                             # fetches and retrying lazy shard opens,
#                             # parallel builder dispatches, the subtree
#                             # fold's workers reading its shared marks,
#                             # and batch workers carrying decoder
#                             # sessions through a batch while
#                             # workspaces move across fault sets)
#   scripts/ci.sh build-parallel # parallel-build determinism leg: asan
#                             # run of the byte-identity suite
#                             # (test_parallel_build) + the randomized
#                             # parallel-vs-serial differential, then a
#                             # CLI e2e — `build --threads 8` vs
#                             # `--threads 1`, cmp byte-identical, for
#                             # all three backends
#   scripts/ci.sh docs        # documentation leg: every relative link in
#                             # README.md and docs/*.md must resolve to a
#                             # file in the repo (dead links fail)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

jobs="$(nproc 2>/dev/null || echo 2)"

# An anchored ctest -R for exactly the named suites. Each focused leg
# keeps its suites in one array that feeds both --target and this regex,
# so a renamed suite fails the build step instead of quietly dropping
# out of the run.
suite_regex() {
  local IFS='|'
  echo "^($*)\$"
}

if [ "${1:-}" = "store" ]; then
  echo "=== store/stress focused leg (asan) ==="
  suites=(test_label_store test_golden_bytes test_stress_differential
    test_decoder_workspace test_backends test_batch_engine test_dp21
    test_parallel_build test_decoder test_rs_sketch test_poly test_gf2
    test_decode_alloc test_digest test_decoder_capacity test_subtree_xor
    test_page_buffer)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  echo "ci: store/golden/stress/workspace/backend/engine/dp21/parallel-build/sketch-decode/digest/subtree-fold/page-buffer suites green under asan"
  exit 0
fi

if [ "${1:-}" = "portable" ]; then
  echo "=== portable digest leg (release, FTC_NATIVE=OFF) ==="
  suites=(test_digest test_golden_bytes test_label_store test_store_compat
    test_gf2 test_rs_sketch test_decoder_workspace test_decode_alloc
    test_subtree_xor test_parallel_build)
  cmake -S . -B build-portable -DCMAKE_BUILD_TYPE=Release -DFTC_NATIVE=OFF
  cmake --build build-portable -j "$jobs" --target "${suites[@]}"
  ctest --test-dir build-portable --output-on-failure \
    -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  echo "ci: portable leg green (golden bytes and golden decode outcomes reproduced)"
  exit 0
fi

if [ "${1:-}" = "pclmul" ]; then
  echo "=== PCLMUL-only leg (release, FTC_NATIVE=OFF, -march=haswell) ==="
  suites=(test_gf2 test_rs_sketch test_golden_bytes test_decoder_workspace
    test_decode_alloc test_subtree_xor test_parallel_build)
  cmake -S . -B build-pclmul -DCMAKE_BUILD_TYPE=Release -DFTC_NATIVE=OFF \
    -DCMAKE_CXX_FLAGS=-march=haswell
  cmake --build build-pclmul -j "$jobs" --target "${suites[@]}"
  ctest --test-dir build-pclmul --output-on-failure \
    -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  echo "ci: PCLMUL-only leg green (golden bytes and golden decode outcomes reproduced)"
  exit 0
fi

if [ "${1:-}" = "store-v2" ]; then
  echo "=== store format / fault-model leg (asan) ==="
  suites=(test_label_store test_store_compat test_stress_differential
    test_fault_spec)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  # v1/v2/v3 fixture compat and their v4 re-saves, the manifest-v2
  # fixture, the exhaustive |F| <= 2 fixture check, the v4 adjacency
  # round-trip + adversarial corpus, and the vertex/mixed-fault
  # differential sweeps, all under asan.
  ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  # End-to-end CLI exercise: build a v4 store, inspect it, serve a
  # vertex-fault query, re-save the v3 fixture as v4 (narrower level
  # widths, same answers), confirm the v2 fixture still verifies (FNV-1a
  # payload digest), and confirm the v1 fixture still loads but refuses
  # vertex faults with the typed capability error (exit 2).
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  build-asan/ftc_store build --out "$tmp/v4.ftcs" --family grid \
    --rows 6 --cols 6 --backend core-ftc --f 8 >/dev/null
  build-asan/ftc_store inspect "$tmp/v4.ftcs" | grep -q 'format version     4'
  build-asan/ftc_store inspect "$tmp/v4.ftcs" | grep -q 'payload digest     crc64'
  build-asan/ftc_store inspect "$tmp/v4.ftcs" | grep -q 'supported (adjacency'
  build-asan/ftc_store inspect "$tmp/v4.ftcs" | grep -q '^level widths '
  if build-asan/ftc_store inspect "$tmp/v4.ftcs" | grep -q 're-save drops'; then
    echo "ci: a v4 store claims a re-save would shrink it" >&2
    exit 1
  fi
  out="$(build-asan/ftc_store query "$tmp/v4.ftcs" --faults 1 \
    --vertex-faults 7 --pairs 0:35,7:7)"
  # Anchored: 'connected' is a substring of 'disconnected'. Deleting one
  # interior vertex (+ one edge) leaves the 6x6 grid connected, and a
  # deleted vertex stays connected to itself.
  printf '%s\n' "$out" | grep -qx '0 35 connected'
  printf '%s\n' "$out" | grep -qx '7 7 connected'
  build-asan/ftc_store inspect tests/data/v3_core_ftc.ftcs \
    | grep -q 're-save drops      768 bytes (v4 widths 6)'
  build-asan/ftc_store merge tests/data/v3_core_ftc.ftcs \
    --out "$tmp/v3_resaved.ftcs" >/dev/null
  build-asan/ftc_store inspect "$tmp/v3_resaved.ftcs" \
    | grep -q 'level widths       6 of k=12'
  [ "$(stat -c %s "$tmp/v3_resaved.ftcs")" -lt \
    "$(stat -c %s tests/data/v3_core_ftc.ftcs)" ]
  pairs="0:10,2:9,3:7,5:6,1:8"
  for faults in 0 3,7 5,6 1,12; do
    a="$(build-asan/ftc_store query tests/data/v3_core_ftc.ftcs \
      --faults "$faults" --pairs "$pairs")"
    b="$(build-asan/ftc_store query "$tmp/v3_resaved.ftcs" \
      --faults "$faults" --pairs "$pairs")"
    if [ "$a" != "$b" ]; then
      echo "ci: v4 re-save of the v3 fixture answers differently" >&2
      exit 1
    fi
  done
  build-asan/ftc_store inspect tests/data/v2_core_ftc.ftcs \
    | grep -q 'payload digest     fnv1a'
  build-asan/ftc_store inspect tests/data/v1_core_ftc.ftcs \
    | grep -q 'format version     1'
  if build-asan/ftc_store query tests/data/v1_core_ftc.ftcs \
       --vertex-faults 1 --pairs 0:2 2>/dev/null; then
    echo "ci: v1 store unexpectedly served a vertex-fault query" >&2
    exit 1
  fi
  echo "ci: store-v2 leg green (v1/v2/v3 fixture compat + v4 round-trip + CLI)"
  exit 0
fi

if [ "${1:-}" = "store-shard" ]; then
  echo "=== sharded store / live swap leg (asan) ==="
  suites=(test_sharded_store test_store_swap)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  # End-to-end CLI exercise: build a container, shard it, reload through
  # the manifest, and parity-check 1k queries (mixed edge + vertex
  # faults) against the unsharded store; then merge back byte-identically
  # and run the live-swap demo.
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  build-asan/ftc_store build --out "$tmp/flat.ftcs" --family grid \
    --rows 12 --cols 12 --backend core-ftc --f 8 >/dev/null
  build-asan/ftc_store shard "$tmp/flat.ftcs" --out "$tmp/labels.ftcm" \
    --shards 4 >/dev/null
  build-asan/ftc_store inspect "$tmp/labels.ftcm" | grep -q 'sharded manifest'
  build-asan/ftc_store inspect "$tmp/labels.ftcm" \
    | grep -q 'shards             4'
  # 1000 deterministic query pairs over the 144-vertex grid (no python
  # dependency on this leg).
  pairs=""
  for i in $(seq 0 999); do
    pairs+="$(( (i * 37 + 11) % 144 )):$(( (i * 53 + 29) % 144 )),"
  done
  pairs="${pairs%,}"
  build-asan/ftc_store query "$tmp/flat.ftcs" --faults 3,40 \
    --vertex-faults 77 --pairs "$pairs" > "$tmp/flat.out"
  build-asan/ftc_store query "$tmp/labels.ftcm" --faults 3,40 \
    --vertex-faults 77 --pairs "$pairs" > "$tmp/sharded.out"
  if ! cmp -s "$tmp/flat.out" "$tmp/sharded.out"; then
    echo "ci: sharded store answers diverge from the unsharded store" >&2
    exit 1
  fi
  [ "$(wc -l < "$tmp/sharded.out")" = "1000" ]
  # Prefetch parity: the prefetched store must answer byte-identically
  # to the lazy-open path (prefetch diagnostics go to stderr, so stdout
  # is comparable as-is).
  build-asan/ftc_store query "$tmp/labels.ftcm" --prefetch=4 --faults 3,40 \
    --vertex-faults 77 --pairs "$pairs" > "$tmp/prefetched.out" \
    2> "$tmp/prefetch.log"
  if ! cmp -s "$tmp/sharded.out" "$tmp/prefetched.out"; then
    echo "ci: prefetched answers diverge from lazy-open answers" >&2
    exit 1
  fi
  grep -q 'prefetch: 4 shard(s) newly mapped' "$tmp/prefetch.log"
  build-asan/ftc_store inspect "$tmp/labels.ftcm" --verbose \
    | grep -q 'shards open 4/4'
  build-asan/ftc_store merge "$tmp/labels.ftcm" --out "$tmp/merged.ftcs" \
    >/dev/null
  cmp "$tmp/flat.ftcs" "$tmp/merged.ftcs"
  build-asan/ftc_store swap-demo --n 64 --m 80 --f 3 --swaps 4 \
    --queries 64 >/dev/null
  build-asan/ftc_store swap-demo --n 64 --m 80 --f 3 --swaps 4 \
    --queries 64 --prefetch >/dev/null 2>&1
  echo "ci: store-shard leg green (suites + 1k-query CLI parity incl. prefetch + merge + swap-demo)"
  exit 0
fi

if [ "${1:-}" = "store-delta" ]; then
  echo "=== deletion journal / delta push leg (asan) ==="
  suites=(test_journal test_sharded_store test_store_swap)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  build-asan/ftc_store build --out "$tmp/flat.ftcs" --family grid \
    --rows 12 --cols 12 --backend core-ftc --f 8 >/dev/null
  # A budget past 32 bits is a usage error (exit 1) that writes no
  # journal, not a budget wrapped to 0.
  rc=0
  build-asan/ftc_store journal append "$tmp/flat.ftcs" --edges 3 \
    --budget 4294967296 >/dev/null 2>&1 || rc=$?
  [ "$rc" = "1" ]
  [ ! -e "$tmp/flat.ftcs.jrnl" ]
  # Journal lifecycle: first append needs --budget, later ones inherit
  # it; idempotent and incremental epochs are covered by the suite, the
  # CLI leg checks the served answers.
  build-asan/ftc_store journal append "$tmp/flat.ftcs" --edges 3,40 \
    --budget 8 | grep -q 'epoch 1, 2/8 deletions journaled'
  build-asan/ftc_store journal append "$tmp/flat.ftcs" --edges 77 \
    | grep -q 'epoch 2, 3/8 deletions journaled'
  build-asan/ftc_store inspect "$tmp/flat.ftcs" \
    | grep -q 'journal            epoch 2: 3/8 deletions'
  pairs=""
  for i in $(seq 0 499); do
    pairs+="$(( (i * 37 + 11) % 144 )):$(( (i * 53 + 29) % 144 )),"
  done
  pairs="${pairs%,}"
  # Replay parity: the journal folded into every query must answer
  # byte-identically to the same deletions passed as explicit faults —
  # with and without extra query-time faults on top.
  build-asan/ftc_store query "$tmp/flat.ftcs" --pairs "$pairs" \
    > "$tmp/journaled.out"
  build-asan/ftc_store query "$tmp/flat.ftcs" --ignore-journal \
    --faults 3,40,77 --pairs "$pairs" > "$tmp/explicit.out"
  cmp "$tmp/journaled.out" "$tmp/explicit.out"
  build-asan/ftc_store query "$tmp/flat.ftcs" --faults 100,101 \
    --pairs "$pairs" > "$tmp/journaled_plus.out"
  build-asan/ftc_store query "$tmp/flat.ftcs" --ignore-journal \
    --faults 3,40,77,100,101 --pairs "$pairs" > "$tmp/explicit_plus.out"
  cmp "$tmp/journaled_plus.out" "$tmp/explicit_plus.out"
  # 3 journaled + 6 query faults overflows f=8: must be refused, and
  # --ignore-journal must make the same request legal again.
  if build-asan/ftc_store query "$tmp/flat.ftcs" \
       --faults 100,101,102,103,104,105 --pairs 0:1 >/dev/null 2>&1; then
    echo "ci: over-budget journal+fault query was not refused" >&2
    exit 1
  fi
  build-asan/ftc_store query "$tmp/flat.ftcs" --ignore-journal \
    --faults 100,101,102,103,104,105 --pairs 0:1 >/dev/null
  # Every append rewrites the journal as one frame: after two appends the
  # 3 IDs take 32 (prefix) + 12 + 4 (pad) + 8 (digest) = 56 bytes.
  [ "$(stat -c %s "$tmp/flat.ftcs.jrnl")" = "56" ]
  # There is no compact subcommand: it is an unknown one (exit 1).
  rc=0
  build-asan/ftc_store journal compact "$tmp/flat.ftcs" >/dev/null 2>&1 \
    || rc=$?
  [ "$rc" = "1" ]
  # Delta push: a full push seeds epoch 1; pushing the same store over
  # it must reuse every shard by hard link and bump the epoch.
  build-asan/ftc_store push "$tmp/flat.ftcs" --out "$tmp/gen.ftcm" \
    --shards 4 | grep -q 'full push .* epoch 1, 4 shards'
  build-asan/ftc_store push "$tmp/flat.ftcs" --out "$tmp/gen.ftcm" \
    | grep -q 'epoch 2: 4/4 shards reused, 0 written'
  build-asan/ftc_store inspect "$tmp/gen.ftcm" \
    | grep -q 'manifest epoch     2'
  # Live cut-over: a zero-delta generation swap must adopt all four
  # serving shard maps and change no answers.
  build-asan/ftc_store swap-demo --delta --n 64 --m 80 --f 3 \
    --queries 64 | grep -q '4/4 shards adopted, 0 newly mapped'
  echo "ci: store-delta leg green (suites + journal parity + capacity refusal + delta push CLI)"
  exit 0
fi

if [ "${1:-}" = "torture" ]; then
  echo "=== fault-injection / crash-consistency torture leg (asan) ==="
  suites=(test_fault_injection test_torture)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  # The store's own SIGBUS translator replaces ASan's handler; tell ASan
  # to stand down on SIGBUS so guarded mapped reads stay recoverable.
  ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}handle_sigbus=0" \
    ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  build-asan/ftc_store build --out "$tmp/flat.ftcs" --family grid \
    --rows 12 --cols 12 --backend core-ftc --f 8 >/dev/null
  build-asan/ftc_store push "$tmp/flat.ftcs" --out "$tmp/gen.ftcm" \
    --shards 4 >/dev/null
  build-asan/ftc_store fsck "$tmp/gen.ftcm" | grep -q ': clean'
  # Env-armed failpoint drill: the injected ENOSPC must abort the push
  # typed, and the serving generation must stay intact and fsck-clean.
  if FTC_FAILPOINTS='store.write.fsync=once:ENOSPC' \
       build-asan/ftc_store push "$tmp/flat.ftcs" --out "$tmp/gen.ftcm" \
       >/dev/null 2>&1; then
    echo "ci: push with injected ENOSPC unexpectedly succeeded" >&2
    exit 1
  fi
  build-asan/ftc_store fsck "$tmp/gen.ftcm" > "$tmp/fsck_after_abort.out"
  grep -q 'manifest ok (epoch 1' "$tmp/fsck_after_abort.out"
  grep -q ': clean' "$tmp/fsck_after_abort.out"
  # A clean push still lands on the untouched parent.
  build-asan/ftc_store push "$tmp/flat.ftcs" --out "$tmp/gen.ftcm" \
    | grep -q 'epoch 2: 4/4 shards reused, 0 written'
  build-asan/ftc_store fsck "$tmp/gen.ftcm" | grep -q ': clean'
  # Damage one shard behind the manifest: fsck must exit 2 and name
  # exactly that shard, with every other shard still verifying.
  : > "$tmp/gen.ftcm.shard2.ftcs"
  if build-asan/ftc_store fsck "$tmp/gen.ftcm" > "$tmp/fsck.out"; then
    echo "ci: fsck of a damaged store exited 0" >&2
    exit 1
  fi
  grep -q 'shard 2 .*: FAILED' "$tmp/fsck.out"
  grep -q ': 1 damaged' "$tmp/fsck.out"
  [ "$(grep -c ': FAILED' "$tmp/fsck.out")" = "1" ]
  grep -q 'shard 0 .*: ok' "$tmp/fsck.out"
  grep -q 'shard 3 .*: ok' "$tmp/fsck.out"
  echo "ci: torture leg green (suites + env failpoint drill + fsck triage)"
  exit 0
fi

if [ "${1:-}" = "remote" ]; then
  echo "=== remote serving tier leg (asan) ==="
  suites=(test_shard_cache test_remote_store)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  # The suites carry the fault ladder under asan: digest-refusal on a
  # corrupt origin, retry on transient EIO, quarantine + DegradedError on
  # a persistent one WHILE warm shards keep answering.
  ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"

  tmp="$(mktemp -d)"
  server_pid=""
  cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$tmp"
  }
  trap cleanup EXIT
  build-asan/ftc_store build --out "$tmp/flat.ftcs" --family grid \
    --rows 12 --cols 12 --backend core-ftc --f 8 >/dev/null
  mkdir "$tmp/srv"
  build-asan/ftc_store shard "$tmp/flat.ftcs" --out "$tmp/srv/labels.ftcm" \
    --shards 4 >/dev/null
  # Explicit fsck exit-code contract on the healthy store: 0 means clean.
  rc=0; build-asan/ftc_store fsck "$tmp/srv/labels.ftcm" >/dev/null || rc=$?
  [ "$rc" = "0" ]

  build-asan/ftc_store serve "$tmp/srv" --port 0 > "$tmp/serve.out" &
  server_pid=$!
  for _ in $(seq 1 100); do
    grep -q '^serving ' "$tmp/serve.out" 2>/dev/null && break
    sleep 0.05
  done
  url="$(sed -n 's/.* on \(http:[^ ]*\) .*/\1/p' "$tmp/serve.out")"
  [ -n "$url" ]
  manifest_url="${url}labels.ftcm"

  pairs=""
  for i in $(seq 0 999); do
    pairs+="$(( (i * 37 + 11) % 144 )):$(( (i * 53 + 29) % 144 )),"
  done
  pairs="${pairs%,}"
  build-asan/ftc_store query "$tmp/srv/labels.ftcm" --faults 3,40 \
    --vertex-faults 77 --pairs "$pairs" > "$tmp/local.out"
  [ "$(wc -l < "$tmp/local.out")" = "1000" ]

  # Cold remote serve: every shard crosses loopback once, digest-verified
  # into the cache, and the 1k answers must be byte-identical to local.
  FTC_CACHE_DIR="$tmp/cache" build-asan/ftc_store query "$manifest_url" \
    --faults 3,40 --vertex-faults 77 --pairs "$pairs" > "$tmp/remote.out"
  cmp "$tmp/local.out" "$tmp/remote.out"
  [ "$(ls "$tmp/cache"/shard-*.ftcs | wc -l)" = "4" ]
  # Warm re-serve over the populated cache: parity again, no new shards.
  FTC_CACHE_DIR="$tmp/cache" build-asan/ftc_store query "$manifest_url" \
    --faults 3,40 --vertex-faults 77 --pairs "$pairs" > "$tmp/warm.out"
  cmp "$tmp/local.out" "$tmp/warm.out"
  [ "$(ls "$tmp/cache"/shard-*.ftcs | wc -l)" = "4" ]

  # Eviction drill: a budget below one shard keeps at most the most
  # recent fetch resident — answers must not change.
  FTC_CACHE_DIR="$tmp/cache_tiny" FTC_CACHE_BYTES=4096 \
    build-asan/ftc_store query "$manifest_url" --faults 3,40 \
    --vertex-faults 77 --pairs "$pairs" > "$tmp/evicted.out"
  cmp "$tmp/local.out" "$tmp/evicted.out"
  [ "$(ls "$tmp/cache_tiny"/shard-*.ftcs | wc -l)" = "1" ]

  # Transport retry drill: one injected EIO on a socket read is absorbed
  # by the retry policy; answers stay byte-identical.
  FTC_CACHE_DIR="$tmp/cache_retry" \
    FTC_FAILPOINTS='remote.read=once:EIO' \
    build-asan/ftc_store query "$manifest_url" --faults 3,40 \
    --vertex-faults 77 --pairs "$pairs" > "$tmp/retried.out"
  cmp "$tmp/local.out" "$tmp/retried.out"
  # The same fault with retries tuned down to a single attempt via the
  # environment must surface as a typed store error (exit 2).
  rc=0
  FTC_CACHE_DIR="$tmp/cache_noretry" FTC_RETRY_ATTEMPTS=1 \
    FTC_FAILPOINTS='remote.read=once:EIO' \
    build-asan/ftc_store query "$manifest_url" --faults 3,40 \
    --pairs 0:1 >/dev/null 2> "$tmp/noretry.err" || rc=$?
  [ "$rc" = "2" ]
  grep -q 'remote read failed' "$tmp/noretry.err"

  # Degraded serving drill: drop one shard from the origin. Queries are
  # lazy, so a cold cache still answers pairs in the healthy shards'
  # ranges, while a pair needing the dead shard (vertex 80 lives in
  # shard 2 of 4 over 144 vertices) gets the typed quarantine (exit 2).
  # A warm cache keeps answering the full 1k parity stream — the origin
  # is damaged but every shard is already local.
  rm "$tmp/srv/labels.ftcm.shard2.ftcs"
  FTC_CACHE_DIR="$tmp/cache_cold2" build-asan/ftc_store query \
    "$manifest_url" --faults 3,40 --pairs 0:1 >/dev/null
  rc=0
  FTC_CACHE_DIR="$tmp/cache_cold2" build-asan/ftc_store query \
    "$manifest_url" --faults 3,40 --pairs 80:1 \
    >/dev/null 2> "$tmp/degraded.err" || rc=$?
  [ "$rc" = "2" ]
  grep -q 'quarantined' "$tmp/degraded.err"
  grep -q 'remote object not found' "$tmp/degraded.err"
  FTC_CACHE_DIR="$tmp/cache" build-asan/ftc_store query "$manifest_url" \
    --faults 3,40 --vertex-faults 77 --pairs "$pairs" > "$tmp/survivor.out"
  cmp "$tmp/local.out" "$tmp/survivor.out"

  # Explicit fsck exit-code contract on the damaged store: 2, naming it.
  rc=0; build-asan/ftc_store fsck "$tmp/srv/labels.ftcm" \
    > "$tmp/fsck.out" 2>&1 || rc=$?
  [ "$rc" = "2" ]
  grep -q 'shard 2 .*: FAILED' "$tmp/fsck.out"

  kill "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
  echo "ci: remote leg green (suites + loopback parity + eviction + retry env + degraded serving + fsck exit codes)"
  exit 0
fi

if [ "${1:-}" = "tsan" ]; then
  echo "=== concurrency leg (tsan) ==="
  suites=(test_sharded_store test_store_swap test_shard_cache
    test_remote_store test_parallel_build test_subtree_xor
    test_decoder_workspace test_batch_engine)
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target "${suites[@]}"
  ctest --preset tsan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  echo "ci: sharded prefetch + live-swap + shard-cache + remote-store + parallel-build + subtree-fold + decoder-session + batch-engine suites green under tsan"
  exit 0
fi

if [ "${1:-}" = "build-parallel" ]; then
  echo "=== parallel build determinism leg (asan) ==="
  suites=(test_parallel_build test_stress_differential)
  cmake --preset asan
  cmake --build --preset asan -j "$jobs" --target "${suites[@]}" ftc_store
  # The byte-identity suite (flat + sharded stores across thread counts,
  # all backends) and the randomized parallel-vs-serial differential
  # sweep, both under asan.
  ctest --preset asan -R "$(suite_regex "${suites[@]}")" -j "$jobs"
  # CLI end-to-end: an 8-thread build must produce the exact bytes of a
  # serial build — cmp, not just digest, so the check is independent of
  # the checksum machinery it is meant to vouch for.
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  for backend in core-ftc dp21-cycle dp21-agm; do
    build-asan/ftc_store build --out "$tmp/serial.ftcs" --backend "$backend" \
      --family grid --rows 14 --cols 17 --f 4 --threads 1 >/dev/null
    build-asan/ftc_store build --out "$tmp/parallel.ftcs" \
      --backend "$backend" \
      --family grid --rows 14 --cols 17 --f 4 --threads 8 >/dev/null
    cmp "$tmp/serial.ftcs" "$tmp/parallel.ftcs"
    echo "build-parallel: $backend 8-thread store byte-identical to serial"
  done
  echo "ci: parallel build determinism leg green (suites + CLI cmp)"
  exit 0
fi

if [ "${1:-}" = "docs" ]; then
  echo "=== docs link check ==="
  fail=0
  for doc in README.md docs/*.md; do
    [ -f "$doc" ] || continue
    dir="$(dirname "$doc")"
    # Relative markdown links: [text](target). External schemes and
    # pure #anchors are skipped; in-repo anchors are checked by file.
    while IFS= read -r target; do
      case "$target" in
        http://*|https://*|mailto:*|"#"*) continue ;;
      esac
      file="${target%%#*}"
      [ -n "$file" ] || continue
      if [ ! -e "$dir/$file" ] && [ ! -e "$file" ]; then
        echo "dead link in $doc: $target" >&2
        fail=1
      fi
    done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/')
  done
  if [ "$fail" -ne 0 ]; then
    echo "ci: docs link check FAILED" >&2
    exit 1
  fi
  echo "ci: docs link check green"
  exit 0
fi

if [ "${1:-}" = "bench-smoke" ]; then
  echo "=== bench smoke leg (release) ==="
  cmake --preset release
  cmake --build --preset release -j "$jobs" --target bench_serving \
    bench_sketch bench_tables
  out=build-release/bench-smoke
  mkdir -p "$out"
  # bench_serving exits nonzero if any timed answer disagrees with BFS or
  # a delta-push/retry/degraded gate fails; pipefail keeps that status.
  (cd "$out" && ../bench_serving --smoke) | tee "$out/serving.log"
  # Every paper table; exits nonzero on any wrong answer.
  build-release/bench_tables
  sed -n 's/^JSON //p' "$out/serving.log" > "$out/BENCH_serving.json"
  build-release/bench_sketch --benchmark_filter=BM_FailpointCheck \
    --benchmark_min_time=0.01 --benchmark_format=json \
    > "$out/BENCH_failpoint.json"
  if command -v python3 >/dev/null; then
    python3 - "$out/BENCH_serving.json" "$out/BENCH_failpoint.json" <<'EOF'
import json, sys
required = {
    "cell": {"backend", "path", "model", "faults", "reduced", "f",
             "open_us_p50", "first_us_p50", "prepare_us_p50",
             "prepare_us_p99", "query_us_p50", "query_us_p99", "query_us_n",
             "seq_qps", "oneshot_us_p50"},
    "push": {"backend", "k_shards", "shards_changed", "save_us_p50",
             "save_sharded_us_p50", "delta_us_p50", "shards_written",
             "shards_reused", "bytes_written", "bytes_reused", "swap_us_p50",
             "shards_adopted", "shards_remapped"},
    "retry": {"backend", "k_shards", "open_clean_us_p50",
              "open_retry_us_p50"},
    "degraded": {"backend", "shards_quarantined", "healthy_query_us_p50",
                 "healthy_query_us_p99", "degraded_throw_us_p50"},
}
with open(sys.argv[1]) as fh:
    records = json.load(fh)
for kind, need in required.items():
    rows = [r for r in records if r.get("kind") == kind]
    assert rows, f"bench_serving: no {kind} records"
    for r in rows:
        missing = need - r.keys()
        assert not missing, f"{kind} record missing {missing}: {r}"
    print(f"bench-smoke: {len(rows)} {kind} records well-formed")
with open(sys.argv[2]) as fh:
    names = {b["name"] for b in json.load(fh)["benchmarks"]}
assert names == {"BM_FailpointCheck/armed_miss:0",
                 "BM_FailpointCheck/armed_miss:1"}, names
print("bench-smoke: failpoint check case well-formed")
EOF
  else
    # Degraded check without python3: every record kind is present.
    for kind in cell push retry degraded; do
      grep -q "\"kind\":\"$kind\"" "$out/BENCH_serving.json"
    done
    grep -q 'BM_FailpointCheck/armed_miss:1' "$out/BENCH_failpoint.json"
    echo "bench-smoke: JSON shape check passed (python3 unavailable)"
  fi
  echo "ci: bench smoke green"
  exit 0
fi

presets=("${@:-release}")
if [ "$#" -eq 0 ]; then
  presets=(release asan)
fi

for preset in "${presets[@]}"; do
  echo "=== preset: $preset ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs"
  if [ "$preset" = "release" ]; then
    # Compile-only build of the end-to-end benchmark in its own build
    # directory (nothing is run): a library API change that breaks
    # ftcbench/ fails here instead of in the benchmark pipeline.
    cmake -S ftcbench -B build-ftcbench -DCMAKE_BUILD_TYPE=Release
    cmake --build build-ftcbench --target ftcbench -j "$jobs"
  fi
done

echo "ci: all presets green"
