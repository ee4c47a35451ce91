#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the failure-handling
# hot spots.
#
#   scripts/check.sh                 # tier-1 + ASan + UBSan + TSan suites
#   scripts/check.sh --no-asan       # skip the ASan pass
#   scripts/check.sh --no-tsan       # skip the TSan pass
#   scripts/check.sh --no-sanitizers # tier-1 only
#   scripts/check.sh --coverage      # also: gcov line coverage of src/
#
# The sanitizer builds live in build-asan/, build-ubsan/ and
# build-tsan/ so they never pollute the regular build directory, and
# only build the suites that exercise the risky machinery.
#   - Coverage (--coverage): the whole tree built in build-cov/ with
#     -DCMAKE_CXX_FLAGS=--coverage, every ctest suite run, then gcov's
#     per-file line coverage of src/*.cc printed lowest first (a file no
#     test reaches reads 0%), so a runtime dispatch arm or a deleted
#     mechanism's leftover that no test reaches shows up as unexecuted
#     lines. Inline code in headers is counted in the .cc files that
#     use it.
#   - ASan (mr_test, util_test, align_test, dfs_test, service_test):
#     arena lifetime bugs — views outliving a spill, combiner emits into
#     a moved arena — are exactly what ASan catches and what the plain
#     build can silently survive; the banded SIMD aligner's
#     scratch-buffer reuse and unaligned vector loads get the same
#     treatment via the differential suite. The dfs and service suites
#     cover the durability layer: journal replay over torn tails,
#     SimulateCrash teardown/rebuild, and job-log recovery all juggle
#     raw FILE* handles and buffers whose misuse ASan surfaces. The
#     compressed data path rides the same suites: the bgzf codec and its
#     torn/corrupt-block decodes (util_test), lazy-decompress merge
#     cursors whose entries die on Advance (mr_test
#     shuffle_compression_test), and compressed DFS parts under
#     quarantine/repair and crash-restart (dfs_test
#     dfs_compression_test) are all scratch-buffer-reuse machinery
#     where an overread is silent without ASan.
#   - UBSan (dfs_test, mr_test, align_test): the integrity layer's
#     checksum kernels (unaligned word loads, table folds, shift
#     combines), the fault-injection arithmetic, and the 16-bit
#     saturating DP arithmetic must be free of undefined behavior, or
#     corruption detection itself can't be trusted.
#   - TSan (util_test, mr_test, service_test, the streaming node-graph
#     suite and the DFS compression suite): the work-stealing executor
#     (per-worker deques, steal-half transfers, TaskGroup helping waits,
#     the shutdown/submit race) and the async MapReduce engine built on
#     it are lock-ordering-sensitive by design; a data race here
#     silently reorders round outputs. The service suite adds the job-manager
#     threads (runners, watchdog, heartbeat) racing admission,
#     cancellation and drain, including the multi-tenant chaos test over
#     a shared DFS. The PipelineNodeTest filter exercises the pipeline
#     node graph's pump/park state machine — one-shot queue wake-ups
#     racing the idle transition, abort racing parked callbacks — which
#     is exactly the machinery TSan exists for (util_test covers the
#     BoundedQueue underneath it). The PipelineDagTest filter runs the
#     round driver in every mode: behind a gated edge a reduce worker
#     encodes and commits its partition and fires the downstream split's
#     ReadySignal while the driver thread is still awaiting, sealing and
#     starting other rounds, so worker-side commits race the driver.
#     The DfsCompressionTest filter covers Dfs::Write's deflate fan-out:
#     a write deflates its BGZF blocks on executor workers while the
#     writing thread helps, then commits them in order.

set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
run_ubsan=1
run_tsan=1
run_coverage=0
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-sanitizers) run_asan=0; run_ubsan=0; run_tsan=0 ;;
    --coverage) run_coverage=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure --timeout 1200

if [[ "$run_asan" == 1 ]]; then
  echo "=== asan: shuffle engine + aligner + durability suites ==="
  cmake -B build-asan -S . -DGESALL_SANITIZE=address
  cmake --build build-asan -j"$(nproc)" --target mr_test util_test align_test \
    dfs_test service_test
  ./build-asan/tests/mr_test
  ./build-asan/tests/util_test
  ./build-asan/tests/align_test
  ./build-asan/tests/dfs_test
  ./build-asan/tests/service_test
fi

if [[ "$run_ubsan" == 1 ]]; then
  echo "=== ubsan: integrity + failure-model + aligner suites ==="
  cmake -B build-ubsan -S . -DGESALL_SANITIZE=undefined
  cmake --build build-ubsan -j"$(nproc)" --target dfs_test mr_test align_test
  ./build-ubsan/tests/dfs_test
  ./build-ubsan/tests/mr_test
  ./build-ubsan/tests/align_test
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== tsan: executor + mapreduce + service suites ==="
  cmake -B build-tsan -S . -DGESALL_SANITIZE=thread
  cmake --build build-tsan -j"$(nproc)" --target util_test mr_test service_test \
    gesall_test dfs_test
  ./build-tsan/tests/util_test
  ./build-tsan/tests/mr_test
  ./build-tsan/tests/dfs_test --gtest_filter='DfsCompressionTest.*'
  ./build-tsan/tests/service_test
  ./build-tsan/tests/gesall_test \
    --gtest_filter='PipelineNodeTest.*:PipelineDagTest.*'
fi

if [[ "$run_coverage" == 1 ]]; then
  echo "=== coverage: every suite, line coverage of src/ ==="
  cmake -B build-cov -S . -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j"$(nproc)"
  # Counters accumulate across runs; start from zero.
  find build-cov -name '*.gcda' -delete
  ctest --test-dir build-cov --output-on-failure --timeout 1200
  find build-cov/src -name '*.gcno' -print0 | sort -z |
    xargs -0 gcov -n 2>/dev/null |
    awk -v src="$PWD/src/" '
      /^File / { file = substr($2, 2, length($2) - 2); next }
      /^Lines executed:/ && index(file, src) == 1 && file ~ /\.cc$/ {
        split($2, pct, ":"); sub(/%/, "", pct[2])
        lines = $4; hit = pct[2] * lines / 100
        printf "%6.1f%% %6d  %s\n", pct[2], lines,
               substr(file, length(src) + 1) | "sort -n"
        total += lines; covered += hit; file = ""
      }
      END {
        close("sort -n")
        if (total == 0) { print "no coverage data for src/"; exit 1 }
        printf "%6.1f%% %6d  src/ total\n", 100 * covered / total, total
      }'
fi

echo "=== check.sh: all green ==="
