#!/usr/bin/env bash
# Per-PR machine check. Modes mirror the CI jobs (.github/workflows/ci.yml):
#
#   tier-1  build (warnings as errors) + full test suite
#   tsan    ThreadSanitizer build of the concurrency-related tests
#   ubsan   UndefinedBehaviorSanitizer build + full test suite
#   asan    AddressSanitizer build (the `asan` preset) + full test suite
#   lint    scripts/lint.py (+ its self-test) and clang-tidy over
#           compile_commands.json when clang-tidy is installed
#   audit   GPSSN_AUDIT build (index validators at processor construction,
#           abort-on-violation pruning auditor) + full test suite
#   tsa     Clang Thread-Safety Analysis build (GPSSN_THREAD_SAFETY=ON:
#           -Wthread-safety[-beta] as errors over the capability
#           annotations of src/common/sync.h) + the TSA compile-fail test
#   analyzer  Clang Static Analyzer (clang-tidy clang-analyzer-* +
#           concurrency-* as errors) over the compile database
#   perfbench  end-to-end benchmark smoke: perfbench/run.py on uni-ch and
#           zipf-maint (seed 1, 1 s), untraced and traced. Any non-zero exit
#           fails it: a failed build, a failed answer check or a timeout. It
#           gates that the benchmark compiles and answers correctly, not its
#           numbers. NOT part of the default mode.
#   large   continental-scale tests (ctest label `large`, e.g. the 10^5+
#           vertex CH build and its sweep engine checked against
#           Dijkstra): builds tier-1 and runs `ctest -L large` with
#           GPSSN_LARGE_TESTS=1. NOT part of the default mode — run
#           explicitly or let the dedicated CI job do it.
#
# Usage: scripts/check.sh
#          [--tier1-only|--tsan-only|--ubsan-only|--asan-only|--lint-only|
#           --audit-only|--tsa-only|--analyzer-only|--large-only|
#           --perfbench-only]
#
# `--lint-only` is the static-analysis gate: lint.py, clang-tidy (when
# available), and a UBSan test pass. The default (no flag) runs everything.
# The tsa and analyzer modes need Clang; when clang++ / clang-tidy is not
# installed they skip with a notice (CI installs Clang for its jobs).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${1:-all}"
case "$MODE" in
  all|--tier1-only|--tsan-only|--ubsan-only|--asan-only|--lint-only|--audit-only|--tsa-only|--analyzer-only|--large-only|--perfbench-only) ;;
  *)
    echo "usage: scripts/check.sh [--tier1-only|--tsan-only|--ubsan-only|--asan-only|--lint-only|--audit-only|--tsa-only|--analyzer-only|--large-only|--perfbench-only]" >&2
    exit 2
    ;;
esac

run_tier1() {
  echo "=== tier-1: build + full test suite ==="
  # Warnings are errors, as in the CI tier1 job.
  cmake -B build -S . -DGPSSN_WERROR=ON
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")
}

run_tsan() {
  echo "=== TSAN: concurrency-related tests ==="
  cmake -B build-tsan -S . -DGPSSN_SANITIZE=thread
  # Only the TSAN-relevant test binaries (ctest label `tsan`, listed once in
  # tests/CMakeLists.txt) are built, keeping the check fast.
  cmake --build build-tsan -j "$JOBS" --target gpssn_tsan_tests
  (cd build-tsan && ctest --output-on-failure -L '^tsan$')
}

run_ubsan() {
  echo "=== UBSAN: full test suite ==="
  cmake -B build-ubsan -S . -DGPSSN_SANITIZE=undefined
  cmake --build build-ubsan -j "$JOBS"
  (cd build-ubsan && ctest --output-on-failure -j "$JOBS")
}

run_asan() {
  echo "=== ASAN: full test suite ==="
  cmake --preset asan
  cmake --build --preset asan -j "$JOBS"
  # The full suite, not the asan test preset's `tsan`-label subset.
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

run_lint() {
  echo "=== lint: scripts/lint.py ==="
  python3 scripts/lint.py
  python3 scripts/lint.py --self-test
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "=== lint: clang-tidy ==="
    # The default build always exports compile_commands.json
    # (CMAKE_EXPORT_COMPILE_COMMANDS is on in the top-level CMakeLists).
    cmake -B build -S . > /dev/null
    mapfile -t tidy_files < <(git ls-files 'src/*.cc' 'src/**/*.cc')
    clang-tidy -p build --quiet "${tidy_files[@]}"
  else
    echo "clang-tidy not installed; skipping (checks configured in .clang-tidy)"
  fi
}

run_tsa() {
  echo "=== TSA: Clang Thread-Safety Analysis build ==="
  if ! command -v clang++ > /dev/null 2>&1; then
    echo "clang++ not installed; skipping TSA build (annotations are no-ops off-Clang)"
    return 0
  fi
  cmake -B build-tsa-check -S . -DGPSSN_THREAD_SAFETY=ON \
    -DCMAKE_CXX_COMPILER=clang++
  cmake --build build-tsa-check -j "$JOBS"
  # The compile-fail smoke test proves the analysis actually rejects an
  # unguarded access (a misconfigured toolchain that silently drops the
  # warnings would otherwise pass vacuously).
  (cd build-tsa-check && ctest --output-on-failure -R gpssn_common_tsa_compile_fail)
}

run_analyzer() {
  echo "=== analyzer: clang-tidy clang-analyzer-* + concurrency-* ==="
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "clang-tidy not installed; skipping static analyzer pass"
    return 0
  fi
  cmake -B build -S . > /dev/null
  mapfile -t tidy_files < <(git ls-files 'src/*.cc' 'src/**/*.cc')
  clang-tidy -p build --quiet \
    --checks='-*,clang-analyzer-core.*,clang-analyzer-cplusplus.*,concurrency-*' \
    --warnings-as-errors='*' "${tidy_files[@]}"
}

run_large() {
  echo "=== large: continental-scale tests (ctest -L large) ==="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  # GPSSN_LARGE_TESTS=1 arms the tests (they GTEST_SKIP without it);
  # GPSSN_LARGE_TESTS_SIDE scales the grid (default 400 -> 160k vertices,
  # 1000 -> 10^6) so CI can trade coverage against wall time.
  (cd build && GPSSN_LARGE_TESTS=1 ctest --output-on-failure -L large)
}

run_perfbench() {
  echo "=== perfbench: end-to-end benchmark smoke ==="
  for workload in uni-ch zipf-maint; do
    for trace in 0 1; do
      python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace "$trace"
    done
  done
}

run_audit() {
  echo "=== audit: GPSSN_AUDIT build + full test suite ==="
  cmake -B build-audit -S . -DGPSSN_AUDIT=ON
  cmake --build build-audit -j "$JOBS"
  (cd build-audit && ctest --output-on-failure -j "$JOBS")
}

case "$MODE" in
  all)
    run_tier1
    run_tsan
    run_ubsan
    run_asan
    run_lint
    run_audit
    run_tsa
    run_analyzer
    ;;
  --tier1-only) run_tier1 ;;
  --tsan-only) run_tsan ;;
  --ubsan-only) run_ubsan ;;
  --asan-only) run_asan ;;
  --lint-only)
    run_lint
    run_ubsan
    ;;
  --audit-only) run_audit ;;
  --large-only) run_large ;;
  --perfbench-only) run_perfbench ;;
  --tsa-only) run_tsa ;;
  --analyzer-only) run_analyzer ;;
esac

echo "OK"
