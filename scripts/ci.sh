#!/usr/bin/env bash
# CI entry points.
#
#   scripts/ci.sh [build-dir]      configure + build everything + smoke ctest
#                                  (the default gate; gcc or clang)
#   scripts/ci.sh --lint           project lints: scripts/lint_k2.py over the
#                                  tree, then its own unit tests and those of
#                                  scripts/bench_compare.py. No compiler
#                                  needed — runs anywhere with python3.
#   scripts/ci.sh --tidy [dir]     clang-tidy over src/ with the checked-in
#                                  .clang-tidy baseline (zero findings =
#                                  pass). Auto-detects a clang-tidy binary
#                                  (override with CLANG_TIDY=...).
#
# When ccache is installed it is used automatically (the CI jobs cache its
# directory across runs, so GoogleTest and the benches stop rebuilding from
# scratch on every push).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_lint() {
  python3 scripts/lint_k2.py
  python3 scripts/lint_k2_test.py
  python3 scripts/bench_compare_test.py
}

find_clang_tidy() {
  if [ -n "${CLANG_TIDY:-}" ]; then
    echo "$CLANG_TIDY"
    return
  fi
  local candidate
  for candidate in clang-tidy clang-tidy-20 clang-tidy-19 clang-tidy-18; do
    if command -v "$candidate" >/dev/null 2>&1; then
      echo "$candidate"
      return
    fi
  done
  echo "scripts/ci.sh --tidy: no clang-tidy binary found" \
    "(looked for clang-tidy{,-20,-19,-18}; set CLANG_TIDY=... to point at" \
    "yours)" >&2
  exit 1
}

run_tidy() {
  local build_dir="${1:-build-tidy}"
  local tidy
  tidy="$(find_clang_tidy)"
  echo "using $tidy ($("$tidy" --version | head -n1))"
  # clang-tidy needs a clang-flavored compilation database: gcc-only flags
  # poison every translation unit, so configure this dir with clang when
  # the main compiler is something else.
  local cc_args=()
  if command -v clang++ >/dev/null 2>&1; then
    cc_args+=(-DCMAKE_CXX_COMPILER=clang++)
  fi
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON -DK2_BUILD_TESTS=OFF \
    -DK2_BUILD_BENCH=OFF -DK2_BUILD_EXAMPLES=OFF \
    "${cc_args[@]}" "${LAUNCHER_ARGS[@]}"
  # The curated .clang-tidy set must stay zero-noise: any finding fails
  # (WarningsAsErrors: '*').
  local runner
  for runner in run-clang-tidy "run-clang-tidy-${tidy##*-}"; do
    if command -v "$runner" >/dev/null 2>&1; then
      "$runner" -clang-tidy-binary "$tidy" -p "$build_dir" -quiet \
        -j "$JOBS" "src/.*\.cc$"
      return
    fi
  done
  # No parallel runner installed: drive clang-tidy directly.
  find src -name '*.cc' -print0 |
    xargs -0 -P "$JOBS" -n 8 "$tidy" -p "$build_dir" --quiet
}

run_build_and_smoke() {
  local build_dir="${1:-build-ci}"
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release "${LAUNCHER_ARGS[@]}"
  cmake --build "$build_dir" -j "$JOBS"
  # Record which kernel implementations this run dispatches to (the K2_SIMD
  # env var caps the level; see src/common/simd.h).
  "$build_dir/src/k2_simd_info"
  ctest --test-dir "$build_dir" -L smoke --output-on-failure -j "$JOBS"
}

case "${1:-}" in
  --lint) run_lint ;;
  --tidy) run_tidy "${2:-}" ;;
  *)      run_build_and_smoke "${1:-}" ;;
esac
