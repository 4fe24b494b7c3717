#!/usr/bin/env bash
# Static-analysis entry point: everything that catches bugs without
# running the programs.
#
#   1. fifl-lint        repo determinism/hygiene rules R1-R3 and R5 (DESIGN.md
#                       "Determinism invariants") plus the concurrency
#                       rules R6-R9 (DESIGN.md "Concurrency discipline");
#                       builds the linter if needed, then lints the tree
#                       including per-header compile checks, and audits
#                       every waiver for a justification.
#   2. FIFL_WERROR      the default build already carries
#                       -Wall -Wextra -Wpedantic -Wshadow -Wconversion
#                       -Wdouble-promotion -Werror; this script asserts a
#                       from-scratch configure+build stays warning-clean.
#   3. clang-tidy       bugprone-*/performance-*/naming profile from
#                       .clang-tidy, over src/ and tools/ — skipped with a
#                       notice when clang-tidy is not installed.
#   4. thread-safety    Clang Thread Safety Analysis (-Werror=thread-safety)
#                       over the annotated net/obs/util sources; the
#                       FIFL_GUARDED_BY/FIFL_REQUIRES macros in
#                       src/util/thread_annotations.hpp expand to real
#                       attributes only under clang, so this lane is
#                       skipped with a notice when clang++ is not
#                       installed (gcc builds see no-ops).
#
# Usage: scripts/ci_static.sh [build-dir]
#   build-dir defaults to build-static (out of tree, left around for
#   incremental reruns).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-static}"

echo "== configure (FIFL_WERROR=ON) -> $BUILD_DIR =="
cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFIFL_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== warnings-as-errors build =="
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== fifl-lint =="
CXX_BIN="$(grep -m1 'CMAKE_CXX_COMPILER:' "$BUILD_DIR/CMakeCache.txt" \
  | cut -d= -f2)"
"$BUILD_DIR/tools/lint/fifl-lint" --root "$ROOT" --cxx "${CXX_BIN:-c++}" \
  --json "$BUILD_DIR/fifl_lint_report.json"

echo "== fifl-lint --audit-waivers =="
"$BUILD_DIR/tools/lint/fifl-lint" --root "$ROOT" --no-headers --audit-waivers

if command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy =="
  # Headers are covered transitively via HeaderFilterRegex.
  find "$ROOT/src" "$ROOT/tools" -name '*.cpp' -print0 \
    | xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "$BUILD_DIR" --quiet
else
  echo "ci_static: clang-tidy not installed, lane skipped"
fi

if command -v clang++ > /dev/null 2>&1; then
  echo "== clang thread-safety analysis =="
  # Syntax-only pass: the TSA attributes live in headers, so compiling
  # the .cpp files pulls every annotated class through the analysis.
  find "$ROOT/src/net" "$ROOT/src/obs" "$ROOT/src/util" -name '*.cpp' \
    -print0 | xargs -0 -n 1 clang++ -std=c++20 -fsyntax-only \
    -I "$ROOT/src" -Wthread-safety -Werror=thread-safety
  echo "ci_static: thread-safety lane clean"
else
  echo "ci_static: clang++ not installed, thread-safety lane skipped"
fi

echo "ci_static: OK"
