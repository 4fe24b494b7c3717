#!/usr/bin/env bash
# Sanitizer matrix for the fifl tree. Each lane configures an out-of-tree
# build with -fsanitize=<kind> and runs the appropriate test selection:
#
#   address    full ctest suite under ASan (heap/stack/UAF bugs anywhere),
#              then the `kernels`-labelled suites again under
#              FIFL_KERNEL_ISA=scalar (scalar kernels, portable SHA-256,
#              table CRC-32)
#   undefined  the same two runs under UBSan (signed overflow, misaligned
#              loads, invalid enum casts in the codec paths)
#   thread     ctest -L "net|chain|obs|core" under TSan (the net stack is
#              all threads and condition variables, and the chain suites
#              cover the replicated-ledger commit protocol those threads
#              drive; the net label also pulls in the lead-failover
#              suite — election, executor rotation, rejoin-by-replay —
#              whose cross-thread handoffs are exactly what TSan is for;
#              the obs label covers the metrics/span/flight-recorder
#              sinks that every net thread writes into, i.e. the mutexes
#              the R6-R9 lint rules and the Clang thread-safety
#              annotations now document; the core label covers every
#              suite that reaches the thread pool: the pool's own
#              suite with its InlineScope, FiflEngine's
#              assessment path, whose detection, contribution,
#              aggregation and ledger digests run as pool tasks, the
#              trainer that drives it, the simulator's per-worker
#              training tasks and the robust aggregators' parallel_for;
#              other single-threaded suites add nothing)
#   matrix     all three lanes in sequence (address, undefined, thread)
#
# Usage: scripts/ci_sanitize.sh [lane]
#   lane: thread (default, backward compatible with the sanitize_net
#         target) | address | undefined | matrix
#   BUILD_DIR overrides the build tree (default: build-<lane>); ignored
#   for matrix, which always uses build-<lane> per lane.
#
# Also reachable as build targets: `cmake --build build --target
# sanitize_net` (thread lane) and `--target sanitize_all` (matrix).
set -euo pipefail

LANE="${1:-thread}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

run_lane() {
  local sanitizer="$1"
  local build_dir="${2:-$ROOT/build-$sanitizer}"

  echo "== configure ($sanitizer sanitizer) -> $build_dir =="
  # Bench/examples stay off: the full-suite lanes cover every gtest binary
  # plus the lint gate, and sanitized google-benchmark links add minutes
  # of build for no extra coverage.
  cmake -B "$build_dir" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFIFL_SANITIZE="$sanitizer" \
    -DFIFL_BUILD_BENCH=OFF \
    -DFIFL_BUILD_EXAMPLES=OFF

  echo "== build ($sanitizer) =="
  cmake --build "$build_dir" -j "$(nproc)"

  # Sanitized event loops run several times slower than native; scale the
  # per-test timeouts up rather than loosening them for everyone.
  case "$sanitizer" in
    thread)
      echo '== ctest -L "net|chain|obs|core" (thread) =='
      ctest --test-dir "$build_dir" -L "net|chain|obs|core" --output-on-failure \
        --no-tests=error --timeout 1200 -j 2
      ;;
    address|undefined)
      echo "== full ctest ($sanitizer) =="
      ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir "$build_dir" --output-on-failure \
        --no-tests=error --timeout 1200 -j "$(nproc)"
      # Forced-scalar kernel leg: on AVX2 hosts the default dispatch never
      # executes the scalar mirrors' hot loops in the math-heavy suites, so
      # re-run them with FIFL_KERNEL_ISA=scalar to keep both backends under
      # the sanitizer (test_kernels itself compares the two ISAs directly).
      # The same override selects the portable SHA-256 compression and the
      # table CRC-32, which test_sha256 and test_net_frame (also labelled
      # `kernels`) then run end to end.
      # The suites carry the `kernels` ctest label (tests/CMakeLists.txt);
      # --no-tests=error fails the lane if the selection ever comes up empty.
      echo "== kernel suites under FIFL_KERNEL_ISA=scalar ($sanitizer) =="
      FIFL_KERNEL_ISA=scalar \
        ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir "$build_dir" --output-on-failure --timeout 1200 \
        --no-tests=error -L kernels -j "$(nproc)"
      ;;
  esac
  echo "ci_sanitize: OK ($sanitizer)"
}

case "$LANE" in
  thread|address|undefined)
    run_lane "$LANE" "${BUILD_DIR:-$ROOT/build-$LANE}"
    ;;
  matrix)
    for sanitizer in address undefined thread; do
      run_lane "$sanitizer"
    done
    echo "ci_sanitize: OK (matrix)"
    ;;
  *)
    echo "ci_sanitize: unknown lane '$LANE' (want thread|address|undefined|matrix)" >&2
    exit 2
    ;;
esac
