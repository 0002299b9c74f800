#!/usr/bin/env bash
# hartlint driver — runs every discipline check that the host toolchain
# supports, degrading gracefully (visible warning, not failure) when a
# layer's dependencies are missing:
#
#   1. hartlint.py        heuristic engine, HL001-HL004 + PL001-PL003
#                         (always runs; only needs python3)
#   2. clang -Werror=thread-safety
#                         whole-tree TSA build over src/ (skipped with a
#                         warning when no clang++ is on PATH)
#
# Usage: run.sh [BUILD_DIR]        (default BUILD_DIR: build)
# Exit: non-zero iff a layer that DID run found a violation.
set -u

REPO_ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
cd "$REPO_ROOT"

status=0
warn() { echo "hartlint/run.sh: WARNING: $*" >&2; }

# ---- 1. heuristic engine (authoritative gate) -----------------------------
if command -v python3 >/dev/null 2>&1; then
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    python3 tools/hartlint/hartlint.py \
        --compdb "$BUILD_DIR/compile_commands.json" || status=1
  else
    warn "no compile_commands.json in $BUILD_DIR — linting src/ tests/ bench/ tools/ directly"
    python3 tools/hartlint/hartlint.py src tests bench tools/hartlint/goodcase || status=1
  fi
else
  warn "python3 not found — the hartlint heuristic engine DID NOT RUN"
  status=1  # the authoritative layer must not be silently skipped
fi

# ---- 2. clang thread-safety build -----------------------------------------
if command -v clang++ >/dev/null 2>&1; then
  TSA_DIR="$BUILD_DIR/hartlint-tsa"
  echo "hartlint/run.sh: clang thread-safety build -> $TSA_DIR"
  if cmake -B "$TSA_DIR" -S "$REPO_ROOT" \
        -DCMAKE_CXX_COMPILER=clang++ -DHART_THREAD_SAFETY=ON \
        >/dev/null 2>&1; then
    cmake --build "$TSA_DIR" --target hart_core -j "$(nproc)" || status=1
  else
    warn "clang++ found but CMake configure failed — thread-safety build skipped"
  fi
else
  warn "clang++ not on PATH — -Werror=thread-safety build skipped" \
       "(CI runs it in the clang-thread-safety job)"
fi

if [ "$status" -eq 0 ]; then
  echo "hartlint/run.sh: all available layers clean"
else
  echo "hartlint/run.sh: FAILURES above" >&2
fi
exit "$status"
