#!/usr/bin/env bash
# Builds chortle_suite from this checkout's sources (Release, under
# ${CARGO_TARGET_DIR:-.bench_build}/suite) and runs it with the given
# arguments. Run from the repository root:
#   bash bench/suite/run.sh --workload table2_flow --seed 1 --seconds 16 --trace 0
# Build output goes to stderr, so the suite's result stays the last line
# of stdout. A failed build exits non-zero before anything is printed.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}/suite"
mkdir -p "$build"
jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi
(
  # One build at a time per build tree.
  flock 9
  # Configure once; later builds re-run it themselves when a CMake file
  # changes.
  if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
    cmake -S bench/suite -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" -j "$jobs" >&2
) 9>"$build/.lock"
exec "$build/chortle_suite" "$@"
