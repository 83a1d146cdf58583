#!/usr/bin/env bash
# Build bm.exe (release profile, into .bench_build) and run it with the
# given arguments, from the root of a source checkout:
#
#   bash bench/suite/run.sh --workload serve-read --seed 7 --seconds 20 --trace 0
#   bash bench/suite/run.sh compare BASE_DIR NEW_DIR
#
# The build's own output goes to stderr, so the last stdout line is the
# benchmark's result.
set -euo pipefail
build_dir=.bench_build
dune build --root . --build-dir "$build_dir" --profile release \
  ./bench/suite/bm.exe >&2
exec "$build_dir/default/bench/suite/bm.exe" "$@"
