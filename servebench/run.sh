#!/usr/bin/env bash
# Build the serving benchmark from the sources of this checkout and run it.
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output, the compiler's temporary
# files and the run's working files (WAL stores, span dumps) all go under
# $CARGO_TARGET_DIR (default .bench_build); build messages go to stderr so
# the result line stays last on stdout.
set -euo pipefail

build_dir=${CARGO_TARGET_DIR:-.bench_build}
case $build_dir in /*) ;; *) build_dir=$PWD/$build_dir ;; esac
mkdir -p "$build_dir/tmp"
export TMPDIR=$build_dir/tmp
dune build --root . --build-dir "$build_dir" --profile release --cache=disabled \
  ./servebench/main.exe >&2
exec "$build_dir/default/servebench/main.exe" --data-dir "$build_dir/servebench-data" "$@"
