#!/bin/sh
# Builds the benchmark from source and runs it, passing the arguments on:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
