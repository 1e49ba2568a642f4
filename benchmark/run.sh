#!/bin/sh
# Build the benchmark and the discoctl binary it drives from this
# checkout, then run the benchmark with the given arguments. Build output
# goes to stderr, so the last line on stdout is the benchmark's result.
set -e
dune build --root . ./benchmark/disco_bench.exe ./bin/discoctl.exe 1>&2
exec ./_build/default/benchmark/disco_bench.exe "$@"
