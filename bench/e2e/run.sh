#!/bin/sh
# Builds the benchmark from source in the checkout it is started from (the
# repository root) and runs it with the given arguments, e.g.
#   sh bench/e2e/run.sh --workload std-usr --seed 1 --seconds 10 --trace 0
# The dune cache is off so the build writes only under _build/.
exec dune exec --root . --display quiet --no-print-directory --cache disabled \
  ./bench/e2e/bench_e2e.exe -- "$@"
