#!/bin/sh
# Build the harness from source, then run one trial of it.
#
#   sh bench/e2e/run.sh --workload W --seed S [--seconds N] [--trace 0|1] [--out DIR]
#
# Run from the root of the repository.  The last line printed is the
# trial's JSON summary; everything dune says goes to standard error.
set -eu
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/ape_bench.exe 1>&2
exec ./_build/default/bench/e2e/ape_bench.exe "$@"
