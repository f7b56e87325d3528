#!/bin/sh
# Two sets of trials of every workload on the same build, interleaved
# (trial t runs set A then B when t is odd, B then A when even, both at
# seed t), then `ape_bench compare A B`.  Same code on both sides, so
# every row should read "no worse" and each seed's output digest must
# repeat exactly.
#
#   sh bench/e2e/repeat.sh [TRIALS [SECONDS]]     (defaults: 5, 16)
#
# Run from the root of the repository; results go to
# bench/e2e/out/repeat/{A,B}.
set -eu
trials=${1:-5}
seconds=${2:-16}
out=bench/e2e/out/repeat
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/ape_bench.exe
exe=./_build/default/bench/e2e/ape_bench.exe
rm -rf "$out"
mkdir -p "$out/A" "$out/B"
t=1
while [ "$t" -le "$trials" ]; do
  if [ $((t % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
  for set in $order; do
    for w in synth verify sim serve; do
      echo "trial $t set $set: $w" >&2
      "$exe" run --workload "$w" --seed "$t" --seconds "$seconds" --out "$out/$set" >/dev/null
    done
  done
  t=$((t + 1))
done
exec "$exe" compare "$out/A" "$out/B"
