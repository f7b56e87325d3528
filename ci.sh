#!/bin/sh
# Tier-1 verification, mechanically: what every PR must keep green.
# Usage: ./ci.sh
set -eu

# Scratch files live in one private directory, removed however the
# script exits.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== library surface (every lib export has a production caller or a listed reason) =="
# @check writes the executables' .cmt files that the cross-reference
# reads; the tool fails on an unlisted caller-less export or label and
# on a stale line of test/surface/allowlist.
dune build @check
dune exec test/surface/surface.exe

echo "== ape verify (APE vs SPICE differential gate) =="
dune exec bin/ape.exe -- verify --golden test/golden

echo "== prepared-solve AC (single-point vs blocked bit-identity, dense oracle) =="
dune exec test/test_spice.exe -- test prepared

echo "== noise (adjoint vs dense oracle, one adjoint for all sources, panel-vs-scalar bit-identity, frozen pins) =="
dune exec test/test_spice.exe -- test noise

echo "== observability bit-identity (obs on/off) =="
dune exec test/test_obs.exe -- test bit-identity

echo "== ape stats --json CI artifact (verify workload; synth counts) =="
dune exec bin/ape.exe -- stats --workload verify --quick --json > ape_stats.json
grep -q '"schema": "ape-obs/1"' ape_stats.json
echo "wrote ape_stats.json"
# Newton iteration counts of this workload are deterministic: the
# ceilings are the counts before the device Jacobian became analytic
# (counts, not timings, so the gate cannot flake).  The transient step
# ceiling is the count once the comparator bench stopped at its first
# mid-rail crossing: losing that stop shows as 1700 steps.
awk -F'"value": *|}' '/"dc.newton_iters"/ { dc = $2 }
  /"transient.newton_iters"/ { tr = $2 }
  /"transient.steps"/ { steps = $2 }
  END {
    if (dc == "" || tr == "" || steps == "") {
      print "FAIL: Newton or step counters missing"; exit 1 }
    if (dc + 0 > 2132) { printf "FAIL: dc.newton_iters %d > 2132\n", dc; exit 1 }
    if (tr + 0 > 2504) { printf "FAIL: transient.newton_iters %d > 2504\n", tr; exit 1 }
    if (steps + 0 > 936) { printf "FAIL: transient.steps %d > 936\n", steps; exit 1 }
    printf "Newton iterations: dc %d <= 2132, transient %d <= 2504; transient.steps %d <= 936 OK\n", dc, tr, steps
  }' ape_stats.json
# Each DC solve either records the stamp slots in a new index or takes
# its caller's (a servo's later probes, counted as dc.index_reuses), and
# every analysis on that operating point replays them; an analysis that
# records its own shows as engine.plans + dc.index_reuses > dc.solves
# (a count, so the gate cannot flake).
awk -F'"value": *|}' '/"engine.plans"/ { plans = $2 }
  /"dc.index_reuses"/ { reuses = $2 }
  /"dc.solves"/ { solves = $2 }
  END {
    if (plans == "" || reuses == "" || solves == "") {
      print "FAIL: plan counters missing"; exit 1 }
    if (plans + reuses != solves + 0) {
      printf "FAIL: engine.plans %d + dc.index_reuses %d != dc.solves %d\n", plans, reuses, solves; exit 1 }
    printf "stamp slots: engine.plans %d + dc.index_reuses %d = dc.solves %d OK\n", plans, reuses, solves
  }' ape_stats.json
# The synth workload's counts are deterministic too.  Any cost value
# that moves by one bit changes the annealing path, and with it the
# evaluation count.  The relaxed cost factors G densely in place, so
# the workload's fresh sparse factorisations are the final
# measurements' alone: a cost that went back to one per candidate
# would read thousands (counts, not timings: no flake).  Every
# evaluation goes through the estimate cache once, and its hit count
# pins the cache's key rule: a different grid or key moves it.
dune exec bin/ape.exe -- stats --workload synth --json > "$tmp/stats_synth.json"
awk -F'"value": *|}' '/"anneal.evaluations"/ { ev = $2 }
  /"sparse.symbolic"/ { sym = $2 }
  /"est_cache.hits"/ { hits = $2 }
  /"est_cache.misses"/ { misses = $2 }
  END {
    if (ev == "" || sym == "" || hits == "" || misses == "") {
      print "FAIL: synth counters missing"; exit 1 }
    if (ev + 0 != 5281) { printf "FAIL: anneal.evaluations %d != 5281\n", ev; exit 1 }
    if (sym + 0 > 3) { printf "FAIL: sparse.symbolic %d > 3\n", sym; exit 1 }
    if (hits + 0 != 2073) { printf "FAIL: est_cache.hits %d != 2073\n", hits; exit 1 }
    if (hits + misses != ev + 0) {
      printf "FAIL: est_cache.hits %d + misses %d != anneal.evaluations %d\n", hits, misses, ev; exit 1 }
    printf "synth: anneal.evaluations %d = 5281 = est_cache.hits %d + misses %d, sparse.symbolic %d <= 3 OK\n", ev, hits, misses, sym
  }' "$tmp/stats_synth.json"

echo "== ape synth determinism (3 chains: jobs 1 vs jobs 3, fixed seed) =="
# Wall time and cache hit counts legitimately vary with scheduling; every
# other line (result, evaluations, sized values) must be bit-identical
# whatever the worker count.
dune exec bin/ape.exe -- synth --gain 200 --ugf 2meg --seed 7 --chains 3 --jobs 1 \
  | grep -v '^time:' | grep -v '^cache:' > "$tmp/synth_jobs1.txt"
dune exec bin/ape.exe -- synth --gain 200 --ugf 2meg --seed 7 --chains 3 --jobs 3 \
  | grep -v '^time:' | grep -v '^cache:' > "$tmp/synth_jobs3.txt"
diff "$tmp/synth_jobs1.txt" "$tmp/synth_jobs3.txt"

echo "== ape serve smoke (30 jobs x 2 passes through one daemon) =="
dune exec bin/ape.exe -- serve --jobs 4 \
  examples/jobs/smoke30.jobs examples/jobs/smoke30.jobs > "$tmp/serve_smoke.jsonl"
# Exit 0 above already means no failed/unmet/overloaded record; assert it
# explicitly anyway, plus a warm cache on the second pass.
if grep -q '"status":"failed"\|"status":"parse-error"\|"status":"unmet"' \
    "$tmp/serve_smoke.jsonl"; then
  echo "FAIL: smoke batch produced failing records"; exit 1
fi
records=$(grep -c '"schema"' "$tmp/serve_smoke.jsonl")
[ "$records" -eq 62 ] || { echo "FAIL: expected 62 records, got $records"; exit 1; }
hits=$(tail -n 1 "$tmp/serve_smoke.jsonl" | sed 's/.*"cache_hits":\([0-9]*\).*/\1/')
[ "$hits" -gt 0 ] || { echo "FAIL: second pass had no cache hits"; exit 1; }
echo "smoke OK: 62 records, second-pass cache hits $hits"

echo "== ape serve determinism (fixed-seed batch, jobs 1 vs jobs 3) =="
dune exec bin/ape.exe -- serve --deterministic --jobs 1 \
  examples/jobs/determinism.jobs > "$tmp/serve_det1.jsonl"
dune exec bin/ape.exe -- serve --deterministic --jobs 3 \
  examples/jobs/determinism.jobs > "$tmp/serve_det3.jsonl"
diff "$tmp/serve_det1.jsonl" "$tmp/serve_det3.jsonl"

echo "== panel solver bit-identity (panel-vs-scalar, unstable lanes, adjoint) =="
dune exec test/test_sparse.exe -- test panel
dune exec test/test_sparse.exe -- test golden-decks

echo "== ape convert round-trip (fixpoint over the golden corpus) =="
# convert(a) -> b, convert(b) -> c: b and c must be byte-identical, and a
# clean deck must produce zero diagnostics on stderr.
for deck in test/golden/decks/*.sp examples/decks/two_stage.sp; do
  dune exec bin/ape.exe -- convert "$deck" --out "$tmp/conv_b.sp" \
    2> "$tmp/conv_diag.txt"
  [ -s "$tmp/conv_diag.txt" ] && {
    echo "FAIL: $deck produced diagnostics:"; cat "$tmp/conv_diag.txt"; exit 1; }
  dune exec bin/ape.exe -- convert "$tmp/conv_b.sp" --out "$tmp/conv_c.sp"
  diff "$tmp/conv_b.sp" "$tmp/conv_c.sp" \
    || { echo "FAIL: $deck does not reach a convert fixpoint"; exit 1; }
done
echo "convert fixpoint OK"

echo "== ape convert malformed corpus (exit 1 + span diagnostics) =="
for deck in test/golden/decks/bad/*.sp; do
  if dune exec bin/ape.exe -- convert "$deck" \
      > /dev/null 2> "$tmp/conv_err.txt"; then
    echo "FAIL: $deck was accepted"; exit 1
  fi
  grep -q "error:" "$tmp/conv_err.txt" \
    || { echo "FAIL: $deck produced no error diagnostic"; exit 1; }
done
echo "malformed corpus OK"

echo "== malformed input corpus (exit 3 + line:col diagnostics) =="
# Each file of test/golden/inputs/bad through the command that reads its
# format must exit 3 and name its line:col; a flag that the same number
# rule rejects is a usage error, 124 (exit codes: the step cannot flake).
for f in test/golden/inputs/bad/*; do
  case "$f" in
    *.jobs) set -- serve --deterministic "$f" ;;
    *.grid) set -- calibrate "$f" --out /dev/null ;;
    *.calib) set -- verify --calibration "$f" --level device --no-golden ;;
    *.scm) set -- vase "$f" ;;
    *) continue ;;
  esac
  code=0
  dune exec bin/ape.exe -- "$@" > "$tmp/input_err.txt" 2>&1 || code=$?
  [ "$code" -eq 3 ] || { echo "FAIL: $f exited $code, not 3"; exit 1; }
  grep -q '[0-9]:[0-9]' "$tmp/input_err.txt" \
    || { echo "FAIL: $f gave no line:col"; cat "$tmp/input_err.txt"; exit 1; }
done
for flag in "--ugf 1e400" "--ugf=-2meg"; do
  code=0
  dune exec bin/ape.exe -- opamp --gain 200 $flag > /dev/null 2>&1 || code=$?
  [ "$code" -eq 124 ] || { echo "FAIL: opamp $flag exited $code, not 124"; exit 1; }
done
echo "malformed inputs OK"

echo "== subckt flattening differential (hier vs hand-flat) =="
# The flattened example deck is the exact convert output of the
# hierarchical one, and both must simulate bit-identically.
dune exec bin/ape.exe -- convert examples/decks/two_stage.sp \
  > "$tmp/flat_now.sp"
diff examples/decks/two_stage_flat.sp "$tmp/flat_now.sp" \
  || { echo "FAIL: checked-in flat deck is stale; regenerate with ape convert"; exit 1; }
dune exec bin/ape.exe -- sim examples/decks/two_stage.sp --out out \
  --deterministic > "$tmp/hier.txt"
dune exec bin/ape.exe -- sim examples/decks/two_stage_flat.sp --out out \
  --deterministic > "$tmp/flat.txt"
diff "$tmp/hier.txt" "$tmp/flat.txt" \
  || { echo "FAIL: hier/flat mismatch"; exit 1; }
echo "hier/flat differential OK"

echo "== ape mc determinism (jobs 1 vs jobs 4) =="
dune exec bin/ape.exe -- mc opamp --gain 200 --ugf 2meg --samples 200 --jobs 1 \
  | grep -v '^Monte Carlo:' > "$tmp/mc_jobs1.txt"
dune exec bin/ape.exe -- mc opamp --gain 200 --ugf 2meg --samples 200 --jobs 4 \
  | grep -v '^Monte Carlo:' > "$tmp/mc_jobs4.txt"
diff "$tmp/mc_jobs1.txt" "$tmp/mc_jobs4.txt"

echo "== ape calibrate determinism (8-point grid, jobs 1 vs jobs 3) =="
# The card is fitted from Pool-mapped grid samples with per-point split
# RNG streams; the printed card must be byte-identical for any worker
# count.
dune exec bin/ape.exe -- calibrate --points 8 --seed 5 --jobs 1 \
  --out "$tmp/card_jobs1.calib" > /dev/null
dune exec bin/ape.exe -- calibrate --points 8 --seed 5 --jobs 3 \
  --out "$tmp/card_jobs3.calib" > /dev/null
diff "$tmp/card_jobs1.calib" "$tmp/card_jobs3.calib"

echo "== ape verify --calibration (calibrated run against the goldens) =="
# Golden tables persist the raw estimates, so a calibrated run must
# still match them; hardening guarantees no gated attribute worsens.
dune exec bin/ape.exe -- verify --calibration "$tmp/card_jobs1.calib" \
  --golden test/golden

echo "== benchmark gates (obs overhead, blocked sweep, multi-chain, serve, calibration) =="
# Each timing gate runs 7 trials of interleaved A/B block pairs and
# judges its threshold on the unfavourable quartile (the second-worst
# trial), so one slow stretch of a shared box never decides it; the
# command exits 1 if any gate fails.
dune exec bench/main.exe -- gate

echo "CI OK"
