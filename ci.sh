#!/bin/sh
# Tier-1 verification, mechanically: what every PR must keep green.
# Usage: ./ci.sh
set -eu

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

echo "== ape verify (APE vs SPICE differential gate) =="
dune exec bin/ape.exe -- verify --golden test/golden

echo "== prepared-solve AC (single-point vs blocked bit-identity, dense oracle) =="
dune exec test/test_spice.exe -- test prepared

echo "== noise (adjoint vs dense oracle, panel-width bit-identity, frozen pins) =="
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
# would read thousands (counts, not timings: no flake).
dune exec bin/ape.exe -- stats --workload synth --json > /tmp/ape_stats_synth.json
awk -F'"value": *|}' '/"anneal.evaluations"/ { ev = $2 }
  /"sparse.symbolic"/ { sym = $2 }
  END {
    if (ev == "" || sym == "") { print "FAIL: synth counters missing"; exit 1 }
    if (ev + 0 != 5281) { printf "FAIL: anneal.evaluations %d != 5281\n", ev; exit 1 }
    if (sym + 0 > 3) { printf "FAIL: sparse.symbolic %d > 3\n", sym; exit 1 }
    printf "synth: anneal.evaluations %d = 5281, sparse.symbolic %d <= 3 OK\n", ev, sym
  }' /tmp/ape_stats_synth.json
rm -f /tmp/ape_stats_synth.json

echo "== observability overhead gate (<= 2% on the 181-point sweep) =="
dune exec bench/main.exe -- obs-overhead
awk -F': *|,' '/"overhead_pct"/ { pct = $2 }
  /"bit_identical"/ { bit = $2 }
  END {
    if (bit != "true") { print "FAIL: results not bit-identical"; exit 1 }
    if (pct + 0. > 2.0) { printf "FAIL: obs overhead %.2f%% > 2%%\n", pct; exit 1 }
    printf "obs overhead %.2f%% <= 2%% OK\n", pct
  }' BENCH_obs.json

echo "== ape synth determinism (3 chains: jobs 1 vs jobs 3, fixed seed) =="
# Wall time and cache hit counts legitimately vary with scheduling; every
# other line (result, evaluations, sized values) must be bit-identical
# whatever the worker count.
dune exec bin/ape.exe -- synth --gain 200 --ugf 2meg --seed 7 --chains 3 --jobs 1 \
  | grep -v '^time:' | grep -v '^cache:' > /tmp/ape_synth_jobs1.txt
dune exec bin/ape.exe -- synth --gain 200 --ugf 2meg --seed 7 --chains 3 --jobs 3 \
  | grep -v '^time:' | grep -v '^cache:' > /tmp/ape_synth_jobs3.txt
diff /tmp/ape_synth_jobs1.txt /tmp/ape_synth_jobs3.txt
rm -f /tmp/ape_synth_jobs1.txt /tmp/ape_synth_jobs3.txt

echo "== multi-chain bench (>= 2x time-to-target at 4 chains) =="
dune exec bench/main.exe -- anneal
awk -F': *|,' '/"target_reached"/ { reached = $2 }
  /"speedup"/ { speedup = $2 }
  END {
    if (reached != "true") { print "FAIL: multi-chain run missed the target cost"; exit 1 }
    if (speedup + 0. < 2.0) { printf "FAIL: multi-chain speedup %.2fx < 2x\n", speedup; exit 1 }
    printf "multi-chain speedup %.2fx >= 2x OK\n", speedup
  }' BENCH_anneal.json
echo "archived BENCH_anneal.json"

echo "== ape serve smoke (30 jobs x 2 passes through one daemon) =="
dune exec bin/ape.exe -- serve --jobs 4 \
  examples/jobs/smoke30.jobs examples/jobs/smoke30.jobs > /tmp/ape_serve_smoke.jsonl
# Exit 0 above already means no failed/unmet/overloaded record; assert it
# explicitly anyway, plus a warm cache on the second pass.
if grep -q '"status":"failed"\|"status":"parse-error"\|"status":"unmet"' \
    /tmp/ape_serve_smoke.jsonl; then
  echo "FAIL: smoke batch produced failing records"; exit 1
fi
records=$(grep -c '"schema"' /tmp/ape_serve_smoke.jsonl)
[ "$records" -eq 62 ] || { echo "FAIL: expected 62 records, got $records"; exit 1; }
hits=$(tail -n 1 /tmp/ape_serve_smoke.jsonl | sed 's/.*"cache_hits":\([0-9]*\).*/\1/')
[ "$hits" -gt 0 ] || { echo "FAIL: second pass had no cache hits"; exit 1; }
echo "smoke OK: 62 records, second-pass cache hits $hits"
rm -f /tmp/ape_serve_smoke.jsonl

echo "== ape serve determinism (fixed-seed batch, jobs 1 vs jobs 3) =="
dune exec bin/ape.exe -- serve --deterministic --jobs 1 \
  examples/jobs/determinism.jobs > /tmp/ape_serve_det1.jsonl
dune exec bin/ape.exe -- serve --deterministic --jobs 3 \
  examples/jobs/determinism.jobs > /tmp/ape_serve_det3.jsonl
diff /tmp/ape_serve_det1.jsonl /tmp/ape_serve_det3.jsonl
rm -f /tmp/ape_serve_det1.jsonl /tmp/ape_serve_det3.jsonl

echo "== serve bench (warm cache >= 2x cold-start-per-job) =="
dune exec bench/main.exe -- serve
awk -F': *|,' '/"speedup"/ { speedup = $2 }
  /"warm_cache_hit_rate"/ { rate = $2 }
  END {
    if (rate + 0. <= 0.) { print "FAIL: warm pass hit no cache"; exit 1 }
    if (speedup + 0. < 2.0) { printf "FAIL: serve speedup %.2fx < 2x\n", speedup; exit 1 }
    printf "serve warm/cold speedup %.2fx >= 2x OK\n", speedup
  }' BENCH_serve.json
echo "archived BENCH_serve.json"

echo "== blocked sweep bench (>= 2x vs per-frequency at 200 sections) =="
dune exec bench/main.exe -- sweep
awk -F': *|,' '/"blocked_speedup"/ { sp = $2 }
  /"panel_bit_identical"/ { bit = $2 }
  /"noise_sources"/ { sources = $2 }
  /"noise_adjoint_solves"/ { adj = $2 }
  END {
    if (bit != "true") { print "FAIL: panel results not bit-identical"; exit 1 }
    if (sp + 0. < 2.0) { printf "FAIL: blocked speedup %.2fx < 2x\n", sp; exit 1 }
    if (adj + 0 != 1) { printf "FAIL: %d adjoint solves at one frequency (want 1)\n", adj; exit 1 }
    if (sources + 0 < 2) { printf "FAIL: noise testbench has only %d sources\n", sources; exit 1 }
    printf "blocked %.2fx >= 2x, 1 adjoint solve for %d sources OK\n", sp, sources
  }' BENCH_sweep.json
echo "archived BENCH_sweep.json"

echo "== panel solver bit-identity (panel-vs-scalar, unstable lanes, adjoint) =="
dune exec test/test_sparse.exe -- test panel
dune exec test/test_sparse.exe -- test golden-decks

echo "== ape convert round-trip (fixpoint over the golden corpus) =="
# convert(a) -> b, convert(b) -> c: b and c must be byte-identical, and a
# clean deck must produce zero diagnostics on stderr.
for deck in test/golden/decks/*.sp examples/decks/two_stage.sp; do
  dune exec bin/ape.exe -- convert "$deck" --out /tmp/ape_conv_b.sp \
    2> /tmp/ape_conv_diag.txt
  [ -s /tmp/ape_conv_diag.txt ] && {
    echo "FAIL: $deck produced diagnostics:"; cat /tmp/ape_conv_diag.txt; exit 1; }
  dune exec bin/ape.exe -- convert /tmp/ape_conv_b.sp --out /tmp/ape_conv_c.sp
  diff /tmp/ape_conv_b.sp /tmp/ape_conv_c.sp \
    || { echo "FAIL: $deck does not reach a convert fixpoint"; exit 1; }
done
rm -f /tmp/ape_conv_b.sp /tmp/ape_conv_c.sp /tmp/ape_conv_diag.txt
echo "convert fixpoint OK"

echo "== ape convert malformed corpus (exit 1 + span diagnostics) =="
for deck in test/golden/decks/bad/*.sp; do
  if dune exec bin/ape.exe -- convert "$deck" \
      > /dev/null 2> /tmp/ape_conv_err.txt; then
    echo "FAIL: $deck was accepted"; exit 1
  fi
  grep -q "error:" /tmp/ape_conv_err.txt \
    || { echo "FAIL: $deck produced no error diagnostic"; exit 1; }
done
rm -f /tmp/ape_conv_err.txt
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
  dune exec bin/ape.exe -- "$@" > /tmp/ape_input_err.txt 2>&1 || code=$?
  [ "$code" -eq 3 ] || { echo "FAIL: $f exited $code, not 3"; exit 1; }
  grep -q '[0-9]:[0-9]' /tmp/ape_input_err.txt \
    || { echo "FAIL: $f gave no line:col"; cat /tmp/ape_input_err.txt; exit 1; }
done
for flag in "--ugf 1e400" "--ugf=-2meg"; do
  code=0
  dune exec bin/ape.exe -- opamp --gain 200 $flag > /dev/null 2>&1 || code=$?
  [ "$code" -eq 124 ] || { echo "FAIL: opamp $flag exited $code, not 124"; exit 1; }
done
rm -f /tmp/ape_input_err.txt
echo "malformed inputs OK"

echo "== subckt flattening differential (hier vs hand-flat) =="
# The flattened example deck is the exact convert output of the
# hierarchical one, and both must simulate bit-identically.
dune exec bin/ape.exe -- convert examples/decks/two_stage.sp \
  > /tmp/ape_flat_now.sp
diff examples/decks/two_stage_flat.sp /tmp/ape_flat_now.sp \
  || { echo "FAIL: checked-in flat deck is stale; regenerate with ape convert"; exit 1; }
rm -f /tmp/ape_flat_now.sp
dune exec bin/ape.exe -- sim examples/decks/two_stage.sp --out out \
  --deterministic > /tmp/ape_hier.txt
dune exec bin/ape.exe -- sim examples/decks/two_stage_flat.sp --out out \
  --deterministic > /tmp/ape_flat.txt
diff /tmp/ape_hier.txt /tmp/ape_flat.txt \
  || { echo "FAIL: hier/flat mismatch"; exit 1; }
rm -f /tmp/ape_hier.txt /tmp/ape_flat.txt
echo "hier/flat differential OK"

echo "== ape mc determinism (jobs 1 vs jobs 4) =="
dune exec bin/ape.exe -- mc opamp --gain 200 --ugf 2meg --samples 200 --jobs 1 \
  | grep -v '^Monte Carlo:' > /tmp/ape_mc_jobs1.txt
dune exec bin/ape.exe -- mc opamp --gain 200 --ugf 2meg --samples 200 --jobs 4 \
  | grep -v '^Monte Carlo:' > /tmp/ape_mc_jobs4.txt
diff /tmp/ape_mc_jobs1.txt /tmp/ape_mc_jobs4.txt
rm -f /tmp/ape_mc_jobs1.txt /tmp/ape_mc_jobs4.txt

echo "== ape calibrate determinism (8-point grid, jobs 1 vs jobs 3) =="
# The card is fitted from Pool-mapped grid samples with per-point split
# RNG streams; the printed card must be byte-identical for any worker
# count.
dune exec bin/ape.exe -- calibrate --points 8 --seed 5 --jobs 1 \
  --out /tmp/ape_card_jobs1.calib > /dev/null
dune exec bin/ape.exe -- calibrate --points 8 --seed 5 --jobs 3 \
  --out /tmp/ape_card_jobs3.calib > /dev/null
diff /tmp/ape_card_jobs1.calib /tmp/ape_card_jobs3.calib

echo "== ape verify --calibration (calibrated run against the goldens) =="
# Golden tables persist the raw estimates, so a calibrated run must
# still match them; hardening guarantees no gated attribute worsens.
dune exec bin/ape.exe -- verify --calibration /tmp/ape_card_jobs1.calib \
  --golden test/golden
rm -f /tmp/ape_card_jobs1.calib /tmp/ape_card_jobs3.calib

echo "== calibration bench (calibrated catalog error <= raw) =="
dune exec bench/main.exe -- calib
awk -F': *|,' '/"raw_max_err"/ { raw = $2 }
  /"cal_max_err"/ { cal = $2 }
  /"improved"/ { improved = $2 }
  END {
    if (cal + 0. > raw + 0.) {
      printf "FAIL: calibrated max error %.4f > raw %.4f\n", cal, raw; exit 1 }
    if (improved != "true") { print "FAIL: card did not improve the catalog"; exit 1 }
    printf "calibrated max error %.4f <= raw %.4f OK\n", cal, raw
  }' BENCH_calib.json
echo "archived BENCH_calib.json"

echo "CI OK"
