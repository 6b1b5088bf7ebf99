#!/usr/bin/env bash
# Process-level chaos smoke for the self-healing distributed runtime
# (DESIGN.md "Supervision & self-healing"): real worker processes are
# SIGKILLed or wedged mid-run via per-rank failpoint schedules, and
# `--supervise=restart` must heal every fault with merged output
# byte-identical to an unfaulted run.
#
#   1. kill+heal    : rank 2 raises SIGKILL mid-stream (re-armed by every
#                    respawned incarnation — a crash loop); the supervisor
#                    converges via committed checkpoints and the CSVs match
#                    the single-process reference exactly
#   2. hang+heal    : rank 1 stops sending (events and heartbeats) and must
#                    be detected by heartbeat silence, killed and respawned
#   3. cpgt + heal  : a supervised kill run writing the binary trace format
#                    still converts to the reference CSVs byte-identically
#   4. scenario heal: churn + migration spec, kill, supervise -> identical
#   5. budget       : --supervise=restart:1 against a crash-looping rank
#                    must fail with a one-line budget-exhaustion error
#   6. fail-fast    : without --supervise a kill still aborts the run
#                    naming the rank (the pre-supervision contract)
#   7. SIGTERM      : a graceful stop cuts a final checkpoint, leaves no
#                    .tmp litter, exits 128+15, and --resume completes the
#                    exact reference output (single-process + distributed)
#   8. salvage      : a cpgt file torn mid-block recovers its valid prefix
#                    with trace_cat salvage
#   9. piped model  : the model arrives through a pipe (--model /dev/stdin),
#                    which drives the loader's read fallback; every other
#                    run maps the model file
#
# A heal without checkpoints (replay-from-scratch) is covered in-process by
# Supervision.HealWithoutCheckpointDirReplaysFromScratch: an env-armed kill
# re-fires in every respawned incarnation at the same site, so without a
# committed watermark to advance past it a process-level run can only
# crash-loop into the budget.
#
# Every run loads the same pre-fitted model file: worker startup is then
# milliseconds, which keeps frame-counted failpoint schedules (and the
# heartbeat-silence hang below) deterministic across build flavors.
#
# Usage: scripts/chaos_smoke.sh [build-dir]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
GEN="$BUILD_DIR/stream_gen"
CAT="$BUILD_DIR/trace_cat"
FIT="$BUILD_DIR/examples/traffgen"
for BIN in "$GEN" "$CAT" "$FIT"; do
  if [[ ! -x "$BIN" ]]; then
    echo "chaos_smoke: $BIN not found (build first, or pass the build dir)" >&2
    exit 2
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Every run is capped: a supervision bug that hangs the coordinator must be
# a failure, not a stuck CI job. Sanitizer builds are slow; be generous.
RUN="timeout 300"

echo "== fit a model once so every process (workers included) starts fast"
$RUN "$GEN" --phones 200 --hours 2 --seed 7 --out "$WORK/gt"
$RUN "$FIT" fit --trace "$WORK/gt" --model "$WORK/m.cpgm"

ARGS=(--model "$WORK/m.cpgm" --phones 120 --cars 50 --tablets 30 --hours 1
      --seed 21 --slice-min 5)

echo "== single-process reference"
$RUN "$GEN" "${ARGS[@]}" --out "$WORK/ref"

# A killed worker's failpoint re-arms in every respawned incarnation (the
# spec rides the environment), so the rank crash-loops at a fixed frame
# count; each incarnation still outlives at least one checkpoint cadence,
# the committed watermark advances, and the supervisor converges. The
# restart budget just has to cover the loop.
echo "== kill chaos: rank 2 crash-loops, supervisor heals to identical output"
CPG_FAILPOINTS_RANK2='dist.worker_slice=kill(1,0,6,1)' \
  $RUN "$GEN" "${ARGS[@]}" --ranks 4 --out "$WORK/heal" \
  --checkpoint-dir "$WORK/ck_heal" --checkpoint-interval 2 \
  --supervise=restart:12 2> "$WORK/heal.err"
grep -q 'supervise: rank=2 .* kind=dead' "$WORK/heal.err" || {
  echo "chaos_smoke: no structured incident line for the killed rank:" >&2
  cat "$WORK/heal.err" >&2
  exit 1
}
cmp "$WORK/ref_events.csv" "$WORK/heal_events.csv"
cmp "$WORK/ref_ues.csv" "$WORK/heal_ues.csv"
echo "   healed run byte-identical ($(grep -c '^supervise:' "$WORK/heal.err") incident(s))"

# hang() parks every sending thread — events and heartbeats alike — so the
# coordinator sees total silence and must declare the rank hung, SIGKILL
# it, and respawn. No max-fires cap: the wedge re-arms per incarnation and
# convergence again rides the committed watermark.
echo "== hang chaos: rank 1 goes silent, heartbeat deadline heals it"
CPG_FAILPOINTS_RANK1='dist.send_frame=hang(1,0,11)' \
  $RUN "$GEN" "${ARGS[@]}" --ranks 3 --out "$WORK/hang" \
  --checkpoint-dir "$WORK/ck_hang" --checkpoint-interval 2 \
  --supervise=restart:12 --heartbeat-deadline-ms 1600 2> "$WORK/hang.err"
grep -q 'supervise: rank=1 .* kind=hung' "$WORK/hang.err" || {
  echo "chaos_smoke: hung rank was not reported as hung:" >&2
  cat "$WORK/hang.err" >&2
  exit 1
}
cmp "$WORK/ref_events.csv" "$WORK/hang_events.csv"
cmp "$WORK/ref_ues.csv" "$WORK/hang_ues.csv"
echo "   hung rank healed, output byte-identical"

echo "== cpgt chaos: supervised kill run in the binary format"
CPG_FAILPOINTS_RANK0='dist.worker_slice=kill(1,0,5,1)' \
  $RUN "$GEN" "${ARGS[@]}" --ranks 3 --out "$WORK/bin" --format cpgt \
  --checkpoint-dir "$WORK/ck_bin" --checkpoint-interval 2 \
  --supervise=restart:12 2> "$WORK/bin.err"
grep -q '^supervise: rank=0' "$WORK/bin.err"
$RUN "$CAT" to-csv "$WORK/bin.cpgt" "$WORK/bin"
cmp "$WORK/ref_events.csv" "$WORK/bin_events.csv"
cmp "$WORK/ref_ues.csv" "$WORK/bin_ues.csv"
echo "   healed cpgt run converts byte-identically"

echo "== scenario chaos: churn + migration under a supervised kill"
cat > "$WORK/chaos.scn" <<'EOF'
scenario chaos-smoke
start-hour 8
duration 2

phase calm 0 1
phase rush 1 2
  accel 50

cohort base
  device phone
  count 300
  join 0
  leave 1.5 1.9
cohort crowd
  device phone
  count 150
  join 0.8 1.0
cohort cars
  device car
  count 100
  migrate 1.2 nsa
EOF
$RUN "$GEN" --scenario "$WORK/chaos.scn" --seed 5 --slice-min 5 \
  --out "$WORK/sref"
CPG_FAILPOINTS_RANK2='dist.worker_slice=kill(1,0,7,1)' \
  $RUN "$GEN" --scenario "$WORK/chaos.scn" --seed 5 --slice-min 5 \
  --ranks 4 --out "$WORK/schaos" \
  --checkpoint-dir "$WORK/ck_scn" --checkpoint-interval 2 \
  --supervise=restart:12 2> "$WORK/scn.err"
grep -q '^supervise: rank=2' "$WORK/scn.err"
cmp "$WORK/sref_events.csv" "$WORK/schaos_events.csv"
cmp "$WORK/sref_ues.csv" "$WORK/schaos_ues.csv"
echo "   scenario heal byte-identical"

echo "== restart budget exhaustion is a one-line actionable error"
if CPG_FAILPOINTS_RANK1='dist.worker_slice=kill(1,0,4,1)' \
    $RUN "$GEN" "${ARGS[@]}" --ranks 3 --out "$WORK/budget" \
    --supervise=restart:1 2> "$WORK/budget.err"
then
  echo "chaos_smoke: budget-exhausted run unexpectedly exited 0" >&2
  exit 1
fi
grep -q 'restart budget exhausted (1 restart used)' "$WORK/budget.err" || {
  echo "chaos_smoke: missing budget-exhaustion error:" >&2
  cat "$WORK/budget.err" >&2
  exit 1
}
echo "   budget exhaustion surfaced cleanly"

echo "== --supervise=off (default) preserves fail-fast"
if CPG_FAILPOINTS_RANK1='dist.worker_slice=kill(1,0,4,1)' \
    $RUN "$GEN" "${ARGS[@]}" --ranks 3 --out "$WORK/fastfail" \
    2> "$WORK/fastfail.err"
then
  echo "chaos_smoke: unsupervised kill unexpectedly exited 0" >&2
  exit 1
fi
grep -q "rank 1" "$WORK/fastfail.err" || {
  echo "chaos_smoke: fail-fast error did not name the rank:" >&2
  cat "$WORK/fastfail.err" >&2
  exit 1
}
echo "   unsupervised kill failed fast naming the rank"

# Graceful stop: pace the run with the accel clock so SIGTERM reliably
# lands mid-stream, then resume as-fast-as-possible and demand the exact
# reference bytes. 1 trace hour at 1200x ~= 3s of wall time.
graceful_stop() {
  local label="$1" out="$2" ck="$3"; shift 3
  rm -rf "$ck" "${out}_events.csv" "${out}_ues.csv"
  "$GEN" "${ARGS[@]}" --clock accel --accel 1200 --out "$out" \
    --checkpoint-dir "$ck" --checkpoint-interval 2 "$@" \
    2> "$WORK/stop.err" &
  local pid=$!
  sleep 1
  kill -TERM "$pid" 2>/dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  if [[ "$rc" -ne 143 ]]; then
    echo "chaos_smoke: $label: expected exit 143 after SIGTERM, got $rc" >&2
    cat "$WORK/stop.err" >&2
    exit 1
  fi
  grep -q "stopped gracefully" "$WORK/stop.err" || {
    echo "chaos_smoke: $label: no graceful-stop notice on stderr" >&2
    cat "$WORK/stop.err" >&2
    exit 1
  }
  if compgen -G "${out}*.tmp" > /dev/null || compgen -G "$ck/*.tmp" > /dev/null; then
    echo "chaos_smoke: $label: .tmp litter left behind" >&2
    exit 1
  fi
  $RUN "$GEN" "${ARGS[@]}" --out "$out" \
    --checkpoint-dir "$ck" --checkpoint-interval 2 --resume "$@"
  cmp "$WORK/ref_events.csv" "${out}_events.csv"
  cmp "$WORK/ref_ues.csv" "${out}_ues.csv"
  echo "   $label: graceful stop + resume byte-identical"
}

echo "== graceful SIGTERM: single-process"
graceful_stop "single" "$WORK/grace1" "$WORK/ck_g1"

echo "== graceful SIGTERM: distributed"
graceful_stop "distributed" "$WORK/grace2" "$WORK/ck_g2" --ranks 2

echo "== salvage: a torn cpgt file recovers its valid prefix"
$RUN "$GEN" "${ARGS[@]}" --out "$WORK/whole" --format cpgt
SIZE=$(wc -c < "$WORK/whole.cpgt")
head -c "$((SIZE - 41))" "$WORK/whole.cpgt" > "$WORK/torn.cpgt"
$RUN "$CAT" salvage "$WORK/torn.cpgt" "$WORK/rescued.cpgt" \
  2> "$WORK/salvage.err"
grep -q "torn input" "$WORK/salvage.err"
$RUN "$CAT" to-csv "$WORK/rescued.cpgt" "$WORK/rescued"
LINES=$(wc -l < "$WORK/rescued_events.csv")
head -n "$LINES" "$WORK/ref_events.csv" | cmp - "$WORK/rescued_events.csv"
echo "   salvaged prefix is an exact prefix of the reference CSV"

echo "== piped model: a model read from a pipe reproduces the reference"
# ARGS minus its leading --model pair.
cat "$WORK/m.cpgm" | $RUN "$GEN" --model /dev/stdin "${ARGS[@]:2}" \
  --out "$WORK/piped"
cmp "$WORK/ref_events.csv" "$WORK/piped_events.csv"
cmp "$WORK/ref_ues.csv" "$WORK/piped_ues.csv"
echo "   piped model byte-identical"

echo "chaos_smoke: OK"
