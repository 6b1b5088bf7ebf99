#!/usr/bin/env bash
# End-to-end smoke test for the spatial layer (DESIGN.md "Spatial layer"):
# the massive-IoT alarm-storm example driven through stream_gen with a
# cell-grid topology.
#
#   1. storm run  : examples/alarm_storm.{scn,spatial} -> cpgt v2 trace
#   2. heatmap    : per-cell rate inside the storm district must be >= 10x
#                   the background rate during the storm window
#   3. determinism: the same run under a different shard/thread/slice
#                   configuration, and split across 4 worker ranks, must
#                   produce byte-identical cpgt files (cells included)
#   4. supervision: the storm run through a supervised sink
#                   (--sink-policy fail) must write the same file, and
#                   trace_cat to-csv must convert it
#
# Usage: scripts/spatial_smoke.sh [build-dir]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
GEN="$BUILD_DIR/stream_gen"
CAT="$BUILD_DIR/trace_cat"
for bin in "$GEN" "$CAT"; do
  if [[ ! -x "$bin" ]]; then
    echo "spatial_smoke: $bin not found (build first, or pass the build dir)" >&2
    exit 2
  fi
done
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

ARGS=(--scenario examples/alarm_storm.scn --spatial examples/alarm_storm.spatial
      --seed 11 --format cpgt)

echo "== storm run (4 shards, 2 threads, 5-min slices)"
"$GEN" "${ARGS[@]}" --shards 4 --threads 2 --slice-min 5 --out "$WORK/ref"

# The scenario starts at 02:00 (t_begin = 7 200 000 ms); the storm window
# is hours [0.5, 0.52) of the run. The district is [2000,4000) m square =
# grid columns/rows 4..7 of the 16x16 grid of 500 m cells.
T0=$((7200000 + 1800000))
T1=$((7200000 + 1872000))
echo "== heatmap: storm district vs background during the storm window"
"$CAT" heatmap "$WORK/ref.cpgt" "$T0" "$T1" > "$WORK/heat.txt"
awk '
  /^cell / {
    if ($3 >= 4 && $3 < 8 && $4 >= 4 && $4 < 8) storm += $5
    else background += $5
  }
  END {
    # Mean per-cell rate over every cell of each region, empty cells
    # included: 16 district cells, 240 background cells.
    ms = storm / 16.0
    mb = background / 240.0
    ratio = (mb > 0 ? ms / mb : ms)
    printf "   district %.1f ev/cell, background %.1f ev/cell -> %.1fx\n", \
           ms, mb, ratio
    if (ms <= 0 || ratio < 10.0) {
      print "spatial_smoke: storm district is not >= 10x background" \
        > "/dev/stderr"
      exit 1
    }
  }' "$WORK/heat.txt"

echo "== determinism across configs (8 shards, 4 threads, 3-min slices)"
"$GEN" "${ARGS[@]}" --shards 8 --threads 4 --slice-min 3 --out "$WORK/alt"
cmp "$WORK/ref.cpgt" "$WORK/alt.cpgt"
echo "   reconfigured run byte-identical"

echo "== determinism across 4 worker ranks"
"$GEN" "${ARGS[@]}" --shards 2 --threads 1 --slice-min 5 --ranks 4 \
  --out "$WORK/ranks"
cmp "$WORK/ref.cpgt" "$WORK/ranks.cpgt"
echo "   4-rank run byte-identical"

echo "== supervised sink (--sink-policy fail)"
"$GEN" "${ARGS[@]}" --shards 4 --threads 2 --slice-min 5 --sink-policy fail \
  --out "$WORK/supervised"
cmp "$WORK/ref.cpgt" "$WORK/supervised.cpgt"
"$CAT" to-csv "$WORK/supervised.cpgt" "$WORK/supervised"
echo "   supervised run byte-identical, cells convert to CSV"

echo "spatial_smoke: OK"
