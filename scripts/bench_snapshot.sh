#!/usr/bin/env bash
# Runs the perf-snapshot benches (Fig. 8i phase breakdown, Fig. 7c
# RDBMS-vs-LSM engines, Fig. 8l scalability, streaming ingest, partitioned
# shard sweep, catalog serving, coordinate-free proximity mining, SIMD
# kernel microbenches) in --json
# mode and merges their records into one snapshot file, so MineK2Hop's
# end-to-end wall time, the online miner's amortized per-tick cost, the
# sharded miner's seam behaviour, the ConvoyCatalog's queries/sec, the
# graph-clusterer path, and the kernel-layer speedups are tracked PR over
# PR.
#
# Usage: scripts/bench_snapshot.sh [output.json]
#   BUILD_DIR       build tree with the bench binaries (default: build)
#   K2_BENCH_SCALE  workload scale forwarded to the benches (default: 1)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_k2hop.json}
SCALE=${K2_BENCH_SCALE:-1}

for bench in bench_fig8i_phases bench_fig7c_rdbms_vs_lsmt \
             bench_fig8l_scalability bench_streaming \
             bench_partitioned bench_serving bench_serving_net \
             bench_proximity bench_kernels; do
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "error: $BUILD_DIR/bench/$bench not found; build with -DK2_BUILD_BENCH=ON" >&2
    exit 1
  fi
done

# Record the kernel dispatch level alongside the numbers it produced.
if [[ -x "$BUILD_DIR/src/k2_simd_info" ]]; then
  "$BUILD_DIR/src/k2_simd_info"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_fig8i_phases" --json "$tmp/fig8i.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_fig7c_rdbms_vs_lsmt" --json "$tmp/fig7c.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_fig8l_scalability" --json "$tmp/fig8l.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_streaming" --json "$tmp/streaming.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_partitioned" --json "$tmp/partitioned.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_serving" --json "$tmp/serving.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_serving_net" --json "$tmp/serving_net.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_proximity" --json "$tmp/proximity.json"
K2_BENCH_SCALE=$SCALE "$BUILD_DIR/bench/bench_kernels" --json "$tmp/kernels.json"

python3 - "$OUT" "$SCALE" "$tmp"/fig8i.json "$tmp"/fig7c.json "$tmp"/fig8l.json "$tmp"/streaming.json "$tmp"/partitioned.json "$tmp"/serving.json "$tmp"/serving_net.json "$tmp"/proximity.json "$tmp"/kernels.json <<'EOF'
import datetime
import json
import platform
import subprocess
import sys

out, scale, *files = sys.argv[1:]
records = []
for f in files:
    with open(f) as fh:
        records.extend(json.load(fh))
git = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                     capture_output=True, text=True).stdout.strip()
doc = {
    "generated": datetime.datetime.now(datetime.timezone.utc)
                 .isoformat(timespec="seconds"),
    "host": platform.node(),
    "machine": platform.machine(),
    "scale": float(scale),
    "git": git or None,
    "records": records,
}
with open(out, "w") as fh:
    json.dump(doc, fh, indent=1)
    fh.write("\n")
print(f"wrote {out}: {len(records)} records at scale {scale}")
EOF
