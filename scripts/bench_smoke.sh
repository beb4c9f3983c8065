#!/usr/bin/env bash
# Fixed-seed benchmark smoke run: the distance-backend/cache and
# social-kernel checks, merged into one JSON report with pass/fail
# acceptance checks:
#
#   - warm shared-cache batch speedup >= 1.5x over the cache-off run
#   - CH bucket one-to-many beats bounded Dijkstra at the largest road size
#   - 4-lane library social score >= 1.5x over a sequential loop at d=128
#
#   - PR 9 (continental-scale CH build and index file, BENCH_PR9.json;
#     GPSSN_BENCH_PR9_SIDE=1000 runs it at 10^6 vertices):
#       * the CH build is deterministic: building twice gives bitwise
#         identical hierarchies
#       * loading the index file (LoadRoadIndex) strictly faster than
#         rebuilding the hierarchy (check mmap_load_beats_rebuild, a name
#         kept from when the loader mapped the file)
#
#   - PR 10 (sharded scatter-gather serving, BENCH_PR10.json):
#       * sharded answers byte-identical to single-node at shard counts
#         1 / 2 / 4 (always enforced)
#       * cross-shard refine skip rate > 0 at 4 shards (the incumbent
#         prune must actually fire)
#       * core-aware scale-out: on >= 4 cores the 4-shard cluster must
#         reach >= 2.5x the 1-shard batch QPS; on 2-3 cores >= 1.2x; on a
#         single core shards are just threads, so only identity and the
#         skip rate are enforced
#
# Usage: scripts/bench_smoke.sh [output.json]
#          (default: bench-out/bench-smoke.json, a gitignored directory;
#          the PR 9 / PR 10 reports are always written next to it as
#          BENCH_PR9.json / BENCH_PR10.json)
#
# Exits non-zero if a check fails. Numbers are smoke-sized (seconds, not
# minutes) — for paper-scale runs use GPSSN_BENCH_SCALE with the bench
# binaries directly.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-bench-out/bench-smoke.json}"
mkdir -p "$(dirname "$OUT")"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS" --target bench_kernels bench_throughput \
  bench_pr9_scale bench_serving

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "=== bench_kernels: one-to-many + social kernel sweeps ==="
./build/bench/bench_kernels \
  --benchmark_filter='OneToMany|SocialScore|EsuExtend|Corollary2' \
  --benchmark_out="$TMP/kernels.json" --benchmark_out_format=json

echo "=== bench_throughput: worker sweep + cache comparison ==="
GPSSN_BENCH_SCALE="${GPSSN_BENCH_SCALE:-0.05}" \
  GPSSN_BENCH_QUERIES="${GPSSN_BENCH_QUERIES:-6}" \
  GPSSN_BENCH_JSON="$TMP/throughput.json" \
  ./build/bench/bench_throughput

python3 - "$TMP/kernels.json" "$TMP/throughput.json" "$OUT" <<'EOF'
import json
import os
import sys

kern_path, thr_path, out_path = sys.argv[1:4]
with open(kern_path) as f:
    kern = json.load(f)
with open(thr_path) as f:
    thr = json.load(f)

kernels = {}
for b in kern.get("benchmarks", []):
    kernels[b["name"]] = {
        "real_time": b["real_time"],
        "time_unit": b.get("time_unit", "ns"),
    }

LARGEST = 50000
dij = kernels.get(f"BM_OneToManyBoundedDijkstra/{LARGEST}")
ch = kernels.get(f"BM_OneToManyChBucket/{LARGEST}")
ch_speedup = (dij["real_time"] / ch["real_time"]) if (dij and ch) else None

SOCIAL_DIM = 128
scalar = kernels.get(f"BM_SocialScoreScalar/{SOCIAL_DIM}")
soa = kernels.get(f"BM_SocialScoreSoa/{SOCIAL_DIM}")
soa_speedup = (scalar["real_time"] / soa["real_time"]) if (scalar and soa) \
    else None

cores = os.cpu_count() or 1

checks = {
    "warm_cache_speedup_ge_1_5": thr.get("warm_speedup", 0.0) >= 1.5,
    "ch_beats_dijkstra_at_largest":
        ch_speedup is not None and ch_speedup > 1.0,
    "soa_social_kernel_ge_1_5_at_d128":
        soa_speedup is not None and soa_speedup >= 1.5,
}

report = {
    "generated_by": "scripts/bench_smoke.sh",
    "kernels_one_to_many": kernels,
    "kernel_largest_road_vertices": LARGEST,
    "ch_speedup_at_largest": ch_speedup,
    "social_kernel_dim": SOCIAL_DIM,
    "soa_social_speedup_at_d128": soa_speedup,
    "throughput_cache": thr,
    "cpu_cores": cores,
    "checks": checks,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
print(json.dumps(checks, indent=2))
sys.exit(0 if all(checks.values()) else 1)
EOF

PR9_OUT="$(dirname "$OUT")/BENCH_PR9.json"

echo "=== bench_pr9_scale: CH build / index load ==="
GPSSN_BENCH_PR9_SIDE="${GPSSN_BENCH_PR9_SIDE:-220}" \
  GPSSN_BENCH_PR9_JSON="$TMP/pr9.json" \
  GPSSN_BENCH_PR9_INDEX="$TMP/pr9.gpssnidx" \
  ./build/bench/bench_pr9_scale

python3 - "$TMP/pr9.json" "$PR9_OUT" <<'EOF'
import json
import os
import sys

pr9_path, out_path = sys.argv[1:3]
with open(pr9_path) as f:
    pr9 = json.load(f)

cores = os.cpu_count() or 1

checks = {
    "build_bitwise_identical": pr9.get("build_identical") is True,
    "mmap_load_beats_rebuild":
        pr9.get("load_seconds", float("inf")) < pr9.get("rebuild_seconds", 0.0),
}

report = {
    "generated_by": "scripts/bench_smoke.sh",
    "measurements": pr9,
    "cpu_cores": cores,
    "checks": checks,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
print(json.dumps(checks, indent=2))
sys.exit(0 if all(checks.values()) else 1)
EOF

PR10_OUT="$(dirname "$OUT")/BENCH_PR10.json"

echo "=== bench_serving: sharded scatter-gather scaling + identity ==="
GPSSN_BENCH_SCALE="${GPSSN_BENCH_SCALE:-0.05}" \
  GPSSN_BENCH_QUERIES="${GPSSN_BENCH_QUERIES:-6}" \
  GPSSN_BENCH_PR10_JSON="$TMP/pr10.json" \
  ./build/bench/bench_serving

python3 - "$TMP/pr10.json" "$PR10_OUT" <<'EOF'
import json
import os
import sys

pr10_path, out_path = sys.argv[1:3]
with open(pr10_path) as f:
    pr10 = json.load(f)

cores = os.cpu_count() or 1

# Scale-out gate is core-aware: shards are in-process threads, so a
# single-core host cannot run 4 shard workers concurrently — the cluster
# only pays transport/coordination overhead there, and the enforced
# property degrades to answer identity + a firing incumbent prune.
# Multi-core hosts must show real near-linear batch-QPS scaling.
if cores >= 4:
    qps_threshold = 2.5
elif cores >= 2:
    qps_threshold = 1.2
else:
    qps_threshold = None
scaling = pr10.get("qps_scaling_4_vs_1", 0.0)

# The cross-shard incumbent prune must actually skip refine requests at
# the 4-shard count (index 2 of the shard_counts = [1, 2, 4] series).
skip_rate_4 = pr10.get("refine_skip_rate", [0.0, 0.0, 0.0])[2]

checks = {
    "sharded_answers_identical": pr10.get("answers_identical") is True,
    "cross_shard_skip_rate_positive_at_4": skip_rate_4 > 0.0,
    "batch_qps_scaling_core_aware":
        True if qps_threshold is None else scaling >= qps_threshold,
}

report = {
    "generated_by": "scripts/bench_smoke.sh",
    "measurements": pr10,
    "cpu_cores": cores,
    "qps_scaling_threshold": qps_threshold,
    "checks": checks,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
print(json.dumps(checks, indent=2))
sys.exit(0 if all(checks.values()) else 1)
EOF

echo "OK"
