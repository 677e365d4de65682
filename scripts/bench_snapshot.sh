#!/usr/bin/env bash
# Bench snapshots: builds the tree and leaves committed JSON records at the
# repo root, each validated against deepphi.bench.v1.
#
#  - simd          -> BENCH_simd.json: the two real-wall-time kernel benches
#                     (bench_micro_kernels, bench_gemm_fusion) with --json,
#                     merged into one document — the dispatched-vs-forced-
#                     scalar speedups on this machine.
#  - data_parallel -> BENCH_data_parallel.json: bench_data_parallel --json —
#                     the simulated replica-sweep step-throughput tables
#                     (Fig. 9 batch range) plus the real host wall-clock
#                     table of core::Trainer's replicas on the host.
#  - quant         -> BENCH_quant.json: bench_quant --json — served rows/s
#                     fp32 vs int8 at batch 64 on Fig. 7-class shapes, with
#                     the encode-accuracy delta.
#  - serve_tail    -> BENCH_serve_tail.json: bench_serve_tail --json — the
#                     lock-free latency histogram vs the retired sort-under-
#                     mutex recorder (record ns/op, contended throughput
#                     under a stats poller) and open-loop serving p99 with a
#                     live stats endpoint scraping.
#  - serve_registry -> BENCH_serve_registry.json: bench_serve_registry --json
#                     — two models with different latency budgets in one
#                     registry-backed server under bursty Poisson arrivals:
#                     static batching misses the tight SLO, SLO-aware
#                     adaptive batching holds every lane inside its budget.
#  - data_pipeline -> BENCH_data_pipeline.json: bench_data_pipeline --json —
#                     real chunk-ring drain throughput of the in-memory vs
#                     mmap'd-shard backings (per-stage ms, consumer stall)
#                     and end-to-end training with overlap efficiency.
#  - cluster       -> BENCH_cluster.json: bench_cluster --json — simulated
#                     C-cards x R-replicas scaling with communication share,
#                     the tree/rdouble/ring all-reduce sweep the
#                     size-adaptive selection is built on, and a real
#                     cluster-attached training run.
#
# Usage: scripts/bench_snapshot.sh [build-dir] [name...]
#   Names default to all snapshots. The first argument is taken as the
#   build directory only when it is not a snapshot name AND is an existing
#   directory (or contains a '/'); it defaults to "build". Spell a fresh
#   build directory with a path form ("./mybuild") so a mistyped snapshot
#   name fails instead of silently becoming a build directory.
set -euo pipefail

cd "$(dirname "$0")/.."

KNOWN=(simd data_parallel quant serve_tail serve_registry cluster data_pipeline)

is_known() {
  local n
  for n in "${KNOWN[@]}"; do
    [ "$n" = "$1" ] && return 0
  done
  return 1
}

usage() {
  echo "usage: scripts/bench_snapshot.sh [build-dir] [name...]" >&2
  echo "valid snapshot names: ${KNOWN[*]}" >&2
  exit 2
}

BUILD_DIR=build
if [ $# -gt 0 ] && ! is_known "$1"; then
  case "$1" in
    */*) BUILD_DIR="$1"; shift ;;
    *) if [ -d "$1" ]; then
         BUILD_DIR="$1"; shift
       else
         echo "unknown snapshot '$1'" >&2
         usage
       fi ;;
  esac
fi
NAMES=("$@")
if [ ${#NAMES[@]} -eq 0 ]; then
  NAMES=("${KNOWN[@]}")
fi

TARGETS=(deepphi_json_check)
for name in "${NAMES[@]}"; do
  case "$name" in
    simd)          TARGETS+=(bench_micro_kernels bench_gemm_fusion) ;;
    data_parallel) TARGETS+=(bench_data_parallel) ;;
    quant)         TARGETS+=(bench_quant) ;;
    serve_tail)    TARGETS+=(bench_serve_tail) ;;
    serve_registry) TARGETS+=(bench_serve_registry) ;;
    cluster)       TARGETS+=(bench_cluster) ;;
    data_pipeline) TARGETS+=(bench_data_pipeline) ;;
    *) echo "unknown snapshot '$name'" >&2
       usage ;;
  esac
done

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TARGETS[@]}"

# validate OUT [extra json_check args...] — the shared deepphi.bench.v1
# contract every snapshot must satisfy, plus per-snapshot requirements.
validate() {
  local out="$1"
  shift
  "$BUILD_DIR/tools/deepphi_json_check" --require=schema --require=bench \
    --require=tables --require=columns --require=rows \
    --expect=deepphi.bench.v1 "$@" "$out"
}

snapshot_simd() {
  local out="BENCH_simd.json"
  local micro_json fusion_json
  micro_json="$(mktemp)"
  fusion_json="$(mktemp)"
  # Keep the google-benchmark section to the per-tier GEMM variants; the
  # hand-timed Fig. 7 tables are what lands in the JSON.
  "$BUILD_DIR/bench/bench_micro_kernels" \
    --benchmark_filter='BM_GemmBlocked<' \
    --batch=256 --reps=3 --max_hidden=4096 --json="$micro_json"
  "$BUILD_DIR/bench/bench_gemm_fusion" \
    --batch=256 --reps=3 --max_hidden=4096 --json="$fusion_json"
  # Each bench writes its own deepphi.bench.v1 document; concatenate their
  # tables into one document so the snapshot is a single valid file.
  jq -s '{schema: .[0].schema,
          bench: "simd_snapshot",
          simd_tier: .[0].simd_tier,
          benches: [.[].bench],
          tables: (map(.tables) | add)}' \
    "$micro_json" "$fusion_json" > "$out"
  rm -f "$micro_json" "$fusion_json"
  validate "$out"
  echo "snapshot written to $out"
}

snapshot_data_parallel() {
  local out="BENCH_data_parallel.json"
  "$BUILD_DIR/bench/bench_data_parallel" --model=both --json="$out"
  validate "$out" --require=speedup
  echo "snapshot written to $out"
}

snapshot_quant() {
  local out="BENCH_quant.json"
  "$BUILD_DIR/bench/bench_quant" --seconds=1 --json="$out"
  validate "$out" --require=precision --require=speedup --expect=int8
  echo "snapshot written to $out"
}

snapshot_serve_tail() {
  local out="BENCH_serve_tail.json"
  "$BUILD_DIR/bench/bench_serve_tail" --seconds=1 --json="$out"
  validate "$out" --require=speedup_vs_mutex --require=p99_ms
  echo "snapshot written to $out"
}

snapshot_serve_registry() {
  local out="BENCH_serve_registry.json"
  "$BUILD_DIR/bench/bench_serve_registry" --seconds=2 --json="$out"
  validate "$out" --require=budget_ms --require=p99_ms --require=slo_met
  echo "snapshot written to $out"
}

snapshot_cluster() {
  local out="BENCH_cluster.json"
  "$BUILD_DIR/bench/bench_cluster" --json="$out"
  validate "$out" --require=comm_share --require=auto_alg \
    --require=best_fixed --require=speedup
  echo "snapshot written to $out"
}

snapshot_data_pipeline() {
  local out="BENCH_data_pipeline.json"
  # A larger corpus than the bench default so each ring drain takes long
  # enough for the rows/s and per-stage numbers to be stable.
  "$BUILD_DIR/bench/bench_data_pipeline" --examples=262144 --reps=5 \
    --work="$BUILD_DIR/bench_data_pipeline_work" --json="$out"
  validate "$out" --require=vs_memory --require=overlap_efficiency
  echo "snapshot written to $out"
}

for name in "${NAMES[@]}"; do
  "snapshot_$name"
done
