#!/usr/bin/env bash
# Runs every bench and captures results as BENCH_*.json in the output
# directory (default: bench/results/, the committed latest point), so
# successive PRs leave a perf trajectory.
#
#   bench/run_all.sh [--build-dir BUILD] [--out-dir OUT] [--quick] \
#                    [--large] [--large-scale N] [--input FILE.xdg] \
#                    [--reorder] [names...]
#
# google-benchmark binaries (bench_kernel) emit native JSON; bench_expander,
# bench_triangle, bench_routing, and bench_serve write their own structured
# JSON (the E3d sequential-vs-scheduler comparison, the E4d proxy-join
# data plane at 100k vertices, the E5c simulated-vs-charged GKS curve plus
# the E5d flat drain at 100k messages, and the E8 prepare-once-vs-rebuild
# A/B plus closed-loop qps/p99, respectively).  The paper-bound tables
# (Theorem 3/4, the Nibble lemmas, Jerrum–Sinclair) are asserted gtest
# properties, not benches.  With --quick, only the kernel bench runs
# (round-engine delivery throughput).
#
# Every produced BENCH_*.json is also appended to the trajectory archive at
# bench/results/trajectory/ under a UTC timestamp prefix, so successive
# runs accumulate history instead of overwriting the previous point (the
# bare BENCH_*.json in --out-dir stays the "latest" pointer CI reads).
#
# With --large, the million-edge tier runs instead: bench_triangle --large
# (the E4d-large join phase -- the proxy-bucket and CSR joins on the
# hybrid SIMD kernels, each checked against triangles_exact -- on
# generated graphs, or on a binary edge list passed via --input FILE.xdg,
# optionally --reorder'ed by degree) plus bench_expander and bench_kernel
# with XD_KERNEL_LARGE=1
# (the S-shard vs one-shard delivery A/B on the 8M-edge graph, filtered to the
# BM_Deliver* family).
# XD_LARGE_SCALE (or --large-scale) overrides the 1M default scale.

set -euo pipefail

BUILD_DIR=build
OUT_DIR=
QUICK=0
LARGE=0
LARGE_SCALE=${XD_LARGE_SCALE:-}
INPUT=
REORDER=0
NAMES=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR=$2; shift 2 ;;
    --out-dir) OUT_DIR=$2; shift 2 ;;
    --quick) QUICK=1; shift ;;
    --large) LARGE=1; shift ;;
    --large-scale) LARGE_SCALE=$2; shift 2 ;;
    --input) INPUT=$2; shift 2 ;;
    --reorder) REORDER=1; shift ;;
    *) NAMES+=("$1"); shift ;;
  esac
done

cd "$(dirname "$0")/.."

# --large inputs fail loudly up front: a missing or non-XDG1 file must not
# burn minutes of generator time before erroring inside the bench.
if [[ -n "$INPUT" ]]; then
  if [[ $LARGE -ne 1 ]]; then
    echo "error: --input only applies to the --large tier" >&2
    exit 1
  fi
  if [[ ! -f "$INPUT" ]]; then
    echo "error: --input file '$INPUT' does not exist" >&2
    exit 1
  fi
  if [[ "$(head -c 4 "$INPUT")" != "XDG1" ]]; then
    echo "error: '$INPUT' is not an XDG1 binary edge list (bad magic);" \
         "convert text lists with build/edges_to_binary (docs/io.md)" >&2
    exit 1
  fi
fi
if [[ -n "$LARGE_SCALE" && ! "$LARGE_SCALE" =~ ^[1-9][0-9]*$ ]]; then
  echo "error: --large-scale/XD_LARGE_SCALE wants a positive integer," \
       "got '$LARGE_SCALE'" >&2
  exit 1
fi

OUT_DIR=${OUT_DIR:-bench/results}
mkdir -p "$OUT_DIR"

# Trajectory archive: one timestamped copy per produced JSON per run.
STAMP=$(date -u +%Y%m%dT%H%M%SZ)
TRAJ_DIR=bench/results/trajectory
mkdir -p "$TRAJ_DIR"
archive() {
  cp "$1" "$TRAJ_DIR/${STAMP}_$(basename "$1")"
}

if [[ ${#NAMES[@]} -eq 0 ]]; then
  if [[ $QUICK -eq 1 ]]; then
    NAMES=(bench_kernel)
  elif [[ $LARGE -eq 1 ]]; then
    NAMES=(bench_expander bench_triangle bench_kernel)
  else
    NAMES=(bench_kernel bench_routing bench_expander bench_triangle bench_serve)
  fi
fi

# A bench that exits 0 but emits broken JSON would archive a corrupt
# trajectory point that every downstream reader chokes on; validate each
# file and fail loudly with the bench's name instead.
validate_json() {
  local name=$1 file=$2
  if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$file" \
       2>/dev/null; then
    echo "error: $name produced malformed JSON at $file" >&2
    exit 1
  fi
}

MISSING=()
for name in "${NAMES[@]}"; do
  bin="$BUILD_DIR/$name"
  if [[ ! -x "$bin" ]]; then
    echo "error: $name is not built at $bin" >&2
    MISSING+=("$name")
    continue
  fi
  out="$OUT_DIR/BENCH_${name#bench_}.json"
  echo "== $name -> $out" >&2
  if [[ "$name" == bench_expander || "$name" == bench_triangle ||
        "$name" == bench_routing || "$name" == bench_serve ]]; then
    # These emit structured JSON themselves: the E3d sequential-vs-
    # scheduler comparison (rounds + wall-clock at 1/2/8 host threads)
    # plus the E10 decomposition-backend head-to-head at its default
    # --scale 100000 (nibble vs simple-parallel, both verified),
    # the E4d proxy-join data plane at 100k scale (exact against the
    # local baseline), the E5c simulated-vs-charged GKS curve and the E5d
    # flat drain (every message delivered, one send per hop), and the E8
    # serving lifecycle (prepare-once >= 10x rebuild-per-query
    # at 100k, closed-loop qps/p50/p99).  Tables still stream to the
    # terminal for the human trail.
    EXTRA=()
    if [[ "$name" == bench_triangle ]]; then
      # The measured tree: "-dirty" marks uncommitted changes on top.
      EXTRA+=(--git-rev "$(git describe --always --dirty 2>/dev/null ||
                           echo unknown)")
    fi
    if [[ "$name" == bench_triangle && $LARGE -eq 1 ]]; then
      EXTRA+=(--large)
      [[ -n "$LARGE_SCALE" ]] && EXTRA+=(--scale "$LARGE_SCALE")
      [[ -n "$INPUT" ]] && EXTRA+=(--input "$INPUT")
      [[ $REORDER -eq 1 ]] && EXTRA+=(--reorder)
    fi
    "$bin" --json "$out" ${EXTRA[@]+"${EXTRA[@]}"} >&2 ||
      { echo "error: $name exited $? (see output above)" >&2; exit 1; }
  else
    # google-benchmark (bench_kernel).
    if [[ "$name" == bench_kernel && $LARGE -eq 1 ]]; then
      # The 8M-edge delivery A/B: XD_KERNEL_LARGE registers the 2M-vertex
      # variants, and the filter keeps the tier focused on delivery.
      XD_KERNEL_LARGE=1 "$bin" --benchmark_format=json --benchmark_min_time=1 \
             --benchmark_repetitions=3 --benchmark_filter='BM_Deliver' > "$out" ||
        { echo "error: $name exited $?" >&2; exit 1; }
    else
      "$bin" --benchmark_format=json --benchmark_min_time=1 \
             --benchmark_repetitions=3 > "$out" ||
        { echo "error: $name exited $?" >&2; exit 1; }
    fi
  fi
  validate_json "$name" "$out"
  archive "$out"
done

# A silently skipped bench leaves a stale BENCH_*.json that reads as a real
# trajectory point; fail loudly instead so CI (and humans) notice.
if [[ ${#MISSING[@]} -gt 0 ]]; then
  echo "error: missing bench binaries: ${MISSING[*]}" >&2
  echo "build them first (cmake --build \"$BUILD_DIR\" -j) or name only built benches" >&2
  exit 1
fi

# Delivery summary: one-shard plane vs S-shard planes at 100k.  Only a run
# that included bench_kernel summarizes: re-archiving an older kernel JSON
# would add a trajectory point that measured nothing.
KERNEL_JSON="$OUT_DIR/BENCH_kernel.json"
if [[ " ${NAMES[*]} " == *" bench_kernel "* ]]; then
  python3 - "$KERNEL_JSON" "$OUT_DIR/BENCH_kernel_summary.json" <<'PY'
import json, os, statistics, sys
data = json.load(open(sys.argv[1]))
rows = [b for b in data.get("benchmarks", [])
        if b.get("run_type") in (None, "iteration")]
def median_rate(name):
    xs = [b["items_per_second"] for b in rows
          if b["name"].startswith(name) and "items_per_second" in b]
    return statistics.median(xs) if xs else None
flat = median_rate("BM_DeliverFlat/100000")
summary = {"flat_items_per_second_median": flat}

# S-shard vs one-shard delivery A/B ("shared" in the keys is the one-shard
# plane, BM_DeliverFlat; the acceptance bar: >= 2x at 100k vertices with
# 8 shards) plus the per-shard buffer/scatter phase
# breakdown from BM_DeliverSharded's counters.  The Release CI smoke fails
# when this block is missing.  hardware_threads records how many cores the
# parallel scatter phases had: on a single-core host both sides serialize
# and the 100k edge reduces to the plane's cache blocking and skipped
# passes (load-dependent; the "large" 8M-edge block shows the blocking
# win clearing 2x even on one core), while the 100k >= 2x bar needs the
# phase parallelism of >= 2 cores.
sharded = {"shards": 8,
           "hardware_threads": os.cpu_count(),
           "sharded_items_per_second_median": median_rate(
               "BM_DeliverSharded/100000/8"),
           "shared_items_per_second_median": flat}
for shards in (2, 4):
    sharded[f"sharded_{shards}_items_per_second_median"] = median_rate(
        f"BM_DeliverSharded/100000/{shards}")
if sharded["sharded_items_per_second_median"] and flat:
    sharded["speedup_vs_shared"] = (
        sharded["sharded_items_per_second_median"] / flat)
    sharded["meets_2x_bar"] = (
        sharded["sharded_items_per_second_median"] >= 2.0 * flat)
per_shard = {}
for b in rows:
    if not b["name"].startswith("BM_DeliverSharded/100000/8"):
        continue
    for key, val in b.items():
        if key in ("buffer_ms", "scatter_ms") or (
                key.startswith("shard")
                and key.endswith(("_buffer_ms", "_scatter_ms"))):
            per_shard.setdefault(key, []).append(val)
if per_shard:
    sharded["per_shard_ms_median"] = {
        k: statistics.median(v) for k, v in sorted(per_shard.items())}
large_flat = median_rate("BM_DeliverFlat/2000000")
large_sharded = median_rate("BM_DeliverSharded/2000000/8")
if large_flat and large_sharded:
    sharded["large"] = {
        "vertices": 2000000,
        "sharded_items_per_second_median": large_sharded,
        "shared_items_per_second_median": large_flat,
        "speedup_vs_shared": large_sharded / large_flat}
summary["sharded"] = sharded
json.dump(summary, open(sys.argv[2], "w"), indent=2)
print(json.dumps(summary, indent=2))
PY
  archive "$OUT_DIR/BENCH_kernel_summary.json"
fi
