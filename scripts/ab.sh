#!/usr/bin/env bash
# A/B wall-clock comparison of one perfbench workload: a base revision
# against the working tree, in alternating fixed-length blocks.
#
#   scripts/ab.sh <base-rev> <workload> <seed> [pairs]
#
#   scripts/ab.sh HEAD~1 dse-faults 9002 10     # 10 pairs (default 10)
#
# The base revision's committed files are exported (`git archive`) into a
# `mktemp -d` scratch directory, the same way the repository benchmark runs
# a revision: committed files in a fresh directory. Each side builds its
# perfbench binary into its own CARGO_TARGET_DIR under that directory; the
# working-tree side builds the checkout as it stands, uncommitted edits
# included. Then `pairs` pairs of `python3 perfbench/run.py --workload W
# --seed S --seconds T --trace 0` blocks run back to back, T being the
# benchmark's own run length (`run_seconds` in BENCHMARK.json), the side that
# goes first alternating from pair to pair so drift in machine load falls
# on both. The only controls are process-level (block order, one block at
# a time); no machine setting is touched. The scratch directory is removed
# on exit.
#
# Prints one JSON line and appends it to results/BENCH_ab.jsonl (wall-clock,
# so scripts/verify.sh leaves it out of the byte-compare):
#   base / work          revisions compared ("+dirty" marks uncommitted edits)
#   values               work_per_s of every block, per side, in run order
#   median, q1, q3, iqr  per side
#   medians              per side, the median of every end-to-end metric
#   wins                 pairs whose working-tree block beat its base block
#   gain                 work median / base median
#   outputs_match        done_ratio, sim_cycles and sim_quality equal in
#                        every block of both sides
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/ab.sh <base-rev> <workload> <seed> [pairs]" >&2
  exit 2
fi
BASE_REV=$1 WORKLOAD=$2 SEED=$3 PAIRS=${4:-10}
SECONDS_PER_BLOCK=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
[ "$PAIRS" -ge 2 ] || { echo "ab: quartiles need at least 2 pairs" >&2; exit 2; }
BASE_SHA=$(git rev-parse --verify --quiet "$BASE_REV^{commit}") \
  || { echo "ab: unknown revision $BASE_REV" >&2; exit 2; }
WORK_SHA=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
  WORK_SHA="$WORK_SHA+dirty"
fi

SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT
mkdir "$SCRATCH/base"
git archive --format=tar "$BASE_SHA" | tar -x -C "$SCRATCH/base"

# side -> checkout and target directory
declare -A TREE=([base]="$SCRATCH/base" [work]="$ROOT")
declare -A TARGET=([base]="$SCRATCH/target-base" [work]="$SCRATCH/target-work")
for side in base work; do
  echo "ab: building $side" >&2
  CARGO_TARGET_DIR=${TARGET[$side]} cargo build --release --offline --quiet \
    --manifest-path "${TREE[$side]}/perfbench/Cargo.toml"
done

ROWS="$SCRATCH/rows.jsonl"
for pair in $(seq 1 "$PAIRS"); do
  if [ $((pair % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi
  for side in $order; do
    echo "ab: pair $pair/$PAIRS $side" >&2
    line=$(cd "${TREE[$side]}" && CARGO_TARGET_DIR=${TARGET[$side]} \
      python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_PER_BLOCK" --trace 0 | tail -n 1)
    printf '{"side": "%s", "pair": %d, "report": %s}\n' "$side" "$pair" "$line" >>"$ROWS"
  done
done

mkdir -p results
python3 - "$ROWS" "$BASE_SHA" "$WORK_SHA" "$WORKLOAD" "$SEED" "$PAIRS" "$SECONDS_PER_BLOCK" \
  "$(nproc)" <<'EOF' | tee -a results/BENCH_ab.jsonl
import json, statistics, sys

rows_path, base, work, workload, seed, pairs, seconds, cores = sys.argv[1:]
rows = [json.loads(line) for line in open(rows_path)]
metric = lambda r, name: r["report"]["metrics"][name]["value"]
sides = {}
for side in ("base", "work"):
    reports = [r for r in rows if r["side"] == side]
    values = [metric(r, "work_per_s") for r in reports]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    sides[side] = {"values": [round(v, 4) for v in values],
                   "median": round(statistics.median(values), 4),
                   "q1": round(q1, 4), "q3": round(q3, 4), "iqr": round(q3 - q1, 4),
                   "medians": {m: round(statistics.median(metric(r, m) for r in reports), 4)
                               for m in reports[0]["report"]["metrics"]}}
by_pair = {}
for r in rows:
    by_pair.setdefault(r["pair"], {})[r["side"]] = metric(r, "work_per_s")
wins = sum(1 for p in by_pair.values() if p["work"] > p["base"])
outputs = {tuple(metric(r, m) for m in ("done_ratio", "sim_cycles", "sim_quality")) for r in rows}
print(json.dumps({
    "workload": workload, "seed": int(seed), "metric": "work_per_s",
    "base": base, "work": work, "pairs": int(pairs), "seconds": float(seconds),
    "cores": int(cores), "base_side": sides["base"], "work_side": sides["work"],
    "wins": wins,
    "gain": round(sides["work"]["median"] / sides["base"]["median"], 4),
    "outputs_match": len(outputs) == 1,
}))
EOF
