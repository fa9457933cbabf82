#!/usr/bin/env bash
# Regenerates every deterministic artifact under results/.
#
#   scripts/regen.sh        # rewrites the repository's own results/
#   scripts/regen.sh DIR    # writes DIR/results/ instead (DIR is created)
#
# Every picachu-bench binary runs with DIR as its working directory, so its
# JSON rows land in DIR/results/. A binary's printed table is captured to
# DIR/results/<bin>.txt, except for the three whose only artifact is their
# JSON file (pnr_scaling, serve_bench, serve_soak). Every output is a pure
# function of the code, so a rerun reproduces the committed files byte for
# byte. BENCH_compile.json is wall-clock timing and is not produced here
# (scripts/verify.sh captures it from the compile microbench).
set -euo pipefail
ROOT=$(cd "$(dirname "$0")/.." && pwd)
DIR=${1:-$ROOT}
mkdir -p "$DIR/results"
DIR=$(cd "$DIR" && pwd)

cd "$ROOT"
cargo build --release --offline -q -p picachu-bench --bins
TARGET=$(cd "${CARGO_TARGET_DIR:-target}" && pwd)

# Binaries whose printed output is not an artifact.
JSON_ONLY=" pnr_scaling serve_bench serve_soak "

BINS=$(awk '/^\[\[bin\]\]/ { bin = 1; next } bin && /^name *=/ { gsub(/[" ]/, ""); sub(/^name=/, ""); print; bin = 0 }' \
  crates/bench/Cargo.toml)
for bin in $BINS; do
  echo "regen: $bin" >&2
  if [[ "$JSON_ONLY" == *" $bin "* ]]; then
    (cd "$DIR" && "$TARGET/release/$bin" > /dev/null)
  else
    (cd "$DIR" && "$TARGET/release/$bin" > "results/$bin.txt")
  fi
done
