#!/usr/bin/env bash
# Build, test, and regenerate every paper table/figure.
#
# Usage: scripts/run_all.sh [quick]
#   quick — quarter-size benchmark points and a 8-thread sweep cap.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "quick" ]]; then
  export REPRO_OPS_SCALE=0.25
  export REPRO_MAX_THREADS=8
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Each binary also writes its machine-readable results to results/<name>.json
# (docs/OBSERVABILITY.md); diff two runs with scripts/check_gates.py compare.
# A binary aborts, ending the run, on a point with an unclean startup
# recovery or a capacity abort (docs/OBSERVABILITY.md, "Point verdict").
mkdir -p results

for b in build/bench/*; do
  [[ -f "$b" && -x "$b" ]] || continue
  echo "===== $b ====="
  REPRO_JSON="results/$(basename "$b").json" "$b"
done
