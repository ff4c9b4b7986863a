#!/usr/bin/env bash
# Full reproduction sequence for the DynFD evaluation.
#
# Usage: scripts/reproduce.sh [scale]
#   scale  optional dataset scale factor (default 1.0; e.g. 0.1 for a
#          quick pass on a laptop)
#
# Produces:
#   EXPERIMENTS-results/*.csv   one CSV per table/figure
#   test_output.txt             full test-suite log
#   bench_output.txt            perfbench notes and one JSON result
#                               line per end-to-end workload
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1.0}"

cargo build --release --workspace

# Paper artifacts: tables first (cheap), then the figure sweeps.
./target/release/experiments table3 table4 fig5 --scale "$SCALE"
./target/release/experiments fig6 fig8 fig9 fig10 fig11 ext --scale "$SCALE"
# Figure 7 re-runs static HyFD per batch — by far the most expensive.
./target/release/experiments fig7 --scale "$SCALE"

cargo test --workspace 2>&1 | tee test_output.txt
# End-to-end benchmark: the engine replay and the socket server.
for workload in disease-updates serve-window; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 10 --trace 0
done | tee bench_output.txt
