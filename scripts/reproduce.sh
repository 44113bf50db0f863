#!/usr/bin/env bash
# One-shot reproduction: build, test, run every figure bench and ablation,
# and collect outputs under ./reproduction/.
#
#   scripts/reproduce.sh [--paper]     # --paper uses 100 instances/point
set -euo pipefail
cd "$(dirname "$0")/.."

INSTANCES=10
if [[ "${1:-}" == "--paper" ]]; then
  INSTANCES=100
fi

# Whatever generator CMake defaults to (Makefiles unless CMAKE_GENERATOR
# says otherwise); an existing build tree keeps its own.
JOBS="$(nproc 2>/dev/null || echo 2)"
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

OUT=reproduction
mkdir -p "$OUT"

echo "== Fig. 3 (vary n, K=2) =="
./build/bench/fig3_vary_n   --instances="$INSTANCES" --csv="$OUT/fig3" | tee "$OUT/fig3.txt"
echo "== Fig. 4 (vary b_max, n=1000) =="
./build/bench/fig4_vary_bmax --instances="$INSTANCES" --csv="$OUT/fig4" | tee "$OUT/fig4.txt"
echo "== Fig. 5 (vary K, n=1000) =="
./build/bench/fig5_vary_k   --instances="$INSTANCES" --csv="$OUT/fig5" | tee "$OUT/fig5.txt"
echo "== design ablation =="
./build/bench/ablation_design | tee "$OUT/ablation_design.txt"
echo "== dispatch-policy ablation =="
./build/bench/ablation_policy | tee "$OUT/ablation_policy.txt"
echo "== recovery-policy ablation under faults =="
./build/bench/fault_ablation  | tee "$OUT/fault_ablation.txt"
echo "== empirical approximation ratio =="
./build/bench/approx_ratio    | tee "$OUT/approx_ratio.txt"
echo "== micro benches =="
./build/bench/micro_algorithms --benchmark_min_time=0.05 | tee "$OUT/micro.txt"

echo
echo "All outputs collected under $OUT/."
