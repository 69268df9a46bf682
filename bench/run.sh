#!/usr/bin/env bash
# One full set: every workload untraced (the end-to-end metrics), then traced
# (the per-layer metrics), merged into one ledger file,
# bench/out/BENCH_<git-sha>.json unless a path is given. Compare two with
#
#   bash bench/bench.sh -compare a.json b.json
#
# Usage: bench/run.sh [ledger.json]     (SEED=<n> picks another seed)
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo nogit)"
out="${1:-$bench/out/BENCH_$sha.json}"
seconds="$(grep -o '"run_seconds": *[0-9]*' "$root/BENCHMARK.json" | grep -o '[0-9]*$')"

mkdir -p "$(dirname "$out")"
rm -f "$out"
for workload in apps resident stores fleet; do
	for trace in 0 1; do
		bash "$bench/bench.sh" -out "$out" -commit "$sha" \
			--workload "$workload" --seed "${SEED:-1}" --seconds "$seconds" --trace "$trace" | sed '$d'
	done
done
echo "wrote $out"
