#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload kernel-long --seed 1 --seconds 30 --trace 0
#
# --workload all runs every workload in turn. The Go build cache, the
# binary and the result files stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "run.sh: run from the root of a loosesim checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/benchmark" .)

args=("$@")
for i in "${!args[@]}"; do
	if [ "${args[$i]}" = "--workload" ] && [ "${args[$((i + 1))]:-}" = "all" ]; then
		for w in kernel-long sampled-point fig8-served; do
			args[$((i + 1))]=$w
			"$build/benchmark" "${args[@]}"
		done
		exit 0
	fi
done
exec "$build/benchmark" "$@"
