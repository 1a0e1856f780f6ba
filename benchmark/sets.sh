#!/bin/sh
# Runs every workload once per listed seed and appends the results to
# <runs-file>: one set of runs, which `sh benchmark/run.sh -compare a b`
# compares with another. List a seed several times to repeat it.
#
#   sh benchmark/sets.sh <runs-file> <seed>...
#   sh benchmark/sets.sh seed1.ndjson 1 1 1 1 1
#   sh benchmark/sets.sh seeds.ndjson $(seq 1 10)
set -eu
out=$1
shift
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for workload in $(sh benchmark/run.sh -list); do
	for seed in "$@"; do
		sh benchmark/run.sh -workload "$workload" -seed "$seed" -seconds "$seconds" \
			-trace 0 -append "$out" >/dev/null
	done
done
