#!/usr/bin/env bash
# Runs the whole benchmark from the root of the repository.
#
#   bench/run.sh [--seed N] [--seconds S]        all workloads untraced, then traced
#   bench/run.sh --aa [--seed N] [--seconds S]   two untraced sets back to back, compared
#
# The binary is built once into bench/out/ (git-ignored), and every
# document lands there too. --aa prints, per workload and end-to-end
# metric, both sets' values, their relative difference and PASS or FAIL
# against the metric's bound: two sets of runs of the same code must agree
# within the benchmark's own bounds.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=20
aa=0
while [ $# -gt 0 ]; do
	case "$1" in
	--seed) seed=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	--aa) aa=1; shift ;;
	*) echo "usage: bench/run.sh [--aa] [--seed N] [--seconds S]" >&2; exit 2 ;;
	esac
done

out=bench/out
mkdir -p "$out"
go build -o "$out/bench" ./bench

# run_set <trace> <file>: all workloads; the last line of the output is
# the summary, the document goes to <file>.
run_set() {
	"$out/bench" -workload all -seed "$seed" -seconds "$seconds" -trace "$1" -out "$2" | tail -n 1
}

if [ "$aa" = 1 ]; then
	run_set 0 "$out/aa-a.json"
	run_set 0 "$out/aa-b.json"
	"$out/bench" -compare "$out/aa-a.json" "$out/aa-b.json"
else
	run_set 0 "$out/untraced-seed$seed.json"
	run_set 1 "$out/traced-seed$seed.json"
	echo "documents: $out/untraced-seed$seed.json $out/traced-seed$seed.json; spans: $out/trace-<workload>.json"
fi
