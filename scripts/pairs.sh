#!/usr/bin/env bash
# Paired benchmark runs: a parent commit against this checkout, the way
# a PR that claims a gain has to be measured (at least ten pairs, each
# side from its own directory).
#
#   scripts/pairs.sh <parent-ref> <workload> [pairs] [dir]
#
# Checks <parent-ref> out into <dir>/parent with `git worktree add`
# (default dir: .bench_build/pairs; an existing <dir>/parent is reused,
# so several workloads share one parent build), builds both sides once
# with benchmark/run.sh, then for seeds 1..pairs (default 10) runs the
# workload on both sides, alternating which side goes first. Each side
# runs from its own checkout directory — the directory alone moved
# setup_s by 20% when one binary was run from the other's root — and
# appends to <dir>/parent.jsonl or <dir>/change.jsonl, which
# `benchmark/run.sh compare` reads at the end (exit 1 on any `worse`,
# over every workload run into <dir> so far).
# A run with a failed or wrong answer stops the script.
set -euo pipefail
ref=${1:?usage: scripts/pairs.sh <parent-ref> <workload> [pairs=10] [dir=.bench_build/pairs]}
workload=${2:?usage: scripts/pairs.sh <parent-ref> <workload> [pairs=10] [dir=.bench_build/pairs]}
pairs=${3:-10}
change=$(git rev-parse --show-toplevel)
dir=${4:-$change/.bench_build/pairs}
seconds=8 # BENCHMARK.json's run_seconds: what the driver runs
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
parent=$dir/parent
if [ ! -d "$parent" ]; then
	git -C "$change" worktree add --detach "$parent" "$ref"
fi

# One build per side; the smoke-scale run also proves the workload name.
for side in "$parent" "$change"; do
	(cd "$side" && bash benchmark/run.sh --workload "$workload" --short --seconds 0.2 --trace 0 > /dev/null)
done

run() { # <checkout root> <jsonl> <seed>
	(cd "$1" && .bench_build/misketch-benchmark --workload "$workload" --seed "$3" \
		--seconds "$seconds" --trace 0 --out "$2" | tail -n 1)
}
for seed in $(seq 1 "$pairs"); do
	if ((seed % 2)); then
		run "$parent" "$dir/parent.jsonl" "$seed"
		run "$change" "$dir/change.jsonl" "$seed"
	else
		run "$change" "$dir/change.jsonl" "$seed"
		run "$parent" "$dir/parent.jsonl" "$seed"
	fi
done
# compare lists every workload of BENCHMARK.json and exits 2 for those
# with no runs yet; show the ones that ran and fail only on a `worse`.
table=$(cd "$change" && bash benchmark/run.sh compare "$dir/parent.jsonl" "$dir/change.jsonl") || true
grep -v 'missing on one side' <<< "$table"
! grep -q ' worse$' <<< "$table"
