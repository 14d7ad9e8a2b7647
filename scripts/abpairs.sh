#!/usr/bin/env bash
# abpairs.sh PARENT CHANGE — compare Go microbenchmarks of two checkouts
# in interleaved pairs, across code layouts.
#
# PARENT and CHANGE are checkout directories, or revisions of the
# repository this script lives in (exported with git archive). Each
# side's test binary for PKG is built once per layout seed 0 … LAYOUTS-1
# with -ldflags=-randlayout=SEED (seed 0 is the linker's default layout),
# so a difference that only the placement of functions makes shows up as
# a spread across layouts instead of as a change. Then PAIRS pairs run
# the benchmarks matching BENCH at -cpu 1, 1s each: pair i uses layout
# i mod LAYOUTS on both sides, and the side that runs first alternates.
#
# Per benchmark it prints the median change/parent ratio of ns/op over
# the pairs, the fraction of pairs the change won (ran faster), and each
# side's spread across layouts: max/min − 1 of the per-layout medians.
# A ratio whose distance from 1 is inside the spreads is layout, not the
# change.
#
# Environment (defaults in brackets):
#   BENCH      benchmark regex, required
#   PKG        package to benchmark [./internal/core]
#   LAYOUTS    layout seeds per side [4]
#   PAIRS      interleaved pairs [10]
#   WORK       scratch directory for sources, binaries and results [mktemp -d]
#
# Example:
#   BENCH='ObjectCost/degree8$' scripts/abpairs.sh HEAD~1 .
#   BENCH='CostEvaluation$' PKG=. LAYOUTS=2 PAIRS=6 scripts/abpairs.sh main /path/to/checkout
set -euo pipefail

if [ $# -ne 2 ] || [ -z "${BENCH:-}" ]; then
	sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
fi
pkg=${PKG:-./internal/core}
layouts=${LAYOUTS:-4}
pairs=${PAIRS:-10}
work=${WORK:-$(mktemp -d)}
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# checkout SIDE ARG prints the directory holding SIDE's sources.
checkout() {
	if [ -d "$2" ]; then
		(cd "$2" && pwd)
		return
	fi
	rm -rf "${work:?}/$1"
	mkdir -p "$work/$1"
	git -C "$repo" archive "$2" | tar -x -C "$work/$1"
	echo "$work/$1"
}
declare -A dir
dir[parent]=$(checkout parent "$1")
dir[change]=$(checkout change "$2")

for side in parent change; do
	for ((seed = 0; seed < layouts; seed++)); do
		flags=()
		if [ "$seed" -ne 0 ]; then
			flags=(-ldflags="-randlayout=$seed")
		fi
		echo "abpairs: building $side layout $seed" >&2
		go test -C "${dir[$side]}" -c -o "$work/$side.$seed.test" "${flags[@]}" "$pkg"
	done
done

# run SIDE SEED PAIR appends "bench side seed pair ns/op" lines. The
# binary runs in the package directory, as go test would run it.
results="$work/results.tsv"
: >"$results"
run() {
	(cd "${dir[$1]}/$pkg" && "$work/$1.$2.test" -test.run '^$' -test.bench "$BENCH" \
		-test.cpu 1 -test.benchtime 1s) |
		awk -v side="$1" -v seed="$2" -v pair="$3" \
			'/^Benchmark/ { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") print $1, side, seed, pair, $i }' >>"$results"
}
for ((p = 0; p < pairs; p++)); do
	seed=$((p % layouts))
	echo "abpairs: pair $((p + 1))/$pairs, layout $seed" >&2
	if ((p % 2 == 0)); then
		run parent "$seed" "$p"
		run change "$seed" "$p"
	else
		run change "$seed" "$p"
		run parent "$seed" "$p"
	fi
done
if [ ! -s "$results" ]; then
	echo "abpairs: no benchmark in $pkg matches $BENCH" >&2
	exit 1
fi

awk '
function median(list,    n, a, i, j, t) {
	n = split(list, a, " ")
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] + 0 > a[j] + 0; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
{ ns[$1, $2, $4] = $5; layout[$1, $2, $3] = layout[$1, $2, $3] " " $5; seeds[$3]; benches[$1]; pairs[$4] }
END {
	printf "%-40s %9s %6s %13s %13s\n", "benchmark", "ratio", "won", "parent-spread", "change-spread"
	for (b in benches) {
		ratios = ""; won = 0; n = 0
		for (p in pairs) {
			if (!((b, "parent", p) in ns) || !((b, "change", p) in ns)) continue
			ratios = ratios " " ns[b, "change", p] / ns[b, "parent", p]
			won += ns[b, "change", p] < ns[b, "parent", p]; n++
		}
		if (n == 0) continue
		for (s = 0; s < 2; s++) {
			side = s ? "change" : "parent"; lo = ""; hi = ""
			for (seed in seeds) {
				if (!((b, side, seed) in layout)) continue
				m = median(layout[b, side, seed])
				if (lo == "" || m < lo) lo = m
				if (hi == "" || m > hi) hi = m
			}
			spread[side] = lo > 0 ? hi / lo - 1 : 0
		}
		printf "%-40s %9.4f %3d/%-2d %12.1f%% %12.1f%%\n", b, median(ratios), won, n, 100 * spread["parent"], 100 * spread["change"]
	}
}' "$results" | { read -r header; echo "$header"; sort; }
echo "abpairs: raw ns/op per run in $results" >&2
