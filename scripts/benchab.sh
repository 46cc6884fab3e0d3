#!/usr/bin/env bash
# benchab.sh measures the working tree against a base commit in alternating
# rounds, so both sides see the same host load, instead of against medians
# recorded at another time (make benchcmp-gate).
#
#   scripts/benchab.sh [-gate PATTERN...] [--] PATTERN...
#
# Each PATTERN is a benchmark name without its "Benchmark" prefix, as in
# the Makefile's GATED list (a pattern whose last level is not a leaf runs
# every sub-benchmark under it). BASE (environment) names the base commit:
# by default the merge-base with main, or HEAD~1 on main. The base is
# checked out with git worktree under .bench_build/ab, each side's test
# binaries are built once with go test -c, and every pattern runs once per
# side in each of five rounds, the base first in odd rounds. cmd/benchjson
# reduces the output and cmd/benchcmp compares: first the base and change
# medians over the five rounds, then the median of the per-round
# change/base ratios. With -gate, the listed patterns fail the run (exit 1)
# when that median ratio is above 1.15. HOGS=n (environment) starts n
# busy-loop processes for the duration of the run, to check the
# comparison on a loaded host.
set -euo pipefail

gate=()
if [ "${1:-}" = -gate ]; then
	shift
	while [ $# -gt 0 ] && [ "$1" != -- ]; do gate+=("$1"); shift; done
	[ "${1:-}" = -- ] && shift
fi
[ $# -gt 0 ] || { echo "usage: $0 [-gate PATTERN...] [--] PATTERN..." >&2; exit 2; }
patterns=("$@")

root=$(git rev-parse --show-toplevel)
cd "$root"
base=${BASE:-}
if [ -z "$base" ]; then
	if [ "$(git rev-parse --abbrev-ref HEAD)" = main ]; then base=HEAD~1; else base=$(git merge-base HEAD main); fi
fi
rev=$(git rev-parse --short "$base^{commit}")
work=$root/.bench_build/ab
wt=$work/base
hogs=()
cleanup() {
	for p in "${hogs[@]}"; do kill "$p" 2>/dev/null || true; done
	git worktree remove --force "$wt" >/dev/null 2>&1 || true
	git worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$work"
mkdir -p "$work"
git worktree add --detach "$wt" "$rev" >/dev/null 2>&1

# pkgs holds every package with a benchmark of the default list; binname
# names a side's test binary of one.
pkgs=(. internal/system)
binname() { if [ "$1" = . ]; then echo root.test; else echo "${1//\//_}.test"; fi; }
for side in base change; do
	src=$root
	[ $side = base ] && src=$wt
	for pkg in "${pkgs[@]}"; do
		(cd "$src" && go test -c -o "$work/$side-$(binname "$pkg")" "./$pkg")
	done
done

for ((i = 0; i < ${HOGS:-0}; i++)); do
	(while :; do :; done) &
	hogs+=($!)
done

# bench runs one pattern on one side, in the directory of the package that
# defines it, so its testdata resolves as under go test.
bench() {
	local side=$1 p=$2 src=$root pkg bin
	[ "$side" = base ] && src=$wt
	for pkg in "${pkgs[@]}"; do
		bin=$work/$side-$(binname "$pkg")
		if [ -n "$("$bin" -test.list "^Benchmark${p%%/*}\$")" ]; then
			(cd "$src/$pkg" && "$bin" -test.run '^$' -test.bench "^Benchmark$p\$" -test.benchmem -test.count 1 -test.timeout 10m)
			return
		fi
	done
	echo "benchab: no package defines Benchmark$p" >&2
	return 1
}

echo "benchab: base $rev vs the working tree, ${#patterns[@]} patterns, 5 rounds, ${HOGS:-0} busy loops"
for r in 1 2 3 4 5; do
	order=(base change)
	[ $((r % 2)) = 0 ] && order=(change base)
	echo "benchab: round $r: ${order[*]}" >&2
	for p in "${patterns[@]}"; do
		for side in "${order[@]}"; do
			bench "$side" "$p" | tee -a "$work/$side.out" >>"$work/$side-$r.out"
		done
	done
done

go build -o "$work/benchjson" ./cmd/benchjson
go build -o "$work/benchcmp" ./cmd/benchcmp
for side in base change; do
	"$work/benchjson" -out "$work/$side.json" <"$work/$side.out"
	for r in 1 2 3 4 5; do "$work/benchjson" -out "$work/$side-$r.json" <"$work/$side-$r.out"; done
done
echo
echo "medians of five rounds (base $rev, change = working tree):"
(cd "$work" && ./benchcmp base.json change.json)
for r in 1 2 3 4 5; do (cd "$work" && ./benchcmp "base-$r.json" "change-$r.json") | awk -v r=$r 'NR > 1 && NF == 8 { print r, $1, $4 }'; done >"$work/deltas"

# record maps a pattern to its benchjson record-name prefix.
record() { sed -E 's/([a-z0-9])([A-Z])/\1_\2/g; s/[\/=]/_/g' <<<"$1" | tr 'A-Z' 'a-z'; }
gates=""
for p in "${gate[@]}"; do gates="$gates $(record "$p")"; done
echo
echo "median of the per-round change/base ratios:"
awk -v gates="$gates" '
	{ d = $3; sub(/%$/, "", d); r[$2] = r[$2] " " (1 + d / 100) }
	END {
		n = split(gates, g, " ")
		fail = 0
		for (name in r) {
			k = split(substr(r[name], 2), v, " ")
			for (i = 1; i <= k; i++) for (j = i + 1; j <= k; j++) if (v[j] < v[i]) { t = v[i]; v[i] = v[j]; v[j] = t }
			med = v[int((k + 1) / 2)]
			mark = ""
			for (i = 1; i <= n; i++) if (name == g[i]) { mark = med > 1.15 ? "  GATE FAIL (> 1.15)" : "  gate ok"; if (med > 1.15) fail = 1 }
			printf "  %-48s %.3f  (rounds:%s)%s\n", name, med, r[name], mark
		}
		exit fail
	}' "$work/deltas" | sort
