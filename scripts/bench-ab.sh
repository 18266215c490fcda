#!/usr/bin/env bash
# bench/README.md's A/B protocol ("Claiming a gain") as one command:
#
#   scripts/bench-ab.sh <workload> <base-rev> [pairs] [held-out-seed]
#   make bench-ab W=urban_olsr BASE=HEAD~1
#
# Exports both sides into a temporary directory — <base-rev>'s committed
# files, and as the change a snapshot of this working tree's tracked and
# unignored files — so each builds in a fresh directory without VCS
# stamping, as the benchmark contract's driver does. (serve.CodeVersion,
# part of every cache key, is otherwise 3 bytes on one side and 46 on the
# other, which shows as 1 % of serve_warm's alloc_mb.) Then alternates
# `bench/run.sh --workload W --trace 0` parent/change for `pairs` pairs
# (default 10) at seed 1 and again at a held-out seed (default 47),
# swapping which side runs first every pair; edits made while it runs do
# not reach it. Prints every run, then per seed and end-to-end metric both
# sides' medians and quartiles, the pair wins, whether the median gap
# clears the parent's own quartile spread, and whether the result digests
# of the `-detail` reports agree. Exits non-zero when a run fails or
# digests differ; the verdict on the timings is the reader's.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
workload=$1 base=$2 pairs=${3:-10} heldout=${4:-47}
seconds=10
metrics="wall_s cpu_s setup_s alloc_mb peak_rss_mb"

if [ ! -f bench/run.sh ]; then
	echo "bench-ab: run from the root of a cavenet checkout" >&2
	exit 2
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/change"
git archive "$base" | tar -x -C "$tmp/parent"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do [ ! -e "$f" ] || printf '%s\0' "$f"; done |
	xargs -0 cp --parents -t "$tmp/change"

# run <side> <dir> <seed> <pair>: one benchmark process; appends
# "side seed pair digest metric..." to $tmp/runs.
run() {
	local side=$1 dir=$2 seed=$3 pair=$4 out detail line digest vals=""
	detail="$tmp/$side.$seed.$pair.json"
	out=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 --detail "$detail") || {
		echo "bench-ab: $side run of $workload at seed $seed exited non-zero" >&2
		exit 1
	}
	line=$(printf '%s\n' "$out" | tail -n 1)
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "bench-ab: $side run failed verification: $line" >&2
		exit 1
		;;
	esac
	for m in $metrics; do
		vals="$vals $(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
	done
	digest=$(grep -o '"digest": *"[0-9a-f]*"' "$detail" | grep -o '[0-9a-f]\{64\}')
	echo "$side $seed $pair $digest$vals" >>"$tmp/runs"
	echo "seed $seed pair $pair $side:$vals  digest ${digest:0:12}"
}

echo "bench-ab: $workload, parent $(git rev-parse --short "$base") vs working tree, $pairs pairs at seeds 1 and $heldout ($metrics)"
for seed in 1 "$heldout"; do
	for pair in $(seq 1 "$pairs"); do
		if [ $((pair % 2)) -eq 1 ]; then
			run parent "$tmp/parent" "$seed" "$pair"
			run change "$tmp/change" "$seed" "$pair"
		else
			run change "$tmp/change" "$seed" "$pair"
			run parent "$tmp/parent" "$seed" "$pair"
		fi
	done
done

# Quartiles as Python's statistics.quantiles(values, n=4), the definition
# bench/README.md calibrates its spreads with.
status=0
for seed in 1 "$heldout"; do
	echo
	echo "seed $seed"
	col=5
	for m in $metrics; do
		awk -v seed="$seed" -v col="$col" -v m="$m" '
			function quart(x, n, k,    pos, lo, f) {
				pos = k * (n + 1) / 4; lo = int(pos); f = pos - lo
				if (lo < 1) return x[1]
				if (lo >= n) return x[n]
				return x[lo] + f * (x[lo + 1] - x[lo])
			}
			function sorted(src, n, dst,    i, j, t) {
				for (i = 1; i <= n; i++) dst[i] = src[i]
				for (i = 2; i <= n; i++) {
					t = dst[i]
					for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
					dst[j + 1] = t
				}
			}
			$2 == seed && $1 == "parent" { p[$3] = $col; n = $3 > n ? $3 : n }
			$2 == seed && $1 == "change" { c[$3] = $col }
			END {
				for (i = 1; i <= n; i++) { if (c[i] < p[i]) wins++; else if (c[i] > p[i]) losses++ }
				sorted(p, n, ps); sorted(c, n, cs)
				pm = quart(ps, n, 2); cm = quart(cs, n, 2)
				iqr = quart(ps, n, 3) - quart(ps, n, 1)
				gap = pm - cm
				printf "  %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  change wins %d/%d (loses %d)  median %s parent IQR %.3g\n",
					m, pm, quart(ps, n, 1), quart(ps, n, 3), cm, quart(cs, n, 1), quart(cs, n, 3),
					pm ? 100 * (cm - pm) / pm : 0, wins, n, losses,
					(gap > iqr ? "lower by more than" : (-gap > iqr ? "HIGHER by more than" : "within")), iqr
			}' "$tmp/runs"
		col=$((col + 1))
	done
	digests=$(awk -v seed="$seed" '$2 == seed { print $4 }' "$tmp/runs" | sort -u | wc -l)
	if [ "$digests" -eq 1 ]; then
		echo "  result digests: identical on all $((2 * pairs)) runs"
	else
		echo "  result digests: $digests DIFFERENT values across parent and change — the change moves results"
		status=1
	fi
done
exit $status
